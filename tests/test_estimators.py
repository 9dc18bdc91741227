import math

import numpy as np
import pytest

from rangevol import (
    BRIDGE_FACTOR,
    LN16,
    EstimatorKind,
    GarmanKlassVariant,
    Path,
    simulate_path,
)
from rangevol.estimators import (
    bridge_value,
    estimator_value,
    garman_klass_value,
    parkinson_value,
    rogers_satchell_value,
)
from rangevol.paths import bridge_extremes, extremes


def test_parkinson_normalization_point():
    d = math.sqrt(LN16)
    assert abs(parkinson_value(d, 0.0) - 1.0) < 1e-12
    assert parkinson_value(0.0, 0.0) == 0.0


def test_garman_klass_direct_arithmetic():
    # 0.511 * 4 - 0.0109 * (0 * 2 - 2 * (-1)) - 0 = 2.0222
    assert abs(garman_klass_value(1.0, -1.0, 0.0) - 2.0222) < 1e-12
    assert garman_klass_value(0.0, 0.0, 0.0) == 0.0


def test_garman_klass_variants_differ():
    h, l, c = 1.0, -0.5, 0.7
    hl = garman_klass_value(h, l, c, GarmanKlassVariant.HIGH_LOW_CROSS)
    hc = garman_klass_value(h, l, c, GarmanKlassVariant.HIGH_CLOSE_CROSS)
    d = h - l
    assert abs(hl - (0.511 * d * d - 0.0109 * (c * d - 2 * h * l) - 0.383 * c**2)) < 1e-15
    assert abs(hc - (0.511 * d * d - 0.0109 * (c * d - 2 * h * c) - 0.383 * c**2)) < 1e-15
    assert hl != hc


def test_rogers_satchell_examples():
    assert rogers_satchell_value(0.8, 0.0, 0.8) == 0.0
    assert rogers_satchell_value(1.0, -1.0, 0.0) == 2.0


def test_rogers_satchell_subformulas_nonnegative():
    # at c = h the value is l(l-h); at c = l it is h(h-l); both >= 0
    for h, l in [(0.9, -0.2), (0.4, -1.1), (0.0, -0.7)]:
        assert rogers_satchell_value(h, l, h) >= 0.0
        assert rogers_satchell_value(h, l, l) >= 0.0


def test_bridge_normalization_point():
    s = math.pi / math.sqrt(6.0)
    assert abs(bridge_value(s, 0.0) - 1.0) < 1e-12
    assert bridge_value(0.0, 0.0) == 0.0
    assert abs(BRIDGE_FACTOR * s * s - 1.0) < 1e-12


def test_homogeneity_degree_two():
    rng = np.random.default_rng(8)
    for _ in range(50):
        h = rng.uniform(0.1, 2.0)
        l = -rng.uniform(0.1, 2.0)
        c = rng.uniform(l, h)
        alpha = rng.uniform(0.1, 4.0)
        for fn, args in (
            (parkinson_value, (h, l)),
            (garman_klass_value, (h, l, c)),
            (rogers_satchell_value, (h, l, c)),
            (bridge_value, (h, l)),
        ):
            scaled = fn(*(alpha * a for a in args))
            assert scaled == pytest.approx(alpha**2 * fn(*args), rel=1e-12)


def test_parkinson_bridge_nonnegative_on_paths():
    for seed in range(20):
        p = simulate_path(100, -1.0 + seed * 0.1, seed=seed)
        e, b = extremes(p), bridge_extremes(p)
        assert parkinson_value(e.high, e.low) >= 0.0
        assert bridge_value(b.xi, b.zeta) >= 0.0


def test_bridge_estimator_drift_invariant():
    p = simulate_path(500, 0.0, seed=21)
    ramp = np.arange(501) / 500
    b = bridge_extremes(p)
    base = bridge_value(b.xi, b.zeta)
    for c in (-1.5, 0.6, 2.0):
        shifted = bridge_extremes(Path(values=p.values + c * ramp, n_steps=500, gamma=c))
        assert abs(bridge_value(shifted.xi, shifted.zeta) - base) < 1e-12


def test_estimator_value_dispatches_to_kernels():
    rng = np.random.default_rng(3)
    h, l, c = rng.uniform(0, 1, 7), rng.uniform(-1, 0, 7), rng.uniform(-0.5, 0.5, 7)
    xi, zeta = rng.uniform(0, 1, 7), rng.uniform(-1, 0, 7)
    expected = {
        EstimatorKind.PARKINSON: parkinson_value(h, l),
        EstimatorKind.ROGERS_SATCHELL: rogers_satchell_value(h, l, c),
        EstimatorKind.BRIDGE: bridge_value(xi, zeta),
    }
    for kind, want in expected.items():
        assert np.array_equal(estimator_value(kind, h, l, c, xi, zeta), want)
    for variant in GarmanKlassVariant:
        got = estimator_value(EstimatorKind.GARMAN_KLASS, h, l, c, variant=variant)
        assert np.array_equal(got, garman_klass_value(h, l, c, variant))
    with pytest.raises(ValueError, match="unknown estimator kind"):
        estimator_value("parkinson", h, l, c)


def test_physical_estimate_scaling():
    # log-price increments in, variance out: doubling the bar quadruples the estimate
    high, low, close = 0.03, -0.02, 0.01
    for kind in (EstimatorKind.PARKINSON, EstimatorKind.GARMAN_KLASS, EstimatorKind.ROGERS_SATCHELL):
        base = estimator_value(kind, high, low, close)
        assert estimator_value(kind, 2 * high, 2 * low, 2 * close) == pytest.approx(4 * base, rel=1e-12)
    assert estimator_value(EstimatorKind.PARKINSON, 0.0, 0.0, 0.0) == 0.0


def test_physical_matches_scaled_canonical():
    sigma, horizon = 0.25, 4.0
    scale = sigma * math.sqrt(horizon)
    p = simulate_path(300, 0.5, seed=33)
    e, b = extremes(p), bridge_extremes(p)
    canonical = (e.high, e.low, e.close, b.xi, b.zeta)
    physical = tuple(scale * v for v in canonical)
    for kind in EstimatorKind:
        phys = estimator_value(kind, *physical)
        assert phys == pytest.approx(sigma**2 * horizon * estimator_value(kind, *canonical),
                                     rel=1e-12)


def test_estimator_value_bridge_needs_bridge_extremes():
    # the bridge estimator reads intra-window path data that (h, l, c) does not hold
    for xi, zeta in ((None, None), (0.01, None), (None, -0.01)):
        with pytest.raises(ValueError, match="needs the bridge extremes xi and zeta"):
            estimator_value(EstimatorKind.BRIDGE, 0.03, -0.02, 0.01, xi, zeta)
    assert estimator_value(EstimatorKind.BRIDGE, 0.03, -0.02, 0.01, 0.01, -0.01) == bridge_value(
        0.01, -0.01)


def test_desk_run_sample_means(desk_summary):
    """Sample means at desk scale: Parkinson/G&K near 1 at zero drift,
    R&S near 1 for moderate drift (3% covers the discretization bias)."""
    summary, _ = desk_summary
    assert abs(summary.cell("parkinson", 0.0).mean - 1.0) < 0.03
    assert abs(summary.cell("garman-klass-hl", 0.0).mean - 1.0) < 0.03
    for gamma in (0.0, 1.0):
        assert abs(summary.cell("rogers-satchell", gamma).mean - 1.0) < 0.03
    cell = summary.cell("bridge", 0.0)
    assert abs(cell.mean - 1.0) < 0.03
    assert abs(cell.variance - 0.2) / 0.2 < 0.10
