import math

import numpy as np
import pytest

from rangevol import (
    BRIDGE_FACTOR,
    LN16,
    BridgeExtremes,
    EstimatorKind,
    Extremes,
    GarmanKlassVariant,
    Path,
    PhysicalBar,
    bridge_estimator,
    garman_klass,
    parkinson,
    physical_estimate,
    rogers_satchell,
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
    est = parkinson(Extremes(high=d, low=0.0, close=0.5))
    assert abs(est.value - 1.0) < 1e-12
    assert parkinson(Extremes(0.0, 0.0, 0.0)).value == 0.0


def test_garman_klass_direct_arithmetic():
    # 0.511 * 4 - 0.0109 * (0 * 2 - 2 * (-1)) - 0 = 2.0222
    est = garman_klass(Extremes(high=1.0, low=-1.0, close=0.0))
    assert abs(est.value - 2.0222) < 1e-12
    assert garman_klass(Extremes(0.0, 0.0, 0.0)).value == 0.0
    assert est.kind is EstimatorKind.GARMAN_KLASS and not est.negative


def test_garman_klass_variants_differ():
    e = Extremes(high=1.0, low=-0.5, close=0.7)
    hl = garman_klass(e, GarmanKlassVariant.HIGH_LOW_CROSS).value
    hc = garman_klass(e, GarmanKlassVariant.HIGH_CLOSE_CROSS).value
    d = e.high - e.low
    assert abs(hl - (0.511 * d * d - 0.0109 * (e.close * d - 2 * e.high * e.low) - 0.383 * e.close**2)) < 1e-15
    assert abs(hc - (0.511 * d * d - 0.0109 * (e.close * d - 2 * e.high * e.close) - 0.383 * e.close**2)) < 1e-15
    assert hl != hc


def test_rogers_satchell_examples():
    assert rogers_satchell(Extremes(high=0.8, low=0.0, close=0.8)).value == 0.0
    assert rogers_satchell(Extremes(high=1.0, low=-1.0, close=0.0)).value == 2.0


def test_rogers_satchell_subformulas_nonnegative():
    # at c = h the value is l(l-h); at c = l it is h(h-l); both >= 0
    for h, l in [(0.9, -0.2), (0.4, -1.1), (0.0, -0.7)]:
        assert rogers_satchell(Extremes(h, l, h)).value >= 0.0
        assert rogers_satchell(Extremes(h, l, l)).value >= 0.0


def test_bridge_normalization_point():
    s = math.pi / math.sqrt(6.0)
    assert abs(bridge_estimator(BridgeExtremes(xi=s, zeta=0.0)).value - 1.0) < 1e-12
    assert bridge_estimator(BridgeExtremes(0.0, 0.0)).value == 0.0
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
        assert parkinson(extremes(p)).value >= 0.0
        assert bridge_estimator(bridge_extremes(p)).value >= 0.0


def test_bridge_estimator_drift_invariant():
    p = simulate_path(500, 0.0, seed=21)
    ramp = np.arange(501) / 500
    base = bridge_estimator(bridge_extremes(p)).value
    for c in (-1.5, 0.6, 2.0):
        shifted = Path(values=p.values + c * ramp, n_steps=500, gamma=c)
        assert abs(bridge_estimator(bridge_extremes(shifted)).value - base) < 1e-12


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
    bar = PhysicalBar(high=0.03, low=-0.02, close=0.01, horizon=1.0)
    for kind in (EstimatorKind.PARKINSON, EstimatorKind.GARMAN_KLASS, EstimatorKind.ROGERS_SATCHELL):
        base = physical_estimate(bar, None, kind).value
        scaled_bar = PhysicalBar(high=0.06, low=-0.04, close=0.02, horizon=1.0)
        assert physical_estimate(scaled_bar, None, kind).value == pytest.approx(4 * base, rel=1e-12)
    zero = PhysicalBar(high=0.0, low=0.0, close=0.0, horizon=1.0)
    assert physical_estimate(zero, None, EstimatorKind.PARKINSON).value == 0.0
    assert not physical_estimate(bar, None, EstimatorKind.PARKINSON).canonical


def test_physical_matches_scaled_canonical():
    sigma, horizon = 0.25, 4.0
    scale = sigma * math.sqrt(horizon)
    p = simulate_path(300, 0.5, seed=33)
    e = extremes(p)
    bar = PhysicalBar(high=scale * e.high, low=scale * e.low, close=scale * e.close, horizon=horizon)
    for kind, canon in (
        (EstimatorKind.PARKINSON, parkinson(e).value),
        (EstimatorKind.GARMAN_KLASS, garman_klass(e).value),
        (EstimatorKind.ROGERS_SATCHELL, rogers_satchell(e).value),
    ):
        phys = physical_estimate(bar, None, kind).value
        assert phys == pytest.approx(sigma**2 * horizon * canon, rel=1e-12)
    be = bridge_extremes(p)
    phys_bridge = physical_estimate(
        bar, BridgeExtremes(scale * be.xi, scale * be.zeta), EstimatorKind.BRIDGE
    ).value
    assert phys_bridge == pytest.approx(sigma**2 * horizon * bridge_estimator(be).value, rel=1e-12)


def test_physical_estimate_bridge_argument_contract():
    bar = PhysicalBar(high=0.03, low=-0.02, close=0.01, horizon=1.0)
    with pytest.raises(ValueError, match="requires bridge extremes"):
        physical_estimate(bar, None, EstimatorKind.BRIDGE)
    with pytest.raises(ValueError, match="only meaningful"):
        physical_estimate(bar, BridgeExtremes(0.01, -0.01), EstimatorKind.PARKINSON)


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
