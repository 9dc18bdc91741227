import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.special import zeta

from rangevol import (
    LN16,
    DensityValue,
    NonConvergenceError,
    SeriesConfig,
    analytics,
    bridge_estimator_pdf,
    bridge_hl_joint_pdf,
    bridge_range_pdf,
    close_pdf,
    densities,
    high_close_joint_pdf,
    high_pdf,
    hlc_joint_pdf,
    parkinson_estimator_pdf,
    range_close_joint_pdf,
    range_pdf,
)

QUAD = dict(limit=300, epsabs=1e-12)


def _bin_z(count, n, prob):
    return (count / n - prob) / math.sqrt(prob * (1 - prob) / n)


# ---------------------------------------------------------------------------
# close
# ---------------------------------------------------------------------------

def test_close_pdf_peak_and_shift():
    assert close_pdf(0.0, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-12)
    for g in (-2.0, 0.7, 5.0):
        assert close_pdf(g, g) == pytest.approx(0.3989422804014327, abs=1e-12)


def test_close_pdf_normalizes():
    val, _ = integrate.quad(lambda c: close_pdf(c, 1.3), -12, 14, **QUAD)
    assert abs(val - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# high and (high, close)
# ---------------------------------------------------------------------------

def test_high_close_support():
    assert high_close_joint_pdf(0.5, 0.6, 0.0).value == 0.0
    assert high_close_joint_pdf(-0.2, -0.5, 1.0).value == 0.0


def test_high_close_marginal_matches_half_normal():
    marg, _ = integrate.quad(lambda c: high_close_joint_pdf(1.0, c, 0.0).value, -10, 1.0, **QUAD)
    expect = math.sqrt(2 / math.pi) * math.exp(-0.5)
    assert abs(marg - expect) < 1e-6
    assert abs(expect - 0.483941) < 5e-7


def test_high_close_bin_against_simulation(extremes_samples):
    h, _, c, _, _ = extremes_samples
    prob, _ = integrate.dblquad(
        lambda cc, ee: high_close_joint_pdf(ee, cc, 0.0).value,
        0.9, 1.1, lambda e: 0.4, lambda e: 0.6, epsabs=1e-11,
    )
    count = int(((h >= 0.9) & (h < 1.1) & (c >= 0.4) & (c < 0.6)).sum())
    assert abs(_bin_z(count, h.size, prob)) < 3.0


def test_high_pdf_examples():
    assert high_pdf(1.0, 0.0).value == pytest.approx(math.sqrt(2 / math.pi) * math.exp(-0.5), abs=1e-12)
    assert high_pdf(-0.5, 0.0).value == 0.0
    norm, _ = integrate.quad(lambda e: high_pdf(e, 0.0).value, 0, 14, **QUAD)
    assert abs(norm - 1.0) < 1e-8


def test_high_pdf_sqrt2_variant_matches_joint_marginal():
    # the sqrt2 scaling is consistent at nonzero drift; the refuted half
    # scaling is checked against the same marginal in test_validation.py
    for eta in (0.5, 1.0, 2.0):
        marg, _ = integrate.quad(
            lambda c: high_close_joint_pdf(eta, c, 1.0).value, -12, eta, **QUAD
        )
        assert abs(high_pdf(eta, 1.0).value - marg) < 1e-6
    norm, _ = integrate.quad(lambda e: high_pdf(e, 1.0).value, 0, 15, **QUAD)
    assert abs(norm - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# (high, low, close)
# ---------------------------------------------------------------------------

def test_hlc_support():
    assert hlc_joint_pdf(0.2, 0.1, 0.15, 0.0).value == 0.0  # low must be negative
    assert hlc_joint_pdf(0.1, -1.0, 0.3, 0.0).value == 0.0  # high below close


def test_hlc_double_marginal_is_close_density():
    x, w = np.polynomial.legendre.leggauss(96)
    span = 8.0
    for gamma in (0.0, 1.0):
        for chi in (-1.0, 0.0, 1.0):
            e0, l0 = max(0.0, chi), min(0.0, chi)
            eta = e0 + (x + 1) * span / 2
            ell = l0 - (x + 1) * span / 2
            series, _ = densities._hlc_series_grid(eta[:, None], ell[None, :], chi, densities.DEFAULT_SERIES_CONFIG)
            mass = float(np.einsum("i,j,ij->", w, w, series)) * (span / 2) ** 2
            total = mass * close_pdf(chi, gamma)
            assert abs(total - close_pdf(chi, gamma)) < 1e-6


def test_hlc_bin_against_simulation(extremes_samples):
    h, l, c, _, _ = extremes_samples
    e_lo, e_hi, l_lo, l_hi, c_lo, c_hi = 0.7, 1.1, -0.9, -0.5, -0.3, 0.3
    count = int(
        ((h >= e_lo) & (h < e_hi) & (l >= l_lo) & (l < l_hi) & (c >= c_lo) & (c < c_hi)).sum()
    )
    x, w = np.polynomial.legendre.leggauss(24)

    def at(lo, hi):
        return lo + (x + 1) * (hi - lo) / 2, w * (hi - lo) / 2

    eta, we = at(e_lo, e_hi)
    ell, wl = at(l_lo, l_hi)
    chis, wc = at(c_lo, c_hi)
    prob = 0.0
    for chi, wchi in zip(chis, wc):
        series, _ = densities._hlc_series_grid(eta[:, None], ell[None, :], chi, densities.DEFAULT_SERIES_CONFIG)
        prob += wchi * close_pdf(chi, 0.0) * float(np.einsum("i,j,ij->", we, wl, series))
    assert abs(_bin_z(count, h.size, prob)) < 3.0


def test_hlc_scalar_matches_grid():
    cfg = densities.DEFAULT_SERIES_CONFIG
    series, _ = densities._hlc_series_grid(np.array([1.0]), np.array([-1.0]), 0.3, cfg)
    assert hlc_joint_pdf(1.0, -1.0, 0.3, 0.0).value == pytest.approx(
        float(series[0]) * close_pdf(0.3, 0.0), rel=1e-12
    )


def _rogers_satchell_mean_3d(gamma):
    """E[h(h-c) + l(l-c)] by 3D quadrature of the (high, low, close) series.

    Adaptive in the close, 80 x 80 Gauss-Legendre over extremes within 8 of
    their bound; an independent route to the Rogers-Satchell mean, which is
    1 at any drift.
    """
    cfg = densities.DEFAULT_SERIES_CONFIG
    x, w = np.polynomial.legendre.leggauss(80)
    span = 8.0
    half = span / 2

    def inner(chi):
        e = (max(0.0, chi) + (x + 1) * half)[:, None]
        l = (min(0.0, chi) - (x + 1) * half)[None, :]
        series, _ = densities._hlc_series_grid(e, l, chi, cfg)
        g = e * (e - chi) + l * (l - chi)
        return float(np.einsum("i,j,ij->", w, w, series * g)) * half * half * close_pdf(chi, gamma)

    val, _ = integrate.quad(inner, gamma - span, gamma + span, limit=80, epsabs=1e-8, epsrel=1e-8)
    return val


@pytest.mark.parametrize("gamma", [0.0, 2.0])
def test_hlc_series_gives_unit_rogers_satchell_mean(gamma):
    assert abs(_rogers_satchell_mean_3d(gamma) - 1.0) < 1e-7


# ---------------------------------------------------------------------------
# (range, close) and range
# ---------------------------------------------------------------------------

def test_range_close_support():
    assert range_close_joint_pdf(0.5, 0.7, 0.0).value == 0.0
    assert range_close_joint_pdf(0.5, -0.7, 1.0).value == 0.0


def test_range_close_symmetric_in_close_at_zero_drift():
    for delta, chi in [(1.5, 0.3), (0.9, 0.6), (2.4, 1.0)]:
        a = range_close_joint_pdf(delta, chi, 0.0).value
        b = range_close_joint_pdf(delta, -chi, 0.0).value
        assert a == b


def test_range_close_marginal_matches_range_pdf():
    for delta, gamma in [(0.8, 0.0), (1.5, 0.0), (1.0, 1.0), (2.0, 1.0)]:
        marg, _ = integrate.quad(
            lambda c: range_close_joint_pdf(delta, c, gamma).value, -delta, delta,
            limit=300, epsabs=1e-11,
        )
        assert abs(marg - range_pdf(delta, gamma).value) < 1e-6


def test_range_close_bin_against_simulation(extremes_samples):
    h, l, c, _, _ = extremes_samples
    d = h - l
    count = int(((d >= 1.4) & (d < 1.6) & (c >= 0.2) & (c < 0.4)).sum())
    prob, _ = integrate.dblquad(
        lambda cc, dd: range_close_joint_pdf(dd, cc, 0.0).value,
        1.4, 1.6, lambda _: 0.2, lambda _: 0.4, epsabs=1e-10,
    )
    assert abs(_bin_z(count, d.size, prob)) < 3.0


def test_range_close_grid_matches_scalar():
    cfg = densities.DEFAULT_SERIES_CONFIG
    grid, _ = densities._range_close_series_grid(np.array([1.5, 0.9]), np.array([0.3, 0.2]), cfg)
    for i, (d, a) in enumerate([(1.5, 0.3), (0.9, 0.2)]):
        assert range_close_joint_pdf(d, a, 0.0).value == pytest.approx(
            float(grid[i]) * close_pdf(a, 0.0), rel=1e-12
        )


def test_range_pdf_normalization_and_moments():
    norm, _ = integrate.quad(lambda d: range_pdf(d).value, 0.02, 13, **QUAD)
    m2, _ = integrate.quad(lambda d: d * d * range_pdf(d).value, 0.02, 13, **QUAD)
    m4, _ = integrate.quad(lambda d: d**4 * range_pdf(d).value, 0.02, 15, **QUAD)
    assert abs(norm - 1.0) < 1e-8
    assert abs(m2 - LN16) < 1e-8
    assert abs(m4 - 9 * zeta(3)) < 1e-6


def test_range_pdf_drift_form_matches_zero_drift_form():
    grid = np.linspace(0.1, 5.0, 100)
    cfg = SeriesConfig()
    worst = 0.0
    for d in grid:
        zero = range_pdf(float(d), 0.0, cfg).value
        general = densities._sum_shells(
            lambda m: densities._range_shell_drift(m, float(d), 0.0), cfg, "check"
        )[0]
        worst = max(worst, abs(zero - general))
    assert worst < 1e-10


def test_range_pdf_normalizes_under_drift():
    for gamma in (0.5, 1.0, 2.0, -1.0):
        norm, _ = integrate.quad(
            lambda d: range_pdf(d, gamma).value, 0.02, 14 + 2 * abs(gamma), **QUAD
        )
        assert abs(norm - 1.0) < 1e-8


def test_range_pdf_edge_cases():
    assert range_pdf(-1.0).value == 0.0 and range_pdf(-1.0).converged
    floored = range_pdf(0.01)
    assert floored.value == 0.0 and not floored.converged
    with pytest.raises(NonConvergenceError):
        range_pdf(0.05, 0.0, SeriesConfig(min_terms=1, max_terms=3))


@pytest.mark.parametrize("args", [(1.0, math.nan), (math.nan,)], ids=["nan-drift", "nan-range"])
def test_range_pdf_non_finite_input_raises_fast(args):
    # a NaN shell term is never quiet; it must not spin to max_terms shells
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="non-finite shell term"):
        range_pdf(*args)
    assert time.perf_counter() - t0 < 1.0


def test_image_series_non_finite_term_raises():
    def shell(m, d):
        return np.where(d > 1.0, math.nan, 0.5**m), np.zeros_like(d)

    mask = np.array([True, True])
    with pytest.raises(ValueError, match="toy series: non-finite"):
        densities._image_series(shell, mask, (np.array([0.5, 2.0]),), SeriesConfig(), "toy series")


def test_range_pdf_nonnegative_on_grid():
    for gamma in (0.0, 1.0, 2.0):
        for d in np.linspace(0.02, 8.0, 300):
            v = range_pdf(float(d), gamma)
            assert v.value >= 0.0


def test_shell_magnitudes_eventually_monotone():
    # beyond m = ceil(2/delta) the shell sizes decrease monotonically
    for delta in (0.5, 1.0, 2.0):
        shells = [abs(densities._range_shell_zero(m, delta)) for m in range(1, 25)]
        start = math.ceil(2.0 / delta)
        tail = shells[start:]
        assert all(a >= b for a, b in zip(tail, tail[1:]))


# ---------------------------------------------------------------------------
# bridge densities
# ---------------------------------------------------------------------------

def test_bridge_hl_support():
    assert bridge_hl_joint_pdf(-0.1, -0.5).value == 0.0
    assert bridge_hl_joint_pdf(0.5, 0.1).value == 0.0


def test_bridge_hl_marginal_matches_bridge_range():
    for delta in (0.6, 1.0, 1.8):
        slice_integral, _ = integrate.quad(
            lambda e: bridge_hl_joint_pdf(e, e - delta).value,
            max(0.0, delta - 8), delta, limit=300, epsabs=1e-11,
        )
        assert abs(slice_integral - bridge_range_pdf(delta).value) < 1e-6


def test_bridge_hl_bin_against_simulation(extremes_samples):
    # 20k-sample slice: the inward shift of discrete extremes (~0.008 at
    # N=5000) must stay below the 3-SE resolution of the bin count
    _, _, _, xi, zeta = extremes_samples
    xi, zeta = xi[:20_000], zeta[:20_000]
    count = int(((xi >= 0.5) & (xi < 0.7) & (zeta >= -0.5) & (zeta < -0.3)).sum())
    prob, _ = integrate.dblquad(
        lambda l, e: bridge_hl_joint_pdf(e, l).value,
        0.5, 0.7, lambda _: -0.5, lambda _: -0.3, epsabs=1e-10,
    )
    assert abs(_bin_z(count, xi.size, prob)) < 3.0


def test_bridge_range_moments():
    norm, _ = integrate.quad(lambda d: bridge_range_pdf(d).value, 0.02, 7, **QUAD)
    m2, _ = integrate.quad(lambda d: d * d * bridge_range_pdf(d).value, 0.02, 7, **QUAD)
    m4, _ = integrate.quad(lambda d: d**4 * bridge_range_pdf(d).value, 0.02, 8, **QUAD)
    assert abs(norm - 1.0) < 1e-8
    assert abs(m2 - math.pi**2 / 6) < 1e-8
    assert abs(m4 - math.pi**4 / 30) < 1e-8


def test_bridge_range_small_argument_policy():
    below = bridge_range_pdf(0.015)
    assert below.value == 0.0 and not below.converged
    near = [bridge_range_pdf(float(d)).value for d in np.linspace(0.02, 0.3, 50)]
    assert min(near) >= 0.0  # cancellation junk is clamped, never negative


# ---------------------------------------------------------------------------
# image-series grid engine against a plain loop
# ---------------------------------------------------------------------------

def _reference_series(shell, mask, factor, cfg):
    """Every shell at every masked point until the quiet run.

    Returns (factor * sum on the mask and 0 off it, shells, max|t| per shell).
    """
    acc = 0.0
    quiet = 0
    peaks = []
    for m in range(1, cfg.max_terms + 1):
        t = shell(m)
        acc = acc + t
        peaks.append(float(np.max(np.abs(t))))
        if peaks[-1] < cfg.abs_tol:
            quiet += 1
            if quiet >= cfg.min_terms:
                total = np.zeros(mask.shape)
                total[mask] = factor * acc
                return total, m, peaks
        else:
            quiet = 0
    raise NonConvergenceError("reference loop did not converge")


def _reference_reflection(kernel, eta, ell, mask, factor, cfg):
    e = eta[mask]
    l = ell[mask]
    d = e - l

    def shell(m):
        t = np.zeros_like(d)
        for mm in (m, -m):
            t += mm * (mm * kernel(mm * d) + (1 - mm) * kernel(mm * d + l))
        return t

    return _reference_series(shell, mask, factor, cfg)


def _reference_hlc(eta, ell, chi, cfg):
    eta, ell = np.broadcast_arrays(eta, ell)
    mask = (eta > max(0.0, chi)) & (ell < min(0.0, chi)) & (eta - ell >= cfg.small_arg_floor)

    def kernel(u):
        return ((chi - 2.0 * u) ** 2 - 1.0) * np.exp(2.0 * u * (chi - u))

    return _reference_reflection(kernel, eta, ell, mask, 4.0, cfg)


def _reference_bridge_hl(eta, ell, cfg):
    eta, ell = np.broadcast_arrays(eta, ell)
    mask = (eta > 0.0) & (ell < 0.0) & (eta - ell >= cfg.small_arg_floor)

    def kernel(u):
        return 4.0 * (4.0 * u * u - 1.0) * np.exp(-2.0 * u * u)

    return _reference_reflection(kernel, eta, ell, mask, 1.0, cfg)


def _reference_range_close(delta, abs_chi, cfg):
    delta, abs_chi = np.broadcast_arrays(delta, abs_chi)
    mask = (delta > abs_chi) & (delta >= cfg.small_arg_floor)
    d = delta[mask]
    a = abs_chi[mask]

    def shell(m):
        t = np.zeros_like(d)
        for mm in (m, -m):
            u = a + 2.0 * mm * d
            t += mm * (mm * (d - a) * (u * u - 1.0) - (mm + 1) * u) * np.exp(
                -2.0 * mm * d * (a + mm * d)
            )
        return t

    return _reference_series(shell, mask, 4.0, cfg)


def _series_cases():
    cfg = densities.DEFAULT_SERIES_CONFIG
    cases = []
    for gamma in (0.0, 2.0):  # the Garman-Klass (range, close) grid
        delta, _ = analytics._gl_nodes(cfg.small_arg_floor, analytics._range_cut(gamma), 120)
        u, _ = analytics._gl_nodes(0.0, 1.0, 120)
        args = (delta[:, None], delta[:, None] * u[None, :])
        cases.append((f"range-close-{gamma}", densities._range_close_series_grid, _reference_range_close, args))
    x, _ = np.polynomial.legendre.leggauss(80)
    for chi in (0.0, 0.0174, -0.0174, 1.0):
        e = max(0.0, chi) + (x + 1) * 4.0
        l = min(0.0, chi) - (x + 1) * 4.0
        args = (e[:, None], l[None, :], chi)
        cases.append((f"hlc-{chi}", densities._hlc_series_grid, _reference_hlc, args))
    for lo, hi in ((0.0, 3.0), (3.0, 6.0)):
        e = lo + (x + 1) * (hi - lo) / 2
        args = (e[:, None], -e[None, :])
        cases.append((f"bridge-{lo}-{hi}", densities._bridge_hl_series_grid, _reference_bridge_hl, args))
    return cases


_SERIES_CASES = _series_cases()


@pytest.mark.parametrize(
    "name,grid,reference,args", _SERIES_CASES, ids=[case[0] for case in _SERIES_CASES]
)
def test_series_grid_bit_identical_to_plain_loop(name, grid, reference, args):
    cfg = densities.DEFAULT_SERIES_CONFIG
    values, shells = grid(*args, cfg)
    expect, expect_shells, peaks = reference(*args, cfg)
    assert np.array_equal(values, expect)
    assert shells == expect_shells
    if name == "bridge-3.0-6.0":
        # every point has retired before the quiet run ends: the engine
        # counts the last shell without evaluating it
        assert peaks[-2:] == [0.0, 0.0]


# ---------------------------------------------------------------------------
# estimator densities
# ---------------------------------------------------------------------------

def test_parkinson_estimator_pdf_moments():
    norm, _ = integrate.quad(lambda x: parkinson_estimator_pdf(x).value, 1e-6, 60, **QUAD)
    mean, _ = integrate.quad(lambda x: x * parkinson_estimator_pdf(x).value, 1e-6, 60, **QUAD)
    second, _ = integrate.quad(lambda x: x * x * parkinson_estimator_pdf(x).value, 1e-6, 70, **QUAD)
    assert abs(norm - 1.0) < 1e-8
    assert abs(mean - 1.0) < 1e-6
    assert abs((second - mean * mean) - 0.4073) < 1e-3
    assert parkinson_estimator_pdf(-0.3).value == 0.0


def test_bridge_estimator_pdf_moments():
    norm, _ = integrate.quad(lambda x: bridge_estimator_pdf(x).value, 1e-9, 14, **QUAD)
    mean, _ = integrate.quad(lambda x: x * bridge_estimator_pdf(x).value, 1e-9, 14, **QUAD)
    second, _ = integrate.quad(lambda x: x * x * bridge_estimator_pdf(x).value, 1e-9, 16, **QUAD)
    assert abs(norm - 1.0) < 1e-8
    assert abs(mean - 1.0) < 1e-8
    assert abs(second - 1.2) < 1e-8
    assert bridge_estimator_pdf(0.0).value == 0.0


def test_series_config_validation():
    with pytest.raises(ValueError):
        SeriesConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        SeriesConfig(min_terms=10, max_terms=5)


def test_density_value_telemetry():
    v = range_pdf(1.5)
    assert isinstance(v, DensityValue)
    assert v.terms_used > 0 and v.converged and not v.clamped
    closed = high_pdf(1.0, 0.0)
    assert closed.terms_used == 0
