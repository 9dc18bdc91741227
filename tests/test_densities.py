import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy.special import zeta

from rangevol import (
    LN16,
    DensityValue,
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
            series, _ = densities._hlc_series_grid(eta[:, None], ell[None, :], chi)
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
        series, _ = densities._hlc_series_grid(eta[:, None], ell[None, :], chi)
        prob += wchi * close_pdf(chi, 0.0) * float(np.einsum("i,j,ij->", we, wl, series))
    assert abs(_bin_z(count, h.size, prob)) < 3.0


def test_hlc_scalar_matches_grid():
    series, _ = densities._hlc_series_grid(np.array([1.0]), np.array([-1.0]), 0.3)
    assert hlc_joint_pdf(1.0, -1.0, 0.3, 0.0).value == pytest.approx(
        float(series[0]) * close_pdf(0.3, 0.0), rel=1e-12
    )


def _rogers_satchell_mean_3d(gamma):
    """E[h(h-c) + l(l-c)] by 3D quadrature of the (high, low, close) series.

    Adaptive in the close, 80 x 80 Gauss-Legendre over extremes within 8 of
    their bound; an independent route to the Rogers-Satchell mean, which is
    1 at any drift.
    """
    x, w = np.polynomial.legendre.leggauss(80)
    span = 8.0
    half = span / 2

    def inner(chi):
        e = (max(0.0, chi) + (x + 1) * half)[:, None]
        l = (min(0.0, chi) - (x + 1) * half)[None, :]
        series, _ = densities._hlc_series_grid(e, l, chi)
        g = e * (e - chi) + l * (l - chi)
        return float(np.einsum("i,j,ij->", w, w, series * g)) * half * half * close_pdf(chi, gamma)

    val, _ = integrate.quad(inner, gamma - span, gamma + span, limit=80, epsabs=1e-8, epsrel=1e-8)
    return val


def test_hlc_low_mass_is_the_integral_of_the_series():
    def series(eta, ell, chi):
        return float(densities._hlc_series_grid(np.float64(eta), np.float64(ell), chi)[0])

    for eta, chi, lo, hi in [(1.1, 0.3, -0.8, -0.2), (0.7, -0.4, -2.0, -0.5), (2.0, 1.0, -3.0, 0.0)]:
        mass, _ = densities._hlc_low_mass_grid(eta, lo, hi, chi)
        expect, _ = integrate.quad(lambda l: series(eta, l, chi), lo, hi,
                                   epsabs=1e-14, epsrel=1e-14, limit=200)
        assert abs(float(mass) - expect) < 1e-12
    # over the whole low: the (high, close) density over the close density
    for eta, chi, gamma in [(1.1, 0.3, 0.0), (0.5, -1.2, 1.0), (2.5, 1.5, -2.0)]:
        mass, _ = densities._hlc_low_mass_grid(eta, -60.0, 0.0, chi)
        expect = high_close_joint_pdf(eta, chi, gamma).value / close_pdf(chi, gamma)
        assert abs(float(mass) - expect) < 1e-12


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
    grid, _ = densities._range_close_series_grid(np.array([1.5, 0.9]), np.array([0.3, 0.2]))
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
    # the drifted image form at gamma = 0, with shells enough to converge
    # down to d = 0.1, against the zero-drift law
    worst = 0.0
    for d in np.linspace(0.1, 5.0, 100):
        general = float(densities._range_image(float(d), 0.0, shells=64)[1])
        worst = max(worst, abs(range_pdf(float(d), 0.0).value - general))
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# the range laws against 60-digit references
# ---------------------------------------------------------------------------

def _mp_range_h(d, gamma):
    """H(d) = E (d - D)^+ of the range at drift gamma, theta dual at 60 digits."""
    d, g = mp.mpf(d), mp.mpf(gamma)
    return mp.fsum(
        4 * a * d * (1 - (-1) ** n * mp.cosh(g * d)) * mp.exp(-a / (2 * d * d) - g * g / 2)
        / (g * g * d * d + a) ** 2
        for n in range(1, int(12 * d) + 13) for a in [(mp.pi * n) ** 2]
    )


def _mp_bridge_cdf(s):
    """Kuiper's law at 60 digits: the image sum from s = 0.5, its dual below."""
    if s >= 0.5:
        return 1 - 2 * mp.nsum(
            lambda m: (4 * m * m * s * s - 1) * mp.exp(-2 * m * m * s * s), [1, mp.inf])
    return mp.sqrt(2 * mp.pi) * mp.pi**2 / s**3 * mp.nsum(
        lambda k: k * k * mp.exp(-mp.pi**2 * k * k / (2 * s * s)), [1, mp.inf])


_SWITCH_EPS = 1e-9
_LAW_POINTS = (0.1, 0.3, 0.5, 1.0, densities._SWITCH - _SWITCH_EPS,
               densities._SWITCH + _SWITCH_EPS, 2.0, 4.0)


def _law_tolerance(d):
    # exp(-pi^2 / (2 d^2)) carries the relative error of its exponent,
    # pi^2 / (2 d^2) ulps: 5.5e-14 at d = 0.1
    return 2e-15 * (4.0 + math.pi**2 / (2.0 * d * d))


@pytest.mark.parametrize("gamma", [0.0, 0.25, 1.0, 2.0, -1.0])
def test_range_law_matches_60_digit_reference(gamma):
    # H' is the CDF and H'' the density; the derivatives are taken
    # numerically at 60 digits, independently of the closed forms
    law, _ = densities._range_law(densities.EstimatorKind.PARKINSON, gamma)
    cdf, pdf = law(np.array(_LAW_POINTS))
    with mp.workdps(60):
        for i, d in enumerate(_LAW_POINTS):
            ref_cdf = mp.diff(lambda t: _mp_range_h(t, gamma), d, 1)
            ref_pdf = mp.diff(lambda t: _mp_range_h(t, gamma), d, 2)
            tol = _law_tolerance(d)
            assert abs(cdf[i] - ref_cdf) <= tol * ref_cdf, (d, cdf[i], ref_cdf)
            assert abs(1.0 - cdf[i] - (1 - ref_cdf)) <= 1e-15, d
            assert abs(pdf[i] - ref_pdf) <= tol * ref_pdf, (d, pdf[i], ref_pdf)
            assert range_pdf(d, gamma).value == pytest.approx(pdf[i], rel=1e-15)


def test_bridge_law_matches_60_digit_reference():
    law, _ = densities._range_law(densities.EstimatorKind.BRIDGE, 0.0)
    cdf, pdf = law(np.array(_LAW_POINTS))
    with mp.workdps(60):
        for i, s in enumerate(_LAW_POINTS):
            ref_cdf = _mp_bridge_cdf(mp.mpf(s))
            ref_pdf = mp.diff(_mp_bridge_cdf, mp.mpf(s))
            tol = _law_tolerance(s)
            assert abs(cdf[i] - ref_cdf) <= tol * ref_cdf, (s, cdf[i], ref_cdf)
            assert abs(1.0 - cdf[i] - (1 - ref_cdf)) <= 1e-15, s
            assert abs(pdf[i] - ref_pdf) <= tol * ref_pdf, (s, pdf[i], ref_pdf)
            assert bridge_range_pdf(s).value == pytest.approx(pdf[i], rel=1e-15)


@pytest.mark.parametrize("gamma", [0.0, 0.25, 1.0, 2.0, -1.0])
def test_range_dual_and_image_agree_on_overlap(gamma):
    d = np.linspace(1.0, 2.5, 151)
    for dual, image in ((densities._range_dual(d, gamma), densities._range_image(d, gamma)),
                        (densities._bridge_dual(d), densities._bridge_image(d))):
        assert np.max(np.abs(dual[0] - image[0])) < 1e-14
        assert np.max(np.abs(dual[1] - image[1])) < 1e-14


def test_range_laws_are_the_cdf_derivative():
    # the density is the derivative of the CDF on both sides of the switch
    d = np.array([0.4, 0.9, 1.45, 1.55, 2.5, 5.0])
    h = 1e-5
    for gamma in (0.0, 1.5):
        law, _ = densities._range_law(densities.EstimatorKind.PARKINSON, gamma)
        slope = (law(d + h)[0] - law(d - h)[0]) / (2.0 * h)
        assert np.max(np.abs(slope - law(d)[1])) < 1e-9


def test_range_pdf_normalizes_under_drift():
    for gamma in (0.5, 1.0, 2.0, -1.0):
        norm, _ = integrate.quad(
            lambda d: range_pdf(d, gamma).value, 0.02, 14 + 2 * abs(gamma), **QUAD
        )
        assert abs(norm - 1.0) < 1e-8


def test_range_pdf_edge_cases():
    # no floor: below the old 0.02 series floor the law returns its true
    # value, which underflows to 0 there, and is converged everywhere
    assert range_pdf(-1.0).value == 0.0 and range_pdf(-1.0).converged
    assert range_pdf(0.0).value == 0.0 and range_pdf(0.0).terms_used == 0
    for gamma in (0.0, 2.0):
        tiny = range_pdf(0.01, gamma)
        assert tiny.value == 0.0 and tiny.converged and not tiny.clamped
    small = range_pdf(0.05)
    assert small.converged and small.terms_used == densities._DUAL_A.size
    assert 0.0 < range_pdf(0.1).value == pytest.approx(3.812527e-208, rel=1e-6)
    assert range_pdf(3.0).terms_used == densities._IMAGE_SHELLS
    above = math.nextafter(densities._SWITCH, math.inf)
    for density in (range_pdf, bridge_range_pdf):
        assert density(densities._SWITCH).terms_used == densities._DUAL_A.size
        assert density(above).terms_used == densities._IMAGE_SHELLS
    law, _ = densities._range_law(densities.EstimatorKind.PARKINSON, 1.0)
    cdf, pdf = law(np.array([-1.0, 0.0, math.nan, 0.01]))
    assert not cdf.any() and not pdf.any()


@pytest.mark.parametrize("args", [(1.0, math.nan), (math.nan,)], ids=["nan-drift", "nan-range"])
def test_range_pdf_non_finite_input_raises_fast(args):
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="range_pdf: (gamma|delta) must be finite, got nan"):
        range_pdf(*args)
    with pytest.raises(ValueError, match="bridge_range_pdf: delta must be finite"):
        bridge_range_pdf(args[-1])
    assert time.perf_counter() - t0 < 1.0


def test_finish_rejects_negative_value_beyond_round_off():
    # round-off is 1e-11 below 0
    clamped = densities._finish(-5e-12, 3)
    assert clamped.value == 0.0 and clamped.clamped and clamped.terms_used == 3
    with pytest.raises(ValueError, match="negative beyond round-off"):
        densities._finish(-2e-11, 3)


NON_FINITE_CASES = [
    (high_pdf, (1.0, math.nan), "gamma"),
    (high_pdf, (math.inf, 0.5), "eta"),
    (high_close_joint_pdf, (1.0, 0.5, math.nan), "gamma"),
    (high_close_joint_pdf, (1.0, -math.inf, 0.5), "chi"),
    (hlc_joint_pdf, (1.0, -0.5, 0.2, math.nan), "gamma"),
    (hlc_joint_pdf, (1.0, math.nan, 0.2, 0.5), "ell"),
    (range_close_joint_pdf, (math.nan, 0.1, 0.0), "delta"),
    (bridge_hl_joint_pdf, (math.nan, -0.1), "eta"),
    (bridge_hl_joint_pdf, (0.5, math.nan), "ell"),
    (close_pdf, (0.2, math.nan), "gamma"),
    (close_pdf, (math.inf, 0.0), "chi"),
    (analytics.rogers_satchell_mean, (math.nan,), "gamma"),
    (analytics.garman_klass_mean, (math.nan,), "gamma"),
    (analytics.garman_klass_mean, (-math.inf,), "gamma"),
    (parkinson_estimator_pdf, (-1.0, math.nan), "gamma"),
    (parkinson_estimator_pdf, (math.nan,), "x"),
    (bridge_estimator_pdf, (math.nan,), "x"),
]


@pytest.mark.parametrize("func, args, name", NON_FINITE_CASES,
                         ids=[f"{f.__name__}-{a}" for f, a, _ in NON_FINITE_CASES])
def test_closed_forms_reject_non_finite_input(func, args, name):
    # the Gaussian close factor or the quadrature nodes would carry a NaN
    # through without any shell series seeing it
    with pytest.raises(ValueError, match=f"{func.__name__}: {name} must be finite"):
        func(*args)


def test_image_series_non_finite_term_raises():
    def shell(m, d):
        return np.where(d > 1.0, math.nan, 0.5**m), np.zeros_like(d)

    mask = np.array([True, True])
    with pytest.raises(ValueError, match="toy series: non-finite"):
        densities._image_series(shell, mask, (np.array([0.5, 2.0]),), "toy series")


def test_range_pdf_nonnegative_on_grid():
    for gamma in (0.0, 1.0, 2.0):
        for d in np.linspace(0.02, 8.0, 300):
            v = range_pdf(float(d), gamma)
            assert v.value >= 0.0


def test_shell_magnitudes_eventually_monotone():
    # beyond m = ceil(2/delta) the contribution of image shell m (the images
    # k = +-m) to the range density falls monotonically until it reaches
    # round-off, and the shells the law leaves out are below round-off from
    # d = 1 on
    round_off = 8.0 * np.finfo(float).eps
    for gamma in (0.0, 1.0, 2.0):
        for delta in (1.0, 1.5, 2.0, 4.0):
            sums = [densities._range_image(delta, gamma, shells)[1] for shells in range(1, 12)]
            tail = np.abs(np.diff(sums))[math.ceil(2.0 / delta) - 1:]
            live = int(np.argmax(tail <= round_off)) if (tail <= round_off).any() else tail.size
            assert np.all(tail[live:] <= round_off)
            assert all(a >= b for a, b in zip(tail[:live], tail[1:live]))
            assert live < densities._IMAGE_SHELLS
            full = densities._range_image(delta, gamma, 30)
            law = densities._range_image(delta, gamma)
            assert abs(law[1] - full[1]) <= round_off and abs(law[0] - full[0]) <= round_off


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
    # no floor: the dual form returns the true density near 0, positive and
    # increasing where it does not underflow, and converged
    below = bridge_range_pdf(0.015)
    assert below.value == 0.0 and below.converged and not below.clamped
    near = [bridge_range_pdf(float(d)) for d in np.linspace(0.1, 0.3, 50)]
    values = [v.value for v in near]
    assert all(v.converged and not v.clamped for v in near)
    assert 0.0 < values[0] and all(a < b for a, b in zip(values, values[1:]))
    s = 0.3
    dual = math.sqrt(2 * math.pi) * sum(
        k * k * math.pi**2 * (math.pi**2 * k * k / s**2 - 3.0) * math.exp(-math.pi**2 * k * k / (2 * s * s))
        for k in range(1, 4)) / s**4
    assert bridge_range_pdf(s).value == pytest.approx(dual, rel=1e-13)


def test_below_mass_floor_only_round_off():
    # Below densities._MASS_FLOOR the range laws carry under 2e-22 of mass, so
    # the float series must return round-off only.  Its shell terms sum in
    # absolute value to about 1/delta^3 (a Gaussian second moment in
    # m delta), so round-off is a few machine epsilons over delta^3:
    # 1.3e-13 at the mass floor, 4e-10 at the series floor.
    assert densities._MASS_FLOOR == 0.3
    deltas = np.linspace(0.02, densities._MASS_FLOOR, 141)
    bound = 16.0 * np.finfo(float).eps / deltas**3
    for gamma in (0.0, 1.0, 2.0, 5.0):
        values = np.array([range_pdf(float(d), gamma).value for d in deltas])
        assert np.all(np.abs(values) <= bound), gamma
    values = np.array([bridge_range_pdf(float(d)).value for d in deltas])
    assert np.all(np.abs(values) <= bound)


# ---------------------------------------------------------------------------
# image-series grid engine against a plain loop
# ---------------------------------------------------------------------------

_UNDERFLOW = -745.14  # exp(x) is exactly 0.0 in float64 for every x below this


def _reference_series(shell, mask, factor, cutoff):
    """Every shell at every masked point; a point stops adding after the
    first shell whose largest exponent is below ``cutoff``, and the loop
    ends when every point has stopped.

    Returns (factor * sum on the mask and 0 off it, shells).
    """
    acc = 0.0
    live = np.ones(int(mask.sum()), dtype=bool)
    m = 0
    while live.any():
        m += 1
        t, top = shell(m)
        acc = np.where(live, acc + t, acc)
        live &= top >= cutoff
    total = np.zeros(mask.shape)
    total[mask] = factor * acc
    return total, m


def _reference_reflection(kernel, eta, ell, mask, factor, cutoff):
    e = eta[mask]
    l = ell[mask]
    d = e - l

    def shell(m):
        t = np.zeros_like(d)
        top = np.full_like(d, -np.inf)
        for mm in (m, -m):
            (k1, x1), (k2, x2) = kernel(mm * d), kernel(mm * d + l)
            t += mm * (mm * k1 + (1 - mm) * k2)
            top = np.maximum(top, np.maximum(x1, x2))
        return t, top

    return _reference_series(shell, mask, factor, cutoff)


def _reference_hlc(eta, ell, chi, cutoff=densities._CUTOFF):
    eta, ell = np.broadcast_arrays(eta, ell)
    mask = (eta > max(0.0, chi)) & (ell < min(0.0, chi)) & (eta - ell >= densities._MASS_FLOOR)

    def kernel(u):
        x = 2.0 * u * (chi - u)
        return ((chi - 2.0 * u) ** 2 - 1.0) * np.exp(x), x

    return _reference_reflection(kernel, eta, ell, mask, 4.0, cutoff)


def _reference_bridge_hl(eta, ell, cutoff=densities._CUTOFF):
    eta, ell = np.broadcast_arrays(eta, ell)
    mask = (eta > 0.0) & (ell < 0.0) & (eta - ell >= densities._MASS_FLOOR)

    def kernel(u):
        x = -2.0 * u * u
        return 4.0 * (4.0 * u * u - 1.0) * np.exp(x), x

    return _reference_reflection(kernel, eta, ell, mask, 1.0, cutoff)


def _reference_range_close(delta, abs_chi, cutoff=densities._CUTOFF):
    delta, abs_chi = np.broadcast_arrays(delta, abs_chi)
    mask = (delta > abs_chi) & (delta >= densities._MASS_FLOOR)
    d = delta[mask]
    a = abs_chi[mask]

    def shell(m):
        t = np.zeros_like(d)
        top = np.full_like(d, -np.inf)
        for mm in (m, -m):
            u = a + 2.0 * mm * d
            x = -2.0 * mm * d * (a + mm * d)
            t += mm * (mm * (d - a) * (u * u - 1.0) - (mm + 1) * u) * np.exp(x)
            top = np.maximum(top, x)
        return t, top

    return _reference_series(shell, mask, 4.0, cutoff)


def _reference_hlc_low_mass(eta, lo, hi, chi, cutoff=densities._CUTOFF):
    """Image mm of the (h, l, c) series integrates over the low to
    mm / 2 [G(mm d + l) - G(mm d)], d = eta - l, G(u) = (chi - 2u) exp(2u(chi - u)),
    taken between the ends lo and hi."""
    eta, lo, hi = np.broadcast_arrays(eta, lo, hi)
    hi = np.minimum(hi, np.minimum(min(0.0, chi), eta - densities._MASS_FLOOR))
    mask = (eta > max(0.0, chi)) & (lo < hi)
    e, a, b = eta[mask], lo[mask], hi[mask]

    def shell(m):
        t = np.zeros_like(e)
        top = np.full_like(e, -np.inf)
        for mm in (m, -m):
            for ell, half in ((b, 0.5 * mm), (a, -0.5 * mm)):
                for u, coef in ((mm * (e - ell) + ell, half), (mm * (e - ell), -half)):
                    x = 2.0 * u * (chi - u)
                    t += coef * (chi - 2.0 * u) * np.exp(x)
                    top = np.maximum(top, x)
        return t, top

    return _reference_series(shell, mask, 4.0, cutoff)


def _series_cases():
    cases = []
    for gamma in (0.0, 2.0):  # the full-domain GK oracle grid, from below the mass floor
        delta, _ = analytics._gl_nodes(0.02, analytics._range_cut(gamma), 120)
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
    for chi in (0.0, -0.5, 1.0):
        e = max(0.0, chi) + (x[::2] + 1) * 4.0
        lo = min(0.0, chi) - (x[::2] + 1) * 4.0
        args = (e[:, None], lo[None, :], lo[None, :] + 0.7, chi)
        cases.append((f"hlc-low-mass-{chi}", densities._hlc_low_mass_grid, _reference_hlc_low_mass, args))
    return cases


_SERIES_CASES = _series_cases()


@pytest.mark.parametrize(
    "name,grid,reference,args", _SERIES_CASES, ids=[case[0] for case in _SERIES_CASES]
)
def test_series_grid_bit_identical_to_plain_loop(name, grid, reference, args):
    values, shells = grid(*args)
    expect, expect_shells = reference(*args)
    assert np.array_equal(values, expect)
    assert shells == expect_shells


@pytest.mark.parametrize(
    "name,grid,reference,args", _SERIES_CASES, ids=[case[0] for case in _SERIES_CASES]
)
def test_series_grid_matches_sum_to_underflow(name, grid, reference, args):
    # the cutoff leaves out only terms below exp(-50) at ranges >= the mass floor
    values, _ = grid(*args)
    expect, _ = reference(*args, cutoff=_UNDERFLOW)
    assert np.max(np.abs(values - expect)) <= 1e-15


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


TABLES_GAMMAS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)


@pytest.mark.parametrize("kind, gamma", [(densities.EstimatorKind.PARKINSON, g)
                                         for g in TABLES_GAMMAS + (-1.0,)]
                         + [(densities.EstimatorKind.BRIDGE, 0.0)])
def test_estimator_pdf_is_the_range_law_on_a_theory_grid(kind, gamma):
    # the one-point estimator density reads the same form of the same law as
    # the array law, on the grid shape of the benchmark's theory workload
    xs = np.sort(np.random.default_rng(7).uniform(0.01, 6.0, 600))
    law, alpha = densities._range_law(kind, gamma)
    if kind is densities.EstimatorKind.PARKINSON:
        def pdf(x):
            return parkinson_estimator_pdf(x, gamma)
    else:
        pdf = bridge_estimator_pdf
    d = np.sqrt(alpha * xs)
    expect = np.sqrt(alpha / (4.0 * xs)) * law(d)[1]
    terms = np.where(d <= densities._SWITCH, densities._DUAL_A.size, densities._IMAGE_SHELLS)
    for x, value, n in zip(xs, expect, terms):
        got = pdf(float(x))
        assert got.value == pytest.approx(value, rel=1e-15, abs=0.0), x
        assert got.terms_used == n and got.converged and not got.clamped, x
    for x in (-1.0, 0.0):
        assert pdf(x) == DensityValue(0.0, 0, True)


_LAW_CASES = [(densities.EstimatorKind.PARKINSON, g) for g in TABLES_GAMMAS + (-1.0,)] + [
    (densities.EstimatorKind.BRIDGE, 0.0)]


@pytest.mark.parametrize("kind, gamma", _LAW_CASES, ids=lambda v: getattr(v, "value", v))
def test_range_laws_are_exactly_their_limit_at_the_cut(kind, gamma):
    # the float law is already exactly (1, 0) where the cut takes over
    law, _ = densities._range_law(kind, gamma)
    cut = densities._LIMIT + (abs(gamma) if kind is densities.EstimatorKind.PARKINSON else 0.0)
    cdf, pdf = law(np.array([cut - 1.0, cut, math.nextafter(cut, math.inf)]))
    assert cdf.tolist() == [1.0] * 3 and pdf.tolist() == [0.0] * 3


@pytest.mark.parametrize("x", [1e154, 1e300, 1e308, math.inf])
def test_range_laws_give_their_limit_at_huge_ranges(x):
    for kind, gamma in _LAW_CASES:
        law, _ = densities._range_law(kind, gamma)
        cdf, pdf = law(np.array([x]))
        assert (cdf[0], pdf[0]) == (1.0, 0.0), (kind, gamma)
        assert analytics._estimator_cdf(kind, gamma, [x], None)[0] == 1.0, (kind, gamma)
    if math.isfinite(x):
        for gamma in TABLES_GAMMAS + (-1.0,):
            assert range_pdf(x, gamma) == DensityValue(0.0, 0, True)
            assert parkinson_estimator_pdf(x, gamma) == DensityValue(0.0, 0, True)
        assert bridge_range_pdf(x) == DensityValue(0.0, 0, True)
        assert bridge_estimator_pdf(x) == DensityValue(0.0, 0, True)


@pytest.mark.parametrize("x", [1e154, 1e200, 1e308])
def test_public_densities_give_their_limit_at_huge_arguments(x):
    # past a cut where every exponent is below -800 the float value is
    # already 0; the squares of such arguments would overflow
    zero = DensityValue(0.0, 0, True)
    assert close_pdf(x, 0.0) == 0.0 and close_pdf(-x, 1.0) == 0.0
    assert high_pdf(x, 1.0) == zero and high_pdf(x, -1.0) == zero
    assert high_close_joint_pdf(x, 0.0, 0.0) == zero and high_close_joint_pdf(1.0, -x, 0.0) == zero
    assert hlc_joint_pdf(x, -1.0, 0.0, 0.0) == zero and hlc_joint_pdf(0.5, -x, 0.0, 0.0) == zero
    assert range_close_joint_pdf(x, 0.0, 0.0) == zero
    assert bridge_hl_joint_pdf(x, -x) == zero and bridge_hl_joint_pdf(0.5, -x) == zero


def test_cached_tables_are_read_only():
    # every later call with the same arguments shares the cached arrays
    for table in densities._image_terms(0.75, densities._IMAGE_SHELLS) + analytics._leggauss(24):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


def test_density_value_telemetry():
    v = range_pdf(1.5)
    assert isinstance(v, DensityValue)
    assert v.terms_used > 0 and v.converged and not v.clamped
    closed = high_pdf(1.0, 0.0)
    assert closed.terms_used == 0


def test_joint_densities_start_at_the_mass_floor():
    # below a range of 0.3 the joint series return only round-off, so the
    # pointwise joint densities return 0, flagged as not converged
    floor = densities._MASS_FLOOR
    for delta, inside in ((floor - 1e-9, False), (floor, True), (0.6, True)):
        for value in (hlc_joint_pdf(0.5 * delta, -0.5 * delta, 0.0, 1.0),
                      range_close_joint_pdf(delta, 0.1, 1.0),
                      bridge_hl_joint_pdf(0.5 * delta, -0.5 * delta)):
            assert value.converged is inside
            assert (value.terms_used > 0) is inside
            if not inside:
                assert value.value == 0.0
