import math
import re
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from rangevol import (
    EstimatorKind,
    GarmanKlassVariant,
    analytics,
    bridge_estimator_pdf,
    close_pdf,
    coverage_probability,
    densities,
    garman_klass_mean,
    high_close_joint_pdf,
    interval_probability,
    mean_range_squared_series,
    parkinson_estimator_pdf,
    paths,
    relative_bias,
    rogers_satchell_mean,
    theoretical_moments,
)
from rangevol.cli import main
from rangevol.estimators import GK_K1, GK_K2, GK_K3, estimator_value

LN16 = math.log(16.0)

# closed forms of the zero-drift Garman-Klass means, derived from
# E[d^2] = ln 16, E[cd] = 0, E[hl] = 1 - 2 ln 2, E[hc] = 1/2, E[c^2] = 1
GK_HL_MEAN_0 = 0.511 * LN16 - 0.0109 * (4 * math.log(2) - 2) - 0.383
GK_HC_MEAN_0 = 0.511 * LN16 + 0.0109 - 0.383


def test_series_one_term():
    assert mean_range_squared_series(1) == pytest.approx(2 + 2 / 3, abs=1e-15)


def test_series_converges_to_ln16():
    t0 = time.time()
    value = mean_range_squared_series(100_000)
    elapsed = time.time() - t0
    assert abs(value - LN16) < 1e-10
    assert elapsed < 0.1


def test_series_tail_bound_at_ten_terms():
    # oracle: direct partial summation; the tail after M terms is bounded
    # by integral dm / (2 m^3) = 1/(4 M^2), and that bound is sharp to
    # within 10% here (the actual 10-term deficit is 2.265e-3)
    deficit = LN16 - mean_range_squared_series(10)
    assert 0.0 < deficit < 1.0 / (4 * 10**2)
    assert deficit == pytest.approx(2.2648e-3, abs=1e-6)


def test_series_rejects_zero_terms():
    with pytest.raises(ValueError):
        mean_range_squared_series(0)


def test_parkinson_moments_zero_drift():
    report = theoretical_moments(EstimatorKind.PARKINSON, 0.0)
    assert abs(report.mean - 1.0) < 1e-6
    assert abs(report.variance - 0.407) < 1e-3
    assert report.method == "quadrature"


def test_parkinson_mean_grows_with_drift():
    m0 = theoretical_moments(EstimatorKind.PARKINSON, 0.0).mean
    m1 = theoretical_moments(EstimatorKind.PARKINSON, 1.0).mean
    assert m1 > m0 and m1 > 1.0
    assert m1 == pytest.approx(1.3768118847, abs=1e-8)


def test_parkinson_mean_even_in_drift():
    plus = theoretical_moments(EstimatorKind.PARKINSON, 1.0)
    minus = theoretical_moments(EstimatorKind.PARKINSON, -1.0)
    assert abs(plus.mean - minus.mean) < 1e-8


def test_bridge_moments():
    report = theoretical_moments(EstimatorKind.BRIDGE, 0.0)
    assert abs(report.mean - 1.0) < 1e-8
    assert abs(report.variance - 0.2) < 1e-6
    assert report.method == "closed-form"


def test_bridge_moments_drift_independent():
    a = theoretical_moments(EstimatorKind.BRIDGE, 0.0)
    b = theoretical_moments(EstimatorKind.BRIDGE, 2.0)
    assert a.mean == b.mean and a.variance == b.variance and a.relative_bias == b.relative_bias


def test_garman_klass_means_match_closed_forms():
    assert garman_klass_mean(0.0) == pytest.approx(GK_HL_MEAN_0, abs=1e-9)
    assert garman_klass_mean(0.0, variant=GarmanKlassVariant.HIGH_CLOSE_CROSS) == pytest.approx(
        GK_HC_MEAN_0, abs=1e-9
    )
    # bias grows with drift for both cross terms
    assert garman_klass_mean(1.0) > garman_klass_mean(0.0)


def test_rogers_satchell_mean_is_unit_for_all_drifts():
    for gamma in (-1.5, 0.0, 1.0, 2.0, 3.0):
        assert abs(rogers_satchell_mean(gamma) - 1.0) < 1e-10


@pytest.mark.parametrize("gamma", [300.0, -300.0, 1000.0, -1000.0])
def test_range_moments_hold_the_mass_at_large_drifts(gamma, monkeypatch):
    # the range is at least |c| with c ~ N(gamma, 1), so its mass lies within
    # about 10 of |gamma|; a 256-panel rule over the whole range is the oracle
    law, _ = densities._range_law(EstimatorKind.PARKINSON, gamma)
    d, w = analytics._gl_nodes(densities._MASS_FLOOR, analytics._range_cut(gamma), 24, panels=256)
    mass = w * law(d, density=True)
    e_d2, e_d4 = float(mass @ (d * d)), float(mass @ (d * d) ** 2)
    parkinson = theoretical_moments(EstimatorKind.PARKINSON, gamma).mean
    assert parkinson == pytest.approx(e_d2 / LN16, rel=1e-9)
    if abs(gamma) == 1000.0:  # E d^2 = gamma^2 + 3 + O(1 / gamma^2)
        assert parkinson == pytest.approx(360_674.8423, rel=1e-9)
    means = [garman_klass_mean(gamma, variant=v) for v in GarmanKlassVariant]
    # S is kept per drift: clear it on both sides, so that the means below are
    # recomputed from the oracle's E d^2 and no other test reads that S
    analytics._second_moments.cache_clear()
    monkeypatch.setattr(analytics, "_range_moments", lambda g: (e_d2, e_d4))
    try:
        for variant, mean in zip(GarmanKlassVariant, means):
            assert mean > 0.0
            assert mean == pytest.approx(garman_klass_mean(gamma, variant=variant), rel=1e-9)
        assert analytics._second_moments.cache_info().misses == 1
    finally:
        analytics._second_moments.cache_clear()


@pytest.mark.parametrize("gamma", [2e5, 1e8, 1e20, -1e20])
def test_range_moments_reject_a_lost_table_at_huge_drifts(gamma):
    # the table's mass is off 1 by 1.5e-5 at 2e5 and by -12.6 at 1e8; at 1e20
    # its panels have no width and its mass is 0, where the Parkinson mean
    # read 0.0, the Rogers-Satchell mean 0.0 and the Garman-Klass mean -3.83e39
    message = re.escape(f"at drift {gamma!r}: its quadrature table has mass")
    for call in (lambda: theoretical_moments(EstimatorKind.PARKINSON, gamma),
                 lambda: rogers_satchell_mean(gamma),
                 lambda: garman_klass_mean(gamma)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=message):
                call()


TABLES_DRIFTS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
PER_DRIFT_TABLES = (analytics._range_moments, analytics._second_moments)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("gamma", TABLES_DRIFTS + (1000.0, -1000.0, -0.0))
@pytest.mark.parametrize("table", PER_DRIFT_TABLES, ids=lambda t: t.__name__)
def test_per_drift_tables_keep_their_computation(table, gamma):
    # the cache returns what the computation returns, bit for bit, and the
    # computation repeats itself
    if gamma == 0.0:
        table(0.0)  # -0.0 shares this key, so it reads this entry
    kept = table(gamma)
    assert _bits(kept) == _bits(table.__wrapped__(gamma)) == _bits(table.__wrapped__(gamma))


def test_second_moments_are_read_only():
    s = analytics._second_moments(0.5)
    assert not s.flags.writeable
    with pytest.raises(ValueError):
        s[0, 1] = 0.0


def test_tables_mean_integrates_the_range_law_once_per_drift(capsys):
    for table in PER_DRIFT_TABLES:
        table.cache_clear()
    assert main(["tables", "--table", "mean"]) == 0
    capsys.readouterr()
    assert analytics._range_moments.cache_info().misses == len(TABLES_DRIFTS)
    assert analytics._second_moments.cache_info().misses == len(TABLES_DRIFTS)


# Variances from the exact (high, low, close) law at gamma = 0, 1, 2; the
# zero-drift Rogers-Satchell value is the 0.331 of Rogers, Satchell & Yoon
# (1994).  Garman-Klass is the default high-low cross-term variant.
EXACT_VARIANCES = {
    EstimatorKind.ROGERS_SATCHELL: (0.331011, 0.359992, 0.413364),
    EstimatorKind.GARMAN_KLASS: (0.283585, 0.379396, 0.627598),
}


def test_gk_rs_reports_use_exact_variance():
    for kind, variances in EXACT_VARIANCES.items():
        for gamma, variance in zip((0.0, 1.0, 2.0), variances):
            report = theoretical_moments(kind, gamma)
            assert report.method == "quadrature"
            assert abs(report.variance - variance) < 1e-5
            if kind is EstimatorKind.GARMAN_KLASS and gamma == 0.0:
                assert abs(report.mean - GK_HL_MEAN_0) < 1e-8  # the 2D mean
                assert report.relative_bias == pytest.approx(0.0254 / math.sqrt(variance), abs=1e-3)


def test_relative_bias_bridge_zero():
    assert abs(relative_bias(EstimatorKind.BRIDGE, 1.7)) < 1e-6


def test_relative_bias_parkinson():
    assert abs(relative_bias(EstimatorKind.PARKINSON, 0.0)) < 1e-4
    rho_half = relative_bias(EstimatorKind.PARKINSON, 0.5)
    rho_one = relative_bias(EstimatorKind.PARKINSON, 1.0)
    rho_two = relative_bias(EstimatorKind.PARKINSON, 2.0)
    assert 0.0 < rho_half < rho_one < rho_two


def test_relative_bias_parkinson_matches_simulation(desk_summary):
    # simulation cross-check: biases mostly cancel in the ratio
    summary, _ = desk_summary
    cell = summary.cell("parkinson", 2.0)
    rho_hat = (cell.mean - 1.0) / math.sqrt(cell.variance)
    se_hat = cell.mean_se / math.sqrt(cell.variance)
    assert abs(relative_bias(EstimatorKind.PARKINSON, 2.0) - rho_hat) < 3 * se_hat + 0.02


def test_interval_probabilities():
    fb2 = interval_probability(EstimatorKind.BRIDGE, 0.0, 2.0)
    fp2 = interval_probability(EstimatorKind.PARKINSON, 0.0, 2.0)
    assert abs(fb2 - 0.918) < 1e-3
    assert abs(fp2 - 0.813) < 1e-3
    assert fb2 > fp2


def test_interval_probability_saturates():
    assert abs(interval_probability(EstimatorKind.BRIDGE, 0.0, 1e6) - 1.0) < 1e-6
    assert abs(interval_probability(EstimatorKind.PARKINSON, 0.0, 1e6) - 1.0) < 1e-6


def test_interval_probability_monotone_in_level():
    values = [
        interval_probability(EstimatorKind.BRIDGE, 0.0, level)
        for level in (0.5, 1.0, 2.0, 5.0, 50.0)
    ]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_interval_probability_validates():
    with pytest.raises(ValueError):
        interval_probability(EstimatorKind.BRIDGE, 0.0, 0.0)


def test_coverage_probability_analytic_values():
    assert coverage_probability(EstimatorKind.BRIDGE) == pytest.approx(0.884026, abs=1e-4)
    assert coverage_probability(EstimatorKind.PARKINSON, 0.0) == pytest.approx(0.738673, abs=1e-4)


def test_coverage_probability_degenerate_band_is_zero():
    from scipy import integrate

    from rangevol.densities import bridge_estimator_pdf

    val, _ = integrate.quad(lambda x: bridge_estimator_pdf(x).value, 0.5, 0.5)
    assert val == 0.0


def test_coverage_dominance_of_bridge_analytic():
    bridge = coverage_probability(EstimatorKind.BRIDGE)
    previous = 1.0
    for gamma in (0.0, 0.5, 1.0, 1.5, 2.0):
        park = coverage_probability(EstimatorKind.PARKINSON, gamma)
        assert bridge > park
        assert park <= previous  # drift only hurts Parkinson coverage
        previous = park


def test_coverage_probability_exact_kinds():
    # P_delta from the exact (high, low, close) law, no simulation
    assert abs(coverage_probability(EstimatorKind.ROGERS_SATCHELL, 0.0) - 0.766050) < 1e-5
    assert abs(coverage_probability(EstimatorKind.ROGERS_SATCHELL, 1.0) - 0.740290) < 1e-5
    assert abs(coverage_probability(EstimatorKind.GARMAN_KLASS, 0.0) - 0.820368) < 1e-5


@pytest.mark.parametrize("gamma", [0.0, 2.0])
def test_gk_rs_laws_have_unit_mass(gamma):
    # the whole (high, low, close) law, through the distribution function
    # of each estimator and through the 3D moment
    for kind, variant in ((EstimatorKind.ROGERS_SATCHELL, GarmanKlassVariant.HIGH_LOW_CROSS),
                          (EstimatorKind.GARMAN_KLASS, GarmanKlassVariant.HIGH_LOW_CROSS),
                          (EstimatorKind.GARMAN_KLASS, GarmanKlassVariant.HIGH_CLOSE_CROSS)):
        below, above = analytics._estimator_cdf(kind, gamma, (-1e6, 1e6), variant)
        assert below == 0.0
        assert abs(above - 1.0) < 1e-10
    assert abs(analytics._hlc_moment(lambda h, l, c: 1.0, gamma) - 1.0) < 1e-10


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_gk_rs_cdf_converged_in_the_high(gamma, monkeypatch):
    # the rule in the high is split at every kink of the low's mass, so
    # doubling its order twice moves the distribution function by < 1e-9
    xs = np.linspace(0.0, 6.0, 13)
    kinds = (EstimatorKind.ROGERS_SATCHELL, EstimatorKind.GARMAN_KLASS)

    def cdfs():
        return [analytics._estimator_cdf(kind, gamma, xs, GarmanKlassVariant.HIGH_LOW_CROSS)
                for kind in kinds]

    coarse = cdfs()
    monkeypatch.setattr(analytics, "_HIGH_NODES", 4 * analytics._HIGH_NODES)
    for kind, c, f in zip(kinds, coarse, cdfs()):
        assert np.max(np.abs(c - f)) < 1e-9, kind


_JOINT_KINDS = ((EstimatorKind.ROGERS_SATCHELL, GarmanKlassVariant.HIGH_LOW_CROSS),
                (EstimatorKind.GARMAN_KLASS, GarmanKlassVariant.HIGH_LOW_CROSS),
                (EstimatorKind.GARMAN_KLASS, GarmanKlassVariant.HIGH_CLOSE_CROSS))


def _second_moment(kind, variant, gamma):
    return analytics._hlc_moment(
        lambda h, l, c: estimator_value(kind, h, l, c, variant=variant) ** 2, gamma)


@pytest.mark.parametrize("gamma", [0.0, 0.25, 2.0])
def test_gk_rs_fixed_rule_matches_adaptive_quadrature(gamma):
    # the fixed rule in the close against quad_vec at 1e-12 over the same
    # integrands; the CDF's breakpoints are 0 and the corner kinks, without
    # which quad_vec misses GK-hl at gamma 0.25, x 2 by 5.8e-11
    xs = np.array([0.1, 0.5, 1.0, 2.0, 4.0])
    x, w = analytics._gl_nodes(0.0, 8.0, 80)
    opts = dict(epsabs=1e-12, epsrel=1e-12, limit=2000)
    for kind, variant in _JOINT_KINDS:
        def form(h, l, c):
            return estimator_value(kind, h, l, c, variant=variant)

        corner = np.concatenate([analytics._roots(lambda c: form(c, 0.0, c) - xs)[1],
                                 analytics._roots(lambda c: form(0.0, c, c) - xs)[0]])
        points = [0.0] + [p for p in corner if abs(p - gamma) < 8.0]
        cdf, _ = integrate.quad_vec(
            lambda c: analytics._cdf_given_close(kind, xs, np.array(c), variant) * close_pdf(c, gamma),
            gamma - 8.0, gamma + 8.0, points=points, **opts)
        assert np.max(np.abs(analytics._estimator_cdf(kind, gamma, xs, variant) - cdf)) < 1e-11, kind

        def second(c):
            e, l = max(0.0, c) + x[:, None], min(0.0, c) - x
            series, _ = densities._hlc_series_grid(e, l, c)
            return np.einsum("i,j,ij->", w, w, series * form(e, l, c) ** 2) * close_pdf(c, gamma)

        m2, _ = integrate.quad_vec(second, gamma - 8.0, gamma + 8.0, points=(0.0,), **opts)
        assert abs(_second_moment(kind, variant, gamma) - m2) < 1e-11, kind


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_gk_rs_converged_in_the_close(gamma, monkeypatch):
    # doubling the nodes of every panel of the rule in the close moves the
    # distribution function and E[estimator^2] by < 1e-13
    xs = np.linspace(0.0, 6.0, 13)

    def statistics():
        return np.concatenate([np.append(analytics._estimator_cdf(kind, gamma, xs, variant),
                                          _second_moment(kind, variant, gamma))
                               for kind, variant in _JOINT_KINDS])

    coarse = statistics()
    monkeypatch.setattr(analytics, "_CLOSE_NODES", 2 * analytics._CLOSE_NODES)
    assert np.max(np.abs(statistics() - coarse)) < 1e-13


def test_gk_rs_laws_match_simulation_with_shifted_extremes():
    """Seeded cross-check of the exact laws.  Extremes read off N grid points
    undershoot the continuous ones by about 0.5826 / sqrt(N) per side
    (Asmussen-Glynn-Pitman 1995), so the simulated extremes are shifted out
    by that much before the estimators are formed."""
    n_paths, n_steps = 20_000, 1_000
    shift = 0.5826 / math.sqrt(n_steps)
    h, l, c = paths.batch_extremes(17, n_paths, n_steps, (0.0,), bridge=False)[0][0]
    h, l = h + shift, l - shift
    for kind in (EstimatorKind.GARMAN_KLASS, EstimatorKind.ROGERS_SATCHELL):
        v = estimator_value(kind, h, l, c)
        dev = v - v.mean()
        var = float(dev.var())
        var_se = math.sqrt((float(np.mean(dev**4)) - var * var) / n_paths)
        assert abs(var - theoretical_moments(kind, 0.0).variance) < 4 * var_se
        p = float(np.mean((v > 0.5) & (v < 2.0)))
        p_se = math.sqrt(p * (1.0 - p) / n_paths)
        assert abs(p - coverage_probability(kind, 0.0)) < 4 * p_se


def test_coverage_agreement_with_simulation(gof_summary):
    # at large step counts the sampled coverage approaches the quadrature value
    for kind, label in ((EstimatorKind.BRIDGE, "bridge"), (EstimatorKind.PARKINSON, "parkinson")):
        cell = gof_summary.cell(label, 0.0)
        analytic = coverage_probability(kind, 0.0)
        assert abs(cell.p_delta - analytic) < 3 * cell.p_delta_se


def test_moment_report_validates():
    with pytest.raises(ValueError):
        analytics.MomentReport(
            estimator=EstimatorKind.BRIDGE, gamma=0.0, mean=1.0, variance=-0.1,
            relative_bias=0.0, method="quadrature",
        )


# ---------------------------------------------------------------------------
# Oracle: quadratures of the estimator density in the estimator variable x
# ---------------------------------------------------------------------------

ORACLE_QUAD = dict(limit=400, epsabs=1e-10, epsrel=1e-10)
ORACLE_LEVELS = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0)
ORACLE_FLOOR = 0.02  # the oracles start far below the mass floor of 0.3


def _x_space(kind, gamma):
    """Estimator pdf, support cut and the oracle floor in x = d^2 / alpha."""
    if kind is EstimatorKind.PARKINSON:
        alpha, cut = LN16, 13.0 + abs(gamma)

        def pdf(x):
            return parkinson_estimator_pdf(x, gamma).value
    else:
        alpha, cut = math.pi**2 / 6.0, 13.0

        def pdf(x):
            return bridge_estimator_pdf(x).value
    return pdf, cut * cut / alpha, ORACLE_FLOOR**2 / alpha


def _x_integral(kind, gamma, power, lo, hi=None):
    """Integral of x**power times the estimator density over [lo, hi]."""
    pdf, x_cut, x_floor = _x_space(kind, gamma)
    hi = x_cut if hi is None else hi
    if lo >= hi:
        return 0.0
    points = [x_floor] if lo < x_floor < hi else None
    val, _ = integrate.quad(lambda x: x**power * pdf(x), lo, hi, points=points, **ORACLE_QUAD)
    return val


@pytest.mark.parametrize(
    "kind,gamma",
    [(EstimatorKind.PARKINSON, g) for g in (0.0, 1.0, 2.0)] + [(EstimatorKind.BRIDGE, 0.0)],
    ids=["parkinson-0", "parkinson-1", "parkinson-2", "bridge"],
)
def test_range_space_statistics_match_estimator_space_oracle(kind, gamma):
    # F(N) = Pr{x > 1/N}, P_delta = Pr{1/2 < x < 2} and the moments of x,
    # integrated in x against the estimator density
    for level in ORACLE_LEVELS:
        expect = min(max(_x_integral(kind, gamma, 0, 1.0 / level), 0.0), 1.0)
        assert abs(interval_probability(kind, gamma, level) - expect) < 1e-12
    assert abs(coverage_probability(kind, gamma) - _x_integral(kind, gamma, 0, 0.5, 2.0)) < 1e-12
    mean = _x_integral(kind, gamma, 1, 0.0)
    second = _x_integral(kind, gamma, 2, 0.0)
    report = theoretical_moments(kind, gamma)
    assert abs(report.mean - mean) < 1e-12
    assert abs(report.variance - (second - mean * mean)) < 1e-12


@pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda k: k.value)
def test_public_entries_reject_non_finite_drift(kind):
    for name, call in (
        ("theoretical_moments", lambda: theoretical_moments(kind, math.nan)),
        ("interval_probability", lambda: interval_probability(kind, math.nan, 2.0)),
        ("coverage_probability", lambda: coverage_probability(kind, math.nan)),
    ):
        with pytest.raises(ValueError, match=f"^{name}: gamma must be finite, got nan$"):
            call()


@pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda k: k.value)
def test_moment_report_fields_are_python_floats(kind):
    # the CLI prints these; a numpy scalar would print as np.float64(...)
    report = theoretical_moments(kind, 0.0)
    assert type(report.mean) is float
    assert type(report.variance) is float


# ---------------------------------------------------------------------------
# Oracle: the quadratures over the whole domain, from range 0.02
# ---------------------------------------------------------------------------

def _full_domain_integral(kind, gamma, power, lo=0.0, hi=math.inf):
    """Range integral from ORACLE_FLOOR, not the mass floor, one power per quad."""
    if kind is EstimatorKind.PARKINSON:
        def density(d):
            return densities.range_pdf(d, gamma)
    else:
        density = densities.bridge_range_pdf
    cut = 13.0 + abs(gamma) if kind is EstimatorKind.PARKINSON else 7.0
    lo, hi = max(lo, ORACLE_FLOOR), min(hi, cut)
    if lo >= hi:
        return 0.0
    val, _ = integrate.quad(lambda d: d**power * density(d).value, lo, hi, **ORACLE_QUAD)
    return val


@pytest.mark.parametrize(
    "kind,gamma",
    [(EstimatorKind.PARKINSON, g) for g in (0.0, 1.0, 2.0)] + [(EstimatorKind.BRIDGE, 0.0)],
    ids=["parkinson-0", "parkinson-1", "parkinson-2", "bridge"],
)
def test_mass_floor_matches_full_domain_oracle(kind, gamma):
    alpha = analytics._alpha(kind)
    for level in ORACLE_LEVELS:
        expect = _full_domain_integral(kind, gamma, 0, math.sqrt(alpha / level))
        assert abs(interval_probability(kind, gamma, level) - min(max(expect, 0.0), 1.0)) < 1e-12
    expect = _full_domain_integral(kind, gamma, 0, math.sqrt(alpha / 2.0), math.sqrt(2.0 * alpha))
    assert abs(coverage_probability(kind, gamma) - expect) < 1e-12
    mean = _full_domain_integral(kind, gamma, 2) / alpha
    second = _full_domain_integral(kind, gamma, 4) / alpha**2
    report = theoretical_moments(kind, gamma)
    assert abs(report.mean - mean) < 1e-12
    assert abs(report.variance - (second - mean * mean)) < 1e-12


def _high_close_integral(weight, gamma):
    """E weight(h, c) by dblquad of the closed-form (high, close) density."""
    cut = 10.0 + abs(gamma)
    val, _ = integrate.dblquad(
        lambda c, h: weight(h, c) * high_close_joint_pdf(h, c, gamma).value,
        0.0, cut, -cut, lambda h: h, epsabs=1e-14, epsrel=1e-13,
    )
    return val


def _high_second_moment_mp(gamma):
    """E h^2 = integral of 2m Pr{h > m} over m > 0, the first-passage tail, in 30 digits."""
    with mp.workdps(30):
        g = mp.mpf(gamma)

        def tail(m):
            return mp.ncdf(g - m) + mp.exp(2 * g * m) * mp.ncdf(-m - g)

        return float(mp.quad(lambda m: 2 * m * tail(m), [0, 1, 3, 6, mp.inf]))


@pytest.mark.parametrize("gamma", [0.0, 1e-3, 1.0, 2.0, -1.5])
def test_high_moments_match_independent_oracles(gamma):
    e_h2, e_hc = analytics._high_moments(gamma)
    assert abs(e_h2 - _high_second_moment_mp(gamma)) < 1e-14
    assert abs(e_hc - _high_close_integral(lambda h, c: h * c, gamma)) < 1e-14


def test_high_moments_near_zero_drift_lose_no_digits():
    e_h2, e_hc = analytics._high_moments(1e-12)
    assert abs(e_h2 - 1.0) < 1e-11 and abs(e_hc - 0.5) < 1e-11


@pytest.mark.parametrize("gamma", [0.0, 2.0])
def test_gk_means_match_full_domain_oracle(gamma):
    # the Garman-Klass combination rebuilt from independent parts: dblquad
    # (high, close) moments at +-gamma (the low's are the high's at -gamma),
    # E d^2 integrated from ORACLE_FLOOR, and E c^2 = 1 + gamma^2
    (e_h2, e_hc), (e_l2, e_lc) = (
        (_high_close_integral(lambda h, c: h * h, g), _high_close_integral(lambda h, c: h * c, g))
        for g in (gamma, -gamma)
    )
    e_d2 = _full_domain_integral(EstimatorKind.PARKINSON, gamma, 2)
    e_hl = 0.5 * (e_h2 + e_l2 - e_d2)
    e_cd = e_hc - e_lc
    crosses = {
        GarmanKlassVariant.HIGH_LOW_CROSS: e_cd - 2.0 * e_hl,
        GarmanKlassVariant.HIGH_CLOSE_CROSS: e_cd - 2.0 * e_hc,
    }
    for variant, cross in crosses.items():
        expect = GK_K1 * e_d2 - GK_K2 * cross - GK_K3 * (1.0 + gamma * gamma)
        assert abs(garman_klass_mean(gamma, variant=variant) - expect) < 1e-12


def test_interval_probabilities_batch_the_joint_law(monkeypatch):
    levels = (1.0, 2.0, 5.0)
    variant = GarmanKlassVariant.HIGH_LOW_CROSS
    kinds = (EstimatorKind.GARMAN_KLASS, EstimatorKind.ROGERS_SATCHELL)
    single = {kind: [interval_probability(kind, 0.5, level) for level in levels] for kind in kinds}
    calls = []
    real = analytics._estimator_cdf

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(analytics, "_estimator_cdf", spy)
    for kind in kinds:
        batch = analytics._interval_probabilities(kind, 0.5, levels, variant)
        assert all(type(v) is float for v in batch)
        assert max(abs(a - b) for a, b in zip(batch, single[kind])) < 1e-9
    assert calls == list(kinds)
