import math

import numpy as np
import pytest
from scipy import integrate

from rangevol import densities, high_close_joint_pdf, high_pdf, validation


def test_high_pdf_variants_coincide_at_zero_drift():
    for eta in (0.3, 1.0, 2.5):
        assert validation._high_pdf_half(eta, 0.0).value == pytest.approx(
            high_pdf(eta, 0.0).value, abs=1e-15
        )


def test_high_pdf_half_reading_misses_joint_marginal():
    # at nonzero drift the refuted half scaling is off the (high, close) marginal
    for eta in (0.5, 1.0, 2.0):
        marg, _ = integrate.quad(
            lambda c: high_close_joint_pdf(eta, c, 1.0).value, -12, eta, limit=300, epsabs=1e-12
        )
        assert abs(validation._high_pdf_half(eta, 1.0).value - marg) > 1e-2


def test_high_density_check(validation_report):
    check = validation_report[0]
    d = check.details
    assert "sqrt2 matches" in check.conclusion
    assert abs(d["norm_sqrt2"] - 1.0) < 1e-6
    assert abs(d["norm_half"] - 1.0) > 1.0  # not remotely a density at gamma=1
    assert d["max_marginal_dev_sqrt2"] < 1e-8
    assert d["max_marginal_dev_half"] > 0.1
    assert d["max_bin_rel_dev_sqrt2"] < 0.15
    assert d["max_bin_rel_dev_half"] > 0.5


def test_high_close_reading_check(validation_report):
    check = validation_report[1]
    d = check.details
    assert "reading it as the close" in check.conclusion
    assert abs(d["total_mass_close_reading"] - 1.0) < 1e-6
    assert abs(d["total_mass_high_reading"] - 1.0) > 0.1
    assert d["max_bin_rel_dev_close_reading"] < 0.15


def test_hlc_normalization_check(validation_report):
    check = validation_report[2]
    d = check.details
    assert "factor 4" in check.conclusion
    for mass in d["conditional_mass_scaled"].values():
        assert abs(mass - 1.0) < 1e-6
    for mass in d["conditional_mass_raw"].values():
        assert abs(mass - 0.25) < 1e-6
    assert abs(d["box_rel_dev_scaled"]) < 0.15
    assert abs(d["box_rel_dev_raw"]) > 1.0


def test_gk_variant_check(validation_report):
    check = validation_report[3]
    d = check.details
    assert d["quadrature_mean_hl_gamma0"] == pytest.approx(1.02537, abs=1e-4)
    assert d["quadrature_mean_hc_gamma0"] == pytest.approx(1.04469, abs=1e-4)
    assert d["quadrature_mean_hl_gamma1"] == pytest.approx(1.15032, abs=1e-4)
    # the Garman & Klass (1980) form: unbiased up to its 3-digit coefficients,
    # efficiency 2 / 0.268642 = 7.44 against the published 7.4
    assert d["quadrature_mean_1980_gamma0"] == pytest.approx(1.000114, abs=1e-6)
    assert d["quadrature_variance_1980_gamma0"] == pytest.approx(0.268642, abs=1e-6)
    # simulated means sit below the continuous values by the discretization bias
    assert d["simulated_mean_hl_gamma0"] < d["quadrature_mean_hl_gamma0"]
    assert abs(d["simulated_mean_hl_gamma0"] - 1.0) < 0.04
    assert "high-low" in check.conclusion


def test_render_report(validation_report):
    text = validation.render_report(validation_report)
    assert text.startswith("# Formula validation report")
    for check in validation_report:
        assert check.topic in text
        assert check.conclusion in text


def test_report_draws_once_and_integrates_by_the_fixed_rule(monkeypatch):
    # one batch_extremes call serves all four checks, and no check reaches
    # an adaptive integrator
    calls, draw = [], validation.batch_extremes

    def counted(*args, **kwargs):
        calls.append(args[3])
        return draw(*args, **kwargs)

    def adaptive(*args, **kwargs):
        raise AssertionError("adaptive quadrature called")

    monkeypatch.setattr(validation, "batch_extremes", counted)
    for name in ("quad", "dblquad"):
        monkeypatch.setattr(integrate, name, adaptive)
    checks = validation.formula_validation_report(n_paths=2_000, n_steps=50, seed=1)
    assert calls == [(0.0, validation._GAMMA)]
    assert len(checks) == 4


def test_fixed_rules_match_adaptive_quadrature():
    # every integral of the first two checks, the fixed rule against scipy's
    # adaptive quad and dblquad at 1e-13
    gamma, opts = validation._GAMMA, dict(epsabs=1e-13, epsrel=1e-13)

    def hc(e, c):
        return high_close_joint_pdf(e, c, gamma).value

    for pdf in (validation._high_pdf_half, high_pdf):
        for lo, hi in ((0.0, 14.0 + gamma), (0.6, 0.9), (0.9, 1.2), (1.2, 1.5), (1.5, 1.8),
                       (1.8, 2.2)):
            ref, _ = integrate.quad(lambda e: pdf(e, gamma).value, lo, hi, limit=300, **opts)
            assert abs(validation._integral(validation._at_drift(pdf), lo, hi) - ref) < 1e-12
    etas = np.array([0.3, 0.7, 1.2, 2.0, 3.0])
    marginals = validation._close_integrals(validation._at_drift(densities.high_close_joint_pdf),
                                            etas, -12.0, math.inf)
    for eta, got in zip(etas, marginals):
        ref, _ = integrate.quad(lambda c: hc(eta, c), -12.0, eta, limit=300, **opts)
        assert abs(got - ref) < 1e-12
    regions = [(0.0, 12.0 + gamma, -12.0, math.inf), (0.8, 1.2, 0.2, 0.6), (1.2, 1.6, 0.6, 1.0),
               (0.6, 1.0, -0.4, 0.2)]
    for e_lo, e_hi, c_lo, c_hi in regions:
        ref, _ = integrate.dblquad(lambda c, e: hc(e, c), e_lo, e_hi, c_lo,
                                   lambda e: min(c_hi, e), **opts)
        got = validation._mass(validation._at_drift(densities.high_close_joint_pdf),
                               e_lo, e_hi, c_lo, c_hi)
        assert abs(got - ref) < 1e-12
    ref, _ = integrate.dblquad(lambda c, e: validation._high_close_high_reading(e, c),
                               0.0, 12.0 + gamma, -12.0, lambda e: e, **opts)
    got = validation._mass(validation._high_close_high_reading, 0.0, 12.0 + gamma, -12.0, math.inf)
    assert abs(got - ref) < 1e-12
