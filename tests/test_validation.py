import pytest
from scipy import integrate

from rangevol import high_close_joint_pdf, high_pdf, validation

SCALE = dict(n_paths=60_000, n_steps=1_200)


@pytest.fixture(scope="module")
def report():
    return validation.formula_validation_report(seed=4200, **SCALE)


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


def test_high_density_check(report):
    check = report[0]
    d = check.details
    assert "sqrt2 matches" in check.conclusion
    assert abs(d["norm_sqrt2"] - 1.0) < 1e-6
    assert abs(d["norm_half"] - 1.0) > 1.0  # not remotely a density at gamma=1
    assert d["max_marginal_dev_sqrt2"] < 1e-8
    assert d["max_marginal_dev_half"] > 0.1
    assert d["max_bin_rel_dev_sqrt2"] < 0.15
    assert d["max_bin_rel_dev_half"] > 0.5


def test_high_close_reading_check(report):
    check = report[1]
    d = check.details
    assert "reading it as the close" in check.conclusion
    assert abs(d["total_mass_close_reading"] - 1.0) < 1e-6
    assert abs(d["total_mass_high_reading"] - 1.0) > 0.1
    assert d["max_bin_rel_dev_close_reading"] < 0.15


def test_hlc_normalization_check(report):
    check = report[2]
    d = check.details
    assert "factor 4" in check.conclusion
    for mass in d["conditional_mass_scaled"].values():
        assert abs(mass - 1.0) < 1e-6
    for mass in d["conditional_mass_raw"].values():
        assert abs(mass - 0.25) < 1e-6
    assert abs(d["box_rel_dev_scaled"]) < 0.15
    assert abs(d["box_rel_dev_raw"]) > 1.0


def test_gk_variant_check(report):
    check = report[3]
    d = check.details
    assert d["quadrature_mean_hl_gamma0"] == pytest.approx(1.02537, abs=1e-4)
    assert d["quadrature_mean_hc_gamma0"] == pytest.approx(1.04469, abs=1e-4)
    assert d["quadrature_mean_hl_gamma1"] == pytest.approx(1.15032, abs=1e-4)
    # simulated means sit below the continuous values by the discretization bias
    assert d["simulated_mean_hl_gamma0"] < d["quadrature_mean_hl_gamma0"]
    assert abs(d["simulated_mean_hl_gamma0"] - 1.0) < 0.04
    assert "high-low" in check.conclusion


def test_render_report(report):
    text = validation.render_report(report)
    assert text.startswith("# Formula validation report")
    for check in report:
        assert check.topic in text
        assert check.conclusion in text
