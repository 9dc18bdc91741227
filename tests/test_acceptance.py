"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criterion 7d (Rogers-Satchell mean in the desk run) is asserted against the
mean that the desk run's discrete monitoring gives, not against the
continuous-time value 1.  The estimator is unbiased for the extremes of the
continuous path; extremes read off N grid points undershoot those by
beta / sqrt(N) per side on average, beta = -zeta(1/2) / sqrt(2 pi) = 0.5826
(Asmussen-Glynn-Pitman 1995; Broadie-Glasserman-Kou 1997).  Substituting
h - b and l + b, b = beta / sqrt(N), into h(h - c) + l(l - c) gives a mean
of 1 - 2 b E[R_gamma] + O(1/N), with E[R_gamma] the mean range of drifted
Brownian motion on [0, 1].  At N = 5000 and gamma = 2 the first-order shift
is -4.1 percent, larger than the criterion's 3 percent, so the criterion
holds the sample mean to that prediction within the same 3 percent.  The
7d lines still print each raw mean and its distance from 1, and
``test_rs_gamma2_bias_exceeds_allowance`` in tests/test_montecarlo.py pins
that the gamma = 2 mean lies outside 3 percent of 1; no correction is ever
applied to a mean the library reports.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.special import log_ndtr, ndtr, zeta

from rangevol import (
    LN16,
    EstimatorKind,
    analytics,
    bridge_range_pdf,
    densities,
    goodness_of_fit,
    interval_probability,
    mean_range_squared_series,
    montecarlo,
    range_pdf,
    validation,
)
from rangevol.cli import main as cli_main

QUAD = dict(limit=300, epsabs=1e-12)


def _report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_series_identity():
    t0 = time.time()
    value = mean_range_squared_series(100_000)
    elapsed = time.time() - t0
    err = abs(value - LN16)
    _report(
        "1 (series identity)",
        err < 1e-10 and elapsed < 0.1,
        f"|sum - ln 16| = {err:.2e}, runtime {elapsed * 1e3:.1f} ms",
    )


def test_criterion_2_bridge_moments():
    t0 = time.time()
    norm, _ = integrate.quad(lambda d: bridge_range_pdf(d).value, 0.02, 7, **QUAD)
    m2, _ = integrate.quad(lambda d: d * d * bridge_range_pdf(d).value, 0.02, 7, **QUAD)
    m4, _ = integrate.quad(lambda d: d**4 * bridge_range_pdf(d).value, 0.02, 8, **QUAD)
    elapsed = time.time() - t0
    errs = (abs(norm - 1), abs(m2 - math.pi**2 / 6), abs(m4 - math.pi**4 / 30))
    _report(
        "2 (bridge range moments)",
        max(errs) < 1e-8 and elapsed < 1.0,
        f"norm/m2/m4 errors {errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e}, runtime {elapsed:.2f} s",
    )


def test_criterion_3_parkinson_analytics():
    report = analytics.theoretical_moments(EstimatorKind.PARKINSON, 0.0)
    var_target = 9 * float(zeta(3)) / LN16**2 - 1.0
    mean_err = abs(report.mean - 1.0)
    var_err = abs(report.variance - var_target)
    _report(
        "3 (Parkinson moments)",
        mean_err < 1e-6 and var_err < 1e-4,
        f"mean err {mean_err:.1e}, var {report.variance:.6f} vs {var_target:.6f} (err {var_err:.1e})",
    )


def test_criterion_4_bridge_analytics():
    report = analytics.theoretical_moments(EstimatorKind.BRIDGE, 0.0)
    mean_err = abs(report.mean - 1.0)
    var_err = abs(report.variance - 0.2)
    _report(
        "4 (bridge moments)",
        mean_err < 1e-8 and var_err < 1e-6,
        f"mean err {mean_err:.1e}, var err {var_err:.1e}",
    )


def test_criterion_5_interval_probabilities():
    fb = interval_probability(EstimatorKind.BRIDGE, 0.0, 2.0)
    fp = interval_probability(EstimatorKind.PARKINSON, 0.0, 2.0)
    _report(
        "5 (interval probabilities)",
        abs(fb - 0.918) < 1e-3 and abs(fp - 0.813) < 1e-3,
        f"F_b(2) = {fb:.6f} (target 0.918), F_p(2, 0) = {fp:.6f} (target 0.813)",
    )


def test_criterion_6_drift_form_consistency():
    # the drifted image form at gamma = 0, with shells enough to converge
    # down to d = 0.1, against the zero-drift law
    worst = 0.0
    for d in np.linspace(0.1, 5.0, 100):
        zero = range_pdf(float(d), 0.0).value
        general = float(densities._range_image(float(d), 0.0, shells=64, density=True))
        worst = max(worst, abs(zero - general))
    _report("6 (general vs zero-drift range density)", worst < 1e-10, f"max |diff| = {worst:.2e}")


def test_criterion_7_desk_run_runtime(desk_summary):
    _, runtime = desk_summary
    _report("7a (desk run under 60 s)", runtime < 60.0, f"runtime {runtime:.1f} s")


def test_criterion_7_parkinson_mean(desk_summary):
    summary, _ = desk_summary
    mean = summary.cell("parkinson", 0.0).mean
    _report("7b (Parkinson mean, gamma=0)", abs(mean - 1.0) < 0.03, f"mean = {mean:.5f}")


def test_criterion_7_bridge_mean_and_variance(desk_summary):
    summary, _ = desk_summary
    cell = summary.cell("bridge", 0.0)
    ok = abs(cell.mean - 1.0) < 0.03 and abs(cell.variance - 0.2) / 0.2 < 0.10
    _report(
        "7c (bridge mean/variance)", ok,
        f"mean = {cell.mean:.5f}, variance = {cell.variance:.5f} (target 0.2 within 10%)",
    )


# Mean shortfall of discretely monitored extremes, in units of 1/sqrt(N).
DISCRETE_BETA = -float(zeta(0.5)) / math.sqrt(2 * math.pi)


def _mean_running_max(gamma: float) -> float:
    """E[max of W_t + gamma t over [0, 1]] from the first-passage law.

    P(M > m) = Phi(gamma - m) + exp(2 gamma m) Phi(-gamma - m), integrated
    over m >= 0; the second term is formed in logs so it cannot overflow.
    """
    def tail(m: float) -> float:
        return ndtr(gamma - m) + math.exp(2 * gamma * m + log_ndtr(-gamma - m))

    value, _ = integrate.quad(tail, 0.0, np.inf, limit=200, epsabs=1e-14, epsrel=1e-13)
    return value


def _mean_range(gamma: float) -> float:
    """E[R_gamma] of drifted Brownian motion on [0, 1]: E[max] - E[min]."""
    return _mean_running_max(gamma) + _mean_running_max(-gamma)


def _discrete_rs_mean(gamma: float, n_steps: int) -> float:
    """First-order Rogers-Satchell mean when the extremes are read off n_steps steps."""
    return 1.0 - 2.0 * DISCRETE_BETA / math.sqrt(n_steps) * _mean_range(gamma)


@pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
def test_criterion_7_rogers_satchell_mean(desk_summary, gamma):
    summary, _ = desk_summary
    mean = summary.cell("rogers-satchell", gamma).mean
    n_steps = summary.config.n_steps
    predicted = _discrete_rs_mean(gamma, n_steps)
    _report(
        f"7d (R&S mean, gamma={gamma:g})",
        abs(mean - predicted) < 0.03,
        f"mean = {mean:.5f}, |mean - 1| = {abs(mean - 1.0):.4f}; "
        f"discrete-monitoring mean at N = {n_steps} is {predicted:.5f}, "
        f"|mean - that| = {abs(mean - predicted):.4f}",
    )


def test_discrete_rs_mean_replaces_unit_target():
    """The 7d target, checked away from the desk seed and step count.

    At N = 400 the shortfall from 1 is three to five times the 3 percent
    width, so the sample means rule out 1 as the expected value and match
    the discrete-monitoring mean within 4 SE plus the O(1/N) remainder.
    """
    assert abs(_mean_range(0.0) - math.sqrt(8 / math.pi)) < 1e-12
    n_steps = 400
    cfg = montecarlo.ExperimentConfig(
        n_steps=n_steps,
        n_paths=50_000,
        gamma_grid=(0.0, 2.0),
        estimators=(EstimatorKind.ROGERS_SATCHELL,),
        seed=1,
    )
    summary = montecarlo.run_experiment(cfg)
    for gamma in cfg.gamma_grid:
        cell = summary.cell("rogers-satchell", gamma)
        predicted = _discrete_rs_mean(gamma, n_steps)
        # 5/N covers the O(1/N) remainder: +1.2/N to +3.0/N measured at N = 125 and 500
        assert abs(cell.mean - predicted) < 4 * cell.mean_se + 5 / n_steps
        assert cell.mean < 1.0 - 0.08


def test_criterion_8_bridge_drift_invariance(desk_summary):
    summary, _ = desk_summary
    base = summary.cell("bridge", 0.0)
    bit_identical = all(
        summary.cell("bridge", g).mean == base.mean
        and summary.cell("bridge", g).variance == base.variance
        and np.array_equal(summary.cell("bridge", g).hist, base.hist)
        for g in summary.config.gamma_grid[1:]
    )
    from rangevol import Path, bridge_transform, simulate_path

    p = simulate_path(2_000, 0.0, seed=5)
    ramp = np.arange(2_001) / 2_000
    max_diff = 0.0
    for c in (-2.0, 1.0, 3.5):
        shifted = Path(values=p.values + c * ramp, n_steps=2_000, gamma=c)
        max_diff = max(
            max_diff,
            np.abs(bridge_transform(shifted).values - bridge_transform(p).values).max(),
        )
    _report(
        "8 (bridge drift invariance)",
        bit_identical and max_diff < 1e-12,
        f"cells bit-identical across gammas: {bit_identical}, ramp residual {max_diff:.1e}",
    )


def test_criterion_9_coverage_ordering(desk_summary):
    summary, _ = desk_summary
    worst = math.inf
    detail = []
    for gamma in (0.0, 0.5, 1.0, 1.5, 2.0):
        bridge = summary.cell("bridge", gamma)
        for label in ("parkinson", "garman-klass-hl", "garman-klass-hc", "rogers-satchell"):
            other = summary.cell(label, gamma)
            margin = (bridge.p_delta - other.p_delta) / math.hypot(
                bridge.p_delta_se, other.p_delta_se
            )
            worst = min(worst, margin)
    detail.append(f"worst margin {worst:.1f} combined SEs (needs > 2)")
    _report("9 (bridge coverage dominance)", worst > 2.0, "; ".join(detail))


def test_criterion_10_histogram_goodness_of_fit(gof_summary):
    chi2_b, dof_b, p_b = goodness_of_fit(gof_summary, EstimatorKind.BRIDGE, 0.0)
    chi2_p, dof_p, p_p = goodness_of_fit(gof_summary, EstimatorKind.PARKINSON, 0.0)
    _report(
        "10 (chi-square vs analytic pdfs)",
        p_b > 1e-3 and p_p > 1e-3,
        f"bridge chi2 = {chi2_b:.1f} (dof {dof_b}, p = {p_b:.3g}); "
        f"Parkinson chi2 = {chi2_p:.1f} (dof {dof_p}, p = {p_p:.3g}); "
        f"M = 1e5, 200 bins, steps = 1e5",
    )


def test_criterion_11_byte_determinism(tmp_path, monkeypatch):
    out = tmp_path / "sim.csv"
    args = [
        "simulate", "--paths", "20000", "--steps", "2000", "--seed", "1234",
        "--gammas", "0,1", "--out", str(out),
    ]
    outputs = []
    for threads in ("1", "2", "2"):
        monkeypatch.setenv("RANGEVOL_THREADS", threads)
        assert cli_main(args) == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(
        "11 (byte-identical CSV across RANGEVOL_THREADS)", ok,
        f"{len(outputs[0])} bytes, identical across 1/2 workers and repeats",
    )


def test_formula_discrepancy_report(validation_report):
    """The stated deliverable: dual evaluation of the disputed printed forms
    against the simulation oracle, with the surviving form recorded."""
    checks = validation_report
    text = validation.render_report(checks)
    ok = (
        "sqrt2 matches" in checks[0].conclusion
        and "reading it as the close" in checks[1].conclusion
        and "factor 4" in checks[2].conclusion
        and "high-low" in checks[3].conclusion
        and text.startswith("# Formula validation report")
    )
    _report(
        "12 (formula validation report)", ok,
        "; ".join(c.conclusion.split(";")[0].split("(")[0].strip() for c in checks),
    )
