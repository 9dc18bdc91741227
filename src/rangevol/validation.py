"""Cross-validation of disputed formula variants against simulation.

Three of the printed extreme-value formulas admit more than one reading,
and the readings are not equivalent:

1. The drift correction of the high density: erfc((eta+gamma)/2) versus
   erfc((eta+gamma)/sqrt(2)).  The variants coincide at zero drift only.
2. The (high, close) joint density contains a stray symbol in its
   exponent that can be read as the close or as the high.
3. The (high, low, close) image kernel, integrated over the extremes,
   returns 1/4 instead of 1: it is off by an overall factor 4 (its bridge
   counterpart carries the 4 explicitly).

Each check below evaluates every candidate against a Monte Carlo oracle and
against internal consistency (normalization, marginals) and records which
candidate survives.  A fourth check tabulates both Garman-Klass cross-term
variants, which are biased and both carried through the rest of the package,
beside the form of Garman & Klass (1980), whose mean and variance match its
source's unbiasedness and efficiency claims.

The report draws its paths once: one ``batch_extremes`` call gives the
(high, low, close) rows of the same paths at drift 0 and at drift ``_GAMMA``,
and each check reads the rows it needs.  Every integral is a fixed
Gauss-Legendre rule of ``analytics`` (``_gl_nodes``, ``_panel_rule``): in the
first two checks ``_PANELS`` panels of ``_NODES`` nodes in each variable,
within 1e-12 of adaptive quadrature; no check calls an adaptive integrator.
The report is a pure function of ``(n_paths, n_steps, seed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytics, densities
from .densities import DensityValue
from .estimators import GarmanKlassVariant, garman_klass_value
from .paths import batch_extremes

__all__ = ["ValidationCheck", "formula_validation_report", "render_report"]


@dataclass(frozen=True)
class ValidationCheck:
    topic: str
    conclusion: str
    details: dict


# A surviving candidate must reproduce simulated bin masses to within this
# relative deviation.  Discrete sampling of extremes shifts box masses by a
# few percent at a thousand steps (shrinking like 1/sqrt(steps)); the
# failing candidates here are off by factors, not percent, so the gate is
# scale-stable: tightening the Monte Carlo only sharpens the contrast.
_REL_GATE = 0.15

_GAMMA = 1.0  # the nonzero drift of the first two checks
_NODES, _PANELS = 24, 8  # the fixed rule of every integral in the first two checks


def _integral(f, lo: float, hi: float) -> float:
    """The integral of ``f`` (a function of an array of points) over [lo, hi]."""
    x, w = analytics._gl_nodes(lo, hi, _NODES, _PANELS)
    return float(w @ f(x))


def _close_integrals(f, e, c_lo: float, c_hi: float):
    """The integral of f(e, c) over c in [c_lo, min(c_hi, e)] at each high of ``e``."""
    c, w = analytics._panel_rule(np.linspace(c_lo, np.minimum(c_hi, e), _PANELS + 1, axis=-1),
                                 _NODES)
    return np.sum(w * f(e[:, None], c), axis=-1)


def _mass(f, e_lo: float, e_hi: float, c_lo: float, c_hi: float) -> float:
    """The mass of f(e, c) over e in [e_lo, e_hi] and c in [c_lo, min(c_hi, e)]."""
    return _integral(lambda e: _close_integrals(f, e, c_lo, c_hi), e_lo, e_hi)


def _at_drift(pdf):
    """``pdf(*point, _GAMMA).value`` over broadcast arrays of points."""
    return np.vectorize(lambda *point: pdf(*point, _GAMMA).value, otypes=[float])


def _high_pdf_half(eta: float, gamma: float) -> DensityValue:
    """The refuted reading of :func:`densities.high_pdf`: erfc((eta + gamma) / 2).

    It goes genuinely negative at nonzero drift, so its value is built
    directly, past the negativity check of ``densities._finish``.
    """
    if eta <= 0.0:
        return DensityValue(0.0, 0, True)
    base = densities._SQRT_2_PI * math.exp(-0.5 * (eta - gamma) ** 2)
    corr = gamma * densities._exp_times_erfc(2.0 * gamma * eta, (eta + gamma) / 2.0)
    return DensityValue(base - corr, 0, True)


def _high_close_high_reading(e, c):
    """The refuted reading of :func:`densities.high_close_joint_pdf`, its stray
    exponent symbol read as the high instead of the close, for c < e, e > 0."""
    return densities._SQRT_2_PI * (2.0 * e - c) * np.exp(
        2.0 * _GAMMA * e - 0.5 * (2.0 * e - e + _GAMMA) ** 2)


def _high_density_check(h) -> ValidationCheck:
    """Which erfc argument scaling makes the high density a density; ``h``
    holds the simulated highs at drift ``_GAMMA``."""
    half, sqrt2 = _at_drift(_high_pdf_half), _at_drift(densities.high_pdf)
    norm_half = _integral(half, 0.0, 14.0 + _GAMMA)
    norm_sqrt2 = _integral(sqrt2, 0.0, 14.0 + _GAMMA)

    # pointwise against the marginal of the (high, close) joint density
    etas = np.array([0.3, 0.7, 1.2, 2.0, 3.0])
    marg = _close_integrals(_at_drift(densities.high_close_joint_pdf), etas, -12.0, math.inf)
    dev_half = float(np.max(np.abs(half(etas) - marg)))
    dev_sqrt2 = float(np.max(np.abs(sqrt2(etas) - marg)))

    # binned simulation check
    edges = [0.6, 0.9, 1.2, 1.5, 1.8, 2.2]
    bins = list(zip(edges[:-1], edges[1:]))
    emp = [float(((h >= lo) & (h < hi)).mean()) for lo, hi in bins]

    def max_bin_rel_dev(pdf):
        probs = (_integral(pdf, lo, hi) for lo, hi in bins)
        return max(abs(m / p - 1.0) if p > 0.0 else math.inf for m, p in zip(emp, probs))

    max_rel_half, max_rel_sqrt2 = max_bin_rel_dev(half), max_bin_rel_dev(sqrt2)

    ok = (
        abs(norm_sqrt2 - 1.0) < 1e-6
        and dev_sqrt2 < 1e-8
        and max_rel_sqrt2 < _REL_GATE
        and abs(norm_half - 1.0) > 0.3
        and dev_half > 0.05
    )
    return ValidationCheck(
        topic="high-density drift term: erfc argument scaling",
        conclusion=(
            "sqrt2 matches (normalizes, agrees with the joint-density marginal and with "
            "simulation); half fails at nonzero drift" if ok else "inconclusive"
        ),
        details={
            "gamma": _GAMMA,
            "norm_half": norm_half,
            "norm_sqrt2": norm_sqrt2,
            "max_marginal_dev_half": dev_half,
            "max_marginal_dev_sqrt2": dev_sqrt2,
            "max_bin_rel_dev_half": max_rel_half,
            "max_bin_rel_dev_sqrt2": max_rel_sqrt2,
        },
    )


def _high_close_check(h, c) -> ValidationCheck:
    """The stray exponent symbol in the (high, close) density: close or high?
    ``h`` and ``c`` hold the simulated highs and closes at drift ``_GAMMA``."""
    close_reading = _at_drift(densities.high_close_joint_pdf)
    mass_close = _mass(close_reading, 0.0, 12.0 + _GAMMA, -12.0, math.inf)
    mass_high = _mass(_high_close_high_reading, 0.0, 12.0 + _GAMMA, -12.0, math.inf)

    boxes = [(0.8, 1.2, 0.2, 0.6), (1.2, 1.6, 0.6, 1.0), (0.6, 1.0, -0.4, 0.2)]
    rels = []
    for e_lo, e_hi, c_lo, c_hi in boxes:
        emp = float(((h >= e_lo) & (h < e_hi) & (c >= c_lo) & (c < c_hi)).mean())
        rels.append(emp / _mass(close_reading, e_lo, e_hi, c_lo, c_hi) - 1.0)
    max_rel = max(abs(r) for r in rels)

    ok = abs(mass_close - 1.0) < 1e-6 and max_rel < _REL_GATE and abs(mass_high - 1.0) > 0.3
    return ValidationCheck(
        topic="(high, close) joint density: stray exponent symbol",
        conclusion=(
            "reading it as the close yields a normalized density that matches simulation; "
            "reading it as the high does not normalize" if ok else "inconclusive"
        ),
        details={
            "gamma": _GAMMA,
            "total_mass_close_reading": mass_close,
            "total_mass_high_reading": mass_high,
            "max_bin_rel_dev_close_reading": max_rel,
        },
    )


def _hlc_normalization_check(h, l, c) -> ValidationCheck:
    """The factor 4 in the (high, low, close) image kernel; ``h``, ``l`` and
    ``c`` hold the simulated extremes and closes at zero drift."""

    # integral of the implemented (already x4) kernel over the extremes, per close value
    chi = np.array([-1.0, 0.3, 1.0])[:, None, None]
    x, w = analytics._gl_nodes(0.0, 8.0, 96)
    series, _ = densities._hlc_series_grid(np.maximum(chi, 0) + x[:, None], np.minimum(chi, 0) - x,
                                           chi)
    masses = dict(zip(chi.ravel().tolist(), np.einsum("i,j,kij->k", w, w, series).tolist()))

    # wide central box: first-order discretization shifts largely cancel
    box = (0.3, 1.2, -1.2, -0.3, -0.5, 0.5)  # eta, ell, chi bounds
    e_lo, e_hi, l_lo, l_hi, c_lo, c_hi = box
    emp = float(
        ((h >= e_lo) & (h < e_hi) & (l >= l_lo) & (l < l_hi) & (c >= c_lo) & (c < c_hi)).mean()
    )

    chis, wc = analytics._gl_nodes(c_lo, c_hi, 32)
    eta, we = analytics._gl_nodes(e_lo, e_hi, 32)
    ell, wl = analytics._gl_nodes(l_lo, l_hi, 32)
    series, _ = densities._hlc_series_grid(eta[:, None], ell, chis[:, None, None])
    wc = wc * np.array([densities.close_pdf(x, 0.0) for x in chis])
    prob = float(np.einsum("k,i,j,kij->", wc, we, wl, series))
    rel_scaled = emp / prob - 1.0
    rel_raw = emp / (prob / 4.0) - 1.0

    ok = (
        all(abs(m - 1.0) < 1e-6 for m in masses.values())
        and abs(rel_scaled) < _REL_GATE
        and abs(rel_raw) > 1.0
    )
    return ValidationCheck(
        topic="(high, low, close) kernel normalization",
        conclusion=(
            "the image kernel must carry an overall factor 4: the raw kernel integrates to "
            "1/4 per close value; the scaled kernel matches simulation" if ok else "inconclusive"
        ),
        details={
            "conditional_mass_scaled": masses,
            "conditional_mass_raw": {x: m / 4.0 for x, m in masses.items()},
            "box_rel_dev_scaled": rel_scaled,
            "box_rel_dev_raw": rel_raw,
        },
    )


def _gk_1980(h, l, c):
    """The Garman & Klass (1980) form, u the high and d the low:
    0.511 (u-d)^2 - 0.019 [c (u+d) - 2 u d] - 0.383 c^2."""
    return 0.511 * (h - l) ** 2 - 0.019 * (c * (h + l) - 2.0 * h * l) - 0.383 * c * c


def _gk_1980_mean(gamma: float) -> float:
    """Mean of :func:`_gk_1980` from the (high, low, close) second moments."""
    return analytics._quadratic_mean(_gk_1980, gamma)


def _gk_check(h, l, c) -> ValidationCheck:
    """Means of the two Garman-Klass cross-term variants beside the 1980 form;
    ``h``, ``l`` and ``c`` hold the simulated extremes and closes at zero drift."""
    details = {}
    for gamma in (0.0, 1.0):
        details[f"quadrature_mean_hl_gamma{gamma:g}"] = analytics.garman_klass_mean(
            gamma, variant=GarmanKlassVariant.HIGH_LOW_CROSS
        )
        details[f"quadrature_mean_hc_gamma{gamma:g}"] = analytics.garman_klass_mean(
            gamma, variant=GarmanKlassVariant.HIGH_CLOSE_CROSS
        )
        details[f"quadrature_mean_1980_gamma{gamma:g}"] = _gk_1980_mean(gamma)
    mean = details["quadrature_mean_1980_gamma0"]
    var = analytics._hlc_moment(lambda h, l, c: _gk_1980(h, l, c) ** 2, 0.0) - mean * mean
    details["quadrature_variance_1980_gamma0"] = var
    details["efficiency_1980_gamma0"] = 2.0 / var  # against the close-to-close c^2
    for variant, tag in ((GarmanKlassVariant.HIGH_LOW_CROSS, "hl"),
                         (GarmanKlassVariant.HIGH_CLOSE_CROSS, "hc")):
        v = garman_klass_value(h, l, c, variant)
        details[f"simulated_mean_{tag}_gamma0"] = float(v.mean())
        details[f"simulated_se_{tag}_gamma0"] = float(v.std(ddof=1) / math.sqrt(v.size))
    return ValidationCheck(
        topic="Garman-Klass cross-term variants",
        conclusion=(
            "the two library variants are biased in continuous time (zero-drift means "
            f"{details['quadrature_mean_hl_gamma0']:.4f} for the high-low cross term, "
            f"{details['quadrature_mean_hc_gamma0']:.4f} for the high-close one); the high-low "
            "form is closer to unbiased and is the default, and both are reported in the "
            "tables; the form Garman & Klass (1980) publish is unbiased up to the rounding of "
            f"its coefficients (zero-drift mean {mean:.6f}, variance {var:.6f}, efficiency "
            f"{2.0 / var:.2f} against their 7.4)"
        ),
        details=details,
    )


def formula_validation_report(
    n_paths: int = 200_000,
    n_steps: int = 2_000,
    seed=4200,
) -> list[ValidationCheck]:
    """Run all formula cross-validations on one sample of ``n_paths`` paths of
    ``n_steps`` steps, drawn from ``seed`` at drifts 0 and ``_GAMMA``."""
    (h0, l0, c0), (h1, _, c1) = batch_extremes(seed, n_paths, n_steps, (0.0, _GAMMA),
                                               bridge=False)[0]
    return [
        _high_density_check(h1),
        _high_close_check(h1, c1),
        _hlc_normalization_check(h0, l0, c0),
        _gk_check(h0, l0, c0),
    ]


def render_report(checks: list[ValidationCheck]) -> str:
    """Markdown rendering of the validation checks."""
    lines = ["# Formula validation report", ""]
    for check in checks:
        lines.append(f"## {check.topic}")
        lines.append("")
        lines.append(f"**Conclusion:** {check.conclusion}")
        lines.append("")
        for key, value in check.details.items():
            if isinstance(value, dict):
                inner = ", ".join(f"{k:g}: {v:.6g}" for k, v in value.items())
                lines.append(f"- {key}: {{{inner}}}")
            else:
                lines.append(f"- {key}: {value:.6g}" if isinstance(value, float) else f"- {key}: {value}")
        lines.append("")
    return "\n".join(lines)
