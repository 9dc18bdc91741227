"""Theoretical moments, bias and interval probabilities of the estimators.

Every 1D statistic -- the Parkinson and bridge means and variances, the
interval probabilities F(N) and the coverage P_delta -- is an integral of
one range density in the range variable delta, through one helper
(``_range_integral``).  The estimator is delta^2 / alpha (alpha = ln 16
for Parkinson, pi^2 / 6 for the bridge), so its moments are the delta^2
and delta^4 moments over alpha and alpha^2, and Pr{estimator > x} is the
range mass above sqrt(alpha x).  The Garman-Klass mean reduces to 2D
quadratures of the (high, close) and (range, close) joint densities; the
Rogers-Satchell mean to 2D quadratures of the closed-form (high, close)
density alone, with the minimum's share taken from the maximum at the
flipped drift.  Variances of Garman-Klass and Rogers-Satchell need E[h l]
moments of the (high, low, close) density, a 3D quadrature, so they are
delegated to a fixed-seed Monte Carlo oracle with a reported standard
error, which is cheaper at equal accuracy.

Quadratures use scipy's adaptive Gauss-Kronrod integrator at 1e-10
absolute tolerance, with Gaussian-tailed supports truncated where the
integrand is below 1e-16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

from . import densities, montecarlo
from .densities import SeriesConfig
from .estimators import GK_K1, GK_K2, GK_K3, EstimatorKind, GarmanKlassVariant

__all__ = [
    "MomentReport",
    "IntervalReport",
    "mean_range_squared_series",
    "theoretical_moments",
    "relative_bias",
    "interval_probability",
    "coverage_probability",
    "garman_klass_mean",
    "rogers_satchell_mean",
]

_QUAD_OPTS = dict(limit=400, epsabs=1e-10, epsrel=1e-10)

# Default scale of the Monte Carlo oracle backing G&K / R&S variances.
ORACLE_PATHS = 10_000_000
ORACLE_STEPS = 10_000
ORACLE_SEED = 901


@dataclass(frozen=True)
class MomentReport:
    """Mean, variance and relative bias of one canonical estimator.

    ``method`` records how the variance was obtained ("quadrature" for the
    fully analytic estimators, "mc_oracle" when a seeded simulation filled
    in what 3D quadrature would otherwise have to); means are always
    quadrature-based.  Standard errors are None for analytic entries.
    """

    estimator: EstimatorKind
    gamma: float
    mean: float
    variance: float
    relative_bias: float
    method: str
    mean_se: float | None = None
    variance_se: float | None = None

    def __post_init__(self):
        if self.variance < 0.0:
            raise ValueError("variance must be nonnegative")


@dataclass(frozen=True)
class IntervalReport:
    """Probability that the true volatility is below `level` times the estimate."""

    estimator: EstimatorKind
    gamma: float
    level: float
    probability: float

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        if not self.level > 0.0:
            raise ValueError("level must be positive")


def mean_range_squared_series(terms: int) -> float:
    """Partial sum 2 + sum_{m=1}^{terms} 2 / (m (4 m^2 - 1)).

    Converges to ln 16, the zero-drift mean squared range; the tail after
    M terms is below 1/(4 M^2).
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    m = np.arange(1, terms + 1, dtype=float)
    return 2.0 + float(np.sum(2.0 / (m * (4.0 * m * m - 1.0))))


# ---------------------------------------------------------------------------
# 1D quadratures of the range densities
# ---------------------------------------------------------------------------

def _range_cut(gamma: float) -> float:
    return 13.0 + abs(gamma)


def _range_integral(
    kind: EstimatorKind,
    gamma: float,
    cfg: SeriesConfig,
    power: int,
    lo: float = 0.0,
    hi: float = math.inf,
) -> float:
    """Integral of delta**power * f(delta) over [lo, hi], f the range density of ``kind``.

    The bounds are clipped to [small_arg_floor, cut]: below the floor the
    mass is below exp(-10000), above the cut (13 + |gamma| for Parkinson,
    7 for the bridge) the density is below 1e-16.
    """
    density, _ = densities._range_law(kind, gamma, cfg)
    cut = _range_cut(gamma) if kind is EstimatorKind.PARKINSON else 7.0
    lo, hi = max(lo, cfg.small_arg_floor), min(hi, cut)
    if lo >= hi:
        return 0.0
    val, _ = integrate.quad(lambda d: d**power * density(d).value, lo, hi, **_QUAD_OPTS)
    return val


def _alpha(kind: EstimatorKind) -> float:
    return densities._range_law(kind, 0.0, None)[1]


# ---------------------------------------------------------------------------
# Gauss-Legendre grids for the joint-density quadratures
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _gl_nodes(a: float, b: float, n: int):
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return a + (x + 1.0) * half, w * half


def _high_close_moment(weight, gamma: float, n_gl: int = 160) -> float:
    """Integral of weight(eta, chi) against the (high, close) joint density."""
    cut = 10.0 + abs(gamma)
    eta, weta = _gl_nodes(0.0, cut, n_gl)
    # chi < eta with a Gaussian left tail; integrate chi on (-cut, eta) per eta node
    chi, wchi = _gl_nodes(0.0, 1.0, n_gl)  # unit nodes, rescaled per eta below
    lo = -cut
    span = eta[:, None] - lo
    c = lo + chi[None, :] * span
    wc = wchi[None, :] * span
    e = eta[:, None]
    expo = 2.0 * gamma * e - 0.5 * (2.0 * e - c + gamma) ** 2
    q = math.sqrt(2.0 / math.pi) * (2.0 * e - c) * np.exp(expo)
    return float(np.einsum("i,ij->", weta, wc * q * weight(e, c)))


def _range_close_moments(gamma: float, cfg: SeriesConfig, n_gl: int = 120):
    """E[d^2] and E[c d] from the (range, close) joint density.

    The density depends on the close only through |close| and the Gaussian
    close factor, so the chi integral is folded onto (0, delta), which also
    sidesteps the |chi| kink.
    """
    delta, wd = _gl_nodes(cfg.small_arg_floor, _range_cut(gamma), n_gl)
    u, wu = _gl_nodes(0.0, 1.0, n_gl)
    a = delta[:, None] * u[None, :]          # |chi| grid
    wa = delta[:, None] * wu[None, :]
    kernel, _ = densities._range_close_series_grid(delta[:, None], a, cfg)
    fp = np.exp(-0.5 * (a - gamma) ** 2) / math.sqrt(2.0 * math.pi)
    fm = np.exp(-0.5 * (-a - gamma) ** 2) / math.sqrt(2.0 * math.pi)
    d = delta[:, None]
    e_d2 = np.einsum("i,ij->", wd, wa * kernel * d * d * (fp + fm))
    e_cd = np.einsum("i,ij->", wd, wa * kernel * d * a * (fp - fm))
    return float(e_d2), float(e_cd)


def garman_klass_mean(
    gamma: float = 0.0,
    cfg: SeriesConfig | None = None,
    variant: GarmanKlassVariant = GarmanKlassVariant.HIGH_LOW_CROSS,
) -> float:
    """Mean of the canonical Garman-Klass estimator by 2D quadrature.

    Uses E[d^2], E[cd] from the (range, close) density; E[h^2] and E[hc]
    from the (high, close) density; E[l^2] via the drift-flip symmetry of
    the minimum; and E[hl] = (E[h^2] + E[l^2] - E[d^2]) / 2.
    """
    cfg = densities._cfg(cfg)
    e_d2, e_cd = _range_close_moments(gamma, cfg)
    e_h2 = _high_close_moment(lambda e, c: e * e, gamma)
    e_c2 = 1.0 + gamma * gamma
    if variant is GarmanKlassVariant.HIGH_LOW_CROSS:
        e_l2 = _high_close_moment(lambda e, c: e * e, -gamma)
        e_hl = 0.5 * (e_h2 + e_l2 - e_d2)
        cross = e_cd - 2.0 * e_hl
    else:
        e_hc = _high_close_moment(lambda e, c: e * c, gamma)
        cross = e_cd - 2.0 * e_hc
    return GK_K1 * e_d2 - GK_K2 * cross - GK_K3 * e_c2


def rogers_satchell_mean(gamma: float = 0.0) -> float:
    """Mean of the canonical Rogers-Satchell estimator by 2D quadrature.

    E[h(h-c)] from the closed-form (high, close) density, plus E[l(l-c)],
    which is the same moment at drift -gamma: the minimum is minus the
    maximum of the reflected path, whose close is -c.  Equals 1 for every
    drift (the estimator's defining property), which the test suite uses as
    the accuracy gauge.
    """

    def weight(e, c):
        return e * (e - c)

    return _high_close_moment(weight, gamma) + _high_close_moment(weight, -gamma)


# ---------------------------------------------------------------------------
# Moment reports
# ---------------------------------------------------------------------------

def _oracle_variance(
    kind: EstimatorKind,
    gamma: float,
    gk_variant: GarmanKlassVariant,
    paths: int,
    steps: int,
    seed,
):
    cfg = montecarlo.ExperimentConfig(
        n_steps=steps,
        n_paths=paths,
        gamma_grid=(gamma,),
        seed=seed,
        estimators=(kind,),
        gk_variant=gk_variant,
        gk_both_variants=False,
    )
    summary = montecarlo.run_experiment(cfg)
    cell = summary.cell(montecarlo.estimator_label(kind, gk_variant), gamma)
    return cell.variance, cell.variance_se


def theoretical_moments(
    kind: EstimatorKind,
    gamma: float = 0.0,
    cfg: SeriesConfig | None = None,
    gk_variant: GarmanKlassVariant = GarmanKlassVariant.HIGH_LOW_CROSS,
    oracle_paths: int = ORACLE_PATHS,
    oracle_steps: int = ORACLE_STEPS,
    oracle_seed=ORACLE_SEED,
) -> MomentReport:
    """Mean/variance/relative-bias report for one canonical estimator.

    Parkinson and bridge are fully analytic.  For Garman-Klass and
    Rogers-Satchell the mean is quadrature-based but the variance comes
    from the Monte Carlo oracle (``method="mc_oracle"``), whose scale the
    ``oracle_*`` arguments control; the defaults target the fourth digit
    and take minutes, so tests and tables pass smaller sizes explicitly.
    """
    cfg = densities._cfg(cfg)
    var_se = None
    if kind in (EstimatorKind.PARKINSON, EstimatorKind.BRIDGE):
        alpha = _alpha(kind)
        mean = _range_integral(kind, gamma, cfg, 2) / alpha
        var = _range_integral(kind, gamma, cfg, 4) / alpha**2 - mean * mean
        method = "quadrature"
    else:
        if kind is EstimatorKind.GARMAN_KLASS:
            mean = garman_klass_mean(gamma, cfg, gk_variant)
        else:
            mean = rogers_satchell_mean(gamma)
        var, var_se = _oracle_variance(
            kind, gamma, gk_variant, oracle_paths, oracle_steps, oracle_seed
        )
        method = "mc_oracle"
    rho = (mean - 1.0) / math.sqrt(var) if var > 0.0 else math.nan
    return MomentReport(
        estimator=kind,
        gamma=gamma,
        mean=mean,
        variance=var,
        relative_bias=rho,
        method=method,
        variance_se=var_se,
    )


def relative_bias(kind: EstimatorKind, gamma: float = 0.0, **kwargs) -> float:
    """(mean - 1) / sqrt(variance) of the canonical estimator."""
    report = theoretical_moments(kind, gamma, **kwargs)
    if not report.variance > 0.0:
        raise ValueError(f"degenerate variance for {kind}: {report.variance}")
    return report.relative_bias


# ---------------------------------------------------------------------------
# Interval estimation
# ---------------------------------------------------------------------------

def interval_probability(
    kind: EstimatorKind,
    gamma: float,
    level: float,
    cfg: SeriesConfig | None = None,
) -> float:
    """Pr{ true volatility < level * estimate } = Pr{ estimate > 1/level },
    the range mass above sqrt(alpha / level).  Analytic kinds only
    (Parkinson, bridge)."""
    if not level > 0.0:
        raise ValueError("level must be positive")
    cfg = densities._cfg(cfg)
    val = _range_integral(kind, gamma, cfg, 0, math.sqrt(_alpha(kind) / level))
    return min(max(val, 0.0), 1.0)


def coverage_probability(
    kind: EstimatorKind,
    gamma: float = 0.0,
    cfg: SeriesConfig | None = None,
    mc_paths: int = 100_000,
    mc_steps: int = 5_000,
    mc_seed=0,
    gk_variant: GarmanKlassVariant = GarmanKlassVariant.HIGH_LOW_CROSS,
) -> float:
    """Pr{ estimate/2 < true volatility < 2 * estimate }.

    The range mass over (sqrt(alpha / 2), sqrt(2 alpha)) for Parkinson and
    bridge; a fixed-seed Monte Carlo estimate for Garman-Klass and
    Rogers-Satchell, which have no analytic density here.
    """
    cfg = densities._cfg(cfg)
    if kind in (EstimatorKind.PARKINSON, EstimatorKind.BRIDGE):
        alpha = _alpha(kind)
        return _range_integral(kind, gamma, cfg, 0, math.sqrt(alpha / 2.0), math.sqrt(2.0 * alpha))
    mc_cfg = montecarlo.ExperimentConfig(
        n_steps=mc_steps,
        n_paths=mc_paths,
        gamma_grid=(gamma,),
        seed=mc_seed,
        estimators=(kind,),
        gk_variant=gk_variant,
        gk_both_variants=False,
    )
    summary = montecarlo.run_experiment(mc_cfg)
    return summary.cell(montecarlo.estimator_label(kind, gk_variant), gamma).p_delta
