"""Theoretical moments, bias and interval probabilities of the estimators.

Every 1D statistic -- the Parkinson and bridge means and variances, the
interval probabilities F(N) and the coverage P_delta -- is a functional of
one closed-form range law (``densities._range_law``).  The estimator is
delta^2 / alpha (alpha = ln 16 for Parkinson, pi^2 / 6 for the bridge), so
Pr{estimator > x} is one minus the range CDF at sqrt(alpha x), and its
moments are the delta^2 and delta^4 moments over alpha and alpha^2: for
the bridge the constants pi^2 / 6 and pi^4 / 30, for Parkinson sums over
one fixed Gauss-Legendre table (``_range_moments``).  No 1D statistic
calls an adaptive integrator.  The Garman-Klass mean reduces to 2D
quadratures of the (high, close) and (range, close) joint densities; the
Rogers-Satchell mean to 2D quadratures of the closed-form (high, close)
density alone, with the minimum's share taken from the maximum at the
flipped drift.  Their second moments and Pr{estimator <= x} come from
the (high, low, close) law: E[estimator^2] by 3D quadrature, and the
distribution from the closed-form mass of the low between the roots of
the estimator, a convex quadratic in the low given (high, close).

The joint-law quadratures use scipy's adaptive Gauss-Kronrod integrators
at 1e-10 absolute tolerance, with Gaussian-tailed supports truncated where
the integrand is below 1e-16.  They leave out ranges below ``_MASS_FLOOR``
= 0.3, which carry under 2e-22 of probability at any drift, and where the
joint image series return only round-off after the most shells.  The
pointwise joint densities keep the 0.02 ``small_arg_floor``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import integrate

from . import densities
from .densities import SeriesConfig
from .estimators import GK_K1, GK_K2, GK_K3, EstimatorKind, GarmanKlassVariant, estimator_value

__all__ = [
    "MomentReport",
    "mean_range_squared_series",
    "theoretical_moments",
    "relative_bias",
    "interval_probability",
    "coverage_probability",
    "garman_klass_mean",
    "rogers_satchell_mean",
]

_QUAD_OPTS = dict(limit=400, epsabs=1e-10, epsrel=1e-10)

_MASS_FLOOR = 0.3
"""Smallest range the quadratures visit -- the joint-law quadratures and the
Parkinson moment table; below it the laws carry no mass at float precision.

At zero drift the range mass below 0.3 is 1.4e-22, and the bridge range's
is 1.4e-21 (image series summed at 60 digits; Feller 1951 gives the
small-argument behaviour: a power of 1/d times exp(-pi^2 / (2 d^2))).
Under drift the (range, close) density is the driftless one times
exp(gamma c - gamma^2 / 2), and |c| <= delta bounds that factor by
exp(delta^2 / 2) <= 1.05 below 0.3, so no drift lifts the mass there above
2e-22.  The float joint image series return round-off in that region (a
few machine epsilons over delta^3) after up to 200 shells per point; the
closed-form range laws need no floor.
"""


def _mass_cfg(cfg: SeriesConfig) -> SeriesConfig:
    """``cfg`` with its small-argument floor raised to ``_MASS_FLOOR``: the
    series config of every quadrature grid and integration bound."""
    return replace(cfg, small_arg_floor=max(cfg.small_arg_floor, _MASS_FLOOR))


@dataclass(frozen=True)
class MomentReport:
    """Mean, variance and relative bias of one canonical estimator, by ``method``."""

    estimator: EstimatorKind
    gamma: float
    mean: float
    variance: float
    relative_bias: float
    method: str

    def __post_init__(self):
        if self.variance < 0.0:
            raise ValueError("variance must be nonnegative")


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
# Moments of the range laws
# ---------------------------------------------------------------------------

def _range_cut(gamma: float) -> float:
    return 13.0 + abs(gamma)


def _alpha(kind: EstimatorKind) -> float:
    return densities._range_law(kind, 0.0)[1]


def _range_moments(kind: EstimatorKind, gamma: float) -> tuple[float, float]:
    """E d^2 and E d^4 of the range law of ``kind``.

    The bridge range has E s^2 = pi^2 / 6 and E s^4 = pi^4 / 30 (Kuiper's
    law).  The drifted range takes one fixed table, 16 panels of 24
    Gauss-Legendre nodes over [mass floor, 13 + |gamma|]; below the floor
    lies under 2e-22 of the mass, above the cut a density under 1e-16.
    """
    if kind is EstimatorKind.BRIDGE:
        return math.pi**2 / 6.0, math.pi**4 / 30.0
    law, _ = densities._range_law(kind, gamma)
    d, w = _gl_nodes(_MASS_FLOOR, _range_cut(gamma), 24, panels=16)
    mass = w * law(d)[1]
    d2 = d * d
    return float(mass @ d2), float(mass @ (d2 * d2))


# ---------------------------------------------------------------------------
# Gauss-Legendre grids for the quadratures
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _gl_nodes(a: float, b: float, n: int, panels: int = 1):
    """Nodes and weights of the n-point Gauss-Legendre rule on each of
    ``panels`` equal panels of [a, b], flattened."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a) / panels
    left = a + 2.0 * half * np.arange(panels)[:, None]
    return (left + (x + 1.0) * half).ravel(), np.tile(w * half, panels)


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
    cfg = _mass_cfg(cfg)
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
    densities._require_finite("garman_klass_mean", gamma=gamma)
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
    densities._require_finite("rogers_satchell_mean", gamma=gamma)

    def weight(e, c):
        return e * (e - c)

    return _high_close_moment(weight, gamma) + _high_close_moment(weight, -gamma)


# ---------------------------------------------------------------------------
# The (high, low, close) law: second moments and distribution functions
# ---------------------------------------------------------------------------

def _close_integral(inner, gamma: float, span: float = 8.0):
    """Integral of inner(chi) (maybe an array) against the close density N(gamma, 1),
    adaptive, with a breakpoint at 0, where max(0, chi) and min(0, chi) kink."""
    lo, hi = gamma - span, gamma + span
    return integrate.quad_vec(
        lambda chi: inner(chi) * densities.close_pdf(chi, gamma), lo, hi,
        points=(0.0,) if lo < 0.0 < hi else None, **_QUAD_OPTS,
    )[0]


def _hlc_moment(weight, gamma: float, cfg: SeriesConfig, n_gl: int = 80, span: float = 8.0):
    """E[weight(h, l, c)] under the (high, low, close) law: adaptive in the
    close, n_gl x n_gl Gauss-Legendre over the extremes within ``span`` of
    their bounds max(0, c) and min(0, c), ranges below the mass floor left out."""
    cfg = _mass_cfg(cfg)
    x, w = _gl_nodes(0.0, span, n_gl)

    def inner(chi):
        e, l = (max(0.0, chi) + x)[:, None], (min(0.0, chi) - x)[None, :]
        series, _ = densities._hlc_series_grid(e, l, chi, cfg)
        return np.einsum("i,j,ij->", w, w, series * weight(e, l, chi))

    return float(_close_integral(inner, gamma, span))


def _roots(f):
    """(lower, upper) real roots of a quadratic f(t), NaN if none, and its discriminant.

    The coefficients are read off f(-1), f(0), f(1); the roots take the
    stable form q / a and c / q, so a vanishing ``a`` leaves one root exact.
    """
    fm, c, fp = f(-1.0), f(0.0), f(1.0)
    a, b = 0.5 * (fp + fm) - c, 0.5 * (fp - fm)
    disc = b * b - 4.0 * a * c
    q = -0.5 * (b + np.copysign(np.sqrt(np.where(disc >= 0.0, disc, np.nan)), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1, r2 = q / a, c / q
    return np.minimum(r1, r2), np.maximum(r1, r2), disc


def _estimator_cdf(kind, gamma: float, xs, cfg: SeriesConfig, variant: GarmanKlassVariant,
                   n_gl: int = 32, span: float = 8.0):
    """Pr{estimator <= x} for each x of ``xs``, Garman-Klass or Rogers-Satchell.

    Given (h, c) the estimator is a convex quadratic in the low, so the event
    is the interval of l between its roots, cut at min(0, c).  Its mass kinks
    in h where a root meets min(0, c) and where the roots merge; both are
    roots of quadratics in h, and the Gauss-Legendre rule in h is split there.
    The low stops at the mass floor below the high.
    """
    cfg = _mass_cfg(cfg)
    x = np.asarray(xs, dtype=float)[:, None]
    t, w = _gl_nodes(0.0, 1.0, n_gl)

    def form(h, l, c):
        return estimator_value(kind, h, l, c, variant=variant) - x

    def inner(chi):
        h0, end = max(0.0, chi), min(0.0, chi)

        def in_low(h):
            return _roots(lambda l: form(h, l, chi))

        cuts = np.hstack(_roots(lambda h: form(h, end, chi))[:2]
                         + _roots(lambda h: in_low(h)[2])[:2])
        cuts = np.sort(np.clip(np.nan_to_num(cuts, nan=h0), h0, h0 + span), axis=1)
        edges = np.hstack([np.full_like(x, h0), cuts, np.full_like(x, h0 + span)])
        width = np.diff(edges, axis=1)[:, :, None]
        h = (edges[:, :-1, None] + width * t).reshape(len(x), -1)
        mass, _ = densities._hlc_low_mass_grid(h, *in_low(h)[:2], chi, cfg)
        return np.sum((width * w).reshape(len(x), -1) * mass, axis=1)

    return _close_integral(inner, gamma, span)


# ---------------------------------------------------------------------------
# Moment reports
# ---------------------------------------------------------------------------

def theoretical_moments(
    kind: EstimatorKind,
    gamma: float = 0.0,
    cfg: SeriesConfig | None = None,
    gk_variant: GarmanKlassVariant = GarmanKlassVariant.HIGH_LOW_CROSS,
) -> MomentReport:
    """Mean/variance/relative-bias report for one canonical estimator.

    Garman-Klass and Rogers-Satchell combine the 2D mean with E[estimator^2]
    from the (high, low, close) law.
    """
    densities._require_finite("theoretical_moments", gamma=gamma)
    cfg = densities._cfg(cfg)
    if kind in (EstimatorKind.PARKINSON, EstimatorKind.BRIDGE):
        alpha = _alpha(kind)
        e_d2, e_d4 = _range_moments(kind, gamma)
        mean, second = e_d2 / alpha, e_d4 / alpha**2
    else:
        if kind is EstimatorKind.GARMAN_KLASS:
            mean = garman_klass_mean(gamma, cfg, gk_variant)
        else:
            mean = rogers_satchell_mean(gamma)
        second = _hlc_moment(
            lambda h, l, c: estimator_value(kind, h, l, c, variant=gk_variant) ** 2, gamma, cfg
        )
    var = second - mean * mean
    rho = (mean - 1.0) / math.sqrt(var) if var > 0.0 else math.nan
    return MomentReport(
        estimator=kind,
        gamma=gamma,
        mean=mean,
        variance=var,
        relative_bias=rho,
        method="quadrature",
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

def _interval_probabilities(
    kind: EstimatorKind,
    gamma: float,
    levels,
    cfg: SeriesConfig | None,
    gk_variant: GarmanKlassVariant,
) -> tuple[float, ...]:
    """:func:`interval_probability` at each level of ``levels``: one call of
    the range CDF for Parkinson and bridge, one pass over the
    (high, low, close) law for Garman-Klass and Rogers-Satchell."""
    densities._require_finite("interval_probability", gamma=gamma)
    levels = tuple(float(level) for level in levels)
    if not all(level > 0.0 for level in levels):
        raise ValueError("level must be positive")
    cfg = densities._cfg(cfg)
    if kind in (EstimatorKind.PARKINSON, EstimatorKind.BRIDGE):
        law, alpha = densities._range_law(kind, gamma)
        vals = [1.0 - float(v) for v in law(np.sqrt(alpha / np.array(levels)))[0]]
    else:
        below = _estimator_cdf(kind, gamma, [1.0 / level for level in levels], cfg, gk_variant)
        vals = [1.0 - float(v) for v in below]
    return tuple(min(max(v, 0.0), 1.0) for v in vals)


def interval_probability(
    kind: EstimatorKind,
    gamma: float,
    level: float,
    cfg: SeriesConfig | None = None,
    gk_variant: GarmanKlassVariant = GarmanKlassVariant.HIGH_LOW_CROSS,
) -> float:
    """Pr{ true volatility < level * estimate } = Pr{ estimate > 1/level },
    for Parkinson and bridge one minus the range CDF at sqrt(alpha / level)."""
    return _interval_probabilities(kind, gamma, (level,), cfg, gk_variant)[0]


def coverage_probability(
    kind: EstimatorKind,
    gamma: float = 0.0,
    cfg: SeriesConfig | None = None,
    gk_variant: GarmanKlassVariant = GarmanKlassVariant.HIGH_LOW_CROSS,
) -> float:
    """Pr{ estimate/2 < true volatility < 2 * estimate } = Pr{ 1/2 < estimate < 2 },
    for Parkinson and bridge the range CDF difference over (sqrt(alpha / 2), sqrt(2 alpha))."""
    densities._require_finite("coverage_probability", gamma=gamma)
    cfg = densities._cfg(cfg)
    if kind in (EstimatorKind.PARKINSON, EstimatorKind.BRIDGE):
        law, alpha = densities._range_law(kind, gamma)
        below_half, below_two = law(np.sqrt([alpha / 2.0, 2.0 * alpha]))[0]
        return float(below_two - below_half)
    below_half, below_two = _estimator_cdf(kind, gamma, (0.5, 2.0), cfg, gk_variant)
    return float(below_two - below_half)
