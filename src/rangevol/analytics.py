"""Theoretical moments, bias and interval probabilities of the estimators.

Every statistic of an estimator's distribution -- the interval
probabilities F(N) = 1 - CDF(1/N), the coverage P_delta = CDF(2) - CDF(1/2)
and the histogram bin masses of ``rangevol.montecarlo`` -- reads one
distribution function, ``_estimator_cdf``, for all four kinds; the one test
of kind behind it is ``_cdf_method``.  Parkinson and bridge are
delta^2 / alpha (alpha = ln 16 for Parkinson, pi^2 / 6 for the bridge), so
their CDF is the closed-form range law (``densities._range_law``) at
sqrt(alpha x), and their moments are the delta^2 and delta^4 moments over
alpha and alpha^2: for the bridge the constants pi^2 / 6 and pi^4 / 30, for
Parkinson sums over one fixed Gauss-Legendre table (``_range_moments``).
Garman-Klass and
Rogers-Satchell are quadratic forms in v = (h, l, c), so their means are
sum(Q * S) over one second-moment matrix S = E[v v^T] (``_quadratic_mean``):
E h^2 and E h c in closed form from the first-passage law, the low's
moments the high's at the flipped drift, and E h l from E d^2 of the range
law.  Their second moments and distribution functions come from the
(high, low, close) law: E[estimator^2] by 3D quadrature, and the CDF from
the closed-form mass of the low between the roots of the estimator, a
convex quadratic in the low given (high, close).

No statistic calls an adaptive integrator: the joint-law quadratures are
fixed Gauss-Legendre rules, in the close (``_close_rule``) within 1e-11 of
quad_vec at 1e-12, and in the high within 1e-9 of a 128-point rule.  The
close is one more array axis of the joint kernels.  The rules leave out
ranges below ``densities._MASS_FLOOR`` = 0.3, the one floor of the joint
image series, which carry under 2e-22 of probability at any drift.
``MomentReport.method``
says ``closed-form`` for the bridge moments and ``quadrature`` for the
rest; the ``method`` column of ``rangevol tables`` takes ``_cdf_method``
for every F(N) and P_delta.

Two per-drift tables are computed once per drift in a process and shared:
E d^2 and E d^4 of the range law (``_range_moments``) and the read-only
matrix S (``_second_moments``).  The Parkinson moments, both Garman-Klass
means and the Rogers-Satchell mean read them, so a sweep integrates the
range law once per drift.  Each table keeps its last ``_DRIFT_TABLES`` = 64
drifts; nothing keyed on density points or histogram bins is kept.

The only scipy module the statistics load is ``scipy.special``.  The
module attribute ``integrate`` is a lazy hook (PEP 562 ``__getattr__``): it
returns ``scipy.integrate``, and imports it, only when something reads
``analytics.integrate``.  Nothing here does; the benchmark's tracer
(``perfbench/spans.py``) swaps it for a proxy in ``--trace 1`` runs, so the
hook stays until the tracer drops that proxy.  Loading ``scipy.integrate``
eagerly pulled in optimize, sparse, linalg and more: about 26 MB resident
and 0.1-0.3 s of import time in every process of the analytic layer
(2 vCPUs, scipy 1.17.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from . import densities
from .estimators import (EstimatorKind, GarmanKlassVariant, estimator_value, garman_klass_value,
                         rogers_satchell_value)

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


def __getattr__(name):
    if name == "integrate":  # read only by the benchmark's tracer, which proxies it
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "integrate"})


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


# E s^2 and E s^4 of the bridge range (Kuiper's law), at every drift.
_BRIDGE_RANGE_MOMENTS = (math.pi**2 / 6.0, math.pi**4 / 30.0)

# Drifts each per-drift table keeps: a sweep's drift grid, with room to spare.
_DRIFT_TABLES = 64


# Largest |1 - mass| of the range table that its moments are read from.
_MASS_TOLERANCE = 1e-5


@lru_cache(maxsize=_DRIFT_TABLES)
def _range_moments(gamma: float) -> tuple[float, float]:
    """E d^2 and E d^4 of the drifted range law, once per drift.

    One fixed table, 16 panels of 24 Gauss-Legendre nodes over
    [max(mass floor, |gamma| - 10), 13 + |gamma|]: the range is at least
    |c ~ N(gamma, 1)|, so under 2e-22 of the mass lies below the start, and
    above the cut the density is under 1e-16.

    The table's mass is off 1 by 7e-13 at drift 100, 1.3e-6 at 1e5 and
    1.5e-5 at 2e5 (the moments by as much), -12.6 at 1e8, and at 1e20 the
    panels have no width: past ``_MASS_TOLERANCE`` this raises ``ValueError``.
    A NaN mass (the law overflows at 1e10) gives NaN moments.
    """
    law, _ = densities._range_law(EstimatorKind.PARKINSON, gamma)
    d, w = _gl_nodes(max(densities._MASS_FLOOR, abs(gamma) - 10.0), _range_cut(gamma), 24, 16)
    mass = w * law(d, density=True)
    total = float(np.sum(mass))
    if abs(total - 1.0) > _MASS_TOLERANCE:
        raise ValueError(f"the range law's moments at drift {gamma!r}: its quadrature table has "
                         f"mass {total!r}, off 1 by more than {_MASS_TOLERANCE:g}")
    d2 = d * d
    return float(mass @ d2), float(mass @ (d2 * d2))


# ---------------------------------------------------------------------------
# Gauss-Legendre grids for the quadratures
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _leggauss(n: int):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], read-only:
    every later call shares them."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gl_nodes(a: float, b: float, n: int, panels: int = 1):
    """Nodes and weights of the n-point Gauss-Legendre rule on each of
    ``panels`` equal panels of [a, b], flattened."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a) / panels
    left = a + 2.0 * half * np.arange(panels)[:, None]
    return (left + (x + 1.0) * half).ravel(), np.tile(w * half, panels)


def _panel_rule(edges, n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on each panel between
    consecutive ``edges`` (last axis), flattened per row; empty panels weigh 0."""
    t, w = _gl_nodes(0.0, 1.0, n)
    width = np.diff(edges, axis=-1)[..., None]
    shape = edges.shape[:-1] + (-1,)
    return (edges[..., :-1, None] + width * t).reshape(shape), (width * w).reshape(shape)


def _high_moments(gamma: float) -> tuple[float, float]:
    """E h^2 and E h c in closed form:

        E h^2 = (2 + gamma^2) Phi(gamma) + gamma phi(gamma)
                - sign(gamma) P(3/2, gamma^2 / 2) / (2 gamma^2),
        E h c = E h^2 - 1/2.

    E h^2 integrates 2m against the first-passage tail
    Pr{h > m} = Phi(gamma - m) + exp(2 gamma m) Phi(-m - gamma), and the
    Girsanov factor exp(gamma c - gamma^2 / 2) gives E h c = gamma E h +
    d E h / d gamma.  P is the regularized lower incomplete gamma function,
    so the last term goes to 0 at gamma = 0 without cancellation.
    """
    g2 = gamma * gamma
    tail = math.copysign(special.gammainc(1.5, 0.5 * g2) / (2.0 * g2), gamma) if g2 else 0.0
    phi = math.exp(-0.5 * g2) / math.sqrt(2.0 * math.pi)
    e_h2 = float((2.0 + g2) * special.ndtr(gamma) + gamma * phi - tail)
    return e_h2, e_h2 - 0.5


@lru_cache(maxsize=_DRIFT_TABLES)
def _second_moments(gamma: float) -> np.ndarray:
    """S = E[v v^T] of v = (h, l, c), once per drift and read-only.  The low's
    moments are the high's at -gamma (reflect the path); E h l =
    (E h^2 + E l^2 - E d^2) / 2 with E d^2 from the range law."""
    (e_h2, e_hc), (e_l2, e_lc) = _high_moments(gamma), _high_moments(-gamma)
    e_hl = 0.5 * (e_h2 + e_l2 - _range_moments(gamma)[0])
    s = np.array([[e_h2, e_hl, e_hc], [e_hl, e_l2, e_lc], [e_hc, e_lc, 1.0 + gamma * gamma]])
    s.flags.writeable = False
    return s


def _quadratic_mean(form, gamma: float) -> float:
    """E form(h, l, c) of a quadratic form in (h, l, c): sum(Q * S), with
    its coefficient matrix Q read off the form at the unit vectors e_i and
    their sums e_i + e_j, where it takes Q_ii + Q_jj + 2 Q_ij."""
    f = form(*(np.eye(3)[:, None] + np.eye(3)).transpose(2, 0, 1))
    q_diag = np.diag(f) / 4.0
    q = 0.5 * (f - q_diag[:, None] - q_diag)
    return float(np.sum(q * _second_moments(gamma)))


def garman_klass_mean(
    gamma: float = 0.0,
    _positional: None = None,
    variant: GarmanKlassVariant = GarmanKlassVariant.HIGH_LOW_CROSS,
) -> float:
    """Mean of the canonical Garman-Klass estimator, a quadratic form in
    (h, l, c), from their second-moment matrix (:func:`_quadratic_mean`).
    ``_positional`` accepts only None: it keeps ``variant`` third for
    callers that pass it by position.
    """
    if _positional is not None:
        raise TypeError("garman_klass_mean takes variant by keyword")
    densities._require_finite("garman_klass_mean", gamma=gamma)
    return _quadratic_mean(lambda h, l, c: garman_klass_value(h, l, c, variant), gamma)


def rogers_satchell_mean(gamma: float = 0.0) -> float:
    """Mean of the canonical Rogers-Satchell estimator from the (h, l, c)
    second-moment matrix.  It is 1 at every drift: E h (h - c) = 1/2 in
    closed form (:func:`_high_moments`), and E l (l - c) is the same moment
    at -gamma.
    """
    densities._require_finite("rogers_satchell_mean", gamma=gamma)
    return _quadratic_mean(rogers_satchell_value, gamma)


# ---------------------------------------------------------------------------
# The (high, low, close) law: second moments and distribution functions
# ---------------------------------------------------------------------------

_SPAN = 8.0  # the close within 8 of gamma, each extreme within 8 of its bound
_CLOSE_EDGES = np.array([-8.0, -4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 8.0])
_CLOSE_NODES = 16
_HIGH_NODES, _EXTREME_NODES = 32, 80   # nodes of the rule in the high (CDF), per extreme (moment)
_CDF_BLOCK, _MOMENT_BLOCK = 8, 4   # thresholds, close nodes per evaluated block


def _close_rule(gamma: float, cuts):
    """Nodes and weights, the close density N(gamma, 1) folded in, of the fixed
    rule in the close: ``_CLOSE_NODES``-node panels between gamma + ``_CLOSE_EDGES``,
    each row split again at 0 and at its ``cuts`` (last axis); a NaN cut or one
    off the span makes an empty panel."""
    lo, hi = gamma - _SPAN, gamma + _SPAN
    fixed = np.union1d(gamma + _CLOSE_EDGES, 0.0)
    edges = np.concatenate([np.broadcast_to(fixed, cuts.shape[:-1] + fixed.shape), cuts], axis=-1)
    c, w = _panel_rule(np.sort(np.clip(np.nan_to_num(edges, nan=lo), lo, hi), -1), _CLOSE_NODES)
    return c, w * densities.close_pdf(c, gamma)


def _hlc_moment(weight, gamma: float):
    """E[weight(h, l, c)] under the (high, low, close) law: the rule in the close,
    ``_MOMENT_BLOCK`` nodes at a time, by ``_EXTREME_NODES``-point Gauss-Legendre in each
    extreme within ``_SPAN`` of max(0, c) and min(0, c), ranges below the mass floor left out."""
    x, w = _gl_nodes(0.0, _SPAN, _EXTREME_NODES)
    chi, wc = _close_rule(gamma, np.empty(0))
    total = 0.0
    for k in range(0, chi.size, _MOMENT_BLOCK):
        c = chi[k:k + _MOMENT_BLOCK, None, None]
        e, l = np.maximum(0.0, c) + x[:, None], np.minimum(0.0, c) - x
        series, _ = densities._hlc_series_grid(e, l, c)
        total += np.einsum("k,i,j,kij->", wc[k:k + _MOMENT_BLOCK], w, w, series * weight(e, l, c))
    return float(total)


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


def _cdf_method(kind: EstimatorKind) -> str:
    """How :func:`_estimator_cdf` reads the distribution function of ``kind``:
    ``closed-form`` from a range law, ``quadrature`` over the (high, low, close) law."""
    range_law = kind in (EstimatorKind.PARKINSON, EstimatorKind.BRIDGE)
    return "closed-form" if range_law else "quadrature"


def _cdf_given_close(kind, x, c, variant: GarmanKlassVariant):
    """Pr{estimator <= x | close = c} of Garman-Klass or Rogers-Satchell at the broadcast
    points of ``x`` and ``c``.  Given (h, c) the estimator is a convex quadratic in the low,
    so the event is an interval of l, cut at min(0, c) and at the mass floor below the high;
    the ``_HIGH_NODES``-node rule in the high is split where that mass kinks, all at roots of
    quadratics in h."""
    x, c = (a[..., None] for a in np.broadcast_arrays(x, c))
    floor = densities._MASS_FLOOR

    def form(h, l):
        return estimator_value(kind, h, l, c, variant=variant) - x

    def in_low(h):
        return _roots(lambda l: form(h, l))

    h0, end = np.maximum(0.0, c), np.minimum(0.0, c)
    cuts = (_roots(lambda h: form(h, end))[:2] + _roots(lambda h: form(h, h - floor))[:2]
            + _roots(lambda h: in_low(h)[2])[:2] + (end + floor,))
    cuts = np.sort(np.clip(np.nan_to_num(np.concatenate(cuts, -1), nan=h0), h0, h0 + _SPAN), -1)
    h, w = _panel_rule(np.concatenate([h0, cuts, h0 + _SPAN], axis=-1), _HIGH_NODES)
    mass, _ = densities._hlc_low_mass_grid(h, *in_low(h)[:2], c)
    return np.sum(w * mass, axis=-1)


def _estimator_cdf(kind, gamma: float, xs, variant: GarmanKlassVariant):
    """Pr{estimator <= x} for each x of ``xs``: the one distribution function of every kind.

    Parkinson and bridge are d^2 / alpha: the range CDF at sqrt(alpha max(x, 0)).
    Garman-Klass and Rogers-Satchell integrate :func:`_cdf_given_close` by the rule in the
    close, ``_CDF_BLOCK`` thresholds at a time, split where the estimator at the support
    corner, (c, 0, c) for c > 0 and (0, c, c) for c < 0, crosses x: it kinks there in c.
    """
    if _cdf_method(kind) == "closed-form":
        law, alpha = densities._range_law(kind, gamma)
        with np.errstate(over="ignore"):  # d = inf is past the law's cut, where the CDF is 1
            d = np.sqrt(alpha * np.maximum(xs, 0.0))
        return law(d, density=False)
    xs = np.asarray(xs, dtype=float)
    cdf = np.empty(xs.shape)
    for k in range(0, xs.size, _CDF_BLOCK):
        x = xs[k:k + _CDF_BLOCK]
        up = _roots(lambda c: estimator_value(kind, c, 0.0, c, variant=variant) - x)[1]
        down = _roots(lambda c: estimator_value(kind, 0.0, c, c, variant=variant) - x)[0]
        cs, wc = _close_rule(gamma, np.stack([up, down], -1))
        cdf[k:k + _CDF_BLOCK] = (wc * _cdf_given_close(kind, x[:, None], cs, variant)).sum(-1)
    return cdf


# ---------------------------------------------------------------------------
# Moment reports
# ---------------------------------------------------------------------------

def theoretical_moments(
    kind: EstimatorKind,
    gamma: float = 0.0,
    gk_variant: GarmanKlassVariant = GarmanKlassVariant.HIGH_LOW_CROSS,
) -> MomentReport:
    """Mean/variance/relative-bias report for one canonical estimator.

    Garman-Klass and Rogers-Satchell combine the 2D mean with E[estimator^2]
    from the (high, low, close) law.  The variance is E[est^2] - mean^2, so
    it loses digits to that cancellation as |gamma| grows: for Parkinson,
    E d^4 - (E d^2)^2 is good to 2.7e-6 relative at |gamma| = 1000, and
    from about 1e5 it comes out negative, which raises ``ValueError``.
    """
    densities._require_finite("theoretical_moments", gamma=gamma)
    if kind in (EstimatorKind.PARKINSON, EstimatorKind.BRIDGE):
        alpha = _alpha(kind)
        e_d2, e_d4 = _BRIDGE_RANGE_MOMENTS if kind is EstimatorKind.BRIDGE else _range_moments(gamma)
        mean, second = e_d2 / alpha, e_d4 / alpha**2
    else:
        def form(h, l, c):
            return estimator_value(kind, h, l, c, variant=gk_variant)

        mean = _quadratic_mean(form, gamma)
        second = _hlc_moment(lambda h, l, c: form(h, l, c) ** 2, gamma)
    var = second - mean * mean
    if var < 0.0:
        raise ValueError(
            f"theoretical_moments: the {kind.value} variance at drift {gamma!r} is {var:.6g}: "
            "E[est^2] - mean^2 cancelled"
        )
    rho = (mean - 1.0) / math.sqrt(var) if var > 0.0 else math.nan
    return MomentReport(
        estimator=kind,
        gamma=gamma,
        mean=mean,
        variance=var,
        relative_bias=rho,
        method="closed-form" if kind is EstimatorKind.BRIDGE else "quadrature",
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
    gk_variant: GarmanKlassVariant,
) -> tuple[float, ...]:
    """:func:`interval_probability` at each level of ``levels``, from one
    call of the distribution function."""
    densities._require_finite("interval_probability", gamma=gamma)
    levels = tuple(float(level) for level in levels)
    if not all(level > 0.0 for level in levels):
        raise ValueError("level must be positive")
    below = _estimator_cdf(kind, gamma, [1.0 / level for level in levels], gk_variant)
    return tuple(min(max(1.0 - float(v), 0.0), 1.0) for v in below)


def interval_probability(
    kind: EstimatorKind,
    gamma: float,
    level: float,
    gk_variant: GarmanKlassVariant = GarmanKlassVariant.HIGH_LOW_CROSS,
) -> float:
    """Pr{ true volatility < level * estimate } = Pr{ estimate > 1/level }."""
    return _interval_probabilities(kind, gamma, (level,), gk_variant)[0]


def coverage_probability(
    kind: EstimatorKind,
    gamma: float = 0.0,
    gk_variant: GarmanKlassVariant = GarmanKlassVariant.HIGH_LOW_CROSS,
) -> float:
    """Pr{ estimate/2 < true volatility < 2 * estimate } = Pr{ 1/2 < estimate < 2 }."""
    densities._require_finite("coverage_probability", gamma=gamma)
    below_half, below_two = _estimator_cdf(kind, gamma, (0.5, 2.0), gk_variant)
    return float(below_two - below_half)
