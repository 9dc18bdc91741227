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
No 1D statistic calls an adaptive integrator.  Garman-Klass and
Rogers-Satchell are quadratic forms in v = (h, l, c), so their means are
sum(Q * S) over one second-moment matrix S = E[v v^T] (``_quadratic_mean``):
E h^2 and E h c in closed form from the first-passage law, the low's
moments the high's at the flipped drift, and E h l from E d^2 of the range
law.  Their second moments and distribution functions come from the
(high, low, close) law: E[estimator^2] by 3D quadrature, and the CDF from
the closed-form mass of the low between the roots of the estimator, a
convex quadratic in the low given (high, close).

The joint-law quadratures use scipy's adaptive Gauss-Kronrod integrators
at 1e-10 absolute tolerance in the close, with Gaussian-tailed supports
truncated where the integrand is below 1e-16; the CDF's 32-point rule in
the high is within 1e-9 of a 128-point one.  They leave out ranges below
``densities._MASS_FLOOR`` = 0.3, the one floor of the joint image series,
which carry under 2e-22 of probability at any drift.  ``MomentReport.method``
says ``closed-form`` for the bridge moments and ``quadrature`` for the
rest; the ``method`` column of ``rangevol tables`` takes ``_cdf_method``
for every F(N) and P_delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, special

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

_QUAD_OPTS = dict(limit=400, epsabs=1e-10, epsrel=1e-10)

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
    d, w = _gl_nodes(densities._MASS_FLOOR, _range_cut(gamma), 24, panels=16)
    mass = w * law(d)[1]
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


def _second_moments(gamma: float) -> np.ndarray:
    """S = E[v v^T] of v = (h, l, c).  The low's moments are the high's at
    -gamma (reflect the path); E h l = (E h^2 + E l^2 - E d^2) / 2 with E d^2
    from the range law."""
    (e_h2, e_hc), (e_l2, e_lc) = _high_moments(gamma), _high_moments(-gamma)
    e_hl = 0.5 * (e_h2 + e_l2 - _range_moments(EstimatorKind.PARKINSON, gamma)[0])
    return np.array([[e_h2, e_hl, e_hc], [e_hl, e_l2, e_lc], [e_hc, e_lc, 1.0 + gamma * gamma]])


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

def _close_integral(inner, gamma: float, span: float = 8.0):
    """Integral of inner(chi) (maybe an array) against the close density N(gamma, 1),
    adaptive, with a breakpoint at 0, where max(0, chi) and min(0, chi) kink."""
    lo, hi = gamma - span, gamma + span
    return integrate.quad_vec(
        lambda chi: inner(chi) * densities.close_pdf(chi, gamma), lo, hi,
        points=(0.0,) if lo < 0.0 < hi else None, **_QUAD_OPTS,
    )[0]


def _hlc_moment(weight, gamma: float, n_gl: int = 80, span: float = 8.0):
    """E[weight(h, l, c)] under the (high, low, close) law: adaptive in the
    close, n_gl x n_gl Gauss-Legendre over the extremes within ``span`` of
    their bounds max(0, c) and min(0, c), ranges below the mass floor left out."""
    x, w = _gl_nodes(0.0, span, n_gl)

    def inner(chi):
        e, l = (max(0.0, chi) + x)[:, None], (min(0.0, chi) - x)[None, :]
        series, _ = densities._hlc_series_grid(e, l, chi)
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


def _cdf_method(kind: EstimatorKind) -> str:
    """How :func:`_estimator_cdf` reads the distribution function of ``kind``:
    ``closed-form`` from a range law, ``quadrature`` over the (high, low, close) law."""
    range_law = kind in (EstimatorKind.PARKINSON, EstimatorKind.BRIDGE)
    return "closed-form" if range_law else "quadrature"


def _estimator_cdf(kind, gamma: float, xs, variant: GarmanKlassVariant,
                   n_gl: int = 32, span: float = 8.0):
    """Pr{estimator <= x} for each x of ``xs``: the one distribution function
    of every estimator kind.

    Parkinson and bridge are d^2 / alpha, so this is the range CDF at
    sqrt(alpha max(x, 0)).  For Garman-Klass and Rogers-Satchell, given
    (h, c) the estimator is a convex quadratic in the low, so the event is
    the interval of l between its roots, cut at min(0, c) and at the mass
    floor below the high.  Its mass kinks in h where a root meets either cut,
    where the two cuts meet and where the roots merge; all are roots of
    quadratics in h or constants, and the Gauss-Legendre rule in h is split
    there.
    """
    if _cdf_method(kind) == "closed-form":
        law, alpha = densities._range_law(kind, gamma)
        return law(np.sqrt(alpha * np.maximum(xs, 0.0)))[0]
    x = np.asarray(xs, dtype=float)[:, None]
    t, w = _gl_nodes(0.0, 1.0, n_gl)
    floor = densities._MASS_FLOOR

    def form(h, l, c):
        return estimator_value(kind, h, l, c, variant=variant) - x

    def inner(chi):
        h0, end = max(0.0, chi), min(0.0, chi)

        def in_low(h):
            return _roots(lambda l: form(h, l, chi))

        cuts = np.hstack(_roots(lambda h: form(h, end, chi))[:2]
                         + _roots(lambda h: form(h, h - floor, chi))[:2]
                         + _roots(lambda h: in_low(h)[2])[:2] + (np.full_like(x, end + floor),))
        cuts = np.sort(np.clip(np.nan_to_num(cuts, nan=h0), h0, h0 + span), axis=1)
        edges = np.hstack([np.full_like(x, h0), cuts, np.full_like(x, h0 + span)])
        width = np.diff(edges, axis=1)[:, :, None]
        h = (edges[:, :-1, None] + width * t).reshape(len(x), -1)
        mass, _ = densities._hlc_low_mass_grid(h, *in_low(h)[:2], chi)
        return np.sum((width * w).reshape(len(x), -1) * mass, axis=1)

    return _close_integral(inner, gamma, span)


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
    from the (high, low, close) law.
    """
    densities._require_finite("theoretical_moments", gamma=gamma)
    if kind in (EstimatorKind.PARKINSON, EstimatorKind.BRIDGE):
        alpha = _alpha(kind)
        e_d2, e_d4 = _range_moments(kind, gamma)
        mean, second = e_d2 / alpha, e_d4 / alpha**2
    else:
        def form(h, l, c):
            return estimator_value(kind, h, l, c, variant=gk_variant)

        mean = _quadratic_mean(form, gamma)
        second = _hlc_moment(lambda h, l, c: form(h, l, c) ** 2, gamma)
    var = second - mean * mean
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
