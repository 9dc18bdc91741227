"""Exact sampling densities of path extremes, ranges and the estimators.

Everything on a unit window with unit variance: the close c is N(gamma, 1);
(h, l) are the path's running maximum and minimum; d = h - l its range;
(xi, zeta) the bridge extremes and s = xi - zeta the bridge range.  The
joint densities below are reflection-type image expansions:
two-sided sums over an image index m whose terms decay like
exp(-2 m^2 delta^2), plus Gaussian prefactors.

The one-dimensional range laws -- the range d at any drift and the bridge
range s -- are closed forms: each gives its distribution function and its
density from a theta dual below ``_SWITCH`` and from its image form above
it, each a fixed number of terms on one flat axis (see ``_SWITCH``), to
2e-15 relative from d = 0.3 on and with no floor below it.  Each kernel
returns only the half its caller asks for (``density``): the distribution
functions of ``rangevol.analytics`` read the CDF, the moments and the point
densities the density.  Past a cut (``_LIMIT``) each returns its limit,
CDF 1 and density 0, so huge and infinite ranges give no NaN.  Their image
exponents cancel at large drift: past ``_DRIFT_BOUND`` = 1e5 the pointwise
range laws raise ``ValueError`` naming the drift wherever a kernel runs.

Every public density takes floats or broadcastable numpy arrays, giving a
``DensityValue`` of Python scalars or of per-point arrays.  A joint law is
its kernel, whose mask is its support, times :func:`close_pdf`.  A range law
takes one float drift, and its four public densities are one private
function, :func:`_range_law_pdf`: a point that is no ndarray (a float, int,
bool or numpy scalar) takes its one-point route, for the thousands of points
of a theory sweep (about 9-10 us a Parkinson point against 25-35 us through
:func:`_by_switch`, which takes an ndarray).  Both run the same kernels: each
point is a 1-row matrix in their matrix products, so the routes differ only
where the dual's one point keeps ``math.exp``, by a few ulps.

Truncation policy of the joint grids: image shells (+m, -m) are summed
outward from m = 1, and each grid point stops once the largest exponent its
shell passed to exp falls below ``_CUTOFF``; every later term of the point
is then below exp(-50) times a polynomial in m, since each kernel's
exponents fall monotonically in m on its support.  The loop ends when every
point has stopped, so it needs no tolerance and no term cap.  A non-finite
shell term (a NaN drift or argument) raises ``ValueError`` at once, and the
joint densities and the joint means in ``rangevol.analytics`` reject a
non-finite argument up front.  Every joint series starts at the one floor
``_MASS_FLOOR`` = 0.3 in the range: the pointwise joint densities return 0
with ``converged=False`` below it, and the grids leave those points out.

erf/erfc come from scipy.special; products like exp(big) * erfc(big) are
evaluated through erfcx to stay in range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc, erfcx

from .estimators import BRIDGE_FACTOR, LN16, EstimatorKind
from .paths import _require_finite

__all__ = [
    "DensityValue",
    "close_pdf",
    "high_close_joint_pdf",
    "high_pdf",
    "hlc_joint_pdf",
    "range_close_joint_pdf",
    "range_pdf",
    "bridge_hl_joint_pdf",
    "bridge_range_pdf",
    "parkinson_estimator_pdf",
    "bridge_estimator_pdf",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2_PI = math.sqrt(2.0 / math.pi)   # sqrt(2/pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_HALF_OVER_SQRT_PI = 0.5 / math.sqrt(math.pi)
_SQRT_PI_2 = math.sqrt(0.5 * math.pi)


@dataclass(frozen=True)
class DensityValue:
    """A density evaluation plus its convergence telemetry.

    ``terms_used`` counts image shells, or the fixed terms of a range law
    (0 for the other closed forms, for floored or out-of-support arguments
    and past a range law's cut ``_LIMIT``).  ``converged`` is False only
    when a joint density's range fell below the mass floor ``_MASS_FLOOR``
    = 0.3, where it returns 0.
    ``clamped`` marks a tiny negative round-off result that was clamped to
    0; a negative value beyond round-off (``_ROUND_OFF``) raises
    ``ValueError``.  The diagnostic "half" variant of :func:`high_pdf` goes
    genuinely negative at nonzero drift, which is exactly the inconsistency
    the validation module records, so it is built without that check.
    At array arguments each field is an array of their broadcast shape.
    """

    value: float | np.ndarray
    terms_used: int | np.ndarray
    converged: bool | np.ndarray
    clamped: bool | np.ndarray = False


_MASS_FLOOR = 0.3
"""The one floor of the joint series: the smallest range they are summed at,
pointwise and in every quadrature; below it the laws carry no mass at float
precision.

At zero drift the range mass below 0.3 is 1.4e-22, and the bridge range's
is 1.4e-21 (image series summed at 60 digits; Feller 1951 gives the
small-argument behaviour: a power of 1/d times exp(-pi^2 / (2 d^2))).
Under drift the (range, close) density is the driftless one times
exp(gamma c - gamma^2 / 2), and |c| <= delta bounds that factor by
exp(delta^2 / 2) <= 1.05 below 0.3, so no drift lifts the mass there above
2e-22.  The float joint image series return only round-off in that region
(+-1.5e-11 at range 0.02, a few machine epsilons over delta^3); the
closed-form range laws need no floor.
"""

_ROUND_OFF = 1e-11
"""Largest negative density value taken as round-off and clamped to 0."""


def _finish(value, terms, converged=True) -> DensityValue:
    """The density values, round-off below 0 clamped; 0-d arrays give Python scalars.
    A value that is not finite raises ``ValueError``."""
    finite = np.isfinite(value)
    if not finite.all():
        raise ValueError(f"density value {float(np.asarray(value)[~finite].flat[0])!r} is not finite")
    worst = np.min(value, initial=0.0)
    if worst < -_ROUND_OFF:
        raise ValueError(f"density value {float(worst)!r} is negative beyond round-off")
    low = np.asarray(value) < 0.0
    fields = (np.where(low, 0.0, value), np.full(low.shape, terms), np.full(low.shape, converged), low)
    return DensityValue(*fields) if low.ndim else DensityValue(*(f.item() for f in fields))


_CUTOFF = -50.0
"""A grid point stops summing once its shell's largest exponent is below this."""

_ZERO_EXPONENT = -800.0
"""An exponent below which exp is exactly 0 in floats (it underflows below
about -745.13).  The joint kernels leave out the points where the largest
exponent of their terms lies below this, and the (high, close) density
returns 0 there: the float value is already exactly 0, and huge arguments
would overflow the squares in the terms."""


def _image_series(shell, mask, cols, context: str) -> tuple[np.ndarray, np.ndarray]:
    """Sum shell(m, *cols) for m = 1, 2, ... over the grid points where mask holds.

    ``shell`` returns the shell's terms and, per point, the largest exponent
    it passed to exp.  A point stops, its sum final, after the first shell
    whose exponent is below ``_CUTOFF``, and drops out of the evaluation; the
    loop ends when every point has stopped.  Points off the mask are 0.
    Returns the sums and, per point, the shells it summed (0 off the mask).
    """
    total = np.zeros(mask.shape)
    shells = np.zeros(mask.shape, dtype=int)
    live = np.flatnonzero(mask)
    cols = [c[mask] for c in cols]
    acc = np.zeros(live.size)
    m = 0
    while live.size:
        m += 1
        t, top = shell(m, *cols)
        if not math.isfinite(np.max(np.abs(t))):
            raise ValueError(f"{context}: non-finite shell term at shell {m}")
        acc += t
        done = top < _CUTOFF
        if done.any():
            total.flat[live[done]] = acc[done]
            shells.flat[live[done]] = m
            keep = ~done
            live, acc = live[keep], acc[keep]
            cols = [c[keep] for c in cols]
    return total, shells


# ---------------------------------------------------------------------------
# Close and high
# ---------------------------------------------------------------------------

def close_pdf(chi, gamma):
    """Density of the close: N(gamma, 1); a float at floats, else an array."""
    _require_finite("close_pdf", chi=chi, gamma=gamma)
    with np.errstate(over="ignore"):  # a huge z squares to inf, where the density is 0
        value = np.exp(-0.5 * np.square(chi - gamma)) / _SQRT_2PI
    return value if value.ndim else float(value)


def high_close_joint_pdf(eta, chi, gamma) -> DensityValue:
    """Joint density of (high, close); closed form, support chi < eta, eta > 0."""
    _require_finite("high_close_joint_pdf", eta=eta, chi=chi, gamma=gamma)
    # the exponent 2 gamma eta - (2 eta - chi + gamma)^2 / 2 without the terms that
    # cancel at large drift; huge arguments overflow in the terms np.where discards
    with np.errstate(over="ignore", invalid="ignore"):
        expo = -2.0 * eta * (eta - chi) - 0.5 * np.square(chi - gamma)
        value = np.where((eta > 0.0) & (chi < eta) & (expo >= _ZERO_EXPONENT),
                         _SQRT_2_PI * (2.0 * eta - chi) * np.exp(expo), 0.0)
    return _finish(value, 0)


def high_pdf(eta, gamma) -> DensityValue:
    """Density of the high, support eta > 0.

    The drift correction term is gamma * exp(2*gamma*eta) *
    erfc((eta + gamma) / sqrt(2)), the form that agrees with the marginal
    of :func:`high_close_joint_pdf` and with simulation at nonzero drift.
    The refuted reading with divisor 2 is kept by ``rangevol.validation``.
    """
    _require_finite("high_pdf", eta=eta, gamma=gamma)
    # while eta + gamma >= 0 the drift term takes the Gaussian term's exponent
    # -(eta - gamma)^2 / 2 through erfcx, so nothing cancels at large drift;
    # huge arguments overflow in the terms np.where discards
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gauss = np.exp(-0.5 * np.square(eta - gamma))
        half = (0.5 * eta + 0.5 * gamma) / _SQRT2   # a / 2, finite at all finite arguments
        a = 2.0 * half
        # where a overflows, erfcx(a) is 1 / (sqrt(pi) a) to round-off
        scaled = np.where(np.isinf(a), np.divide(_HALF_OVER_SQRT_PI, half), erfcx(a))
        drift = np.where(a >= 0.0, gauss * scaled, np.exp(2.0 * (gamma * eta)) * erfc(a))
        value = np.where(eta > 0.0, _SQRT_2_PI * gauss - gamma * drift, 0.0)
    return _finish(value, 0)


# ---------------------------------------------------------------------------
# Joint density of (high, low, close)
# ---------------------------------------------------------------------------

def _hlc_shell(m, d, l, chi):
    """Shell m of the (h, l, c) image series, the sum over mm = +-m of
    mm * (mm K(mm d) + (1 - mm) K(mm d + l)) with
    K(u) = ((chi - 2u)^2 - 1) exp(2u(chi - u)): its terms and largest exponent."""
    t = 0.0
    top = -np.inf
    for mm in (m, -m):
        u1, u2 = mm * d, mm * d + l
        x1, x2 = 2.0 * u1 * (chi - u1), 2.0 * u2 * (chi - u2)
        k1 = ((chi - 2.0 * u1) ** 2 - 1.0) * np.exp(x1)
        k2 = ((chi - 2.0 * u2) ** 2 - 1.0) * np.exp(x2)
        t = t + mm * (mm * k1 + (1 - mm) * k2)
        top = np.maximum(top, np.maximum(x1, x2))
    return t, top


def _hlc_series_grid(eta, ell, chi) -> tuple[np.ndarray, np.ndarray]:
    """Image series of the (h, l) density conditional on close = chi, vectorized.

    ``eta``, ``ell`` and ``chi`` are broadcastable arrays; the support mask and
    the overall factor 4 are applied (the factor is fixed by normalization:
    the double integral over (eta, ell) must be 1 for every chi; see
    ``rangevol.validation``).  Returns (values, shells used per point).
    """
    eta, ell, chi = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (eta, ell, chi)))
    # no image exponent exceeds -2 eta (eta - chi) or -2 ell (ell - chi); huge
    # arguments overflow to -inf exponents, off the mask
    with np.errstate(over="ignore"):
        d = eta - ell
        mask = ((eta > np.maximum(0.0, chi)) & (ell < np.minimum(0.0, chi)) & (d >= _MASS_FLOOR)
                & (-2.0 * np.maximum(eta * (eta - chi), ell * (ell - chi)) >= _ZERO_EXPONENT))
    total, shells = _image_series(_hlc_shell, mask, (d, ell, chi), "(h,l,c) joint density")
    return 4.0 * total, shells


def _hlc_low_mass_grid(eta, lo, hi, chi) -> tuple[np.ndarray, np.ndarray]:
    """Integral of :func:`_hlc_series_grid` over the low in [lo, hi], vectorized.

    K(u) is G'(u) / 2 with G(u) = (chi - 2u) exp(2u(chi - u)), so image term
    mm integrates to mm / 2 [G(mm d + l) - G(mm d)] (d = eta - l) between the
    ends, with the density's own exponents.  The arguments broadcast; ``hi`` is clipped to the
    support and to range ``_MASS_FLOOR``; ``lo`` must be finite; NaN ends give 0.
    """
    eta, lo, hi, chi = np.broadcast_arrays(*(np.asarray(a, float) for a in (eta, lo, hi, chi)))
    hi = np.minimum(hi, np.minimum(np.minimum(0.0, chi), eta - _MASS_FLOOR))
    mask = (eta > np.maximum(0.0, chi)) & (lo < hi)

    def shell(m, e, a, b, chi):
        t = 0.0
        top = -np.inf
        for mm in (m, -m):
            for ell, half in ((b, 0.5 * mm), (a, -0.5 * mm)):
                for u, coef in ((mm * (e - ell) + ell, half), (mm * (e - ell), -half)):
                    x = 2.0 * u * (chi - u)
                    t = t + coef * (chi - 2.0 * u) * np.exp(x)
                    top = np.maximum(top, x)
        return t, top

    total, shells = _image_series(shell, mask, (eta, lo, hi, chi), "(h,l,c) low mass")
    return 4.0 * total, shells


def _joint(kernel, factor, top, bottom) -> DensityValue:
    """A joint law, the kernel's series times ``factor``; converged at ranges >= the floor."""
    series, shells = kernel
    with np.errstate(over="ignore"):  # a huge range overflows to inf, above the floor
        return _finish(factor * series, shells, top - bottom >= _MASS_FLOOR)


def hlc_joint_pdf(eta, ell, chi, gamma) -> DensityValue:
    """Joint density of (high, low, close); support ell < chi < eta with
    eta > max(0, chi) and ell < min(0, chi)."""
    _require_finite("hlc_joint_pdf", eta=eta, ell=ell, chi=chi, gamma=gamma)
    return _joint(_hlc_series_grid(eta, ell, chi), close_pdf(chi, gamma), eta, ell)


# ---------------------------------------------------------------------------
# Joint density of (range, close)
# ---------------------------------------------------------------------------

def _range_close_series_grid(delta, abs_chi) -> tuple[np.ndarray, np.ndarray]:
    """Image series of the (range, close) density without the close factor.

    Vectorized over broadcastable ``delta`` and ``abs_chi`` grids (the close
    enters only through its absolute value); the overall factor 4 is
    included, the Gaussian close density is not.  Returns (values, shells).
    """
    delta, abs_chi = np.broadcast_arrays(
        np.asarray(delta, dtype=float), np.asarray(abs_chi, dtype=float)
    )
    # the largest image exponent is -2 delta (delta - |chi|); a huge range overflows to -inf
    with np.errstate(over="ignore"):
        mask = ((delta > abs_chi) & (delta >= _MASS_FLOOR)
                & (-2.0 * (delta * (delta - abs_chi)) >= _ZERO_EXPONENT))

    def shell(m, d, a):
        t = 0.0
        top = -np.inf
        for mm in (m, -m):
            u = a + 2.0 * mm * d
            x = -2.0 * mm * d * (a + mm * d)
            t = t + mm * (mm * (d - a) * (u * u - 1.0) - (mm + 1) * u) * np.exp(x)
            top = np.maximum(top, x)
        return t, top

    total, shells = _image_series(
        shell, mask, (delta, abs_chi), "(range, close) joint density"
    )
    return 4.0 * total, shells


def range_close_joint_pdf(delta, chi, gamma) -> DensityValue:
    """Joint density of (range, close); support delta > |chi|.

    Depends on chi only through |chi| (apart from the Gaussian close
    factor), so it is symmetric in chi at gamma = 0.
    """
    _require_finite("range_close_joint_pdf", delta=delta, chi=chi, gamma=gamma)
    return _joint(_range_close_series_grid(delta, np.abs(chi)), close_pdf(chi, gamma), delta, 0.0)


# ---------------------------------------------------------------------------
# The range laws: distribution function and density of the range and of the
# bridge range
# ---------------------------------------------------------------------------

_SWITCH = 1.5
"""Range at which each law switches from its theta dual to its image form.

The dual terms fall like exp(-n^2 pi^2 / (2 d^2)), so 12 of them reach
exp(-113) of the first at d = 2.5; under drift they alternate in sign at
about exp(d^2 / 2) times the law, which costs digits above the switch (the
CDF is good to 1e-9 relative at d = 6, gamma = 1).  The image terms fall
like exp(-2 k^2 d^2): with 6 shells the first image left out is below
exp(-60 d^2) of the law, below round-off from d = 1 on.  Both forms
therefore hold their term counts fixed, and agree to 1e-14 on [1, 2.5].
"""

_DUAL_A = (math.pi * np.arange(1.0, 13.0)) ** 2   # a_n = n^2 pi^2, n = 1..12
_IMAGE_SHELLS = 6
_KUIPER_M2 = np.arange(1.0, _IMAGE_SHELLS + 1.0) ** 2
_LOG_PHI0 = -0.5 * math.log(2.0 * math.pi)   # log of the normal density at 0


def _read_only(*tables):
    """The tables, made read-only: cached and module tables are shared."""
    for table in tables:
        table.flags.writeable = False
    return tables


# The theta dual's tables: -a_n / 2, the powers 2, 3, 4 of 1 / q_n, and the
# weights 4 a_n, 4 a_n^2, 4 a_n^3 then (-1)^n times each.
_DUAL_HALF_A, _DUAL_POWERS, _DUAL_WEIGHTS = _read_only(
    -0.5 * _DUAL_A, np.array([[2.0], [3.0], [4.0]]),
    np.stack([4.0 * _DUAL_A ** j * sign for sign in (1.0, np.resize([-1.0, 1.0], _DUAL_A.size))
              for j in (1, 2, 3)], -1))


def _column(x):
    """An array of points as a column for the terms of a series; a float as it is."""
    return x[..., None] if isinstance(x, np.ndarray) else x


def _sums(product, array: bool):
    """The entries of a kernel's matrix product by row and column: Python floats
    for one point, and for an array of points one array over the points each."""
    if not array:
        return product.tolist()
    n = product.ndim
    return product.transpose(n - 2, n - 1, *range(n - 2))


def _range_dual(d, gamma: float, *, density: bool):
    """The CDF, or with ``density`` the density, of the range at d > 0 (a
    float or an array) from its theta dual.

    The paths that stay in a window of width d, summed over the window's
    position, give H(d) = E (d - D)^+ in closed form from the eigenfunctions
    of the window,
    H(d) = sum_n 4 a_n d (1 - (-1)^n cosh(gamma d)) exp(-a_n / (2 d^2) - gamma^2 / 2)
    / (gamma^2 d^2 + a_n)^2,
    so that H' is the CDF and H'' the density.  With z = gamma^2 d^2,
    q_n = a_n + z, u = 1 / d^2 and the drift factors f0 = exp(-gamma^2 / 2),
    c = f0 cosh(gamma d) and t = -f0 gamma d sinh(gamma d), both are sums of
    e_n / q_n^j (e_n = exp(-a_n u / 2), j = 2, 3, 4) times a power of a_n,
    plain and times (-1)^n: one matrix product per point, then combined with
    the drift factors.  With Rj(w) the sum of w e_n / q_n^j and
    M(w) = R3(w a^2) - 3 z R3(w a) + u R2(w a^2),
    CDF / 4 = f0 M(1) - c M(s) + t R2(s a), s = (-1)^n, and
    d density / 4 = f0 K(1) - c K(s) + 2 t M(s) - z c R2(s a), where
    K(w) = u (u R2(w a^3) - 3 R2(w a^2) + 2 R3(w a^3) - 6 z R3(w a^2))
    - 12 z (R4(w a^2) - z R4(w a)).
    """
    array = isinstance(d, np.ndarray)
    exp = np.exp if array else math.exp   # one point's factors are floats
    y = gamma * d
    z = y * y
    h = 0.5 * gamma * gamma
    f0 = math.exp(-h)
    fp, fm = 0.5 * exp(y - h), 0.5 * exp(-y - h)
    c, t = fp + fm, y * (fm - fp)
    dd = d * d
    u = 1.0 / dd
    r = 1.0 / (_DUAL_A + _column(z))
    e = np.exp(_DUAL_HALF_A / _column(dd))
    # 4 Rj over the weights a, a^2, a^3, then (-1)^n times each: w = 1 at o = 0, s at o = 3
    r2, r3, r4 = _sums((r[..., None, :] ** _DUAL_POWERS * e[..., None, :]) @ _DUAL_WEIGHTS, array)
    z3 = 3.0 * z

    def m(o):
        return r3[o + 1] - z3 * r3[o] + u * r2[o + 1]

    if not density:
        return f0 * m(0) - c * m(3) + t * r2[3]

    def k(o):
        return (u * (u * r2[o + 2] - 3.0 * r2[o + 1] + 2.0 * r3[o + 2] - 2.0 * z3 * r3[o + 1])
                - 4.0 * z3 * (r4[o + 1] - z * r4[o]))

    return (f0 * k(0) - c * k(3) + 2.0 * t * m(3) - z * c * r2[3]) / d


_MASS_SLACK = 1.0 + 2.0**-30
"""The image form sums its masses e^{-2kdg} [v < 0 <= b] only where
d <= |gamma| times this factor (see :func:`_range_image`); the slack covers
the rounding of the signs of v and b at d = |gamma|."""


@lru_cache(maxsize=32)
def _image_terms(gamma: float, shells: int):
    """Read-only tables of the image form at one drift, over its terms (k, g),
    k = 1 - shells .. shells - 1 and g = +-gamma (see :func:`_range_image`).

    ``span`` maps (d^2, d, 1) to x / sqrt(2) at x = v then b, and to the
    exponents of e^{-2kdg} phi(x) at v, b, v, b: the layout [phi at v, phi
    at b, tail at v, tail at b] of the terms.  ``weights[density]`` maps the
    terms to (c0, c1) of the CDF or the density, which is c0 + d c1; ``kg``
    is -2 k g, and ``mass[density]`` the (c0, c1) weights of the masses
    e^{-2kdg} [v < 0 <= b].
    """
    k = np.repeat(np.arange(1.0 - shells, shells), 2)
    g = np.resize([gamma, -gamma], k.size)
    kg, g2, odd, zero = -2.0 * k * g, gamma * gamma, 2.0 * k + 1.0, np.zeros(k.size)
    ends, gg = np.concatenate((2.0 * k, odd)), np.concatenate((g, g))
    # a drift so large that these overflow makes the values NaN, which the
    # public densities reject
    with np.errstate(over="ignore", invalid="ignore"):
        expo = np.stack((-0.5 * ends * ends, ends * gg + np.concatenate((kg, kg)),
                         _LOG_PHI0 - 0.5 * gg * gg))
        x = np.stack((np.zeros(ends.size), ends / _SQRT2, -gg / _SQRT2))
        span = np.concatenate((x, expo, expo), 1)
        p = 1.0 + 4.0 * k - kg * g             # p = 1 + 4k - 2 k b g, at d = 0
        w = kg * (p + 1.0 + 2.0 * k)           # kg (p + 1 + 2k), at d = 0
        cdf = (p, kg * odd)
        pdf = (w, kg * kg * odd)
        phi_pdf = np.concatenate((-(4.0 * g2 + 8.0) * k * k, 4.0 * g2 * k * k + odd * (4.0 * k + 1.0)))
        phi_cdf = np.concatenate((zero, kg))
        weights = tuple(
            np.stack((np.concatenate((phi, _SQRT_PI_2 * c0, -_SQRT_PI_2 * c0)),
                      np.concatenate((zero, zero, _SQRT_PI_2 * c1, -_SQRT_PI_2 * c1))), -1)
            for phi, (c0, c1) in ((phi_cdf, cdf), (phi_pdf, pdf)))
        mass = tuple(np.stack(c, -1) for c in (cdf, pdf))
    return _read_only(span, *weights, kg, *mass)


def _range_image(d, gamma: float, shells: int = _IMAGE_SHELLS, *, density: bool):
    """The CDF, or with ``density`` the density, of the range at d > 0 (a
    float or an array) from its image form.

    Summing the images of the killed diffusion over the window's position
    gives, with g = +-gamma, v = 2 k d - g and b = v + d,
    CDF = sum_{k, g} [p M - 2 k g e^{-2kdg} phi(b)],  p = 1 + 4k - 2 k b g,
    M = e^{-2kdg} (Phi(b) - Phi(v)), and the density is its derivative in d.
    The exponents of the weighted normal densities e^{-2kdg} phi(x), each a
    quadratic in d, and the arguments of the tails (through erfcx) come from
    one matrix product of (d^2, d, 1) with the drift's tables
    (:func:`_image_terms`); the weights are linear in d, and one more
    product sums the terms.  Each point is a 1-row matrix in both products,
    so one point and an array of points give the same sums.
    """
    span, cdf, pdf, kg, cdf_mass, pdf_mass = _image_terms(gamma, shells)
    n2 = 2 * kg.size
    array = isinstance(d, np.ndarray)
    if array:
        rows = np.empty(d.shape + (1, 3))
        rows[..., 0, 0], rows[..., 0, 1], rows[..., 0, 2] = d * d, d, 1.0
    else:
        rows = np.array(((d * d, d, 1.0),))
    xe = rows @ span
    x = xe[..., :n2]
    terms = np.exp(xe[..., n2:])
    terms[..., n2:] *= np.copysign(erfcx(np.abs(x)), x)
    ((c0, c1),) = _sums(terms @ (pdf if density else cdf), array)
    # The masses e^{-2kdg} [v < 0 <= b] at k != 0 need d <= |gamma|; past
    # it only k = 0, g = |gamma| > 0 is live, with weight 1 in the CDF and 0
    # in the density.
    near = d <= _MASS_SLACK * abs(gamma)
    far = 1.0 if gamma != 0.0 and not density else 0.0
    weights = pdf_mass if density else cdf_mass
    if not array:
        return c0 + d * c1 + (_image_masses(x, d, kg, weights, False) if near else far)
    masses = np.full(d.shape, far)
    if near.any():
        masses[near] = _image_masses(x[near], d[near], kg, weights, True)
    return c0 + d * c1 + masses


def _image_masses(x, d, kg, weights, array: bool):
    """The masses e^{-2kdg} [v < 0 <= b] of :func:`_range_image` summed with
    their ``weights``, from x / sqrt(2) at v and b."""
    n = kg.size
    live = (x[..., :n] < 0.0) & (x[..., n:] >= 0.0)
    masses = np.exp(np.where(live, kg * (d[..., None, None] if array else d), -np.inf))
    ((c0, c1),) = _sums(masses @ weights, array)
    return c0 + d * c1


def _bridge_dual(s, *, density: bool):
    """The CDF, or with ``density`` the density, of the bridge range at s > 0
    from the dual of Kuiper's law:
    CDF = sqrt(2 pi) / s^3 * sum_k a_k exp(-a_k / (2 s^2)), a_k = k^2 pi^2."""
    r = 1.0 / (s * s)
    e = np.exp(_DUAL_A * (-0.5 * _column(r)))
    e1 = e @ _DUAL_A
    c = _SQRT_2PI * r / s
    if not density:
        return c * e1
    return c / s * (r * (e @ (_DUAL_A * _DUAL_A)) - 3.0 * e1)


def _bridge_image(s, *, density: bool):
    """The CDF, or with ``density`` the density, of the bridge range at s > 0,
    Kuiper's law (Kuiper 1960): CDF = 1 - 2 sum_m (4 m^2 s^2 - 1) exp(-2 m^2 s^2)."""
    s2 = s * s
    e = np.exp(_KUIPER_M2 * (-2.0 * _column(s2)))
    e1 = e @ _KUIPER_M2
    if not density:
        return 1.0 - 2.0 * (4.0 * s2 * e1 - np.add.reduce(e, -1))
    return 8.0 * s * (4.0 * s2 * (e @ (_KUIPER_M2 * _KUIPER_M2)) - 3.0 * e1)


_LIMIT = 40.0
"""Distance past which a range law is its limit: CDF 1, density 0.

The range at drift gamma takes the cut ``_LIMIT + |gamma|`` and the bridge
range ``_LIMIT``.  Past about 38.6 + |gamma| and 19.3 respectively the float
laws already evaluate to exactly (1, 0), until squares overflow and they
turn NaN: from about 7e153 for the bridge range, and from 4e304 to 2e307
for the range at the ``tables`` drifts.  The cut returns the limit on the
whole tail, infinity included, and leaves every finite value of the laws
bit for bit as it was.

At the other end both laws are exactly 0 below 1 / ``_LIMIT`` (0.025),
where the first exponent of the theta dual, -pi^2 / (2 d^2), is below -7800;
below about 1e-103 the dual's own factors overflow and it turns NaN.  So the
laws are 0 from no terms below that cut too.
"""

_LOW = 1.0 / _LIMIT


def _by_switch(d, cut: float, density: bool, dual, image, *args):
    """The CDF, or with ``density`` the density, at every point of ``d``:
    ``dual(d, *args)`` up to ``_SWITCH``, ``image(d, *args)`` above it up to
    ``cut``, the limit (CDF 1, density 0) past ``cut``, and 0 below ``_LOW``
    (and at NaN); with the terms each point used (0 for the limits)."""
    d = np.asarray(d, dtype=float)
    out = np.zeros(d.shape)
    terms = np.zeros(d.shape, dtype=int)
    for part, law, n in (((d >= _LOW) & (d <= _SWITCH), dual, _DUAL_A.size),
                         ((d > _SWITCH) & (d <= cut), image, _IMAGE_SHELLS)):
        if part.any():
            out[part] = law(d[part], *args, density=density)
            terms[part] = n
    if not density:
        out[d > cut] = 1.0
        # where the CDF underflows, the image sum's round-off can leave it a
        # few subnormals below 0
        np.maximum(out, 0.0, out=out)
    return out, terms


_DRIFT_BOUND = 1e5
"""Largest |gamma| at which the pointwise range law (:func:`range_pdf`,
:func:`parkinson_estimator_pdf`) returns what its kernels evaluate.

The image form's exponents, (d^2, d, 1) @ span, are quadratics in d whose
terms of size gamma^2 cancel at d ~ gamma, so the law loses digits as gamma
grows.  The reference is its limit law: d - gamma is N(0, 1) up to
O(1 / gamma).  The largest relative distance of range_pdf(gamma + x, gamma)
from phi(x), at x = -1, 0, 0.5, 1 and 2:

    gamma   distance   1 / gamma
    1e4     2.0e-4     1e-4
    1e5     1.85e-5    1e-5
    1.5e5   2.4e-5     6.7e-6
    2e5     9.2e-5     5e-6
    1e6     8.8e-4     1e-6
    1e7     9.8e-2     1e-7

Up to 1e5 the distance is the limit's own 2 / gamma, to 1.5e-6; past it the
lost digits take over, and from about 1e8 the values are garbage (512 at
1e9, where the density is below 1).  So past this bound the pointwise laws
raise ``ValueError`` naming the drift at any point their kernels evaluate,
after :func:`_finish` has rejected what is not finite or negative; the
limits, 0 from no terms below ``_LOW`` and past the cut, hold at any drift.
The laws are evaluated quietly there, so no numpy warning escapes.  The
histogram fit in ``montecarlo`` makes the same check on its bin edges
(:func:`_require_digits`) and ``analytics.theoretical_moments`` on the
Parkinson moments; the joint means read the range table past the bound, whose
mass check rejects only what its mass shows (ROADMAP item 10 is to make the
laws right at such drifts)."""


def _tamed(cut: float, law, *args):
    """``law(*args)`` of a range law with cut ``cut``: quietly past ``_DRIFT_BOUND``."""
    if cut > _LIMIT + _DRIFT_BOUND:
        with np.errstate(over="ignore", invalid="ignore"):
            return law(*args)
    return law(*args)


def _no_digits(context: str, gamma: float) -> ValueError:
    """The error of a pointwise range law at a drift past ``_DRIFT_BOUND``."""
    return ValueError(f"{context}: the range law at drift {gamma!r} has no digits: its image "
                      f"exponents cancel past drift {_DRIFT_BOUND:g}")


def _require_digits(context: str, gamma: float, d) -> None:
    """Raise :func:`_no_digits` if the range law at drift gamma, past ``_DRIFT_BOUND``,
    runs its kernels at a range of the array ``d``: the pointwise laws' check for the
    callers of :func:`_range_law`, which sees no term counts."""
    if abs(gamma) > _DRIFT_BOUND and np.any((d >= _LOW) & (d <= _LIMIT + abs(gamma))):
        raise _no_digits(context, gamma)


def _range_law_pdf(context: str, name: str, x, gamma, alpha, bridge=False) -> DensityValue:
    """The density at ``x`` of the range at drift ``gamma`` (one float), or with
    ``bridge`` of the bridge range (drift 0.0); with ``alpha``, of d^2 / alpha,
    0 at x <= 0.  ``context`` names the caller and ``name`` its point in errors.

    A point that is no ndarray is one point: it and the drift are taken as
    floats and checked with ``math.isfinite``, and the form that holds at d
    runs once, with :func:`_finish` only for a value that is negative or not
    finite.  An ndarray takes :func:`_by_switch`.  Either way the limit, 0
    from no terms, holds below ``_LOW`` and past the cut, and past
    ``_DRIFT_BOUND`` the law runs quietly and raises :func:`_no_digits` where
    a kernel ran, after :func:`_finish` has checked its value.
    """
    if type(gamma) is not float and np.ndim(gamma):
        raise ValueError(f"{context}: gamma must be one float, got an array of shape "
                         f"{np.shape(gamma)}")
    g = float(gamma)
    dual, image, args = ((_bridge_dual, _bridge_image, ()) if bridge
                         else (_range_dual, _range_image, (g,)))
    cut = _LIMIT + abs(g)
    if isinstance(x, np.ndarray):
        _require_finite(context, **{name: x}, gamma=g)
        d = x
        if alpha is not None:
            with np.errstate(over="ignore"):  # d = inf is past the law's cut, where the density is 0
                d = np.asarray(np.sqrt(alpha * np.maximum(x, 0.0)))   # 0-d stays an array
        value, terms = _tamed(cut, _by_switch, d, cut, True, dual, image, *args)
        if alpha is not None:  # the scale dx/dd, where the law is positive: it overflows at subnormal x
            pos = value > 0.0
            value[pos] *= np.sqrt(alpha / (4.0 * x[pos]))
        out = _finish(value, terms)
    else:
        if not math.isfinite(x):  # before float(), which would parse a str point
            raise ValueError(f"{context}: {name} must be finite, got {float(x)!r}")
        x = float(x)
        if not math.isfinite(g):
            raise ValueError(f"{context}: gamma must be finite, got {g!r}")
        d = x if alpha is None else math.sqrt(alpha * x) if x > 0.0 else 0.0
        if d < _LOW or d > cut:
            return DensityValue(0.0, 0, True)
        kernel, terms = (dual, _DUAL_A.size) if d <= _SWITCH else (image, _IMAGE_SHELLS)
        if abs(g) > _DRIFT_BOUND:
            with np.errstate(over="ignore", invalid="ignore"):
                value = float(kernel(d, *args, density=True))
        else:
            value = float(kernel(d, *args, density=True))
        if alpha is not None and value > 0.0:
            value *= math.sqrt(alpha / (4.0 * x))
        out = DensityValue(value, terms, True) if 0.0 <= value < math.inf else _finish(value, terms)
    if abs(g) > _DRIFT_BOUND and np.any(out.terms_used):
        raise _no_digits(context, g)
    return out


def range_pdf(delta, gamma: float = 0.0) -> DensityValue:
    """Density of the range d = h - l at drift gamma (one float, |gamma| at most
    ``_DRIFT_BOUND`` = 1e5); support delta > 0."""
    return _range_law_pdf("range_pdf", "delta", delta, gamma, None)


# ---------------------------------------------------------------------------
# Bridge extremes and bridge range
# ---------------------------------------------------------------------------

def bridge_hl_joint_pdf(eta, ell) -> DensityValue:
    """Joint density of the bridge extremes (xi, zeta); support eta > 0 > ell."""
    _require_finite("bridge_hl_joint_pdf", eta=eta, ell=ell)
    # the bridge is the path conditioned on close 0: the (h, l, c) series at close 0
    return _joint(_hlc_series_grid(eta, ell, 0.0), 1.0, eta, ell)


def bridge_range_pdf(delta) -> DensityValue:
    """Density of the bridge range s = xi - zeta; support delta > 0."""
    return _range_law_pdf("bridge_range_pdf", "delta", delta, 0.0, None, bridge=True)


# ---------------------------------------------------------------------------
# Estimator densities (change of variables x = d^2 / alpha)
# ---------------------------------------------------------------------------

def _range_law(kind: EstimatorKind, gamma: float):
    """(law, alpha) of an analytic estimator, which is d^2 / alpha.

    ``law(d, density=...)`` maps an array of ranges to an array of the range
    CDF, or with ``density`` of the range density.  Parkinson: the range at
    drift gamma and alpha = ln 16; bridge: the bridge range and alpha =
    pi^2 / 6, whatever the drift.  Past ``_DRIFT_BOUND`` the range law is
    evaluated quietly, as :func:`_range_law_pdf` evaluates it; its callers check
    what it returns.  The laws are private array functions, so the benchmark
    tracer (``perfbench/spans.py``) sees only the public scalar calls, such
    as :func:`parkinson_estimator_pdf`.
    """
    if kind is EstimatorKind.PARKINSON:
        cut = _LIMIT + abs(gamma)
        return (lambda d, *, density: _tamed(cut, _by_switch, d, cut, density, _range_dual,
                                             _range_image, gamma)[0]), LN16
    if kind is EstimatorKind.BRIDGE:
        return ((lambda d, *, density: _by_switch(d, _LIMIT, density, _bridge_dual,
                                                  _bridge_image)[0]), 1.0 / BRIDGE_FACTOR)
    raise ValueError(f"no analytic estimator density for {kind}")


def parkinson_estimator_pdf(x, gamma: float = 0.0) -> DensityValue:
    """Density of the Parkinson estimator d^2 / ln 16 at drift gamma (one float,
    |gamma| at most ``_DRIFT_BOUND`` = 1e5)."""
    return _range_law_pdf("parkinson_estimator_pdf", "x", x, gamma, LN16)


def bridge_estimator_pdf(x) -> DensityValue:
    """Density of the bridge estimator (6/pi^2) s^2; drift-free."""
    return _range_law_pdf("bridge_estimator_pdf", "x", x, 0.0, 1.0 / BRIDGE_FACTOR, bridge=True)
