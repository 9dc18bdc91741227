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
CDF 1 and density 0, so huge and infinite ranges give no NaN.

Every public density takes floats or broadcastable numpy arrays, giving a
``DensityValue`` of Python scalars or of per-point arrays.  A joint law is
its kernel, whose mask is its support, times :func:`close_pdf`.  A range law
takes one float drift, and at a float range keeps a one-point route
(:func:`_density_at`, 18 us against 28 us through :func:`_by_switch`) for
the thousands of points of a theory sweep: its image form hands its ufuncs
0-d operands, its dual keeps ``math.exp``, so the routes agree to a few ulps.

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
    """The density values, round-off below 0 clamped; 0-d arrays give Python scalars."""
    if type(value) is float and value >= 0.0:  # one point of a range law: numpy would take 10 us
        return DensityValue(value, terms, converged)
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
_DUAL_SIGN = np.resize([-1.0, 1.0], _DUAL_A.size)  # (-1)^n
_IMAGE_SHELLS = 6
_KUIPER_M2 = np.arange(1.0, _IMAGE_SHELLS + 1.0) ** 2
# the constants of the image form, as 0-d arrays (see _range_image)
_HALF, _ZERO, _SQRT2_A = np.array(0.5), np.array(0.0), np.array(_SQRT2)
_LOG_PHI0 = np.array(-0.5 * math.log(2.0 * math.pi))   # log of the normal density at 0
_SQRT_PI_2 = np.array(math.sqrt(0.5 * math.pi))


def _column(x):
    """An array of points as a column for the terms of a series; a float as it is."""
    return x[..., None] if isinstance(x, np.ndarray) else x


def _range_dual(d, gamma: float, *, density: bool):
    """The CDF, or with ``density`` the density, of the range at d > 0 (a
    float or an array) from its theta dual.

    The paths that stay in a window of width d, summed over the window's
    position, give H(d) = E (d - D)^+ in closed form from the eigenfunctions
    of the window,
    H(d) = sum_n 4 a_n d (1 - (-1)^n cosh(gamma d)) exp(-a_n / (2 d^2) - gamma^2 / 2)
    / (gamma^2 d^2 + a_n)^2,
    so that H' is the CDF and H'' the density.  With u = a_n / d^2,
    z = gamma^2 d^2, q = z + a_n, m = a_n - 3 z + u q, and C the cosh factor
    times exp(-gamma^2 / 2), term n of H' is 4 a_n e^{-u/2} / q^3 (m C + q d C').
    """
    exp = np.exp if isinstance(d, np.ndarray) else math.exp   # one point's factors are floats
    dc = _column(d)
    y = gamma * dc
    z = y * y
    h = 0.5 * gamma * gamma
    f0 = math.exp(-h)
    fp, fm = 0.5 * exp(y - h), 0.5 * exp(-y - h)
    c = f0 - _DUAL_SIGN * (fp + fm)                  # C
    c1 = _DUAL_SIGN * (y * (fm - fp))                # d C'
    u, q = _DUAL_A / (dc * dc), _DUAL_A + z
    w = _DUAL_A * np.exp(-0.5 * u) / (q * q * q)    # the factor 4 is applied to the sums
    uq = u * q
    a3 = _DUAL_A - 3.0 * z
    m = a3 + uq
    if not density:
        return 4.0 * np.add.reduce(w * (m * c + q * c1), -1)
    curve = uq * (uq - 3.0 * q + 2.0 * a3) - 12.0 * z * (_DUAL_A - z)
    terms = w / q * (curve * c + 2.0 * q * m * c1 + q * q * z * (c - f0))
    return 4.0 * np.add.reduce(terms, -1) / d


@lru_cache(maxsize=32)
def _image_terms(gamma: float, shells: int):
    """Read-only flat vectors over the image terms (k, g), k = 1 - shells ..
    shells - 1, g = +-gamma: the ends 2k then 2k + 1, g and -2 k g twice,
    1 + 4k and 1 + 2k of p, and the coefficients of phi(v) then phi(b)."""
    k = np.repeat(np.arange(1.0 - shells, shells), 2)
    g = np.resize([gamma, -gamma], k.size)
    k2, g2, kg = k * k, gamma * gamma, -2.0 * k * g
    coef = (-(4.0 * g2 + 8.0) * k2, 4.0 * g2 * k2 + (2.0 * k + 1.0) * (4.0 * k + 1.0))
    tables = (np.concatenate((2.0 * k, 2.0 * k + 1.0)), np.concatenate((g, g)),
              np.concatenate((kg, kg)), 1.0 + 4.0 * k, 1.0 + 2.0 * k, np.concatenate(coef))
    for table in tables:
        table.flags.writeable = False
    return tables


def _range_image(d, gamma: float, shells: int = _IMAGE_SHELLS, *, density: bool):
    """The CDF, or with ``density`` the density, of the range at d > 0 (a
    float or an array) from its image form.

    Summing the images of the killed diffusion over the window's position
    gives, with g = +-gamma, v = 2 k d - g and b = v + d,
    CDF = sum_{k, g} [p M - 2 k g e^{-2kdg} phi(b)],  p = 1 + 4k - 2 k b g,
    M = e^{-2kdg} (Phi(b) - Phi(v)), and the density is its derivative in d.
    The weighted normal densities and masses are evaluated with their
    exponents combined (-2 k^2 d^2 - g^2 / 2 at v), the tails through erfcx.
    One point's d and the constants enter as 0-d arrays: a ufunc with a
    Python float operand takes numpy's slower scalar path, and the values
    are the same.
    """
    ends, g, kg, p0, p1, coef = _image_terms(gamma, shells)
    n = p0.size
    dc = d[..., None] if isinstance(d, np.ndarray) else np.array(d)
    x = ends * dc - g                                # v, then b
    log_w = kg * dc
    phi = np.exp(log_w - _HALF * x * x + _LOG_PHI0)  # e^{-2kdg} phi(v), e^{-2kdg} phi(b)
    tail = np.copysign(erfcx(np.abs(x) / _SQRT2_A), x) * phi
    kg, b, below = kg[:n], x[..., n:], x < _ZERO
    mass = (np.exp(np.minimum(log_w[..., :n], _ZERO)) * (below[..., :n] > below[..., n:])
            + _SQRT_PI_2 * (tail[..., :n] - tail[..., n:]))
    p = p0 + kg * b
    if not density:
        return np.add.reduce(p * mass + kg * phi[..., n:], -1)
    return np.add.reduce(kg * (p + p1) * mass, -1) + np.add.reduce(coef * phi, -1)


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
    return out, terms


def _density_at(delta, cut: float, dual, image, *args):
    """A range law's density and term counts, by :func:`_by_switch` over an array and at a
    float from the form that holds there; 0 from no terms below ``_LOW`` and past ``cut``."""
    if isinstance(delta, np.ndarray):
        return _by_switch(delta, cut, True, dual, image, *args)
    if delta < _LOW or delta > cut:
        return 0.0, 0
    if delta <= _SWITCH:
        return float(dual(delta, *args, density=True)), _DUAL_A.size
    return float(image(delta, *args, density=True)), _IMAGE_SHELLS


def _one_drift(context: str, gamma) -> float:
    """The drift of a range law as a float; an array of drifts raises ``ValueError``."""
    if type(gamma) is not float and np.ndim(gamma):
        raise ValueError(f"{context}: gamma must be one float, got an array of shape "
                         f"{np.shape(gamma)}")
    return float(gamma)


def range_pdf(delta, gamma: float = 0.0) -> DensityValue:
    """Density of the range d = h - l at drift gamma (one float); support delta > 0."""
    gamma = _one_drift("range_pdf", gamma)
    _require_finite("range_pdf", delta=delta, gamma=gamma)
    cut = _LIMIT + abs(gamma)
    return _finish(*_density_at(delta, cut, _range_dual, _range_image, gamma))


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
    _require_finite("bridge_range_pdf", delta=delta)
    return _finish(*_density_at(delta, _LIMIT, _bridge_dual, _bridge_image))


# ---------------------------------------------------------------------------
# Estimator densities (change of variables x = d^2 / alpha)
# ---------------------------------------------------------------------------

def _range_law(kind: EstimatorKind, gamma: float):
    """(law, alpha) of an analytic estimator, which is d^2 / alpha.

    ``law(d, density=...)`` maps an array of ranges to an array of the range
    CDF, or with ``density`` of the range density.  Parkinson: the range at
    drift gamma and alpha = ln 16; bridge: the bridge range and alpha =
    pi^2 / 6, whatever the drift.  The laws are private array functions, so
    the benchmark tracer (``perfbench/spans.py``) sees only the public scalar
    calls, such as :func:`parkinson_estimator_pdf`.
    """
    if kind is EstimatorKind.PARKINSON:
        cut = _LIMIT + abs(gamma)
        return (lambda d, *, density: _by_switch(d, cut, density, _range_dual, _range_image,
                                                 gamma)[0]), LN16
    if kind is EstimatorKind.BRIDGE:
        return ((lambda d, *, density: _by_switch(d, _LIMIT, density, _bridge_dual,
                                                  _bridge_image)[0]), 1.0 / BRIDGE_FACTOR)
    raise ValueError(f"no analytic estimator density for {kind}")


def _estimator_pdf(x, alpha: float, cut: float, dual, image, *args) -> DensityValue:
    """Density of d^2 / alpha at x from the range law that :func:`_density_at`
    evaluates at d; 0 at x <= 0 and where d overflows (past ``cut``)."""
    array = isinstance(x, np.ndarray)
    if array:
        with np.errstate(over="ignore"):  # d = inf is past the law's cut, where the density is 0
            d = np.asarray(np.sqrt(alpha * np.maximum(x, 0.0)))   # 0-d stays an array
    else:
        d = math.sqrt(alpha * x) if x > 0.0 else 0.0
    value, terms = _density_at(d, cut, dual, image, *args)
    # the scale dx/dd is taken where the law is positive: it overflows at subnormal x
    if array:
        pos = value > 0.0
        value[pos] *= np.sqrt(alpha / (4.0 * x[pos]))
    elif value > 0.0:
        value = math.sqrt(alpha / (4.0 * x)) * value
    return _finish(value, terms)


def parkinson_estimator_pdf(x, gamma: float = 0.0) -> DensityValue:
    """Density of the Parkinson estimator d^2 / ln 16 at drift gamma (one float)."""
    gamma = _one_drift("parkinson_estimator_pdf", gamma)
    _require_finite("parkinson_estimator_pdf", x=x, gamma=gamma)
    return _estimator_pdf(x, LN16, _LIMIT + abs(gamma), _range_dual, _range_image, gamma)


def bridge_estimator_pdf(x) -> DensityValue:
    """Density of the bridge estimator (6/pi^2) s^2; drift-free."""
    _require_finite("bridge_estimator_pdf", x=x)
    return _estimator_pdf(x, 1.0 / BRIDGE_FACTOR, _LIMIT, _bridge_dual, _bridge_image)
