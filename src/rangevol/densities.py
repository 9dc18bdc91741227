"""Exact sampling densities of path extremes, ranges and the estimators.

Everything on a unit window with unit variance: the close c is N(gamma, 1);
(h, l) are the path's running maximum and minimum; d = h - l its range;
(xi, zeta) the bridge extremes and s = xi - zeta the bridge range.  The
joint densities below are reflection-type image expansions:
two-sided sums over an image index m whose terms decay like
exp(-2 m^2 delta^2), plus Gaussian prefactors.

The one-dimensional range laws -- the range d at any drift and the bridge
range s -- are closed forms: each returns its distribution function and its
density from a theta dual below ``_SWITCH`` and from its image form above
it, each a fixed number of terms on one flat axis (see ``_SWITCH``), to
2e-15 relative from d = 0.3 on and with no floor below it.  Past a cut
(``_LIMIT``) each returns its limit, CDF 1 and density 0, so huge and
infinite ranges give no NaN.

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
    """

    value: float
    terms_used: int
    converged: bool
    clamped: bool = False


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


def _finish(value: float, terms: int) -> DensityValue:
    """The density value, with round-off below 0 clamped; beyond round-off it raises."""
    if value < 0.0:
        if value < -_ROUND_OFF:
            raise ValueError(f"density value {value!r} is negative beyond round-off")
        return DensityValue(0.0, terms, True, clamped=True)
    return DensityValue(value, terms, True)


_CUTOFF = -50.0
"""A grid point stops summing once its shell's largest exponent is below this."""

_ZERO_EXPONENT = -800.0
"""An exponent below which exp is exactly 0 in floats (it underflows below
about -745.13).  Each closed-form and joint density returns its limit 0,
from no terms, where the largest exponent of its terms lies below this: its
float value is already exactly 0 there, and huge arguments would overflow
the squares in its terms."""


def _image_series(shell, mask, cols, context: str) -> tuple[np.ndarray, int]:
    """Sum shell(m, *cols) for m = 1, 2, ... over the grid points where mask holds.

    ``shell`` returns the shell's terms and, per point, the largest exponent
    it passed to exp.  A point stops, its sum final, after the first shell
    whose exponent is below ``_CUTOFF``, and drops out of the evaluation; the
    loop ends when every point has stopped.  Points off the mask are 0.
    Returns the sums and the number of shells evaluated.
    """
    total = np.zeros(mask.shape)
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
            keep = ~done
            live, acc = live[keep], acc[keep]
            cols = [c[keep] for c in cols]
    return total, m


def _reflection_shell(kernel):
    """Shell m of sum over mm = +-m of mm * (mm K(mm d) + (1 - mm) K(mm d + l)).

    ``kernel(u, *extra)`` returns K(u) and the exponent it passed to exp; the shell
    takes (m, d, l, *extra) and returns its terms and their largest exponent.
    """

    def shell(m, d, l, *extra):
        t = 0.0
        top = -np.inf
        for mm in (m, -m):
            k1, x1 = kernel(mm * d, *extra)
            k2, x2 = kernel(mm * d + l, *extra)
            t = t + mm * (mm * k1 + (1 - mm) * k2)
            top = np.maximum(top, np.maximum(x1, x2))
        return t, top

    return shell


# ---------------------------------------------------------------------------
# Close and high
# ---------------------------------------------------------------------------

def close_pdf(chi: float, gamma: float) -> float:
    """Density of the close: N(gamma, 1)."""
    _require_finite("close_pdf", chi=chi, gamma=gamma)
    z = chi - gamma
    if -0.5 * z * z < _ZERO_EXPONENT:
        return 0.0
    return math.exp(-0.5 * z ** 2) / math.sqrt(2.0 * math.pi)


def high_close_joint_pdf(eta: float, chi: float, gamma: float) -> DensityValue:
    """Joint density of (high, close); closed form, support chi < eta, eta > 0."""
    _require_finite("high_close_joint_pdf", eta=eta, chi=chi, gamma=gamma)
    # the exponent below is -2 eta (eta - chi) - (chi - gamma)^2 / 2
    if (eta <= 0.0 or chi >= eta
            or -2.0 * eta * (eta - chi) - 0.5 * (chi - gamma) * (chi - gamma) < _ZERO_EXPONENT):
        return DensityValue(0.0, 0, True)
    expo = 2.0 * gamma * eta - 0.5 * (2.0 * eta - chi + gamma) ** 2
    return _finish(_SQRT_2_PI * (2.0 * eta - chi) * math.exp(expo), 0)


def _exp_times_erfc(log_factor: float, a: float) -> float:
    """exp(log_factor) * erfc(a), kept in floating-point range."""
    if a >= 0.0:
        return math.exp(log_factor - a * a) * float(erfcx(a))
    return math.exp(log_factor) * float(erfc(a))


def high_pdf(eta: float, gamma: float) -> DensityValue:
    """Density of the high, support eta > 0.

    The drift correction term is gamma * exp(2*gamma*eta) *
    erfc((eta + gamma) / sqrt(2)), the form that agrees with the marginal
    of :func:`high_close_joint_pdf` and with simulation at nonzero drift.
    The refuted reading with divisor 2 is kept by ``rangevol.validation``.
    """
    _require_finite("high_pdf", eta=eta, gamma=gamma)
    # both terms carry exp(-(eta - gamma)^2 / 2), the drift term only while eta + gamma >= 0
    far = -0.5 * (eta - gamma) * (eta - gamma) < _ZERO_EXPONENT
    if eta <= 0.0 or (far and eta + gamma >= 0.0):
        return DensityValue(0.0, 0, True)
    base = 0.0 if far else _SQRT_2_PI * math.exp(-0.5 * (eta - gamma) ** 2)
    corr = gamma * _exp_times_erfc(2.0 * gamma * eta, (eta + gamma) / _SQRT2)
    return _finish(base - corr, 0)


# ---------------------------------------------------------------------------
# Joint density of (high, low, close)
# ---------------------------------------------------------------------------

def _hlc_kernel(u, chi):
    x = 2.0 * u * (chi - u)
    return ((chi - 2.0 * u) ** 2 - 1.0) * np.exp(x), x


def _hlc_series_grid(eta, ell, chi) -> tuple[np.ndarray, int]:
    """Image series of the (h, l) density conditional on close = chi, vectorized.

    ``eta``, ``ell`` and ``chi`` are broadcastable arrays; the support mask and
    the overall factor 4 are applied (the factor is fixed by normalization:
    the double integral over (eta, ell) must be 1 for every chi; see
    ``rangevol.validation``).  Returns (values, shells_used).
    """
    eta, ell, chi = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (eta, ell, chi)))
    mask = (eta > np.maximum(0.0, chi)) & (ell < np.minimum(0.0, chi)) & (eta - ell >= _MASS_FLOOR)
    total, shells = _image_series(
        _reflection_shell(_hlc_kernel), mask, (eta - ell, ell, chi), "(h,l,c) joint density"
    )
    return 4.0 * total, shells


def _hlc_low_mass_grid(eta, lo, hi, chi) -> tuple[np.ndarray, int]:
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


def hlc_joint_pdf(eta: float, ell: float, chi: float, gamma: float) -> DensityValue:
    """Joint density of (high, low, close); support ell < chi < eta with
    eta > max(0, chi) and ell < min(0, chi)."""
    _require_finite("hlc_joint_pdf", eta=eta, ell=ell, chi=chi, gamma=gamma)
    # no image exponent exceeds -2 eta (eta - chi) or -2 ell (ell - chi)
    if (not (ell < chi < eta) or eta <= max(0.0, chi) or ell >= min(0.0, chi)
            or -2.0 * max(eta * (eta - chi), ell * (ell - chi)) < _ZERO_EXPONENT):
        return DensityValue(0.0, 0, True)
    if eta - ell < _MASS_FLOOR:
        return DensityValue(0.0, 0, False)
    series, shells = _hlc_series_grid(np.float64(eta), np.float64(ell), chi)
    return _finish(close_pdf(chi, gamma) * float(series), shells)


# ---------------------------------------------------------------------------
# Joint density of (range, close)
# ---------------------------------------------------------------------------

def _range_close_series_grid(delta, abs_chi) -> tuple[np.ndarray, int]:
    """Image series of the (range, close) density without the close factor.

    Vectorized over broadcastable ``delta`` and ``abs_chi`` grids (the close
    enters only through its absolute value); the overall factor 4 is
    included, the Gaussian close density is not.
    """
    delta, abs_chi = np.broadcast_arrays(
        np.asarray(delta, dtype=float), np.asarray(abs_chi, dtype=float)
    )
    mask = (delta > abs_chi) & (delta >= _MASS_FLOOR)

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


def range_close_joint_pdf(delta: float, chi: float, gamma: float) -> DensityValue:
    """Joint density of (range, close); support delta > |chi|.

    Depends on chi only through |chi| (apart from the Gaussian close
    factor), so it is symmetric in chi at gamma = 0.
    """
    _require_finite("range_close_joint_pdf", delta=delta, chi=chi, gamma=gamma)
    # 0 off the support and where the largest image exponent is below _ZERO_EXPONENT
    if delta <= abs(chi) or -2.0 * delta * (delta - abs(chi)) < _ZERO_EXPONENT:
        return DensityValue(0.0, 0, True)
    if delta < _MASS_FLOOR:
        return DensityValue(0.0, 0, False)
    series, shells = _range_close_series_grid(np.float64(delta), np.float64(abs(chi)))
    return _finish(close_pdf(chi, gamma) * float(series), shells)


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
_LOG_PHI0 = -0.5 * math.log(2.0 * math.pi)        # log of the normal density at 0
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI_2 = math.sqrt(0.5 * math.pi)


def _column(x):
    """An array of points as a column for the terms of a series; a float as it is."""
    return x[..., None] if isinstance(x, np.ndarray) else x


def _range_dual(d, gamma: float):
    """(CDF, density) of the range at d > 0 (a float or an array) from its theta dual.

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
    cdf = 4.0 * np.add.reduce(w * (m * c + q * c1), -1)
    curve = uq * (uq - 3.0 * q + 2.0 * a3) - 12.0 * z * (_DUAL_A - z)
    terms = w / q * (curve * c + 2.0 * q * m * c1 + q * q * z * (c - f0))
    return cdf, 4.0 * np.add.reduce(terms, -1) / d


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


def _range_image(d, gamma: float, shells: int = _IMAGE_SHELLS):
    """(CDF, density) of the range at d > 0 (a float or an array) from its image form.

    Summing the images of the killed diffusion over the window's position
    gives, with g = +-gamma, v = 2 k d - g and b = v + d,
    CDF = sum_{k, g} [p M - 2 k g e^{-2kdg} phi(b)],  p = 1 + 4k - 2 k b g,
    M = e^{-2kdg} (Phi(b) - Phi(v)), and the density is its derivative in d.
    The weighted normal densities and masses are evaluated with their
    exponents combined (-2 k^2 d^2 - g^2 / 2 at v), the tails through erfcx.
    """
    ends, g, kg, p0, p1, coef = _image_terms(gamma, shells)
    n = p0.size
    dc = _column(d)
    x = ends * dc - g                                # v, then b
    log_w = kg * dc
    phi = np.exp(log_w - 0.5 * x * x + _LOG_PHI0)   # e^{-2kdg} phi(v), e^{-2kdg} phi(b)
    tail = np.copysign(erfcx(np.abs(x) / _SQRT2), x) * phi
    kg, b, below = kg[:n], x[..., n:], x < 0.0
    mass = (np.exp(np.minimum(log_w[..., :n], 0.0)) * (below[..., :n] > below[..., n:])
            + _SQRT_PI_2 * (tail[..., :n] - tail[..., n:]))
    p = p0 + kg * b
    cdf = np.add.reduce(p * mass + kg * phi[..., n:], -1)
    pdf = np.add.reduce(kg * (p + p1) * mass, -1) + np.add.reduce(coef * phi, -1)
    return cdf, pdf


def _bridge_dual(s):
    """(CDF, density) of the bridge range at s > 0 from the dual of Kuiper's law:
    CDF = sqrt(2 pi) / s^3 * sum_k a_k exp(-a_k / (2 s^2)), a_k = k^2 pi^2."""
    r = 1.0 / (s * s)
    e = np.exp(_DUAL_A * (-0.5 * _column(r)))
    e1, e2 = e @ _DUAL_A, e @ (_DUAL_A * _DUAL_A)
    c = _SQRT_2PI * r / s
    return c * e1, c / s * (r * e2 - 3.0 * e1)


def _bridge_image(s):
    """(CDF, density) of the bridge range at s > 0, Kuiper's law (Kuiper 1960):
    CDF = 1 - 2 sum_m (4 m^2 s^2 - 1) exp(-2 m^2 s^2)."""
    s2 = s * s
    e = np.exp(_KUIPER_M2 * (-2.0 * _column(s2)))
    e0, e1, e2 = np.add.reduce(e, -1), e @ _KUIPER_M2, e @ (_KUIPER_M2 * _KUIPER_M2)
    return 1.0 - 2.0 * (4.0 * s2 * e1 - e0), 8.0 * s * (4.0 * s2 * e2 - 3.0 * e1)


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


def _by_switch(d, cut: float, dual, image, *args):
    """(CDF, density) at every point of ``d``: ``dual(d, *args)`` up to
    ``_SWITCH``, ``image(d, *args)`` above it up to ``cut``, (1, 0) past
    ``cut``, and 0 below ``_LOW`` (and at NaN)."""
    d = np.asarray(d, dtype=float)
    cdf, pdf = np.zeros(d.shape), np.zeros(d.shape)
    far = d > cut
    for part, law in (((d >= _LOW) & (d <= _SWITCH), dual), ((d > _SWITCH) & ~far, image)):
        if part.any():
            cdf[part], pdf[part] = law(d[part], *args)
    cdf[far] = 1.0
    return cdf, pdf


def _density_at(delta: float, cut: float, dual, image, *args) -> DensityValue:
    """One density value of a range law, from the form that holds at ``delta``;
    0 from no terms below ``_LOW`` and past ``cut``."""
    delta = float(delta)
    if delta < _LOW or delta > cut:
        return DensityValue(0.0, 0, True)
    law, terms = (dual, _DUAL_A.size) if delta <= _SWITCH else (image, _IMAGE_SHELLS)
    return _finish(float(law(delta, *args)[1]), terms)


def range_pdf(delta: float, gamma: float = 0.0) -> DensityValue:
    """Density of the range d = h - l at drift gamma; support delta > 0."""
    _require_finite("range_pdf", delta=delta, gamma=gamma)
    return _density_at(delta, _LIMIT + abs(gamma), _range_dual, _range_image, gamma)


# ---------------------------------------------------------------------------
# Bridge extremes and bridge range
# ---------------------------------------------------------------------------

def _bridge_hl_series_grid(eta, ell) -> tuple[np.ndarray, int]:
    """Joint density of the bridge (high, low), vectorized over grids."""
    eta, ell = np.broadcast_arrays(np.asarray(eta, dtype=float), np.asarray(ell, dtype=float))
    mask = (eta > 0.0) & (ell < 0.0) & (eta - ell >= _MASS_FLOOR)

    def kernel(u):
        x = -2.0 * u * u
        return 4.0 * (4.0 * u * u - 1.0) * np.exp(x), x

    return _image_series(
        _reflection_shell(kernel), mask, (eta - ell, ell), "bridge (high, low) density"
    )


def bridge_hl_joint_pdf(eta: float, ell: float) -> DensityValue:
    """Joint density of the bridge extremes (xi, zeta); support eta > 0 > ell."""
    _require_finite("bridge_hl_joint_pdf", eta=eta, ell=ell)
    # 0 off the support and where the largest image exponent is below _ZERO_EXPONENT
    if eta <= 0.0 or ell >= 0.0 or -2.0 * (eta - ell) * (eta - ell) < _ZERO_EXPONENT:
        return DensityValue(0.0, 0, True)
    if eta - ell < _MASS_FLOOR:
        return DensityValue(0.0, 0, False)
    series, shells = _bridge_hl_series_grid(np.float64(eta), np.float64(ell))
    return _finish(float(series), shells)


def bridge_range_pdf(delta: float) -> DensityValue:
    """Density of the bridge range s = xi - zeta; support delta > 0."""
    _require_finite("bridge_range_pdf", delta=delta)
    return _density_at(delta, _LIMIT, _bridge_dual, _bridge_image)


# ---------------------------------------------------------------------------
# Estimator densities (change of variables x = d^2 / alpha)
# ---------------------------------------------------------------------------

def _range_law(kind: EstimatorKind, gamma: float):
    """(law, alpha) of an analytic estimator, which is d^2 / alpha.

    ``law(d)`` maps an array of ranges to arrays of the range CDF and
    density.  Parkinson: the range at drift gamma and alpha = ln 16; bridge:
    the bridge range and alpha = pi^2 / 6, whatever the drift.  The laws are
    private array functions, so the benchmark tracer (``perfbench/spans.py``)
    sees only the public scalar calls, such as :func:`range_pdf`.
    """
    if kind is EstimatorKind.PARKINSON:
        cut = _LIMIT + abs(gamma)
        return (lambda d: _by_switch(d, cut, _range_dual, _range_image, gamma)), LN16
    if kind is EstimatorKind.BRIDGE:
        return (lambda d: _by_switch(d, _LIMIT, _bridge_dual, _bridge_image)), 1.0 / BRIDGE_FACTOR
    raise ValueError(f"no analytic estimator density for {kind}")


def _estimator_pdf(name: str, x: float, alpha: float, range_density, **drift) -> DensityValue:
    """Density of d^2 / alpha at x from ``range_density(d, **drift)``; 0 at
    x <= 0 and where d overflows."""
    _require_finite(name, x=x, **drift)
    if x <= 0.0:
        return DensityValue(0.0, 0, True)
    d = math.sqrt(alpha * x)
    if d == math.inf:
        return DensityValue(0.0, 0, True)
    inner = range_density(d, **drift)
    if inner.value == 0.0:  # the scale below overflows at subnormal x
        return inner
    scale = math.sqrt(alpha / (4.0 * x))
    return DensityValue(scale * inner.value, inner.terms_used, inner.converged, inner.clamped)


def parkinson_estimator_pdf(x: float, gamma: float = 0.0) -> DensityValue:
    """Density of the Parkinson estimator d^2 / ln 16 at drift gamma."""
    return _estimator_pdf("parkinson_estimator_pdf", x, LN16, range_pdf, gamma=gamma)


def bridge_estimator_pdf(x: float) -> DensityValue:
    """Density of the bridge estimator (6/pi^2) s^2; drift-free."""
    return _estimator_pdf("bridge_estimator_pdf", x, 1.0 / BRIDGE_FACTOR, bridge_range_pdf)
