"""Exact sampling densities of path extremes, ranges and the estimators.

Everything on a unit window with unit variance: the close c is N(gamma, 1);
(h, l) are the path's running maximum and minimum; d = h - l its range;
(xi, zeta) the bridge extremes and s = xi - zeta the bridge range.  The
joint and marginal densities below are reflection-type image expansions:
two-sided sums over an image index m whose terms decay like
exp(-2 m^2 delta^2), plus Gaussian prefactors.

Truncation policy: image shells (+m, -m) are summed outward from m = 1
until the absolute shell contribution stays below ``abs_tol`` for
``min_terms`` consecutive shells; reaching ``max_terms`` first raises
:class:`NonConvergenceError`, and a non-finite shell term (a NaN drift or
argument) raises ``ValueError`` at once.  On a grid the rule looks at the
largest shell contribution over all points, and a point stops being
evaluated once its exponents underflow (exp is exactly 0 below -745.14),
since its later terms are exactly 0; the sums and shell counts are those
of evaluating every shell at every point.  The series converge slowly as the range
argument goes to 0 while the true density vanishes faster than any power,
so arguments below ``small_arg_floor`` return 0 with ``converged=False``
instead of burning shells on catastrophic cancellation.  All probability
mass below the default floor of 0.02 is smaller than exp(-10000) and is
irrelevant at any tolerance used here.

erf/erfc come from scipy.special; products like exp(big) * erfc(big) are
evaluated through erfcx to stay in range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfc, erfcx

from .estimators import BRIDGE_FACTOR, LN16, EstimatorKind

__all__ = [
    "SeriesConfig",
    "DensityValue",
    "NonConvergenceError",
    "DEFAULT_SERIES_CONFIG",
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
_SQRT_8_PI = math.sqrt(8.0 / math.pi)   # sqrt(8/pi)


class NonConvergenceError(RuntimeError):
    """A series did not meet abs_tol within max_terms shells."""


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation and small-argument policy for the image series."""

    abs_tol: float = 1e-12
    min_terms: int = 5
    max_terms: int = 1_000_000
    small_arg_floor: float = 0.02

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be positive")
        if not 1 <= self.min_terms <= self.max_terms:
            raise ValueError("need 1 <= min_terms <= max_terms")
        if not self.small_arg_floor > 0.0:
            raise ValueError("small_arg_floor must be positive")


DEFAULT_SERIES_CONFIG = SeriesConfig()


@dataclass(frozen=True)
class DensityValue:
    """A density evaluation plus its convergence telemetry.

    ``terms_used`` counts image shells (0 for closed forms and for floored
    or out-of-support arguments).  ``converged`` is False only when the
    argument fell below the small-argument floor.  ``clamped`` marks a tiny
    negative round-off result that was clamped to 0.  Values are
    nonnegative for every self-consistent density; the diagnostic "half"
    variant of :func:`high_pdf` can go genuinely negative at nonzero drift,
    which is exactly the inconsistency the validation module records.
    """

    value: float
    terms_used: int
    converged: bool
    clamped: bool = False


def _cfg(cfg: SeriesConfig | None) -> SeriesConfig:
    return DEFAULT_SERIES_CONFIG if cfg is None else cfg


def _finish(value: float, terms: int, cfg: SeriesConfig) -> DensityValue:
    if value < 0.0 and value > -max(1e-14, 10.0 * cfg.abs_tol):
        return DensityValue(0.0, terms, True, clamped=True)
    return DensityValue(value, terms, True)


def _sum_shells(shell, cfg: SeriesConfig, context: str) -> tuple[float, int]:
    """Sum shell(m) for m = 1, 2, ... with the quiet-run stopping rule."""
    total = 0.0
    quiet = 0
    for m in range(1, cfg.max_terms + 1):
        t = shell(m)
        total += t
        if abs(t) < cfg.abs_tol:
            quiet += 1
            if quiet >= cfg.min_terms:
                return total, m
        else:
            if not math.isfinite(t):
                raise ValueError(f"{context}: non-finite shell term at shell {m}")
            quiet = 0
    raise NonConvergenceError(
        f"{context}: no convergence after {cfg.max_terms} shells (abs_tol={cfg.abs_tol})"
    )


# exp(x) is exactly 0.0 in float64 for every x below this.
_UNDERFLOW = -745.14


def _image_series(shell, mask, cols, cfg: SeriesConfig, context: str) -> tuple[np.ndarray, int]:
    """Sum shell(m, *cols) for m = 1, 2, ... over the grid points where mask holds.

    The quiet-run rule of :func:`_sum_shells` applies to max|shell| over the
    grid; points off the mask are 0.  ``shell`` returns the shell's terms and,
    per point, the largest exponent it passed to exp.  Each kernel's exponents
    fall monotonically in m on its support, so once that exponent underflows
    every later term of the point is exactly 0: the point retires with its
    sum final and drops out of the evaluation.  When every point has retired,
    the zero shells that complete the quiet run are counted, not evaluated.
    """
    total = np.zeros(mask.shape)
    if not mask.any():
        return total, 0
    live = np.flatnonzero(mask)
    cols = [c[mask] for c in cols]
    acc = np.zeros(live.size)
    quiet = 0
    for m in range(1, cfg.max_terms + 1):
        t, top = shell(m, *cols)
        acc += t
        big = np.max(np.abs(t))
        if big < cfg.abs_tol:
            quiet += 1
            if quiet >= cfg.min_terms:
                total.flat[live] = acc
                return total, m
        else:
            if not math.isfinite(big):
                raise ValueError(f"{context}: non-finite shell term at shell {m}")
            quiet = 0
        done = top < _UNDERFLOW
        if done.any():
            total.flat[live[done]] = acc[done]
            keep = ~done
            live, acc = live[keep], acc[keep]
            cols = [c[keep] for c in cols]
            if live.size == 0:
                m += cfg.min_terms - quiet
                if m <= cfg.max_terms:
                    return total, m
                break
    raise NonConvergenceError(
        f"{context}: no convergence after {cfg.max_terms} shells (abs_tol={cfg.abs_tol})"
    )


def _reflection_shell(kernel):
    """Shell m of sum over mm = +-m of mm * (mm K(mm d) + (1 - mm) K(mm d + l)).

    ``kernel(u)`` returns K(u) and the exponent it passed to exp; the shell
    takes (m, d, l) and returns its terms and their largest exponent.
    """

    def shell(m, d, l):
        t = 0.0
        top = -np.inf
        for mm in (m, -m):
            k1, x1 = kernel(mm * d)
            k2, x2 = kernel(mm * d + l)
            t = t + mm * (mm * k1 + (1 - mm) * k2)
            top = np.maximum(top, np.maximum(x1, x2))
        return t, top

    return shell


# ---------------------------------------------------------------------------
# Close and high
# ---------------------------------------------------------------------------

def close_pdf(chi: float, gamma: float) -> float:
    """Density of the close: N(gamma, 1)."""
    return math.exp(-0.5 * (chi - gamma) ** 2) / math.sqrt(2.0 * math.pi)


def high_close_joint_pdf(
    eta: float, chi: float, gamma: float, cfg: SeriesConfig | None = None
) -> DensityValue:
    """Joint density of (high, close); closed form, support chi < eta, eta > 0."""
    cfg = _cfg(cfg)
    if eta <= 0.0 or chi >= eta:
        return DensityValue(0.0, 0, True)
    expo = 2.0 * gamma * eta - 0.5 * (2.0 * eta - chi + gamma) ** 2
    return _finish(_SQRT_2_PI * (2.0 * eta - chi) * math.exp(expo), 0, cfg)


def _exp_times_erfc(log_factor: float, a: float) -> float:
    """exp(log_factor) * erfc(a), kept in floating-point range."""
    if a >= 0.0:
        return math.exp(log_factor - a * a) * float(erfcx(a))
    return math.exp(log_factor) * float(erfc(a))


def high_pdf(eta: float, gamma: float, cfg: SeriesConfig | None = None) -> DensityValue:
    """Density of the high, support eta > 0.

    The drift correction term is gamma * exp(2*gamma*eta) *
    erfc((eta + gamma) / sqrt(2)), the form that agrees with the marginal
    of :func:`high_close_joint_pdf` and with simulation at nonzero drift.
    The refuted reading with divisor 2 is kept by ``rangevol.validation``.
    """
    cfg = _cfg(cfg)
    if eta <= 0.0:
        return DensityValue(0.0, 0, True)
    base = _SQRT_2_PI * math.exp(-0.5 * (eta - gamma) ** 2)
    corr = gamma * _exp_times_erfc(2.0 * gamma * eta, (eta + gamma) / _SQRT2)
    return _finish(base - corr, 0, cfg)


# ---------------------------------------------------------------------------
# Joint density of (high, low, close)
# ---------------------------------------------------------------------------

def _hlc_series_grid(eta, ell, chi: float, cfg: SeriesConfig) -> tuple[np.ndarray, int]:
    """Image series of the (h, l) density conditional on close = chi, vectorized.

    ``eta`` and ``ell`` are broadcastable arrays; the support mask and the
    overall factor 4 are applied (the factor is fixed by normalization: the
    double integral over (eta, ell) must be 1 for every chi; see
    ``rangevol.validation``).  Returns (values, shells_used).
    """
    eta, ell = np.broadcast_arrays(np.asarray(eta, dtype=float), np.asarray(ell, dtype=float))
    mask = (eta > max(0.0, chi)) & (ell < min(0.0, chi)) & (eta - ell >= cfg.small_arg_floor)

    def kernel(u):
        x = 2.0 * u * (chi - u)
        return ((chi - 2.0 * u) ** 2 - 1.0) * np.exp(x), x

    total, shells = _image_series(
        _reflection_shell(kernel), mask, (eta - ell, ell), cfg, "(h,l,c) joint density"
    )
    return 4.0 * total, shells


def hlc_joint_pdf(
    eta: float, ell: float, chi: float, gamma: float, cfg: SeriesConfig | None = None
) -> DensityValue:
    """Joint density of (high, low, close); support ell < chi < eta with
    eta > max(0, chi) and ell < min(0, chi)."""
    cfg = _cfg(cfg)
    if not (ell < chi < eta) or eta <= max(0.0, chi) or ell >= min(0.0, chi):
        return DensityValue(0.0, 0, True)
    if eta - ell < cfg.small_arg_floor:
        return DensityValue(0.0, 0, False)
    series, shells = _hlc_series_grid(np.float64(eta), np.float64(ell), chi, cfg)
    return _finish(close_pdf(chi, gamma) * float(series), shells, cfg)


# ---------------------------------------------------------------------------
# Joint density of (range, close) and the range marginal
# ---------------------------------------------------------------------------

def _range_close_series_grid(delta, abs_chi, cfg: SeriesConfig) -> tuple[np.ndarray, int]:
    """Image series of the (range, close) density without the close factor.

    Vectorized over broadcastable ``delta`` and ``abs_chi`` grids (the close
    enters only through its absolute value); the overall factor 4 is
    included, the Gaussian close density is not.  Used by the moment
    quadratures; point evaluations go through :func:`range_close_joint_pdf`.
    """
    delta, abs_chi = np.broadcast_arrays(
        np.asarray(delta, dtype=float), np.asarray(abs_chi, dtype=float)
    )
    mask = (delta > abs_chi) & (delta >= cfg.small_arg_floor)

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
        shell, mask, (delta, abs_chi), cfg, "(range, close) joint density"
    )
    return 4.0 * total, shells


def _range_close_shell(m: int, delta: float, abs_chi: float) -> float:
    t = 0.0
    for mm in (m, -m):
        u = abs_chi + 2.0 * mm * delta
        t += mm * (
            mm * (delta - abs_chi) * (u * u - 1.0) - (mm + 1) * u
        ) * math.exp(-2.0 * mm * delta * (abs_chi + mm * delta))
    return t


def range_close_joint_pdf(
    delta: float, chi: float, gamma: float, cfg: SeriesConfig | None = None
) -> DensityValue:
    """Joint density of (range, close); support delta > |chi|.

    Depends on chi only through |chi| (apart from the Gaussian close
    factor), so it is symmetric in chi at gamma = 0.
    """
    cfg = _cfg(cfg)
    if delta <= abs(chi):
        return DensityValue(0.0, 0, True)
    if delta < cfg.small_arg_floor:
        return DensityValue(0.0, 0, False)
    ac = abs(chi)
    total, shells = _sum_shells(
        lambda m: _range_close_shell(m, delta, ac), cfg, "(range, close) joint density"
    )
    return _finish(4.0 * close_pdf(chi, gamma) * total, shells, cfg)


def _exp_scaled_erf_diff(delta: float, gamma: float, m: int) -> float:
    """e^{2 m delta gamma} * [erf((2m d + g)/sqrt2) - erf(((2m+1) d + g)/sqrt2)].

    Rewritten through erfcx so the exponential prefactor never overflows:
    2 m d g - A^2 = -2 m^2 d^2 - g^2/2 and
    2 m d g - B^2 = -(2m+1)^2 d^2/2 - g^2/2 - d g.
    """
    a = (2.0 * m * delta + gamma) / _SQRT2
    b = (delta + 2.0 * m * delta + gamma) / _SQRT2
    ea = -2.0 * m * m * delta * delta - 0.5 * gamma * gamma
    eb = -0.5 * (2 * m + 1) ** 2 * delta * delta - 0.5 * gamma * gamma - delta * gamma
    if a >= 0.0:
        return math.exp(eb) * float(erfcx(b)) - math.exp(ea) * float(erfcx(a))
    if b <= 0.0:
        return math.exp(ea) * float(erfcx(-a)) - math.exp(eb) * float(erfcx(-b))
    return math.exp(2.0 * m * delta * gamma) * float(erf(a) - erf(b))


def _drift_edge_term(delta: float, gamma: float, m: int) -> float:
    poly = 1.0 + m * (3.0 + gamma * (delta + 2.0 * m * delta + gamma))
    return poly * _exp_scaled_erf_diff(delta, gamma, m)


def _range_shell_drift(m: int, delta: float, gamma: float) -> float:
    g2 = gamma * gamma
    t = 0.0
    for mm in (m, -m):
        e1 = -2.0 * mm * mm * delta * delta - 0.5 * g2
        e2a = -0.5 * ((1 + 2 * mm) ** 2 * delta * delta + 2.0 * delta * gamma + g2)
        e2b = -0.5 * ((1 + 2 * mm) ** 2 * delta * delta - 2.0 * delta * gamma + g2)
        gauss = _SQRT_8_PI * (
            2.0 * math.exp(e1) * (2.0 * mm * mm * delta * delta - 1.0 - mm * (2.0 + g2))
            + (math.exp(e2a) + math.exp(e2b)) * (1.0 + mm * (2.0 + g2))
        )
        edge = 2.0 * gamma * (
            _drift_edge_term(delta, gamma, mm) - _drift_edge_term(delta, -gamma, mm)
        )
        t += mm * (gauss - edge)
    return t


def _range_shell_zero(m: int, delta: float) -> float:
    t = 0.0
    for mm in (m, -m):
        t += (2 * mm - 1) ** 2 * math.exp(-0.5 * (2 * mm - 1) ** 2 * delta * delta) \
            - 4.0 * mm * mm * math.exp(-2.0 * mm * mm * delta * delta)
    return t


def range_pdf(delta: float, gamma: float = 0.0, cfg: SeriesConfig | None = None) -> DensityValue:
    """Density of the range d = h - l; support delta > 0.

    gamma = 0 dispatches to the short zero-drift expansion; other drifts use
    the general series, whose edge terms go through the erfcx-stabilized
    erf differences.
    """
    cfg = _cfg(cfg)
    if delta <= 0.0:
        return DensityValue(0.0, 0, True)
    if delta < cfg.small_arg_floor:
        return DensityValue(0.0, 0, False)
    if gamma == 0.0:
        total, shells = _sum_shells(
            lambda m: _range_shell_zero(m, delta), cfg, "range density (zero drift)"
        )
        total += math.exp(-0.5 * delta * delta)  # m = 0 image
        return _finish(_SQRT_8_PI * total, shells, cfg)
    total, shells = _sum_shells(
        lambda m: _range_shell_drift(m, delta, gamma), cfg, "range density"
    )
    return _finish(total, shells, cfg)


# ---------------------------------------------------------------------------
# Bridge extremes and bridge range
# ---------------------------------------------------------------------------

def _bridge_hl_series_grid(eta, ell, cfg: SeriesConfig) -> tuple[np.ndarray, int]:
    """Joint density of the bridge (high, low), vectorized over grids."""
    eta, ell = np.broadcast_arrays(np.asarray(eta, dtype=float), np.asarray(ell, dtype=float))
    mask = (eta > 0.0) & (ell < 0.0) & (eta - ell >= cfg.small_arg_floor)

    def kernel(u):
        x = -2.0 * u * u
        return 4.0 * (4.0 * u * u - 1.0) * np.exp(x), x

    return _image_series(
        _reflection_shell(kernel), mask, (eta - ell, ell), cfg, "bridge (high, low) density"
    )


def bridge_hl_joint_pdf(
    eta: float, ell: float, cfg: SeriesConfig | None = None
) -> DensityValue:
    """Joint density of the bridge extremes (xi, zeta); support eta > 0 > ell."""
    cfg = _cfg(cfg)
    if eta <= 0.0 or ell >= 0.0:
        return DensityValue(0.0, 0, True)
    if eta - ell < cfg.small_arg_floor:
        return DensityValue(0.0, 0, False)
    series, shells = _bridge_hl_series_grid(np.float64(eta), np.float64(ell), cfg)
    return _finish(float(series), shells, cfg)


def bridge_range_pdf(delta: float, cfg: SeriesConfig | None = None) -> DensityValue:
    """Density of the bridge range s = xi - zeta; support delta > 0."""
    cfg = _cfg(cfg)
    if delta <= 0.0:
        return DensityValue(0.0, 0, True)
    if delta < cfg.small_arg_floor:
        return DensityValue(0.0, 0, False)
    d2 = delta * delta

    def shell(m):
        return m * m * (4.0 * m * m * d2 - 3.0) * math.exp(-2.0 * m * m * d2)

    total, shells = _sum_shells(shell, cfg, "bridge range density")
    return _finish(8.0 * delta * total, shells, cfg)


# ---------------------------------------------------------------------------
# Estimator densities (change of variables x = d^2 / alpha)
# ---------------------------------------------------------------------------

def _range_law(kind: EstimatorKind, gamma: float, cfg: SeriesConfig | None):
    """(range density, alpha) of an analytic estimator, which is d^2 / alpha.

    Parkinson: the drifted range density and alpha = ln 16; bridge: the
    bridge range density and alpha = pi^2 / 6, whatever the drift.  The
    densities are looked up by their module-level names at call time, so a
    wrapper installed on them (as ``perfbench/spans.py`` does) sees every
    call.
    """
    cfg = _cfg(cfg)
    if kind is EstimatorKind.PARKINSON:
        return (lambda d: range_pdf(d, gamma, cfg)), LN16
    if kind is EstimatorKind.BRIDGE:
        return (lambda d: bridge_range_pdf(d, cfg)), 1.0 / BRIDGE_FACTOR
    raise ValueError(f"no analytic estimator density for {kind}")


def _estimator_pdf(x: float, range_density, alpha: float) -> DensityValue:
    """Density of d^2 / alpha at x from the range density of d."""
    if x <= 0.0:
        return DensityValue(0.0, 0, True)
    inner = range_density(math.sqrt(alpha * x))
    scale = math.sqrt(alpha / (4.0 * x))
    return DensityValue(scale * inner.value, inner.terms_used, inner.converged, inner.clamped)


def parkinson_estimator_pdf(
    x: float, gamma: float = 0.0, cfg: SeriesConfig | None = None
) -> DensityValue:
    """Density of the Parkinson estimator d^2 / ln 16 at drift gamma."""
    return _estimator_pdf(x, *_range_law(EstimatorKind.PARKINSON, gamma, cfg))


def bridge_estimator_pdf(x: float, cfg: SeriesConfig | None = None) -> DensityValue:
    """Density of the bridge estimator (6/pi^2) s^2; drift-free."""
    return _estimator_pdf(x, *_range_law(EstimatorKind.BRIDGE, 0.0, cfg))
