"""The four range-based volatility estimators, canonical and physical.

Canonical estimators are dimensionless functionals of (h, l, c), the
high/low/close of a canonical path, or of (xi, zeta), the extremes of its
bridge.  Each physical estimator equals sigma^2 * T times its canonical
counterpart, so a canonical mean of 1 means the physical estimator is
unbiased for the variance of the log-return over the window.

Calibration constants live here and nowhere else:

* Parkinson divides the squared range by ln 16 = E[(h-l)^2] at zero drift.
* The bridge estimator multiplies the squared bridge range by 6/pi^2,
  the reciprocal of E[(xi-zeta)^2].
* Garman-Klass combines squared range, a cross term and the squared close
  with weights k1, k2, k3.  Two variants of the cross term circulate and
  are both supported; see :class:`GarmanKlassVariant`.

Garman-Klass and Rogers-Satchell can go negative on unlucky inputs.  Values
are returned as-is with a ``negative`` flag, never clamped: clamping would
bias every comparative statistic built on top of them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .paths import BridgeExtremes, Extremes, PhysicalBar

__all__ = [
    "LN16",
    "BRIDGE_FACTOR",
    "GK_K1",
    "GK_K2",
    "GK_K3",
    "EstimatorKind",
    "GarmanKlassVariant",
    "VolatilityEstimate",
    "parkinson_value",
    "garman_klass_value",
    "rogers_satchell_value",
    "bridge_value",
    "estimator_value",
    "parkinson",
    "garman_klass",
    "rogers_satchell",
    "bridge_estimator",
    "physical_estimate",
]

# Normalizer of the squared range: E[(h-l)^2] = ln 16 at zero drift.
LN16 = math.log(16.0)
# Normalizer of the squared bridge range: 1 / E[(xi-zeta)^2] = 6 / pi^2.
BRIDGE_FACTOR = 6.0 / math.pi**2
# Garman-Klass weights.
GK_K1 = 0.511
GK_K2 = 0.0109
GK_K3 = 0.383


class EstimatorKind(enum.Enum):
    PARKINSON = "parkinson"
    GARMAN_KLASS = "garman-klass"
    ROGERS_SATCHELL = "rogers-satchell"
    BRIDGE = "bridge"


class GarmanKlassVariant(enum.Enum):
    """Which cross term the Garman-Klass combination uses.

    HIGH_LOW_CROSS:   k1*d^2 - k2*(c*d - 2*h*l) - k3*c^2   (default)
    HIGH_CLOSE_CROSS: k1*d^2 - k2*(c*d - 2*h*c) - k3*c^2

    The two are algebraically different estimators.  Neither is exactly
    unbiased in continuous time (zero-drift means 1.02537 and 1.04469),
    unlike the form Garman & Klass (1980) publish; both are reported side
    by side in the tables.  See ``rangevol.validation`` for the numbers.
    """

    HIGH_LOW_CROSS = "hl"
    HIGH_CLOSE_CROSS = "hc"


@dataclass(frozen=True)
class VolatilityEstimate:
    """A single volatility estimate.

    ``canonical=True`` marks a dimensionless estimate with target mean 1;
    otherwise the value has units of log-return variance over the window.
    ``negative`` flags Garman-Klass / Rogers-Satchell outcomes below zero.
    """

    value: float
    kind: EstimatorKind
    canonical: bool = True
    negative: bool = False


# ---------------------------------------------------------------------------
# Array-friendly kernels: the single source of the formulas.  They accept
# floats or numpy arrays and are what the Monte Carlo engine calls.
# ---------------------------------------------------------------------------

def parkinson_value(high, low):
    """(h - l)^2 / ln 16"""
    d = high - low
    return d * d / LN16


def garman_klass_value(high, low, close, variant=GarmanKlassVariant.HIGH_LOW_CROSS):
    """k1*d^2 - k2*cross - k3*c^2 with d = h - l."""
    d = high - low
    if variant is GarmanKlassVariant.HIGH_LOW_CROSS:
        cross = close * d - 2.0 * high * low
    elif variant is GarmanKlassVariant.HIGH_CLOSE_CROSS:
        cross = close * d - 2.0 * high * close
    else:
        raise ValueError(f"unknown Garman-Klass variant: {variant!r}")
    return GK_K1 * d * d - GK_K2 * cross - GK_K3 * close * close


def rogers_satchell_value(high, low, close):
    """h*(h - c) + l*(l - c)"""
    return high * (high - close) + low * (low - close)


def bridge_value(xi, zeta):
    """(6/pi^2) * (xi - zeta)^2"""
    s = xi - zeta
    return BRIDGE_FACTOR * s * s


def estimator_value(kind, high, low, close, xi=None, zeta=None,
                    variant=GarmanKlassVariant.HIGH_LOW_CROSS):
    """The kernel of estimator ``kind`` at (high, low, close) or, for the
    bridge estimator, at the bridge extremes (xi, zeta)."""
    if kind is EstimatorKind.PARKINSON:
        return parkinson_value(high, low)
    if kind is EstimatorKind.GARMAN_KLASS:
        return garman_klass_value(high, low, close, variant)
    if kind is EstimatorKind.ROGERS_SATCHELL:
        return rogers_satchell_value(high, low, close)
    if kind is EstimatorKind.BRIDGE:
        return bridge_value(xi, zeta)
    raise ValueError(f"unknown estimator kind: {kind!r}")


# ---------------------------------------------------------------------------
# Estimator operations on the domain types.
# ---------------------------------------------------------------------------

def parkinson(e: Extremes) -> VolatilityEstimate:
    return VolatilityEstimate(float(parkinson_value(e.high, e.low)), EstimatorKind.PARKINSON)


def garman_klass(
    e: Extremes, variant: GarmanKlassVariant = GarmanKlassVariant.HIGH_LOW_CROSS
) -> VolatilityEstimate:
    v = float(garman_klass_value(e.high, e.low, e.close, variant))
    return VolatilityEstimate(v, EstimatorKind.GARMAN_KLASS, negative=v < 0.0)


def rogers_satchell(e: Extremes) -> VolatilityEstimate:
    v = float(rogers_satchell_value(e.high, e.low, e.close))
    return VolatilityEstimate(v, EstimatorKind.ROGERS_SATCHELL, negative=v < 0.0)


def bridge_estimator(b: BridgeExtremes) -> VolatilityEstimate:
    return VolatilityEstimate(float(bridge_value(b.xi, b.zeta)), EstimatorKind.BRIDGE)


def physical_estimate(
    bar: PhysicalBar,
    bridge: BridgeExtremes | None,
    kind: EstimatorKind,
    variant: GarmanKlassVariant = GarmanKlassVariant.HIGH_LOW_CROSS,
) -> VolatilityEstimate:
    """Apply an estimator to physical (H, L, C) or physical bridge extremes.

    The result has units of variance of the log-return over the window.
    The bridge estimator needs intra-window path information, so ``bridge``
    must be given exactly when ``kind`` is BRIDGE.
    """
    if kind is EstimatorKind.BRIDGE and bridge is None:
        raise ValueError("bridge estimator requires bridge extremes from intra-window path data")
    if kind is not EstimatorKind.BRIDGE and bridge is not None:
        raise ValueError("bridge extremes are only meaningful for the bridge estimator")
    xi, zeta = (None, None) if bridge is None else (bridge.xi, bridge.zeta)
    v = float(estimator_value(kind, bar.high, bar.low, bar.close, xi, zeta, variant))
    return VolatilityEstimate(v, kind, canonical=False, negative=v < 0.0)
