#!/usr/bin/env python3
"""Exact densities, moments, and what they buy you for interval estimates.

Evaluates the analytic densities of the path range and the bridge range,
checks their celebrated moments, sets the moments of all four estimators
side by side (Garman-Klass and Rogers-Satchell from the exact (high, low,
close) law, a few seconds each), tabulates the estimator pdfs to CSV
(plot-ready), and computes the factor-N interval probabilities that make
the bridge estimator attractive: Pr{true vol < 2 * estimate} is 0.918 for
the bridge versus 0.813 for Parkinson at zero drift.
"""

import math
import pathlib

import numpy as np

from rangevol import (
    EstimatorKind,
    bridge_estimator_pdf,
    bridge_range_pdf,
    coverage_probability,
    interval_probability,
    mean_range_squared_series,
    parkinson_estimator_pdf,
    range_pdf,
    theoretical_moments,
)

OUT = pathlib.Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

print("=" * 70)
print("1. The mean squared range is ln 16 (series vs quadrature)")
print("=" * 70)
from scipy import integrate

series = mean_range_squared_series(100_000)
quad, _ = integrate.quad(lambda d: d * d * range_pdf(d).value, 0.02, 13, limit=300)
print(f"series limit      : {series:.12f}")
print(f"density moment    : {quad:.12f}")
print(f"ln 16             : {math.log(16):.12f}")

print()
print("=" * 70)
print("2. Bridge range moments")
print("=" * 70)
m2, _ = integrate.quad(lambda d: d * d * bridge_range_pdf(d).value, 0.02, 7, limit=300)
m4, _ = integrate.quad(lambda d: d**4 * bridge_range_pdf(d).value, 0.02, 8, limit=300)
print(f"E[s^2] = {m2:.10f}   (pi^2/6  = {math.pi**2 / 6:.10f})")
print(f"E[s^4] = {m4:.10f}   (pi^4/30 = {math.pi**4 / 30:.10f})")

print()
print("=" * 70)
print("3. Estimator moments from the densities")
print("=" * 70)
for kind, gamma in [
    (EstimatorKind.PARKINSON, 0.0),
    (EstimatorKind.PARKINSON, 1.0),
    (EstimatorKind.PARKINSON, 2.0),
    (EstimatorKind.GARMAN_KLASS, 0.0),
    (EstimatorKind.GARMAN_KLASS, 2.0),
    (EstimatorKind.ROGERS_SATCHELL, 0.0),
    (EstimatorKind.ROGERS_SATCHELL, 2.0),
    (EstimatorKind.BRIDGE, 0.0),
]:
    rep = theoretical_moments(kind, gamma)
    print(
        f"{kind.value:15s} gamma={gamma:3.1f}: mean = {rep.mean:.6f}  "
        f"variance = {rep.variance:.6f}  relative bias = {rep.relative_bias:+.4f}"
    )
print("(Parkinson drifts away from 1 as gamma grows; Rogers-Satchell stays unbiased")
print(" with a growing variance; the bridge never moves.  Garman-Klass is the")
print(" high-low cross-term variant.)")

print()
print("=" * 70)
print("4. Plot-ready estimator pdfs -> demos/output/*.csv")
print("=" * 70)
xs = np.linspace(0.01, 6.0, 600)
for name, pdf in [
    ("parkinson_pdf_gamma0", parkinson_estimator_pdf(xs, 0.0)),
    ("parkinson_pdf_gamma1", parkinson_estimator_pdf(xs, 1.0)),
    ("bridge_pdf", bridge_estimator_pdf(xs)),
]:
    path = OUT / f"{name}.csv"
    with open(path, "w") as fh:
        fh.write("x,density\n")
        fh.writelines(f"{x:.6f},{y:.10e}\n" for x, y in zip(xs, pdf.value))
    print(f"wrote {path}")

print()
print("=" * 70)
print("5. Interval probabilities F(N) = Pr{true vol < N * estimate}")
print("=" * 70)
KINDS = (EstimatorKind.BRIDGE, EstimatorKind.GARMAN_KLASS, EstimatorKind.ROGERS_SATCHELL,
         EstimatorKind.PARKINSON)
print("      N     bridge   Garman-Klass   Rogers-Satchell   Parkinson   (gamma=0)")
for level in (1.0, 1.5, 2.0, 3.0, 5.0):
    f = [interval_probability(kind, 0.0, level) for kind in KINDS]
    print(f"  {level:5.1f}   {f[0]:.4f}   {f[1]:.4f}         {f[2]:.4f}            {f[3]:.4f}")

print()
print("factor-2 coverage Pr{est/2 < vol < 2 est} at gamma=0:")
for kind in KINDS:
    print(f"  {kind.value:15s} {coverage_probability(kind, 0.0):.4f}")
