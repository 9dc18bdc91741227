#!/usr/bin/env python3
"""Canonical paths, bridges, and the four range-based estimators.

Walks through the basic objects: simulate a discretized unit-window path
with drift, remove the drift with the bridge transform, extract extremes,
and evaluate all four estimators on the same path (common random numbers).
Ends with a 200-sample dump in the spirit of a side-by-side comparison
table: the bridge column visibly hugs 1 tighter than the others.
"""

from rangevol import (
    EstimatorKind,
    ExperimentConfig,
    bridge_extremes,
    bridge_transform,
    extremes,
    sample_dump,
    simulate_path,
)
from rangevol.estimators import estimator_value

print("=" * 70)
print("1. One canonical path with drift gamma = 1")
print("=" * 70)
path = simulate_path(n_steps=5_000, gamma=1.0, seed=2026)
e = extremes(path)
print(f"high = {e.high:+.4f}   low = {e.low:+.4f}   close = {e.close:+.4f}")

bridge = bridge_transform(path)
be = bridge_extremes(path)
print(f"bridge ends at {bridge.values[-1]:+.1e} (exactly 0 by construction)")
print(f"bridge extremes: xi = {be.xi:+.4f}   zeta = {be.zeta:+.4f}")

print()
print("Estimates from this single window (target: the true variance 1):")
for name, kind in [
    ("Parkinson       ", EstimatorKind.PARKINSON),
    ("Garman-Klass    ", EstimatorKind.GARMAN_KLASS),
    ("Rogers-Satchell ", EstimatorKind.ROGERS_SATCHELL),
    ("bridge          ", EstimatorKind.BRIDGE),
]:
    print(f"  {name} {estimator_value(kind, e.high, e.low, e.close, be.xi, be.zeta):8.4f}")

print()
print("=" * 70)
print("2. Drift does not move the bridge")
print("=" * 70)
for gamma in (0.0, 1.0, 2.0):
    p = simulate_path(2_000, gamma, seed=7)  # same shocks, different drift
    c, b = extremes(p), bridge_extremes(p)
    estimate = estimator_value(EstimatorKind.BRIDGE, c.high, c.low, c.close, b.xi, b.zeta)
    print(f"gamma = {gamma:3.1f}: bridge estimator = {estimate:.6f}")

print()
print("=" * 70)
print("3. Two hundred samples of each estimator, shared paths")
print("=" * 70)
cfg = ExperimentConfig(n_steps=2_000, n_paths=200, gamma_grid=(0.0,), seed=11)
labels, dump = sample_dump(cfg, 200)
print("column means and standard deviations over 200 windows:")
for j, label in enumerate(labels):
    col = dump[:, j]
    print(f"  {label:18s} mean = {col.mean():6.3f}   sd = {col.std(ddof=1):6.3f}")
print()
print("first ten rows:")
print("  " + "  ".join(f"{label:>16s}" for label in labels))
for row in dump[:10]:
    print("  " + "  ".join(f"{v:16.4f}" for v in row))
print()
print("The bridge column has the smallest spread around 1; Parkinson the widest.")
