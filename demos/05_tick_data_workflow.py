#!/usr/bin/env python3
"""From tick data to volatility estimates, in library calls and via the CLI.

Synthesizes GBM ticks with known sigma^2 * T, reduces the raw (time, price)
samples of a window to its physical bar and bridge extremes, and shows that
the physical estimates recover the canonical ones scaled by sigma^2 * T.
Then drives the same flow through the command line round trip:
`rangevol simulate --emit-ticks` followed by `rangevol estimate`.
"""

import math
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

from rangevol import EstimatorKind, bridge_extremes, extremes, simulate_path
from rangevol.estimators import estimator_value
from rangevol.paths import window_extremes

SIGMA, HORIZON = 0.2, 1.0
SCALE = SIGMA * math.sqrt(HORIZON)

print("=" * 70)
print("1. Physical bars from ticks (library level)")
print("=" * 70)
path = simulate_path(n_steps=390, gamma=0.3, seed=123)  # one trading day, minute bars
times = HORIZON * np.arange(391) / 390
prices = 100.0 * np.exp(SCALE * path.values)
# the window [0, HORIZON] holds the ticks start:stop, both edges included
start = np.searchsorted(times, 0.0, side="left")
stop = np.searchsorted(times, HORIZON, side="right")
bar = [float(v[0]) for v in window_extremes(times, np.log(prices), [start], [stop])]
print(f"physical bar: H = {bar[0]:+.5f}  L = {bar[1]:+.5f}  C = {bar[2]:+.5f}")

e, b = extremes(path), bridge_extremes(path)
for kind in (EstimatorKind.PARKINSON, EstimatorKind.GARMAN_KLASS, EstimatorKind.BRIDGE):
    canonical = estimator_value(kind, e.high, e.low, e.close, b.xi, b.zeta)
    phys = estimator_value(kind, *bar)
    print(
        f"  {kind.value:16s} physical = {phys:.6f}   "
        f"sigma^2*T * canonical = {SIGMA**2 * HORIZON * canonical:.6f}"
    )
print(f"(true variance over the window: sigma^2*T = {SIGMA**2 * HORIZON})")

print()
print("=" * 70)
print("2. The same flow through the CLI")
print("=" * 70)
with tempfile.TemporaryDirectory() as tmp:
    tmp = pathlib.Path(tmp)
    ticks, sim_out, est_out = tmp / "ticks.csv", tmp / "sim.csv", tmp / "est.csv"
    subprocess.run(
        [sys.executable, "-m", "rangevol", "simulate", "--paths", "300", "--steps", "2000",
         "--seed", "424242", "--gammas", "0", "--estimators", "parkinson", "--skip-theory",
         "--emit-ticks", str(ticks), "--sigma", str(SIGMA), "--horizon", str(HORIZON),
         "--out", str(sim_out)],
        check=True,
    )
    subprocess.run(
        [sys.executable, "-m", "rangevol", "estimate", str(ticks), "--window", str(HORIZON),
         "--out", str(est_out)],
        check=True,
    )
    table = est_out.read_text().strip().splitlines()
    print(f"emitted {sum(1 for _ in open(ticks)) - 1} ticks, estimated {len(table) - 2} windows")
    print(table[1])
    print(table[2])
    values = np.loadtxt(str(est_out), delimiter=",", skiprows=2, usecols=4)
    print(
        f"mean Parkinson estimate over {values.size} windows: {values.mean():.6f} "
        f"(target {SIGMA**2 * HORIZON})"
    )
