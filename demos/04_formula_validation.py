#!/usr/bin/env python3
"""Regenerate the formula validation report.

Three published forms of the extreme-value densities admit conflicting
readings (an erfc argument scaling, a stray exponent symbol, and a
missing normalization factor), and the two Garman-Klass cross-term
variants are genuinely different estimators.  This script dual-evaluates
every candidate against a fixed-seed simulation oracle and writes the
verdicts to validation_report.md at the repository root.

Runs in about 11 s at the default scale (one draw of 2e5 paths x 2e3 steps
at drifts 0 and 1, on 2 vCPUs).
"""

import pathlib
import time

from rangevol.validation import formula_validation_report, render_report

t0 = time.time()
checks = formula_validation_report(n_paths=200_000, n_steps=2_000, seed=4200)
text = render_report(checks)

out = pathlib.Path(__file__).resolve().parents[1] / "validation_report.md"
out.write_text(text)

print(text)
print(f"wrote {out} in {time.time() - t0:.0f} s")
