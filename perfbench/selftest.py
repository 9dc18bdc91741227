"""Self-test of the benchmark's output checks.

Run from the repository root:

    python3 perfbench/selftest.py

Runs one real operation of each workload, confirms its output passes, then
corrupts that output one way at a time and confirms that every corruption
is counted as a failed operation by the same tally the benchmark reports as
``failed``.  Exits 0 when every corruption was caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import os
import shutil
import sys

import numpy as np

import run

run.import_rangevol()
import workloads as w  # noqa: E402  (needs the rangevol sources on sys.path)


def counted(failures, results: int = 1) -> int:
    tally = run.Tally()
    tally.count(w.OpResult([], [], results, failures))
    return tally.failed


# ---------------------------------------------------------------------------
# desk
# ---------------------------------------------------------------------------

def _with_cell(summary, key, **changes):
    cells = dict(summary.cells)
    cells[key] = dataclasses.replace(cells[key], **changes)
    return dataclasses.replace(summary, cells=cells)


def desk_cases():
    op = w.desk_op(seed=7, index=0)
    summary, fits = op.output
    paths = summary.config.n_paths
    bridge = summary.cells[("bridge", 0.0)]
    gk = summary.cells[("garman-klass-hl", 1.0)]
    hist = gk.hist.copy()
    hist[3] += 1
    bad_fits = dict(fits)
    key = ("parkinson", 1.0)
    bad_fits[key] = ((math.nan,) + fits[key][0][1:], fits[key][1])

    def check(s, f=fits):
        return counted([("study", m) for m in w.check_desk(s, f, paths)])

    yield "desk: uncorrupted output", check(summary), 0
    yield "desk: bridge cell differs across drifts", check(
        _with_cell(summary, ("bridge", 1.5), mean=np.nextafter(bridge.mean, np.inf))), 1
    yield "desk: cell n != paths", check(_with_cell(summary, ("rogers-satchell", 0.5), n=paths - 1)), 1
    yield "desk: histogram + underflow + overflow != n", check(
        _with_cell(summary, ("garman-klass-hl", 1.0), hist=hist)), 1
    yield "desk: non-finite statistic", check(
        _with_cell(summary, ("garman-klass-hc", 2.0), variance=math.nan)), 1
    yield "desk: non-finite goodness of fit", check(summary, bad_fits), 1
    yield "desk: repeated fit agrees", counted(w.check_repeat(fits, dict(fits), "fit")), 0
    yield "desk: repeated fit differs", counted(w.check_repeat(fits, bad_fits, "fit")), 1

    records = [op.record] * w.DESK_MIN_OPS

    def check_pooled(cell, column, factor, count=len(records)):
        bad = copy.deepcopy(records[:count])
        for r in bad:
            r["cells"][cell][column] *= factor
        return counted([("pooled", m) for m in w.check_desk_pooled(bad)])

    yield "desk: pooled criteria, uncorrupted", check_pooled("parkinson@0.0", 1, 1.0), 0
    yield "desk: pooled criterion 7b Parkinson mean", check_pooled("parkinson@0.0", 1, 1.05), 1
    yield "desk: pooled criterion 7c bridge variance", check_pooled("bridge@0.0", 2, 1.25), 1
    yield "desk: pooled criteria on too few paths", check_pooled("bridge@0.0", 2, 1.0, 1), 1

    digest = w.cells_digest(summary)
    shifted = _with_cell(summary, ("rogers-satchell", 2.0), mean=np.nextafter(
        summary.cells[("rogers-satchell", 2.0)].mean, np.inf))
    yield "desk: determinism digest, same cells", counted(
        w.check_determinism(digest, w.cells_digest(copy.deepcopy(summary)))), 0
    yield "desk: determinism digest, one cell one ulp off", counted(
        w.check_determinism(digest, w.cells_digest(shifted))), 1


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

def theory_cases():
    op = w.theory_op(seed=7, index=0)
    out = op.output

    def corrupt(key, change):
        bad = dict(out)
        bad[key] = change(out[key])
        results, failures = w.check_theory(bad)
        return counted(failures, results)

    level2 = w.THEORY_LEVELS.index(2.0)

    def bump_level2(values):
        values = list(values)
        values[level2] += 1e-5
        return values

    def report(**changes):
        return lambda r: dataclasses.replace(r, **changes)

    park0 = out[("parkinson", 0.0, "moments")]
    bridge0 = out[("bridge", 0.0, "moments")]
    results, failures = w.check_theory(out)
    yield "theory: uncorrupted output", counted(failures, results), 0
    yield "theory: Parkinson mean (ln 16)", corrupt(
        ("parkinson", 0.0, "moments"), report(mean=park0.mean + 1e-5)), 1
    yield "theory: Parkinson variance (0.40733)", corrupt(
        ("parkinson", 0.0, "moments"), report(variance=park0.variance + 1e-5)), 1
    yield "theory: bridge variance (0.2)", corrupt(
        ("bridge", 0.0, "moments"), report(variance=bridge0.variance + 1e-5)), 1
    yield "theory: F_bridge(2)", corrupt(("bridge", 0.0, "interval"), bump_level2), 1
    yield "theory: F_park(2, 0)", corrupt(("parkinson", 0.0, "interval"), bump_level2), 1
    yield "theory: bridge P_delta", corrupt(("bridge", 0.0, "coverage"), lambda v: v + 1e-5), 1
    yield "theory: Rogers-Satchell mean at gamma=1.5", corrupt(
        ("rogers-satchell", 1.5, "mean"), lambda v: v + 1e-7), 1
    yield "theory: Garman-Klass mean not finite", corrupt(
        ("garman-klass-hc", 0.75, "mean"), lambda v: math.inf), 1
    yield "theory: negative density value", corrupt(
        ("parkinson", 1.25, "pdf"),
        lambda vals: vals[:5] + [dataclasses.replace(vals[5], value=-1e-3)] + vals[6:]), 1
    yield "theory: interval probabilities not monotone", corrupt(
        ("parkinson", 0.5, "interval"), lambda v: v[::-1]), 1
    again = w.theory_1d(w.theory_grid(7, 0), w.Stage())
    yield "theory: repeated 1D pass agrees", counted(w.check_repeat(out, again, "1D pass")), 0
    again[("bridge", 0.0, "coverage")] += 1e-15
    yield "theory: repeated 1D pass differs", counted(w.check_repeat(out, again, "1D pass")), 1


# ---------------------------------------------------------------------------
# ticks
# ---------------------------------------------------------------------------

def ticks_cases(workdir):
    op = w.ticks_op(seed=7, index=0, workdir=workdir)
    tick_path, est_path, again_path = op.output
    with open(est_path) as fh:
        lines = fh.read().splitlines(keepends=True)
    header_end = 2  # provenance comment and column header
    bad_path = os.path.join(workdir, "estimate-corrupted.csv")

    def check(new_lines, codes=(0, 0)):
        with open(bad_path, "w") as fh:
            fh.writelines(new_lines)
        messages = w.check_ticks(tick_path, bad_path, w.TICK_PATHS, codes,
                                 np.random.default_rng(0))
        return counted([("round trip", m) for m in messages])

    def edit_rows(change, rows=slice(header_end, None)):
        edited = list(lines)
        edited[rows] = [change(line) for line in lines[rows]]
        return edited

    def column_to(index, text):
        def change(line):
            cols = line.split(",")
            cols[index] = text(cols[index])
            return ",".join(cols)
        return change

    one_row = slice(header_end + 17, header_end + 18)
    yield "ticks: uncorrupted output", check(lines), 0
    yield "ticks: a window row missing", check(lines[:header_end + 5] + lines[header_end + 6:]), 1
    yield "ticks: non-finite estimate", check(edit_rows(column_to(3, lambda v: "nan"), one_row)), 1
    yield "ticks: estimates off by 1e-9 relative", check(
        edit_rows(column_to(4, lambda v: repr(float(v) * (1 + 1e-9))))), 1
    yield "ticks: nonzero cli exit code", check(lines, codes=(0, 0, 1)), 1

    with open(tick_path) as fh:
        ticks = fh.read().splitlines(keepends=True)
    ticks[-1] = ticks[-1].replace(",", ",1", 1)  # the last price gains a leading digit
    changed_path = os.path.join(workdir, "ticks-corrupted.csv")
    with open(changed_path, "w") as fh:
        fh.writelines(ticks)
    yield "ticks: re-emitted ticks identical", counted(w.check_reemission(tick_path, again_path)), 0
    yield "ticks: re-emitted ticks differ", counted(w.check_reemission(tick_path, changed_path)), 1


def main() -> int:
    workdir = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.environ["RANGEVOL_THREADS"] = str(w.nproc())
    missed = 0
    try:
        for cases in (desk_cases(), theory_cases(), ticks_cases(workdir)):
            for name, failed, expected in cases:
                ok = failed == expected
                missed += not ok
                print(f"{'ok  ' if ok else 'MISS'} {name}: failed {failed}, expected {expected}")
    finally:
        shutil.rmtree(workdir)
    print(f"{'all checks caught their corruption' if not missed else f'{missed} cases wrong'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
