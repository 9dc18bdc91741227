"""Benchmark of rangevol: the desk, theory and ticks workloads.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

The library is imported from ``./src``; nothing needs building.  Inputs come
from ``--seed`` only.  The run sets ``RANGEVOL_THREADS`` to the number of
usable cores, times its set-up, then repeats operations of the workload
until ``--seconds`` have passed and checks every output.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``     median time to import rangevol in a fresh interpreter;
* ``stage1_s``    median time of the first stage (desk: the study; theory:
                  the 1D part; ticks: ``simulate --emit-ticks``);
* ``stage2_s``    median time of the second stage (desk: the histogram fit;
                  theory: the joint part; ticks: ``estimate``);
* ``peak_rss_mb`` the largest resident set of this process and its workers.

The three times are in reference seconds (see ``refclock.py``): each timed
call is scaled by a reference kernel run just before and after it, so that
the host's drifting speed cancels out.  The raw times are in the record.

``--trace 1`` runs one operation to warm up, the same operation untraced and
then traced (see ``spans.py``), and reports per-layer self times and counts;
the desk workload adds a single-worker run of the same study as the serial
baseline.

The last line of standard output is the JSON result.  A fuller record
(environment, per-operation figures, diagnostics and the failures found) and,
when tracing, the spans go to ``.bench_run/`` in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_run")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
# The reference kernel needs numpy, so the probe runs it after the import and
# the parent runs it just before starting the probe.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import rangevol, rangevol.cli; "
    "t = time.perf_counter() - t; import refclock; refclock.reference_s(); "
    "print(t, refclock.reference_s(), rangevol.__file__)"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_rangevol():
    if not os.path.isfile(os.path.join(SRC, "rangevol", "__init__.py")):
        fail(f"no rangevol sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import rangevol
    import rangevol.cli  # noqa: F401  (the ticks workload and the tracer need it)

    if os.path.dirname(os.path.dirname(os.path.abspath(rangevol.__file__))) != SRC:
        fail(f"imported rangevol from {rangevol.__file__}, not from {SRC}")
    return rangevol


def time_setup() -> tuple[list[float], list[float]]:
    """Raw and scaled import times of rangevol in fresh interpreters."""
    from refclock import REF_NOMINAL_S, reference_s

    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, BENCH_DIR)))
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_s()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"importing rangevol failed:\n{proc.stderr}")
        seconds, after, path = proc.stdout.split()
        if not path.startswith(SRC):
            fail(f"fresh interpreter imported rangevol from {path}")
        raw.append(float(seconds))
        scaled.append(float(seconds) * REF_NOMINAL_S / (0.5 * (before + float(after))))
    return raw, scaled


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest() -> str:
    """Digest of the library sources, which identifies the code when git cannot."""
    h = hashlib.sha256()
    package = os.path.join(SRC, "rangevol")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(workloads, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": workloads.nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "RANGEVOL_THREADS": os.environ.get("RANGEVOL_THREADS"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,  # each operation's derived seeds are in its record
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def count(self, op) -> None:
        self.attempted += op.results
        self.failed += op.failed
        self.failures.extend(message for _, message in op.failures)


def make_op(workloads, name: str, seed: int, workdir: str):
    if name == "desk":
        return lambda i: workloads.desk_op(seed, i)
    if name == "theory":
        return lambda i: workloads.theory_op(seed, i)
    return lambda i: workloads.ticks_op(seed, i, workdir)


def measure(workloads, name, seed, seconds, workdir, tally, record) -> dict:
    op = make_op(workloads, name, seed, workdir)
    if name == "theory":
        workloads.theory_warmup()
    ops, op_s = [], []
    start = time.perf_counter()
    # Stop at the operation that ends nearest to ``seconds``.
    while (len(ops) < workloads.MIN_OPS[name]
           or time.perf_counter() - start + 0.5 * statistics.median(op_s) < seconds):
        t0 = time.perf_counter()
        result = op(len(ops))
        op_s.append(time.perf_counter() - t0)
        result.output = None
        tally.count(result)
        ops.append(result)
    records = [op.record for op in ops]
    if name == "desk":
        tally.count(workloads.OpResult([], [], 1, [
            ("pooled cells", m) for m in workloads.check_desk_pooled(records)]))
        check = workloads.desk_determinism()
        tally.count(check)
        record["determinism"] = check.record
        record["rogers_satchell_7d"] = workloads.rogers_satchell_diagnostics(records)
    record["ops"] = [
        dict(op.record,
             stage1_raw_s=[s.raw_s for s in op.stage1], stage1_scaled_s=[s.scaled_s for s in op.stage1],
             stage2_raw_s=[s.raw_s for s in op.stage2], stage2_scaled_s=[s.scaled_s for s in op.stage2])
        for op in ops
    ]
    record["medians"] = {
        key: statistics.median(r[key] for r in records)
        for key in records[0] if key.endswith("_s")
    }
    return {
        "stage1_s": statistics.median(s.scaled_s for op in ops for s in op.stage1),
        "stage2_s": statistics.median(s.scaled_s for op in ops for s in op.stage2),
    }


def raw_s(op) -> float:
    """Wall time of an operation's timed calls, without the reference runs."""
    return sum(s.raw_s for s in op.stage1 + op.stage2)


def traced(workloads, name, seed, workdir, tally, record) -> dict:
    import rangevol
    from spans import Tracer, layer_metrics

    op = make_op(workloads, name, seed, workdir)
    # The first operation fills caches and finishes lazy imports; the second,
    # on the same inputs, is the untraced reference for the traced one.
    tally.count(op(0))
    plain = op(0)
    tally.count(plain)
    tracer = Tracer()
    tracer.install(rangevol)
    cpu0 = child_cpu_s()
    try:
        result = op(0)
    finally:
        tracer.uninstall()
    worker_cpu = child_cpu_s() - cpu0
    tally.count(result)
    # The library is only called inside the two stages, so their sum is the
    # traced wall time that layer self times and the remainder add up to.
    wall = raw_s(result)
    metrics = layer_metrics(tracer, wall)
    untraced = raw_s(plain)
    metrics["trace.overhead_s"] = wall - untraced
    metrics["montecarlo.worker_cpu_s"] = worker_cpu
    metrics["montecarlo.ns_per_path_step"] = 0.0
    metrics["montecarlo.parallel_efficiency"] = 0.0
    if name == "desk":
        summary, _ = result.output
        with workloads.worker_cap(1):
            s0 = time.perf_counter()
            serial = workloads.montecarlo.run_experiment(summary.config)
            serial_s = time.perf_counter() - s0
        steps = summary.config.n_paths * summary.config.n_steps
        check = workloads.check_determinism(
            workloads.cells_digest(summary), workloads.cells_digest(serial))
        tally.count(workloads.OpResult([], [], 1, check))
        n = workloads.nproc()
        metrics["montecarlo.ns_per_path_step"] = 1e9 * serial_s / steps
        metrics["montecarlo.parallel_efficiency"] = serial_s / (n * plain.stage1[0].raw_s)
    tracer.write(os.path.join(OUT_DIR, f"trace-{name}-{seed}.json"))
    record["trace"] = {"wall_s": wall, "untraced_s": untraced,
                       "spans": len(tracer.spans)}
    record["ops"] = [dict(plain.record, traced=False), dict(result.record, traced=True)]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "theory", "ticks"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_rangevol()
    import workloads

    os.environ["RANGEVOL_THREADS"] = str(workloads.nproc())
    setup_raw, setup = time_setup()
    tally = Tally()
    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(workloads, args.seed),
              "setup_raw_s": setup_raw, "setup_scaled_s": setup}
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            metrics = traced(workloads, args.workload, args.seed, workdir, tally, record)
            units = metric_units("per_layer")
        else:
            metrics = measure(workloads, args.workload, args.seed, args.seconds, workdir,
                              tally, record)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = peak_rss_mb()
            units = metric_units("end_to_end")
    finally:
        shutil.rmtree(workdir)
    record.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures)
    record_path = os.path.join(OUT_DIR, f"record-{args.workload}-{args.trace}-{args.seed}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for message in tally.failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    missing = set(units) ^ set(metrics)
    if missing:
        fail(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def metric_units(section: str) -> dict:
    """Name -> unit of the metrics listed under ``section`` of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


if __name__ == "__main__":
    sys.exit(main())
