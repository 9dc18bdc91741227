"""Alternating parent/change pairs of the benchmark, written as BENCH_<pr>.json.

Given two source trees of rangevol -- the parent and the change, each with
its own ``perfbench/`` and ``BENCHMARK.json`` -- this runs ``perfbench/run.py
--trace 0`` in both, pair by pair and workload by workload (every workload,
each run ``run_seconds`` long as the change's ``BENCHMARK.json`` fixes it), on
the same seed within a pair (``--seed`` plus the pair's index) and with the
side that runs first alternating from pair to pair.  It writes
``BENCH_<pr>.json`` in the working directory, one JSON file holding every
run's full record (environment, per-operation figures, failures) and, per
workload and end-to-end metric, the medians and quartiles of both sides, the
pairs the change won (ties count for neither side) and the bound that
``BENCHMARK.json`` fixes for the metric.  A file compares only its own pairs:
every record is specific to the machine it ran on.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --pr 31 --pairs 10

Run it with both trees idle; the runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("desk", "theory", "ticks")
SIDES = ("parent", "change")
# The environment every record must name; all records of a file must agree on it.
ENVIRONMENT = ("nproc", "python", "numpy", "scipy", "RANGEVOL_THREADS")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its result line and its record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {workload} seed {seed} failed in {tree}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(tree, ".bench_run", f"record-{workload}-0-{seed}.json")) as fh:
        record = json.load(fh)
    return {"result": result, "record": record}


def summarize(runs: list[dict], bounds: dict) -> dict:
    """Per metric of one workload: both sides' medians and quartiles, the change's
    wins over the parent's run of the same pair, and the metric's bound."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    out = {}
    for name, (better, bound) in bounds.items():
        values = {side: [pairs[p][side][name]["value"] for p in sorted(pairs)] for side in SIDES}
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        stats = {}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            stats[side] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
        out[name] = {
            **stats,
            "relative_change": stats["change"]["median"] / stats["parent"]["median"] - 1.0,
            "wins": wins,
            "pairs": len(pairs),
            "better": better,
            "bound": bound,
        }
    return out


def shared_environment(runs: list[dict]) -> dict:
    """The environment all records name; exits if two records disagree."""
    envs = [{key: run["record"]["environment"].get(key) for key in ENVIRONMENT} for run in runs]
    if any(env != envs[0] for env in envs):
        sys.exit("bench_pairs: the runs disagree on their environment")
    return envs[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--pr", required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    trees = {"parent": args.parent, "change": args.change}

    runs = []
    for workload in WORKLOADS:
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(trees[side], workload, seed, seconds)
                runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                             "first": side == order[0], **run})
                metrics = run["result"]["metrics"]
                print(f"{workload} pair {pair} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()),
                      file=sys.stderr)

    out = {
        "pr": args.pr,
        "command": "perfbench/run.py --trace 0",
        "seconds": seconds,
        "pairs": args.pairs,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "environment": shared_environment(runs),
        "source_sha256": {side: sorted({r["record"]["environment"]["source_sha256"]
                                        for r in runs if r["side"] == side}) for side in SIDES},
        "correct": {side: all(r["result"]["correct"] for r in runs if r["side"] == side)
                    for side in SIDES},
        "summary": {w: summarize([r for r in runs if r["workload"] == w], bounds)
                    for w in WORKLOADS},
        "runs": runs,
    }
    path = f"BENCH_{args.pr}.json"
    write(path, out)
    print(path)
    return 0


def write(path: str, bench: dict) -> None:
    """``bench`` as JSON: indented, but each run's record on one line (about
    40 kB of a desk record), which keeps the file to about 1 MB for 10 pairs."""
    head = json.dumps({k: v for k, v in bench.items() if k != "runs"}, indent=1)
    runs = ",\n".join(json.dumps(run, separators=(",", ":")) for run in bench["runs"])
    with open(path, "w") as fh:
        fh.write(f'{head[:-2]},\n "runs": [\n{runs}\n ]\n}}\n')


if __name__ == "__main__":
    sys.exit(main())
