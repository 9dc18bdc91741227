"""The checked-in benchmark pairs (``BENCH_<pr>.json``) and the script that writes them."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
ENVIRONMENT = ("nproc", "numpy", "scipy", "RANGEVOL_THREADS")


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_bench_file_is_checked_in():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_files_parse_and_name_their_environment(path):
    bench = json.loads(path.read_text())
    for env in [bench["environment"]] + [run["record"]["environment"] for run in bench["runs"]]:
        for key in ENVIRONMENT:
            assert env.get(key) is not None, key
    assert bench["pr"] == path.stem.split("_", 1)[1]
    for workload, metrics in bench["summary"].items():
        runs = [run for run in bench["runs"] if run["workload"] == workload]
        assert len(runs) == 2 * bench["pairs"]
        for metric in metrics.values():
            assert metric["pairs"] == bench["pairs"]
            assert 0 <= metric["wins"] <= metric["pairs"]


def test_summary_counts_wins_by_the_better_direction():
    def run(pair, side, **values):
        metrics = {name: {"value": value} for name, value in values.items()}
        return {"pair": pair, "side": side, "result": {"metrics": metrics}}

    runs = [run(0, "parent", t=2.0, q=1.0), run(0, "change", t=1.0, q=1.0),
            run(1, "change", t=3.0, q=2.0), run(1, "parent", t=4.0, q=1.0),
            run(2, "parent", t=1.0, q=1.0), run(2, "change", t=1.0, q=0.5)]
    summary = _bench_pairs().summarize(runs, {"t": ("lower", 0.25), "q": ("higher", 0.1)})
    assert summary["t"]["wins"] == 2  # the tie of pair 2 counts for neither side
    assert summary["q"]["wins"] == 1
    assert summary["t"]["parent"]["median"] == 2.0 and summary["t"]["change"]["median"] == 1.0
    assert summary["t"]["parent"]["iqr"] == pytest.approx(1.5)
    assert (summary["t"]["bound"], summary["q"]["better"]) == (0.25, "higher")
