import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from conftest import peak_mb

import rangevol
from rangevol import cli, montecarlo
from rangevol.cli import main
from rangevol.estimators import EstimatorKind

LN16 = math.log(16.0)


def run_cli(*argv):
    return main(list(argv))


def read_table(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# rangevol ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_constant_ticks(tmp_path):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(
        "timestamp,price\n" + "\n".join(f"{t},5.0" for t in np.linspace(0, 1, 11)) + "\n"
    )
    out = tmp_path / "out.csv"
    assert run_cli("estimate", str(ticks), "--window", "1.0", "--out", str(out)) == 0
    header, rows = read_table(out)
    assert header[:4] == ["window", "high", "low", "close"]
    assert len(rows) == 1
    assert all(float(v) == 0.0 for v in rows[0][1:-1])


def test_estimate_ohlc_normalization_point(tmp_path):
    d = math.sqrt(LN16)
    f = tmp_path / "bars.csv"
    f.write_text(
        "window_id,open,high,low,close\n"
        + "".join(f"w{i},0.0,{d},0.0,{0.3 * d}\n" for i in range(3))
    )
    out = tmp_path / "out.csv"
    assert run_cli("estimate", str(f), "--estimators", "parkinson", "--out", str(out)) == 0
    header, rows = read_table(out)
    assert header == ["window", "high", "low", "close", "parkinson", "warnings"]
    for row in rows:
        assert float(row[4]) == pytest.approx(1.0, abs=1e-12)


def test_estimate_ohlc_raw_prices(tmp_path):
    f = tmp_path / "bars.csv"
    f.write_text("window_id,open,high,low,close\nw0,100.0,110.0,95.0,103.0\n")
    out = tmp_path / "out.csv"
    assert run_cli("estimate", str(f), "--raw-prices", "--out", str(out)) == 0
    _, rows = read_table(out)
    assert float(rows[0][1]) == pytest.approx(math.log(1.10), rel=1e-12)
    assert float(rows[0][2]) == pytest.approx(math.log(0.95), rel=1e-12)


def test_estimate_tick_log_prices_two_ticks(tmp_path):
    f = tmp_path / "ticks.csv"
    f.write_text("timestamp,price\n0.0,0.0\n1.0,1.0\n")
    out = tmp_path / "out.csv"
    assert run_cli("estimate", str(f), "--log-prices", "--estimators",
                   "parkinson,bridge", "--out", str(out)) == 0
    _, rows = read_table(out)
    # H = C = 1, L = 0; bridge of a two-tick path is identically zero
    assert float(rows[0][1]) == 1.0 and float(rows[0][2]) == 0.0 and float(rows[0][3]) == 1.0
    assert float(rows[0][4]) == pytest.approx(1.0 / LN16, rel=1e-12)
    assert float(rows[0][5]) == 0.0


def test_estimate_iso_timestamps(tmp_path):
    f = tmp_path / "ticks.csv"
    f.write_text(
        "timestamp,price\n"
        "2026-01-01T00:00:00,100.0\n"
        "2026-01-01T00:30:00,105.0\n"
        "2026-01-01T01:00:00,103.0\n"
    )
    out = tmp_path / "out.csv"
    assert run_cli("estimate", str(f), "--window", "3600", "--out", str(out)) == 0
    _, rows = read_table(out)
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(math.log(1.05), rel=1e-12)


def test_estimate_malformed_row_reports_line(tmp_path, capsys):
    f = tmp_path / "ticks.csv"
    f.write_text("timestamp,price\n0.0,1.0\n0.5,oops\n1.0,1.1\n")
    assert run_cli("estimate", str(f), "--out", str(tmp_path / "o.csv")) == 1
    err = capsys.readouterr().err
    assert "3" in err and "oops" in err


def test_estimate_bridge_on_ohlc_is_usage_error(tmp_path):
    f = tmp_path / "bars.csv"
    f.write_text("window_id,open,high,low,close\nw0,0.0,1.0,-1.0,0.5\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("estimate", str(f), "--estimators", "bridge")
    assert exc.value.code == 2


def test_estimate_unknown_header(tmp_path, capsys):
    f = tmp_path / "x.csv"
    f.write_text("a,b,c\n1,2,3\n")
    assert run_cli("estimate", str(f)) == 1
    assert "unrecognized header" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_byte_deterministic(tmp_path, monkeypatch, study_pools):
    # identical flags (including --out) must give identical bytes, in-process
    # and from a two-worker pool
    out = tmp_path / "sim.csv"
    args = ["simulate", "--paths", "400", "--steps", "200", "--seed", "7", "--batch-size", "64",
            "--gammas", "0", "--skip-theory", "--out", str(out)]
    monkeypatch.setenv("RANGEVOL_THREADS", "1")
    assert run_cli(*args) == 0
    first = out.read_bytes()
    monkeypatch.setenv("RANGEVOL_THREADS", "2")
    assert run_cli(*args) == 0
    assert study_pools == [2]
    assert out.read_bytes() == first


def test_cli_import_loads_no_process_pool():
    # the --emit-ticks pool is imported by the command, not by the module
    src = os.path.dirname(os.path.dirname(os.path.abspath(rangevol.__file__)))
    code = "import sys, rangevol, rangevol.cli; print(sorted(m for m in sys.modules if 'concurrent' in m))"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_simulate_row_per_estimator(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--paths", "2", "--steps", "4", "--seed", "7",
                   "--gammas", "0", "--skip-theory", "--out", str(out)) == 0
    header, rows = read_table(out)
    assert header[:3] == ["estimator", "gamma", "mean"]
    names = [r[0] for r in rows]
    assert names == ["parkinson", "garman-klass-hl", "garman-klass-hc",
                     "rogers-satchell", "bridge"]


def test_simulate_bridge_rows_identical_across_gammas(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--paths", "500", "--steps", "300", "--seed", "3",
                   "--gammas", "0,1,2", "--estimators", "bridge", "--skip-theory",
                   "--out", str(out)) == 0
    _, rows = read_table(out)
    assert len(rows) == 3
    stats = {tuple(r[2:8]) for r in rows}
    assert len(stats) == 1


def test_simulate_theory_columns(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--paths", "200", "--steps", "100", "--seed", "1",
                   "--gammas", "0", "--estimators", "parkinson,bridge",
                   "--out", str(out)) == 0
    header, rows = read_table(out)
    by_name = {r[0]: r for r in rows}
    idx = header.index("theory_mean")
    assert float(by_name["parkinson"][idx]) == pytest.approx(1.0, abs=1e-6)
    assert float(by_name["bridge"][idx]) == pytest.approx(1.0, abs=1e-8)
    assert float(by_name["bridge"][idx + 1]) == pytest.approx(0.2, abs=1e-6)
    assert float(by_name["bridge"][idx + 2]) == pytest.approx(0.884026, abs=1e-4)


def test_simulate_json_format(tmp_path):
    out = tmp_path / "sim.json"
    assert run_cli("simulate", "--paths", "50", "--steps", "20", "--seed", "2",
                   "--gammas", "0", "--estimators", "parkinson", "--skip-theory",
                   "--format", "json", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["provenance"].startswith("rangevol ")
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    assert row["estimator"] == "parkinson"
    assert isinstance(row["mean"], float)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_bridge_estimator_curve_normalizes(tmp_path):
    out = tmp_path / "d.csv"
    assert run_cli("density", "bridge-estimator-pdf", "--x-min", "0.01", "--x-max", "6",
                   "--points", "600", "--out", str(out)) == 0
    _, rows = read_table(out)
    xs = np.array([float(r[0]) for r in rows])
    ys = np.array([float(r[1]) if r[1] else 0.0 for r in rows])
    assert abs(np.trapezoid(ys, xs) - 1.0) < 1e-3
    assert all(int(r[2]) >= 0 for r in rows)


def test_density_parkinson_shifts_right_with_drift(tmp_path):
    curves = {}
    for gamma in ("0", "1"):
        out = tmp_path / f"p{gamma}.csv"
        assert run_cli("density", "park-estimator-pdf", "--gamma", gamma,
                       "--x-min", "0.01", "--x-max", "8", "--points", "400",
                       "--out", str(out)) == 0
        _, rows = read_table(out)
        xs = np.array([float(r[0]) for r in rows])
        ys = np.array([float(r[1]) if r[1] else 0.0 for r in rows])
        curves[gamma] = (xs * ys).sum() / ys.sum()
    assert curves["1"] > curves["0"] + 0.3


def test_density_high_pdf_nonnegative_under_drift(tmp_path):
    out = tmp_path / "h.csv"
    assert run_cli("density", "high-pdf", "--gamma", "1", "--out", str(out)) == 0
    _, rows = read_table(out)
    assert len(rows) == 600
    assert all(float(r[1]) >= 0.0 for r in rows)


def test_density_below_old_floor_rows_hold_true_density(tmp_path):
    # the range laws have no small-argument floor: rows below 0.02 hold the
    # true density, which underflows to 0 below about 0.06
    out = tmp_path / "d.csv"
    assert run_cli("density", "range-pdf", "--x-min", "0.001", "--x-max", "0.1",
                   "--points", "3", "--out", str(out)) == 0
    _, rows = read_table(out)
    assert [float(r[1]) for r in rows] == [0.0, 0.0, rangevol.range_pdf(0.1).value]
    assert 0.0 < float(rows[-1][1]) < 1e-200


def test_density_huge_grid_gives_the_limit(tmp_path):
    # eta - gamma squared would overflow a float at eta = 1e156; the density
    # returns its limit 0 there without evaluating its terms
    out = tmp_path / "d.csv"
    assert run_cli("density", "high-pdf", "--gamma", "1", "--x-min", "1e155", "--x-max", "1e156",
                   "--points", "2", "--out", str(out)) == 0
    _, rows = read_table(out)
    assert [(float(r[1]), int(r[2])) for r in rows] == [(0.0, 0), (0.0, 0)]


def test_density_unknown_name_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("density", "no-such-pdf")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (("--x-max", "inf"), "--x-max must be finite, got inf"),
    (("--x-min", "nan"), "--x-min must be finite, got nan"),
    (("--x-min=-1e308", "--x-max=1e308"), "--x-max - --x-min must be finite, got inf"),
], ids=["x-max", "x-min", "span"])
def test_density_non_finite_grid_exit_1(tmp_path, capsys, argv, message):
    # numpy's step warning and a misleading "delta must be finite" came first
    out = tmp_path / "d.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("density", "range-pdf", *argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"rangevol: error: {message}\n"
    assert not out.exists()


def test_density_negative_points_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("density", "range-pdf", "--points", "-1")
    assert exc.value.code == 2
    assert "error: --points must be >= 0, got -1" in capsys.readouterr().err


def test_density_zero_points_writes_the_header(tmp_path):
    out = tmp_path / "d.csv"
    assert run_cli("density", "range-pdf", "--points", "0", "--out", str(out)) == 0
    assert read_table(out) == (["x", "value", "terms_used"], [])


@pytest.mark.parametrize("name, call", [
    ("close-pdf", lambda x: (rangevol.close_pdf(x, 1.25), np.zeros(x.shape, dtype=int))),
    ("high-pdf", lambda x: rangevol.high_pdf(x, 1.25)),
    ("range-pdf", lambda x: rangevol.range_pdf(x, 1.25)),
    ("bridge-range-pdf", lambda x: rangevol.bridge_range_pdf(x)),
    ("park-estimator-pdf", lambda x: rangevol.parkinson_estimator_pdf(x, 1.25)),
    ("bridge-estimator-pdf", lambda x: rangevol.bridge_estimator_pdf(x)),
], ids=lambda v: v if isinstance(v, str) else "")
def test_density_rows_are_one_library_array_call(tmp_path, name, call):
    # the grid crosses the range laws' switch at 1.5 and the closed forms' support
    out = tmp_path / "d.csv"
    assert run_cli("density", name, "--gamma", "1.25", "--x-min", "-1", "--x-max", "9",
                   "--points", "301", "--out", str(out)) == 0
    _, rows = read_table(out)
    xs = np.linspace(-1.0, 9.0, 301)
    got = call(xs)
    values, terms = (got.value, got.terms_used) if hasattr(got, "value") else got
    assert [[float(r[0]), float(r[1]), int(r[2])] for r in rows] == [
        list(row) for row in zip(xs.tolist(), values.tolist(), terms.tolist())]


@pytest.mark.parametrize("argv", [
    ("estimate", "ticks.csv", "--seed", "1"),
    ("estimate", "ticks.csv", "--series-tol", "1e-9"),
    ("estimate", "ticks.csv", "--max-terms", "10"),
    ("simulate", "--series-tol", "1e-9"),
    ("simulate", "--max-terms", "10"),
    ("density", "range-pdf", "--series-tol", "1e-9"),
    ("density", "range-pdf", "--max-terms", "10"),
    ("density", "range-pdf", "--seed", "1"),
    ("density", "range-pdf", "--gk-variant", "hc"),
    ("simulate", "--gk-variant", "hc"),
    ("tables", "--table", "mean", "--seed", "1"),
    ("tables", "--table", "variance", "--mc-paths", "1"),
    ("tables", "--table", "coverage", "--mc-steps", "1"),
    ("tables", "--table", "mean", "--series-tol", "1e-9"),
    ("tables", "--table", "mean", "--max-terms", "10"),
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_subcommand_rejects_flags_it_does_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_tables_interval(tmp_path):
    out = tmp_path / "f.csv"
    assert run_cli("tables", "--table", "interval", "--levels", "2", "--gammas", "0",
                   "--estimators", "parkinson,bridge", "--out", str(out)) == 0
    header, rows = read_table(out)
    assert header == ["estimator", "x", "value", "method"]
    values = {r[0]: float(r[2]) for r in rows}
    assert values["bridge"] == pytest.approx(0.918, abs=1e-3)
    assert values["parkinson"] == pytest.approx(0.813, abs=1e-3)


def test_tables_interval_lists_all_estimators(tmp_path):
    out = tmp_path / "f_all.csv"
    assert run_cli("tables", "--table", "interval", "--levels", "2", "--gammas", "0",
                   "--out", str(out)) == 0
    _, rows = read_table(out)
    values = {r[0]: float(r[2]) for r in rows}
    assert set(values) == {"parkinson", "garman-klass-hl", "rogers-satchell", "bridge"}
    # F(N) of the range laws is a CDF difference; of GK and RS a quadrature
    assert {r[0]: r[3] for r in rows} == {
        "parkinson": "closed-form", "bridge": "closed-form",
        "garman-klass-hl": "quadrature", "rogers-satchell": "quadrature",
    }
    # F(2): the bridge covers best, Parkinson worst
    assert values["bridge"] > values["garman-klass-hl"] > values["rogers-satchell"] > values["parkinson"]


def test_tables_variance_analytic_rows(tmp_path):
    out = tmp_path / "v.csv"
    assert run_cli("tables", "--table", "variance", "--gammas", "0",
                   "--estimators", "parkinson,bridge", "--out", str(out)) == 0
    _, rows = read_table(out)
    values = {r[0]: float(r[2]) for r in rows}
    assert values["parkinson"] == pytest.approx(0.407, abs=1e-3)
    assert values["bridge"] == pytest.approx(0.2, abs=1e-6)
    # the Parkinson moments are one Gauss-Legendre table; the bridge's are constants
    assert {r[0]: r[3] for r in rows} == {"parkinson": "quadrature", "bridge": "closed-form"}


def test_tables_variance_cancellation_names_its_cause(tmp_path, capsys):
    # at this drift E[est^2] - mean^2 comes out negative
    out = tmp_path / "v.csv"
    assert run_cli("tables", "--table", "variance", "--gammas", "100000",
                   "--estimators", "parkinson", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "parkinson variance at drift 100000.0" in err
    assert "E[est^2] - mean^2 cancelled" in err
    assert not out.exists()


def test_tables_relative_bias_zero_drift(tmp_path):
    """Zero-drift relative bias of the continuous-time estimators.

    Parkinson, bridge and Rogers-Satchell are unbiased at zero drift; the
    high-low Garman-Klass variant has mean 1.0254 and variance 0.2836, a
    relative bias of 0.0254 / sqrt(0.2836) = 0.048.
    """
    out = tmp_path / "rho.csv"
    assert run_cli("tables", "--table", "relative-bias", "--gammas", "0",
                   "--out", str(out)) == 0
    _, rows = read_table(out)
    by_name = {r[0]: r for r in rows}
    assert all(r[3] == ("closed-form" if r[0] == "bridge" else "quadrature") for r in rows)
    for name in ("parkinson", "bridge", "rogers-satchell"):
        assert abs(float(by_name[name][2])) < 2e-2
    assert float(by_name["garman-klass-hl"][2]) == pytest.approx(0.048, abs=1e-3)


def test_tables_coverage_ordering(tmp_path):
    out = tmp_path / "cov.csv"
    assert run_cli("tables", "--table", "coverage", "--gammas", "0,1",
                   "--out", str(out)) == 0
    _, rows = read_table(out)
    for gamma in ("0.0", "1.0"):
        sub = {r[0]: float(r[2]) for r in rows if r[1] == gamma}
        assert all(sub["bridge"] > v for k, v in sub.items() if k != "bridge")
    closed = {"parkinson", "bridge"}
    assert all(r[3] == ("closed-form" if r[0] in closed else "quadrature") for r in rows)


def test_tables_mean_reports_both_gk_variants(tmp_path):
    out = tmp_path / "m.csv"
    assert run_cli("tables", "--table", "mean", "--gammas", "0",
                   "--estimators", "garman-klass,bridge", "--out", str(out)) == 0
    _, rows = read_table(out)
    names = {r[0] for r in rows}
    assert {"garman-klass-hl", "garman-klass-hc", "bridge"} <= names


# ---------------------------------------------------------------------------
# emit-ticks -> estimate round trip
# ---------------------------------------------------------------------------

def test_simulate_emit_ticks_estimate_recovers_volatility(tmp_path):
    """Full pipeline: synthetic GBM ticks at sigma^2*T = 0.04, windowed
    Parkinson estimates recover the variance within 3% (includes the
    documented downward discretization bias at 5000 steps/window)."""
    ticks = tmp_path / "ticks.csv"
    sim_out = tmp_path / "sim.csv"
    est_out = tmp_path / "est.csv"
    assert run_cli("simulate", "--paths", "2500", "--steps", "5000", "--seed", "31415",
                   "--gammas", "0", "--estimators", "parkinson", "--skip-theory",
                   "--emit-ticks", str(ticks), "--sigma", "0.2", "--horizon", "1.0",
                   "--out", str(sim_out)) == 0
    assert run_cli("estimate", str(ticks), "--window", "1.0",
                   "--estimators", "parkinson", "--out", str(est_out)) == 0
    vals = np.loadtxt(str(est_out), delimiter=",", skiprows=2, usecols=4)
    assert len(vals) == 2500
    mean = float(vals.mean())
    assert abs(mean - 0.04) / 0.04 < 0.03
    # per-window canonical estimates match the simulate summary mean exactly
    _, sim_rows = read_table(sim_out)
    assert float(sim_rows[0][2]) == pytest.approx(mean / 0.04, rel=1e-9)


def test_tick_lines_match_per_row_formatting():
    # one % over the interleaved values gives the bytes of one % per row
    edge = [5e-324, -2.5e-310, np.finfo(float).tiny, -0.0, 0.0, 1e300, -1e300, 1.0, 2.0, 1e16,
            123456789012345.0, 2.0**53 + 2.0, math.pi, np.finfo(float).max]
    times, prices = np.array(edge), np.array(edge[::-1])
    rows = "".join("%.12g,%.17g\n" % row for row in zip(times.tolist(), prices.tolist()))
    assert cli._tick_lines(times, prices) == rows
    assert cli._tick_lines(times[:1], prices[:1]) == "4.94065645841e-324,1.7976931348623157e+308\n"
    assert cli._tick_lines(np.empty(0), np.empty(0)) == ""


def _per_value_row(row):
    # the per-value formatting the table writer replaced
    return ",".join("" if v is None else repr(v) if isinstance(v, float) else str(v)
                    for v in row) + "\n"


def test_csv_rows_match_per_value_formatting():
    # one % over the columns gives the bytes of formatting each value on its own
    edge = [5e-324, -0.0, 0.0, 1e16, 2.0**53 + 2.0, np.finfo(float).max, -1e-5, 0.1, math.pi]
    floats = np.array(edge)
    ints = list(range(-4, len(edge) - 4))
    names = ["w0", "", "a|b", "garman-klass-hl<0", "None", "x y", "-0.0", "1e16", "z"]
    blanks = [None, 1.5, None, 7, "c", None, 2**53 + 1, None, -0.0]
    columns = [ints, floats, names, blanks, floats[::-1], np.arange(len(edge))]
    listed = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    rows = "".join(_per_value_row(row) for row in zip(*listed))
    assert cli._csv_rows(columns) == rows
    assert cli._csv_rows([np.array([1e16]), [None], [2**53 + 2]]) == "1e+16,,9007199254740994\n"
    assert cli._csv_rows([np.empty(0), [], []]) == ""
    # a numpy float prints as its number; per-value repr gave "np.float64(0.1)"
    assert cli._csv_rows([[np.float64(0.1), np.float64(-0.0)], [np.int64(3), None]]) == (
        "0.1,3\n-0.0,\n"
    )


def test_estimate_table_flags_negative_estimates():
    # high = low = 0 and close = 1 give GK-hl = -0.383 and RS = -0.0, which is
    # not flagged; high = low = 0.5 and close = 1 also make RS negative
    high, low = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5, -1.0])
    close = np.array([1.0, 1.0, 0.5])
    kinds = (EstimatorKind.PARKINSON, EstimatorKind.GARMAN_KLASS, EstimatorKind.ROGERS_SATCHELL)
    args = argparse.Namespace(gk_variant="hl")
    header, columns = cli._estimate_table(args, kinds, np.array([3, 4, 7]), high, low, close)
    assert header == ["window", "high", "low", "close", "parkinson", "garman-klass-hl",
                      "rogers-satchell", "warnings"]
    assert list(columns[-1]) == ["garman-klass-hl<0", "garman-klass-hl<0|rogers-satchell<0", ""]
    assert float(columns[5][0]) == pytest.approx(-0.383, abs=1e-12)
    assert cli._csv_rows(columns).splitlines()[0].endswith(",-0.383,-0.0,garman-klass-hl<0")


@pytest.mark.parametrize("size, n_steps", [(512, 5000), (64, 100_000)], ids=["desk", "long-rows"])
def test_tick_tasks_working_set_is_bounded(size, n_steps):
    # drawing each batch whole peaked at 41.1 MB (desk) and 99.4 MB (long rows)
    cfg = montecarlo.ExperimentConfig(n_steps=n_steps, n_paths=size, batch_size=512,
                                      gamma_grid=(0.7,), seed=3)
    ticks = []
    peak = peak_mb(lambda: ticks.extend(t.size for t, _ in cli._tick_tasks(cfg, 0.2, 1.0)))
    assert sum(ticks) == size * n_steps + 1
    assert peak < 12.0


def test_tick_tasks_own_their_memory():
    # at 70 000 steps each task holds one row, so a task that viewed the
    # reused sums buffer would be overwritten by the next chunk
    cfg = montecarlo.ExperimentConfig(n_steps=70_000, n_paths=3, batch_size=2,
                                      gamma_grid=(0.7,), seed=3)
    streamed = [(t.copy(), p.copy()) for t, p in cli._tick_tasks(cfg, 0.2, 1.0)]
    listed = list(cli._tick_tasks(cfg, 0.2, 1.0))
    assert len(listed) == len(streamed) == 1 + 3
    for (t, p), (t0, p0) in zip(listed, streamed):
        assert t.tobytes() == t0.tobytes() and p.tobytes() == p0.tobytes()


def test_estimate_digest_with_skipped_windows(tmp_path):
    """Estimates of a fixed tick file in which windows 80-91 hold fewer than
    two ticks and are skipped, pinned by the digest of everything after the
    provenance line."""
    ticks = tmp_path / "ticks.csv"
    assert run_cli("simulate", "--paths", "40", "--steps", "12", "--seed", "11", "--gammas", "0.8",
                   "--batch-size", "16", "--skip-theory", "--estimators", "parkinson",
                   "--emit-ticks", str(ticks), "--out", str(tmp_path / "sim.csv")) == 0
    lines = ticks.read_text().splitlines()
    kept = [lines[0]] + [line for i, line in enumerate(lines[1:])
                         if not 20.0 < float(line.split(",")[0]) < 23.0 and i % 5 != 2]
    gaps = tmp_path / "gaps.csv"
    gaps.write_text("\n".join(kept) + "\n")
    out = tmp_path / "est.csv"
    assert run_cli("estimate", str(gaps), "--window", "0.25", "--out", str(out)) == 0
    body = out.read_bytes().split(b"\n", 1)[1]
    windows = [int(line.split(b",")[0]) for line in body.splitlines()[1:]]
    assert windows == [w for w in range(160) if not 80 <= w <= 91]
    assert hashlib.sha256(body).hexdigest() == (
        "12ca77ca9358f053cf723fb38ccf264614bc61cd3018be4b5889dc5d0f290676"
    )


# ---------------------------------------------------------------------------
# non-finite and malformed input fails loudly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("price", ["inf", "nan"])
def test_estimate_non_finite_tick_price_exit_1(tmp_path, capsys, price):
    f = tmp_path / "ticks.csv"
    f.write_text(f"timestamp,price\n0.0,1.0\n0.5,{price}\n1.0,1.1\n")
    assert run_cli("estimate", str(f), "--out", str(tmp_path / "o.csv")) == 1
    err = capsys.readouterr().err
    assert "finite" in err and "low <= 0 <= high" not in err


def test_estimate_zero_price_exit_1(tmp_path, capsys):
    # rejected anywhere in the file, even outside every kept window
    f = tmp_path / "ticks.csv"
    f.write_text("timestamp,price\n0.0,1.0\n0.5,1.2\n1.0,1.1\n5.0,0.0\n")
    assert run_cli("estimate", str(f), "--window", "1", "--out", str(tmp_path / "o.csv")) == 1
    assert "prices must be positive unless --log-prices is set" in capsys.readouterr().err
    assert run_cli("estimate", str(f), "--window", "1", "--log-prices",
                   "--out", str(tmp_path / "o.csv")) == 0


def test_estimate_window_on_one_timestamp_exit_1(tmp_path, capsys):
    f = tmp_path / "ticks.csv"
    f.write_text("timestamp,price\n0.0,1.0\n0.5,1.2\n1.0,1.1\n1.5,1.3\n1.5,1.2\n")
    out = tmp_path / "o.csv"
    assert run_cli("estimate", str(f), "--window", "0.2", "--out", str(out)) == 1
    assert "window ticks must span a positive time interval" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("window", ["inf", "nan", "0", "-1"])
def test_estimate_window_must_be_finite_and_positive(tmp_path, capsys, window):
    # --window inf used to start the first window at 0 * inf = NaN and print no rows
    f = tmp_path / "ticks.csv"
    f.write_text("timestamp,price\n0.0,1.0\n0.5,1.2\n1.0,1.1\n")
    out = tmp_path / "o.csv"
    assert run_cli("estimate", str(f), "--window", window, "--out", str(out)) == 1
    assert f"--window must be finite and positive, got {float(window)!r}" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_header_only_tick_file_exit_1(tmp_path):
    f = tmp_path / "ticks.csv"
    f.write_text("timestamp,price\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(rangevol.__file__)))
    proc = subprocess.run([sys.executable, "-m", "rangevol", "estimate", str(f)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == "rangevol: error: need at least two ticks\n"


def test_estimate_non_finite_tick_timestamp_exit_1(tmp_path, capsys):
    f = tmp_path / "ticks.csv"
    f.write_text("timestamp,price\n0.0,1.0\n0.5,1.2\ninf,1.1\n")
    assert run_cli("estimate", str(f), "--window", "1", "--out", str(tmp_path / "o.csv")) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [True, False])
def test_estimate_ohlc_non_finite_exit_1(tmp_path, capsys, raw):
    f = tmp_path / "bars.csv"
    f.write_text("window_id,open,high,low,close\nw0,100.0,inf,95.0,103.0\n")
    argv = ["estimate", str(f), "--out", str(tmp_path / "o.csv")] + (["--raw-prices"] if raw else [])
    assert run_cli(*argv) == 1
    assert "bars.csv:2: OHLC values must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("tables", "--table", "mean", "--gammas", "0,nan"),
    ("density", "range-pdf", "--gamma", "nan"),
], ids=["tables", "density"])
def test_non_finite_drift_exit_1(tmp_path, capsys, argv):
    # rejected before any image series runs (it would spin to its shell cap)
    out = tmp_path / "o.csv"
    t0 = time.perf_counter()
    assert run_cli(*argv, "--out", str(out)) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "drift must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_non_finite_cell_exit_1(tmp_path, capsys):
    # at this drift the Garman-Klass and Parkinson samples overflow
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--paths", "8", "--steps", "4", "--gammas", "1e200", "--skip-theory",
                   "--estimators", "garman-klass,parkinson", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "rangevol: error: garman-klass-hl at drift 1e+200: mean is nan, not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("gamma, message", [
    ("1e10", "parkinson at drift 10000000000.0: theory_mean is nan, not finite"),
    ("1e20", "the range law's moments at drift 1e+20: its quadrature table has mass 0.0, "
             "off 1 by more than 1e-05"),
])
def test_simulate_non_finite_theory_exit_1(tmp_path, capsys, gamma, message):
    # the theory columns read nan at 1e10, after two numpy warnings, and 0.0 at 1e20
    out = tmp_path / "sim.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("simulate", "--paths", "64", "--steps", "20", "--gammas", gamma,
                       "--estimators", "parkinson", "--out", str(out)) == 1
    assert capsys.readouterr().err == f"rangevol: error: {message}\n"
    assert not out.exists()


def test_tables_mean_at_drift_1e20_exit_1(tmp_path, capsys):
    # every mean but the bridge's read the range table, whose panels have no width
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("tables", "--table", "mean", "--gammas", "1e20", "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "rangevol: error: the range law's moments at drift 1e+20: its quadrature table has "
        "mass 0.0, off 1 by more than 1e-05\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("tables", "--table", "coverage", "--gammas", "1e200"), "parkinson at drift 1e+200"),
    (("tables", "--table", "mean", "--gammas", "1e200"), "parkinson at drift 1e+200"),
    (("tables", "--table", "relative-bias", "--gammas", "1e200"), "parkinson at drift 1e+200"),
    (("tables", "--table", "interval", "--gammas", "1e200"), "parkinson at level 1.0"),
], ids=["coverage", "mean", "relative-bias", "interval"])
def test_tables_non_finite_value_exit_1(tmp_path, capsys, argv, message):
    # at this drift the range law's statistics are NaN: one line names the row,
    # with no numpy warning, and nothing is written
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(*argv, "--estimators", "parkinson", "--out", str(out)) == 1
    assert capsys.readouterr().err == f"rangevol: error: {message}: value is nan, not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["range-pdf", "park-estimator-pdf"])
def test_density_past_the_drift_bound_exit_1(tmp_path, capsys, name):
    # the range law wrote 512.0, 512.0, 0.0 here, where its image exponents
    # have cancelled; now one line names the drift and nothing is written
    out = tmp_path / "d.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("density", name, "--gamma", "1e9", "--x-min", "999999995",
                       "--x-max", "1000000005", "--points", "3", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"rangevol: error: {name} at x 999999995.0: ")
    assert err.endswith("the range law at drift 1000000000.0 has no digits: its image exponents "
                        "cancel past drift 100000\n")
    assert not out.exists()


def test_density_non_finite_value_exit_1(tmp_path, capsys):
    # the range law at this drift is NaN from its second point on
    out = tmp_path / "d.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("density", "range-pdf", "--gamma", "1e300", "--points", "3",
                       "--out", str(out)) == 1
    assert capsys.readouterr().err == ("rangevol: error: range-pdf at x 3.005: "
                                       "density value nan is not finite\n")
    assert not out.exists()


@pytest.mark.parametrize("rows, argv, message", [
    ("timestamp,price\n0,0\n0.5,1e200\n1,-1e200\n", ("--log-prices",),
     "window 0: parkinson is inf, not finite"),
    ("window_id,open,high,low,close\nw0,-1e308,1e308,-1e308,0\n", (),
     "window w0: high is inf, not finite"),
], ids=["ticks", "ohlc"])
def test_estimate_non_finite_estimate_exit_1(tmp_path, capsys, rows, argv, message):
    # finite input whose extremes or estimates overflow
    f, out = tmp_path / "in.csv", tmp_path / "o.csv"
    f.write_text(rows)
    assert run_cli("estimate", str(f), *argv, "--out", str(out)) == 1
    assert f"rangevol: error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_estimates_fail_without_numpy_warnings(tmp_path, capsys):
    # the one-line error is all a non-finite estimate or cell prints
    f = tmp_path / "in.csv"
    f.write_text("timestamp,price\n0,0\n0.5,1e200\n1,-1e200\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("estimate", str(f), "--log-prices") == 1
        assert run_cli("simulate", "--paths", "8", "--steps", "4", "--batch-size", "4",
                       "--gammas", "1e200", "--skip-theory", "--estimators",
                       "garman-klass,parkinson", "--out", str(tmp_path / "sim.csv")) == 1
    assert capsys.readouterr().err == (
        "rangevol: error: window 0: parkinson is inf, not finite\n"
        "rangevol: error: garman-klass-hl at drift 1e+200: mean is nan, not finite\n")


def test_simulate_nan_gamma_exit_1(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--paths", "4", "--steps", "4", "--gammas", "0,nan",
                   "--skip-theory", "--out", str(out)) == 1
    assert "gamma_grid must hold finite drifts" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--sigma", "nan"), ("--sigma", "0"), ("--sigma", "-0.2"),
    ("--horizon", "0"), ("--horizon", "inf"), ("--horizon", "nan"),
])
def test_simulate_emit_ticks_rejects_bad_sigma_and_horizon(tmp_path, capsys, flag, value):
    # each used to exit 0 with NaN prices or collapsed timestamps in the tick file
    ticks, out = tmp_path / "ticks.csv", tmp_path / "sim.csv"
    assert run_cli("simulate", "--paths", "4", "--steps", "4", "--gammas", "0", "--skip-theory",
                   "--emit-ticks", str(ticks), flag, value, "--out", str(out)) == 1
    assert f"{flag} must be finite and positive, got {float(value)!r}" in capsys.readouterr().err
    assert not ticks.exists() and not out.exists()


def test_simulate_bad_thread_count_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RANGEVOL_THREADS", "abc")
    assert run_cli("simulate", "--paths", "4", "--steps", "4", "--gammas", "0",
                   "--skip-theory", "--out", str(tmp_path / "sim.csv")) == 1
    assert "RANGEVOL_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
