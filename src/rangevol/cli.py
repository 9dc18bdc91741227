"""Command line interface: estimate, simulate, density, tables.

Every command writes plot-ready CSV (or JSON) with a provenance comment
line; fixed seeds and flags give byte-identical output regardless of the
``RANGEVOL_THREADS`` worker cap.  Exit codes: 0 success, 1 runtime
failure, 2 usage error.  A ``simulate`` cell or an ``estimate`` window
whose statistic is ``inf`` or ``nan`` is a runtime failure that names it;
no such value is written.

Each command hands :func:`_write_output` its table as columns.  A CSV
table is formatted by one ``%`` over all its values (:func:`_csv_rows`),
as the emitted ticks are (:func:`_tick_lines`), in place of one Python
call per value; ``%s`` of a float is its ``repr``, so the bytes are those
of formatting each value on its own.

``simulate --emit-ticks`` formats its tick rows in a process pool that
``RANGEVOL_THREADS`` caps as it caps the study; the main process computes
every number and writes the formatted tasks in order, so the cap never
changes the bytes (see :func:`_emit_ticks`).

The analytic layers (and with them scipy) are imported only by the
commands that compute with them, so ``estimate`` and
``simulate --skip-theory`` start without loading scipy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .estimators import EstimatorKind, GarmanKlassVariant, estimator_label, estimator_value
from .paths import _require_finite_table, _sum_chunks, window_extremes

if TYPE_CHECKING:
    from .montecarlo import ExperimentConfig

_KIND_NAMES = {kind.value: kind for kind in EstimatorKind}

_DENSITY_NAMES = {  # command name: (function of rangevol.densities, whether it takes the drift)
    "close-pdf": ("close_pdf", True),
    "high-pdf": ("high_pdf", True),
    "range-pdf": ("range_pdf", True),
    "bridge-range-pdf": ("bridge_range_pdf", False),
    "park-estimator-pdf": ("parkinson_estimator_pdf", True),
    "bridge-estimator-pdf": ("bridge_estimator_pdf", False),
}


class _CliError(RuntimeError):
    """Runtime failure mapped to exit code 1."""


def _provenance(argv) -> str:
    return f"# rangevol {__version__} " + " ".join(argv)


def _rows(spec: str, values, n: int) -> str:
    """``n`` rows of the row format ``spec``, filled from the flat ``values``
    by one ``%``."""
    return (spec * n) % tuple(values)


def _csv_rows(columns) -> str:
    """The CSV rows of equal-length ``columns`` (arrays or sequences), with
    ``None`` left blank.

    Every value goes through ``%s``; ``str`` of a float is its ``repr``, the
    shortest text that reads back to the same double.  Only the sequences
    are scanned for ``None``, so the numeric arrays of a long ``estimate``
    table cost no Python step per value.
    """
    cells = [c.tolist() if isinstance(c, np.ndarray) else ["" if v is None else v for v in c]
             for c in columns]
    spec = "%s," * (len(cells) - 1) + "%s\n"
    return _rows(spec, chain.from_iterable(zip(*cells)), len(cells[0]))


def _write_output(args, header, columns, argv):
    """Write the table given by its ``columns`` as CSV or JSON."""
    if args.format == "csv":
        body = f"{_provenance(argv)}\n{','.join(header)}\n" + _csv_rows(columns)
    else:
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
        payload = {
            "provenance": _provenance(argv)[2:],
            "rows": [dict(zip(header, row)) for row in rows],
        }
        body = json.dumps(payload, indent=1, default=float) + "\n"
    if args.out == "-":
        sys.stdout.write(body)
    else:
        with open(args.out, "w") as fh:
            fh.write(body)


def _finite_gammas(gammas: tuple[float, ...]) -> tuple[float, ...]:
    for gamma in gammas:
        if not math.isfinite(gamma):
            raise _CliError(f"drift must be finite, got {gamma!r}")
    return gammas


def _finite(flag: str, value: float) -> float:
    if not math.isfinite(value):
        raise _CliError(f"{flag} must be finite, got {value!r}")
    return value


def _finite_positive(flag: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise _CliError(f"{flag} must be finite and positive, got {value!r}")
    return value


def _parse_gammas(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _parse_estimators(text, parser, default) -> tuple[EstimatorKind, ...]:
    """The kinds a comma list names, or ``default`` when ``--estimators`` is not given."""
    if text is None:
        return default
    kinds = []
    for part in text.split(","):
        name = part.strip().lower()
        if name not in _KIND_NAMES:
            parser.error(f"unknown estimator {part!r}; choose from {', '.join(_KIND_NAMES)}")
        kinds.append(_KIND_NAMES[name])
    return tuple(kinds)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def _read_csv_header(path):
    with open(path) as fh:
        header = fh.readline().strip()
    return [col.strip().lower() for col in header.split(",")]


def _parse_timestamps(raw, path):
    try:
        return np.asarray([float(v) for v in raw], dtype=float)
    except ValueError:
        pass
    try:
        stamps = np.array(raw, dtype="datetime64[ns]")
    except ValueError as exc:
        raise _CliError(f"{path}: cannot parse timestamps: {exc}") from None
    return stamps.astype("int64") / 1e9


def _load_ticks(path):
    # fast path: fully numeric CSV
    try:
        with warnings.catch_warnings():  # a header-only file is zero ticks, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.size == 0:
            return np.empty(0), np.empty(0)
        if data.shape[1] != 2:
            raise _CliError(f"{path}: tick rows must have exactly two columns")
        return data[:, 0], data[:, 1]
    except ValueError:
        pass  # ISO timestamps or a malformed row; re-read line by line
    raw_t, raw_p = [], []
    with open(path) as fh:
        next(fh)
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise _CliError(f"{path}:{lineno}: malformed tick row: {line!r}")
            raw_t.append(parts[0])
            try:
                raw_p.append(float(parts[1]))
            except ValueError:
                raise _CliError(f"{path}:{lineno}: malformed price: {parts[1]!r}") from None
    t = _parse_timestamps(raw_t, path)
    return t, np.asarray(raw_p, dtype=float)


def _estimate_ticks(args, kinds):
    if args.window is not None:
        _finite_positive("--window", args.window)
    t, p = _load_ticks(args.input)
    if t.size < 2:
        raise _CliError("need at least two ticks")
    if not (np.isfinite(t).all() and np.isfinite(p).all()):
        raise _CliError(f"{args.input}: tick timestamps and prices must be finite")
    if np.any(np.diff(t) < 0):
        raise _CliError("tick timestamps must be non-decreasing")
    if not args.log_prices:
        if np.any(p <= 0.0):
            raise _CliError(f"{args.input}: prices must be positive unless --log-prices is set")
        np.log(p, out=p)
    window = args.window if args.window is not None else float(t[-1] - t[0])
    if not window > 0:
        raise _CliError("window length must be positive")
    t0 = float(t[0])
    w = np.arange(max(int(math.ceil((float(t[-1]) - t0) / window - 1e-12)), 1))
    starts = np.searchsorted(t, t0 + w * window, side="left")
    stops = np.searchsorted(t, t0 + (w + 1) * window, side="right")
    keep = stops - starts >= 2
    return _estimate_table(args, kinds, w[keep], *window_extremes(t, p, starts[keep], stops[keep]))


def _estimate_table(args, kinds, windows, high, low, close, xi=None, zeta=None):
    """Header and columns: each window, its (high, low, close), estimates and warnings."""
    variant = GarmanKlassVariant(args.gk_variant)
    labels = [estimator_label(kind, variant) for kind in kinds]
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check below reports them
        values = np.array([estimator_value(kind, high, low, close, xi, zeta, variant)
                           for kind in kinds])
    header = ["window", "high", "low", "close"] + labels + ["warnings"]
    _require_finite_table(np.vstack((high, low, close, values)), header[1:-1],
                          lambda i: f"window {windows[i]}")
    negative = values < 0.0
    flags = np.full(len(high), "", dtype=object)
    for i in np.flatnonzero(np.logical_or.reduce(negative)):
        flags[i] = "|".join(label + "<0" for label, neg in zip(labels, negative[:, i]) if neg)
    return header, [windows, high, low, close, *values, flags]


def _estimate_ohlc(args, kinds, parser):
    if EstimatorKind.BRIDGE in kinds:
        parser.error("bridge estimator requires tick input (intra-window path data)")
    windows, bars = [], []
    with open(args.input) as fh:
        next(fh)
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise _CliError(f"{args.input}:{lineno}: malformed OHLC row: {line!r}")
            try:
                o, h, l, c = (float(v) for v in parts[1:])
            except ValueError:
                raise _CliError(f"{args.input}:{lineno}: malformed OHLC numbers") from None
            if not all(map(math.isfinite, (o, h, l, c))):
                raise _CliError(f"{args.input}:{lineno}: OHLC values must be finite")
            if args.raw_prices:
                if min(o, h, l, c) <= 0.0:
                    raise _CliError(f"{args.input}:{lineno}: prices must be positive")
                o, h, l, c = math.log(o), math.log(h), math.log(l), math.log(c)
            high, low, close = h - o, l - o, c - o
            if not (low <= 0.0 <= high and low <= close <= high):
                raise _CliError(
                    f"{args.input}:{lineno}: inconsistent OHLC (need low <= open,close <= high)"
                )
            windows.append(parts[0])
            bars.append((high, low, close))
    return _estimate_table(args, kinds, windows, *np.array(bars, dtype=float).reshape(-1, 3).T)


def cmd_estimate(args, parser, argv) -> int:
    header_cols = _read_csv_header(args.input)
    if header_cols == ["timestamp", "price"]:
        kinds = _parse_estimators(args.estimators, parser, tuple(EstimatorKind))
        header, columns = _estimate_ticks(args, kinds)
    elif header_cols == ["window_id", "open", "high", "low", "close"]:
        default = tuple(k for k in EstimatorKind if k is not EstimatorKind.BRIDGE)
        kinds = _parse_estimators(args.estimators, parser, default)
        header, columns = _estimate_ohlc(args, kinds, parser)
    else:
        raise _CliError(
            f"{args.input}: unrecognized header {','.join(header_cols)!r}; expected "
            "'timestamp,price' or 'window_id,open,high,low,close'"
        )
    _write_output(args, header, columns, argv)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_TASK_TICKS = 1 << 16
"""Most ticks in one formatting task of ``--emit-ticks``."""


def _tick_lines(times, prices) -> str:
    """The ``timestamp,price`` rows of flat ``times`` and ``prices``, from one
    ``%`` over the interleaved values."""
    values = np.stack((times, prices), axis=-1).ravel().tolist()
    return _rows("%.12g,%.17g\n", values, len(times))


def _tick_tasks(cfg: ExperimentConfig, sigma: float, horizon: float):
    """Flat (times, prices) of the emitted ticks in file order, in tasks that
    each hold rows of one batch: at most ``_TASK_TICKS`` ticks, or one row.

    Each task's rows are one chunk of driftless sums from
    ``paths._sum_chunks``, with the running log-price carried from chunk to
    chunk, so the working set is one task whatever the batch size.  The
    chunk lives in a reused buffer, so every task is computed in fresh
    arrays: a pool pickles a submitted task only later.
    """
    scale = sigma * math.sqrt(horizon)
    gamma = cfg.gamma_grid[0]
    tau = np.arange(cfg.n_steps + 1) / cfg.n_steps
    log_price = 0.0
    for start, s in _sum_chunks(cfg.seed, cfg.n_paths, cfg.n_steps, cfg.batch_size,
                                max(1, _TASK_TICKS // cfg.n_steps)):
        x = s + gamma * tau if gamma != 0.0 else s.copy()
        x *= scale  # the log-price moves; each path then adds its window's open
        opens = np.cumsum(np.concatenate(([log_price], x[:, -1])))
        log_price = opens[-1]
        x += opens[:-1, None]
        prices = np.exp(x, out=x)
        times = (np.arange(start, start + len(x))[:, None] + tau) * horizon
        if start == 0:  # every later window opens at the previous window's close
            yield times[0, :1], prices[0, :1]
        yield times[:, 1:].ravel(), prices[:, 1:].ravel()


def _emit_ticks(cfg: ExperimentConfig, path: str, sigma: float, horizon: float):
    """Write chained GBM ticks, one window per path, at the first grid drift.

    The parent process draws the paths and computes every price and
    timestamp; the text of the rows is formatted by :func:`_tick_lines` in a
    process pool, one task per slice of at most ``_TASK_TICKS`` ticks, and
    written strictly in task order with at most two tasks per worker in
    flight.  ``RANGEVOL_THREADS`` caps the pool as it caps the study; with
    one worker, or under ``_TASK_TICKS`` ticks in all, the rows are
    formatted inline.  The bytes are the same for any worker count.
    """
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor

    from .montecarlo import _worker_count

    tasks = _tick_tasks(cfg, sigma, horizon)
    workers = _worker_count(-(-cfg.n_paths * cfg.n_steps // _TASK_TICKS))
    with open(path, "w") as fh:
        fh.write("timestamp,price\n")
        if workers <= 1:
            for task in tasks:
                fh.write(_tick_lines(*task))
            return
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = deque()
            for task in tasks:
                if len(pending) == 2 * workers:
                    fh.write(pending.popleft().result())
                pending.append(pool.submit(_tick_lines, *task))
            for future in pending:
                fh.write(future.result())


def _theory_columns(label: str, gamma: float):
    if label not in ("parkinson", "bridge"):
        return None, None, None
    from . import analytics

    kind = EstimatorKind(label)
    report = analytics.theoretical_moments(kind, gamma)
    return report.mean, report.variance, analytics.coverage_probability(kind, gamma)


def cmd_simulate(args, parser, argv) -> int:
    from . import montecarlo

    kinds = _parse_estimators(args.estimators, parser, tuple(EstimatorKind))
    cfg = montecarlo.ExperimentConfig(
        n_steps=args.steps,
        n_paths=args.paths,
        gamma_grid=_parse_gammas(args.gammas),
        seed=args.seed,
        estimators=kinds,
        histogram_bins=args.bins,
        batch_size=args.batch_size,
    )
    if args.emit_ticks:
        _emit_ticks(cfg, args.emit_ticks, _finite_positive("--sigma", args.sigma),
                    _finite_positive("--horizon", args.horizon))
    summary = montecarlo.run_experiment(cfg)
    stats = montecarlo._CELL_STATS
    cells = [(label, gamma) for gamma in cfg.gamma_grid for label in cfg.labels()]
    values = np.array([[getattr(summary.cell(*cell), name) for name in stats] for cell in cells])
    theory_cache = {}
    rows = []
    for (label, gamma), cell_values in zip(cells, values.tolist()):
        key = (label, 0.0 if label == "bridge" else gamma)
        if not args.skip_theory and key not in theory_cache:
            theory_cache[key] = _theory_columns(label, gamma)
        rows.append([label, gamma, *cell_values, *theory_cache.get(key, (None, None, None))])
    header = ["estimator", "gamma", *stats, "theory_mean", "theory_variance", "theory_p_delta"]
    _write_output(args, header, list(zip(*rows)), argv)
    return 0


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def cmd_density(args, parser, argv) -> int:
    from . import densities

    if args.points < 0:
        parser.error(f"--points must be >= 0, got {args.points}")
    (gamma,) = _finite_gammas((args.gamma,))
    x_min, x_max = _finite("--x-min", args.x_min), _finite("--x-max", args.x_max)
    _finite("--x-max - --x-min", x_max - x_min)  # else the grid's step overflows

    name, drifted = _DENSITY_NAMES[args.name]
    density, drift = getattr(densities, name), (gamma,) * drifted
    xs = np.linspace(x_min, x_max, args.points)
    # a density rejects a value that is not finite; the failure names its point
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            got = density(xs, *drift)
        except ValueError:
            for x in xs.tolist():
                try:
                    density(x, *drift)
                except ValueError as exc:
                    raise _CliError(f"{args.name} at x {x!r}: {exc}") from None
            raise
    # close_pdf returns its values alone, from no terms
    terms = np.zeros(xs.shape, dtype=int) if name == "close_pdf" else got.terms_used
    _write_output(args, ["x", "value", "terms_used"], [xs, getattr(got, "value", got), terms], argv)
    return 0


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def cmd_tables(args, parser, argv) -> int:
    gammas = _finite_gammas(_parse_gammas(args.gammas))
    kinds = _parse_estimators(args.estimators, parser, tuple(EstimatorKind))
    variant = GarmanKlassVariant(args.gk_variant)
    header = ["estimator", "x", "value", "method"]
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check below reports them
        rows = _table_rows(args.table, args.levels, gammas, kinds, variant)
    x = "level" if args.table == "interval" else "drift"
    _require_finite_table(np.array([[row[2] for row in rows]], dtype=float), ["value"],
                          lambda i: f"{rows[i][0]} at {x} {rows[i][1]!r}")
    _write_output(args, header, list(zip(*rows)), argv)
    return 0


def _table_rows(table, levels, gammas, kinds, variant) -> list:
    """The rows (estimator, x, value, method) of a theory table."""
    from . import analytics

    rows = []
    if table == "interval":
        levels = tuple(float(v) for v in levels.split(","))
        for kind in kinds:
            gamma = 0.0 if kind is EstimatorKind.BRIDGE else gammas[0]
            values = analytics._interval_probabilities(kind, gamma, levels, variant)
            method = analytics._cdf_method(kind)
            for level, value in zip(levels, values):
                rows.append([estimator_label(kind, variant), level, value, method])
    else:
        for gamma in gammas:
            for kind in kinds:
                method = "quadrature"
                if table == "coverage":
                    value = analytics.coverage_probability(kind, gamma, variant)
                    method = analytics._cdf_method(kind)
                elif table == "mean" and kind is EstimatorKind.GARMAN_KLASS:
                    for each in GarmanKlassVariant:
                        value = analytics.garman_klass_mean(gamma, variant=each)
                        rows.append([estimator_label(kind, each), gamma, value, method])
                    continue
                elif table == "mean" and kind is EstimatorKind.ROGERS_SATCHELL:
                    value = analytics.rogers_satchell_mean(gamma)
                else:
                    report = analytics.theoretical_moments(kind, gamma, variant)
                    value = {
                        "mean": report.mean,
                        "variance": report.variance,
                        "relative-bias": report.relative_bias,
                    }[table]
                    method = report.method
                rows.append([estimator_label(kind, variant), gamma, value, method])
    return rows


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_output(sub):
    sub.add_argument("--out", default="-", help="output file (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_gk_variant(sub):
    sub.add_argument("--gk-variant", choices=("hl", "hc"), default="hl",
                     help="Garman-Klass cross term: c*d-2*h*l or c*d-2*h*c")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangevol",
        description="Range-based volatility estimators: estimation, simulation and theory tables.",
    )
    parser.add_argument("--version", action="version", version=f"rangevol {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_est = subs.add_parser("estimate", help="estimate volatility from tick or OHLC CSV")
    p_est.add_argument("input", help="CSV file: 'timestamp,price' ticks or 'window_id,open,high,low,close'")
    p_est.add_argument("--window", type=float, default=None,
                       help="window length in timestamp units (tick input; default: whole file)")
    p_est.add_argument("--estimators", default=None,
                       help="comma list: parkinson,garman-klass,rogers-satchell,bridge")
    p_est.add_argument("--log-prices", action="store_true",
                       help="tick price column already holds log-prices")
    p_est.add_argument("--raw-prices", action="store_true",
                       help="OHLC columns hold raw prices; take logs first")
    _add_output(p_est)
    _add_gk_variant(p_est)

    p_sim = subs.add_parser("simulate", help="Monte Carlo estimator comparison")
    p_sim.add_argument("--paths", type=int, default=100_000)
    p_sim.add_argument("--steps", type=int, default=5_000)
    p_sim.add_argument("--gammas", default="0,0.5,1,1.5,2")
    p_sim.add_argument("--estimators", default=None)
    p_sim.add_argument("--bins", type=int, default=200)
    p_sim.add_argument("--batch-size", type=int, default=512)
    p_sim.add_argument("--skip-theory", action="store_true",
                       help="leave the theory overlay columns empty")
    p_sim.add_argument("--emit-ticks", default=None, metavar="PATH",
                       help="also write a synthetic tick CSV, one window per path")
    p_sim.add_argument("--sigma", type=float, default=0.2,
                       help="price volatility used with --emit-ticks")
    p_sim.add_argument("--horizon", type=float, default=1.0,
                       help="window length in time units used with --emit-ticks")
    p_sim.add_argument("--seed", type=int, default=0)
    _add_output(p_sim)

    p_den = subs.add_parser("density", help="tabulate an analytic density")
    p_den.add_argument("name", choices=tuple(_DENSITY_NAMES))
    p_den.add_argument("--gamma", type=float, default=0.0)
    p_den.add_argument("--x-min", type=float, default=0.01)
    p_den.add_argument("--x-max", type=float, default=6.0)
    p_den.add_argument("--points", type=int, default=600)
    _add_output(p_den)

    p_tab = subs.add_parser("tables", help="theory tables (mean, variance, bias, intervals)")
    p_tab.add_argument("--table", required=True,
                       choices=("mean", "variance", "relative-bias", "interval", "coverage"))
    p_tab.add_argument("--gammas", default="0,0.25,0.5,0.75,1,1.25,1.5,1.75,2",
                       help="comma list of drifts; the interval table reads only the first, "
                            "and the bridge rows are drift-free")
    p_tab.add_argument("--levels", default="1,1.5,2,3,5,10",
                       help="levels N for the interval table")
    p_tab.add_argument("--estimators", default=None)
    for add in (_add_output, _add_gk_variant):
        add(p_tab)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "estimate": cmd_estimate,
        "simulate": cmd_simulate,
        "density": cmd_density,
        "tables": cmd_tables,
    }
    try:
        return handlers[args.command](args, parser, argv)
    except (_CliError, OSError, ValueError, ArithmeticError) as exc:
        print(f"rangevol: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
