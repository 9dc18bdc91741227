"""Deterministic Monte Carlo comparison of the canonical estimators.

Paths come in fixed-size batches of the stream layout owned by
:mod:`rangevol.paths` (see its docstring): a batch's content is fixed by the
experiment seed and the batch index, so results are bit-identical for any
worker count and any scheduling order (workers only decide who computes a
batch, never what it contains).  Within a batch every estimator and every
drift value consume the same shock matrix (common random numbers), and the
bridge samples are bit-identical across the drift grid.

One table, ``_CELLS``, maps each label to its (kind, Garman-Klass variant):
Garman-Klass always gives both variants; a bare Garman-Klass kind reads hl.

Summaries are streamed by one accumulator, ``_Cells``, with one row per
(drift, label) cell: central moments up to order four (mean/variance plus
their standard errors), the factor-two coverage count, and a fixed-bin
histogram with underflow/overflow counters, all from a batch's sample
matrix in a few array calls.  Batches are merged in batch order with the
pairwise update rules, so the reduction is independent of completion order.

Studies of under two workers' worth of work (``_WORKER_SHOCKS`` each, with
every batch counting ``_BATCH_SHOCKS`` shocks more for its fixed cost) run
in-process.  ``RANGEVOL_THREADS`` caps the pool and affects speed only; each
worker receives one run of ``ceil(n_batches / workers)`` consecutive batches.

Running an experiment needs no scipy: the histogram fit
(``histogram_vs_pdf``, ``goodness_of_fit``) imports ``rangevol.analytics``,
whose distribution function serves all four kinds, and ``scipy.special``
when it is first called.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add

import numpy as np

from . import paths
from .estimators import LN16, EstimatorKind, GarmanKlassVariant, estimator_label, estimator_value

__all__ = [
    "ExperimentConfig",
    "CellStats",
    "ExperimentSummary",
    "estimator_label",
    "run_experiment",
    "histogram_vs_pdf",
    "goodness_of_fit",
    "sample_dump",
]

# The resource cap on n_paths * n_steps, the normal draws of one experiment.
_MAX_DRAWS = 200_000_000_000
_WORKER_SHOCKS = 1 << 19
"""Fewest shocks a study gives each pool worker, its n_paths x n_steps plus
``_BATCH_SHOCKS`` a batch; below twice as many it runs in-process.
In-process/two-worker pool in ms (2 vCPUs, medians of 11-15, three runs):
20-step rows, 30 batches (0.29 Mi shocks) 34-35/54-58, 40 batches 44-64/40-54,
50 batches 56-81/47-64; 200-step rows, 5-8 batches (0.49-0.76 Mi) within 3 ms
either way save one 46/39, 9-10 batches 45-53/39-44; 1000-step rows, 2 batches,
0.50 Mi 30/40, 0.67-0.81 Mi within 6 ms, 0.95 Mi 39-54/33-40.  So the pool
wins from 40 batches of 20 steps, 9 of 200 steps and about 1 Mi of long rows."""

_BATCH_SHOCKS = 1 << 14
"""The fixed cost of a batch (its draw call, six extreme reductions and the
cells, about 0.7 ms on 2 vCPUs) in shocks drawn in the same time."""

_CELL_STATS = ("mean", "mean_se", "variance", "variance_se", "p_delta", "p_delta_se")
"""The statistics of a cell that must be finite, in the order ``rangevol simulate`` writes them."""

# The histogram range of every cell.
_HISTOGRAM_RANGE = (0.0, 6.0)
# The smallest expected count of a pooled goodness-of-fit cell.
_MIN_EXPECTED = 5.0

# label -> (kind, Garman-Klass variant) of every cell an experiment can report
_CELLS = {
    estimator_label(kind, variant): (kind, variant)
    for kind in EstimatorKind
    for variant in (GarmanKlassVariant if kind is EstimatorKind.GARMAN_KLASS
                    else (GarmanKlassVariant.HIGH_LOW_CROSS,))
}


def _hist_edges(bins: int) -> np.ndarray:
    return np.linspace(*_HISTOGRAM_RANGE, bins + 1)


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale, drift grid and bookkeeping of one simulation experiment.

    ``batch_size`` is part of the stream layout: changing it changes which
    shocks each path receives (but never breaks determinism for a fixed
    value).  Garman-Klass reports both cross-term variants, and histograms
    span [0, 6].  ``shocks`` is a test hook: a fixed (n_paths, n_steps)
    shock matrix (any array-like) that replaces the RNG entirely.
    """

    n_steps: int = 5_000
    n_paths: int = 100_000
    gamma_grid: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0)
    seed: int = 0
    estimators: tuple[EstimatorKind, ...] = tuple(EstimatorKind)
    histogram_bins: int = 200
    batch_size: int = 512
    shocks: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.n_paths < 2:
            raise ValueError("n_paths must be >= 2")
        if self.histogram_bins < 1:
            raise ValueError("histogram_bins must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.gamma_grid:
            raise ValueError("gamma_grid must not be empty")
        if not all(math.isfinite(g) for g in self.gamma_grid):
            raise ValueError(f"gamma_grid must hold finite drifts, got {self.gamma_grid}")
        if self.n_paths * self.n_steps > _MAX_DRAWS:
            raise ValueError(
                f"resource limit exceeded: n_paths * n_steps = {self.n_paths * self.n_steps} "
                f"> {_MAX_DRAWS}, the cap"
            )
        if self.shocks is not None and np.shape(self.shocks) != (self.n_paths, self.n_steps):
            raise ValueError(f"shocks must have shape ({self.n_paths}, {self.n_steps})")

    def labels(self) -> tuple[str, ...]:
        return tuple(label for kind in self.estimators
                     for label, (k, _) in _CELLS.items() if k is kind)


@dataclass
class _Cells:
    """Streaming moments (to order 4), band count and histogram of the cells
    of a study, one row per cell; every row holds ``n`` samples.

    ``counts`` holds each row's underflow count, its histogram bins and its
    overflow count.  The empty accumulator (``n == 0``) holds no arrays.
    """

    n: int = 0
    mean: np.ndarray | None = None
    m2: np.ndarray | None = None
    m3: np.ndarray | None = None
    m4: np.ndarray | None = None
    in_band: np.ndarray | None = None
    counts: np.ndarray | None = None

    @classmethod
    def of(cls, v: np.ndarray, edges: np.ndarray) -> "_Cells":
        """The cells of ``v``, one per row of its samples (its last axis).

        A value's counter is 0 below ``edges[0]``, k + 1 for ``edges[k] <= v
        < edges[k + 1]`` (the last bin holds its right edge too, as in
        ``np.histogram``), bins + 1 above ``edges[-1]``, and bins + 2, which
        is dropped, for NaN.  The guess from the bin width is off by at most
        one near an edge; one comparison each way against the bounds of its
        counter corrects it.
        """
        v = v.reshape(-1, v.shape[-1])
        bins = len(edges) - 1
        bounds = np.concatenate(([-np.inf], edges[:-1], [np.nextafter(edges[-1], np.inf), np.nan]))
        guess = (v - edges[0]) * (bins / (edges[-1] - edges[0])) + 1.0
        slots = np.fmin(np.fmax(guess, 0.0), bins + 1.0).astype(np.intp)
        slots -= v < bounds[slots]
        slots += v >= bounds[slots + 1]
        slots[np.isnan(v)] = bins + 2
        slots += (bins + 3) * np.arange(len(v))[:, None]
        counts = np.bincount(slots.ravel(), minlength=(bins + 3) * len(v)).reshape(-1, bins + 3)
        mean = v.mean(axis=1)
        dev = v - mean[:, None]
        dev2 = dev * dev
        return cls(v.shape[1], mean, dev2.sum(axis=1), (dev2 * dev).sum(axis=1),
                   (dev2 * dev2).sum(axis=1), ((v > 0.5) & (v < 2.0)).sum(axis=1),
                   counts[:, :-1])

    def merge(self, other: "_Cells") -> None:
        if other.n == 0:
            return
        if self.n == 0:
            self.__dict__.update(other.__dict__)
            return
        n1, n2 = self.n, other.n
        n = n1 + n2
        d = other.mean - self.mean
        d2 = d * d
        self.m4 = (
            self.m4
            + other.m4
            + d2 * d2 * n1 * n2 * (n1 * n1 - n1 * n2 + n2 * n2) / n**3
            + 6.0 * d2 * (n1 * n1 * other.m2 + n2 * n2 * self.m2) / n**2
            + 4.0 * d * (n1 * other.m3 - n2 * self.m3) / n
        )
        self.m3 = (
            self.m3
            + other.m3
            + d * d2 * n1 * n2 * (n1 - n2) / n**2
            + 3.0 * d * (n1 * other.m2 - n2 * self.m2) / n
        )
        self.m2 = self.m2 + other.m2 + d2 * n1 * n2 / n
        self.mean = self.mean + d * n2 / n
        self.n = n
        self.in_band = self.in_band + other.in_band
        self.counts = self.counts + other.counts


@dataclass(frozen=True)
class CellStats:
    """Summary statistics of one (estimator, gamma) cell."""

    n: int
    mean: float
    variance: float
    mean_se: float
    variance_se: float
    p_delta: float
    p_delta_se: float
    hist: np.ndarray
    underflow: int
    overflow: int


@dataclass(frozen=True)
class ExperimentSummary:
    config: ExperimentConfig
    cells: dict

    def cell(self, label: str, gamma: float) -> CellStats:
        try:
            return self.cells[(label, gamma)]
        except KeyError:
            raise KeyError(
                f"no cell for estimator {label!r} at gamma={gamma}; "
                f"have {sorted(set(k[0] for k in self.cells))} x {sorted(set(k[1] for k in self.cells))}"
            ) from None

    @property
    def hist_edges(self) -> np.ndarray:
        return _hist_edges(self.config.histogram_bins)


def _batch_samples(cfg: ExperimentConfig, batch_index: int) -> np.ndarray:
    """Estimator samples of one batch, shape (drifts, labels, paths).

    Each label's estimator is evaluated once over the whole drift grid; the
    bridge's samples are the same at every drift.
    """
    start = batch_index * cfg.batch_size
    size = min(cfg.batch_size, cfg.n_paths - start)
    shocks = None if cfg.shocks is None else cfg.shocks[start : start + size]
    hlc, xz = paths.batch_extremes(
        cfg.seed, size, cfg.n_steps, cfg.gamma_grid, cfg.batch_size, batch_index, shocks,
        bridge=EstimatorKind.BRIDGE in cfg.estimators,
    )
    xi, zeta = (None, None) if xz is None else xz
    out = np.empty((len(cfg.gamma_grid), len(cfg.labels()), size))
    for j, label in enumerate(cfg.labels()):
        kind, variant = _CELLS[label]
        out[:, j] = estimator_value(kind, *hlc.swapaxes(0, 1), xi, zeta, variant)
    return out


def _batch_cells(cfg: ExperimentConfig, batch_index: int) -> _Cells:
    with np.errstate(over="ignore", invalid="ignore"):  # run_experiment reports non-finite cells
        return _Cells.of(_batch_samples(cfg, batch_index), _hist_edges(cfg.histogram_bins))


def _worker_count(n_tasks: int) -> int:
    env = os.environ.get("RANGEVOL_THREADS")
    if env:
        try:
            workers = max(1, int(env))
        except ValueError:
            raise ValueError(f"RANGEVOL_THREADS must be an integer, got {env!r}") from None
    else:
        workers = os.cpu_count() or 1
    return min(workers, n_tasks)


def run_experiment(cfg: ExperimentConfig) -> ExperimentSummary:
    """Run the full estimator comparison described by ``cfg``.

    Deterministic: a given (seed, batch_size, n_steps, n_paths) produces
    bit-identical summaries for any worker count.  Raises ``ValueError``
    naming the first cell and statistic of ``_CELL_STATS`` that is not
    finite (at huge drifts the samples overflow).
    """
    n_batches = (cfg.n_paths + cfg.batch_size - 1) // cfg.batch_size
    work = cfg.n_paths * cfg.n_steps + n_batches * _BATCH_SHOCKS
    workers = _worker_count(min(n_batches, work // _WORKER_SHOCKS))
    acc = _Cells()
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite cells are reported below
        if workers <= 1:
            for b in range(n_batches):
                acc.merge(_batch_cells(cfg, b))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for part in pool.map(_batch_cells, [cfg] * n_batches, range(n_batches),
                                     chunksize=-(-n_batches // workers)):
                    acc.merge(part)

    n = acc.n
    cells = {}
    keys = [(label, gamma) for gamma in cfg.gamma_grid for label in cfg.labels()]
    rows = zip(keys, acc.mean.tolist(), acc.m2.tolist(), acc.m4.tolist(), acc.in_band.tolist(),
               acc.counts)
    for key, mean, m2, m4, in_band, counts in rows:
        variance = m2 / (n - 1)
        mu2, mu4 = m2 / n, m4 / n
        var_of_var = max(mu4 - mu2 * mu2 * (n - 3) / (n - 1), 0.0) / n
        p = in_band / n
        cells[key] = CellStats(
            n=n,
            mean=mean,
            variance=variance,
            mean_se=math.sqrt(variance / n),
            variance_se=math.sqrt(var_of_var),
            p_delta=p,
            p_delta_se=math.sqrt(p * (1.0 - p) / n),
            hist=counts[1:-1],
            underflow=int(counts[0]),
            overflow=int(counts[-1]),
        )
    paths._require_finite_table(
        np.array([[getattr(cells[key], name) for key in keys] for name in _CELL_STATS]),
        _CELL_STATS, lambda i: "%s at drift %r" % keys[i])
    return ExperimentSummary(config=cfg, cells=cells)


# ---------------------------------------------------------------------------
# Histogram vs analytic density
# ---------------------------------------------------------------------------

def _analytic_bin_density(kind: EstimatorKind, gamma: float, edges: np.ndarray,
                          variant: GarmanKlassVariant):
    """Exact bin-averaged analytic estimator density.

    The estimator's mass in a bin is the difference of its distribution
    function (``analytics._estimator_cdf``) between the bin's edges: one
    evaluation per edge, shared by the two bins it bounds.  Parkinson past
    the range law's drift bound raises ``ValueError`` naming the drift, as
    its pointwise density does.
    """
    from . import analytics, densities

    if kind is EstimatorKind.PARKINSON:
        densities._require_digits("parkinson", gamma, np.sqrt(LN16 * np.maximum(edges, 0.0)))
    return np.diff(analytics._estimator_cdf(kind, gamma, edges, variant)) / np.diff(edges)


def _resolve_label(estimator):
    """(label, kind, Garman-Klass variant) of an estimator kind or label."""
    label = estimator_label(estimator) if isinstance(estimator, EstimatorKind) else estimator
    if label not in _CELLS:
        raise ValueError(f"unknown estimator {estimator!r}")
    return (label, *_CELLS[label])


def histogram_vs_pdf(summary: ExperimentSummary, estimator, gamma: float):
    """Rows of (bin_center, empirical_density, analytic_density) for any of
    the four kinds.

    The analytic column holds the exact bin-averaged estimator density.
    Garman-Klass and Rogers-Satchell integrate their (high, low, close) law
    at every edge, seconds to minutes per cell.  Raises if the requested
    cell was not simulated.
    """
    label, kind, variant = _resolve_label(estimator)
    cell = summary.cell(label, gamma)
    edges = summary.hist_edges
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    empirical = cell.hist / (cell.n * widths)
    analytic = _analytic_bin_density(kind, gamma, edges, variant)
    return list(zip(centers.tolist(), empirical.tolist(), analytic.tolist()))


def goodness_of_fit(summary: ExperimentSummary, estimator, gamma: float):
    """Chi-square test of the sampled histogram against the analytic density,
    for any of the four kinds.

    Adjacent bins are pooled until each expected count reaches 5; mass
    outside the histogram range forms one extra cell.  Returns (chi2, dof,
    p_value).
    """
    from scipy.special import chdtrc  # the survival function that chi2.sf wraps

    label, kind, variant = _resolve_label(estimator)
    cell = summary.cell(label, gamma)
    edges = summary.hist_edges
    widths = np.diff(edges)
    expected = _analytic_bin_density(kind, gamma, edges, variant) * widths * cell.n
    observed = cell.hist.astype(float)

    # pooled over Python floats: numpy scalars cost several times more an addition
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed.tolist(), expected.tolist()):
        acc_o += o
        acc_e += e
        if acc_e >= _MIN_EXPECTED:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if pooled_obs and acc_e > 0.0:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    # the counts are whole numbers, so only the expected total needs a fixed
    # order: left to right, which ``sum`` of floats leaves from Python 3.12 on
    out_obs = cell.n - sum(pooled_obs)
    out_exp = cell.n - reduce(add, pooled_exp, 0.0)
    if out_exp >= _MIN_EXPECTED:
        pooled_obs.append(out_obs)
        pooled_exp.append(out_exp)
    obs = np.asarray(pooled_obs)
    exp = np.asarray(pooled_exp)
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(obs) - 1
    return chi2, dof, float(chdtrc(dof, chi2))


def sample_dump(cfg: ExperimentConfig, count: int):
    """First ``count`` per-path samples of each estimator (shared paths).

    Drift-dependent estimators are evaluated at the first grid drift;
    Garman-Klass gives its high-low variant.  Returns (labels, array of
    shape (count, len(labels))).  Deterministic for a fixed seed.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if count > cfg.n_paths:
        raise ValueError(f"count={count} exceeds n_paths={cfg.n_paths}")
    gamma = cfg.gamma_grid[0]
    labels = [_resolve_label(kind)[0] for kind in cfg.estimators]
    out = np.empty((count, len(labels)))
    first = replace(cfg, gamma_grid=(gamma,))
    rows = [first.labels().index(label) for label in labels]
    for batch in range(-(-count // cfg.batch_size)):
        samples = _batch_samples(first, batch)
        start = batch * cfg.batch_size
        take = min(count - start, cfg.batch_size)
        out[start : start + take] = samples[0, rows, :take].T
    return labels, out
