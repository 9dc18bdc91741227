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

Summaries are streamed: central moments up to order four per cell
(mean/variance plus their standard errors), the factor-two coverage count,
and a fixed-bin histogram with explicit underflow/overflow counters.
Batch partials are merged in batch order with the pairwise update rules,
so the reduction is independent of completion order.

``RANGEVOL_THREADS`` caps the process pool; it affects speed only.  The
batches are split evenly: each worker receives one run of consecutive
batches, ``ceil(n_batches / workers)`` long, so that no worker is left with
a short share while another still has a whole chunk to do.

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

import numpy as np

from . import paths
from .estimators import EstimatorKind, GarmanKlassVariant, estimator_label, estimator_value

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
    shock matrix that replaces the RNG entirely.
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
        if self.shocks is not None and self.shocks.shape != (self.n_paths, self.n_steps):
            raise ValueError("shocks must have shape (n_paths, n_steps)")

    def labels(self) -> tuple[str, ...]:
        return tuple(label for kind in self.estimators
                     for label, (k, _) in _CELLS.items() if k is kind)


@dataclass
class _CellAccumulator:
    """Streaming moments (to order 4), band count and histogram of one cell."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    m4: float = 0.0
    in_band: int = 0
    hist: np.ndarray | None = None
    underflow: int = 0
    overflow: int = 0

    def merge(self, other: "_CellAccumulator") -> None:
        if other.n == 0:
            return
        if self.n == 0:
            self.__dict__.update(other.__dict__)
            self.hist = other.hist.copy()
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
        self.in_band += other.in_band
        self.hist += other.hist
        self.underflow += other.underflow
        self.overflow += other.overflow

    def add_samples(self, v: np.ndarray, edges: np.ndarray) -> None:
        n = v.size
        mean = float(v.mean())
        dev = v - mean
        dev2 = dev * dev
        acc = _CellAccumulator(
            n=n,
            mean=mean,
            m2=float(dev2.sum()),
            m3=float((dev2 * dev).sum()),
            m4=float((dev2 * dev2).sum()),
            in_band=int(((v > 0.5) & (v < 2.0)).sum()),
            hist=np.histogram(v, bins=edges)[0].astype(np.int64),
            underflow=int((v < edges[0]).sum()),
            overflow=int((v > edges[-1]).sum()),
        )
        self.merge(acc)


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


def _batch_samples(cfg: ExperimentConfig, batch_index: int):
    """Estimator samples of one batch: {(label, gamma): values}."""
    start = batch_index * cfg.batch_size
    size = min(cfg.batch_size, cfg.n_paths - start)
    shocks = None if cfg.shocks is None else cfg.shocks[start : start + size]
    hlc, xz = paths.batch_extremes(
        cfg.seed, size, cfg.n_steps, cfg.gamma_grid, cfg.batch_size, batch_index, shocks,
        bridge=EstimatorKind.BRIDGE in cfg.estimators,
    )
    xi, zeta = (None, None) if xz is None else xz
    out = {}
    for gamma, (h, l, c) in zip(cfg.gamma_grid, hlc):
        for label in cfg.labels():
            kind, variant = _CELLS[label]
            out[(label, gamma)] = estimator_value(kind, h, l, c, xi, zeta, variant)
    return out


def _batch_partials(args):
    cfg, batch_index, edges = args
    samples = _batch_samples(cfg, batch_index)
    partials = {}
    for key, v in samples.items():
        acc = _CellAccumulator()
        acc.add_samples(v, edges)
        partials[key] = acc
    return batch_index, partials


def _worker_count(n_batches: int) -> int:
    env = os.environ.get("RANGEVOL_THREADS")
    if env:
        try:
            workers = max(1, int(env))
        except ValueError:
            raise ValueError(f"RANGEVOL_THREADS must be an integer, got {env!r}") from None
    else:
        workers = os.cpu_count() or 1
    return min(workers, n_batches)


def run_experiment(cfg: ExperimentConfig) -> ExperimentSummary:
    """Run the full estimator comparison described by ``cfg``.

    Deterministic: a given (seed, batch_size, n_steps, n_paths) produces
    bit-identical summaries for any worker count.
    """
    n_batches = (cfg.n_paths + cfg.batch_size - 1) // cfg.batch_size
    edges = _hist_edges(cfg.histogram_bins)
    tasks = [(cfg, b, edges) for b in range(n_batches)]
    workers = _worker_count(n_batches)
    results = []
    if workers <= 1:
        for task in tasks:
            results.append(_batch_partials(task))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_partials, tasks, chunksize=-(-n_batches // workers)))
    results.sort(key=lambda item: item[0])

    merged: dict[tuple, _CellAccumulator] = {}
    for _, partials in results:
        for key, acc in partials.items():
            if key in merged:
                merged[key].merge(acc)
            else:
                merged[key] = acc

    cells = {}
    for gamma in cfg.gamma_grid:
        for label in cfg.labels():
            acc = merged[(label, gamma)]
            n = acc.n
            variance = acc.m2 / (n - 1)
            mu2 = acc.m2 / n
            mu4 = acc.m4 / n
            var_of_var = max(mu4 - mu2 * mu2 * (n - 3) / (n - 1), 0.0) / n
            p = acc.in_band / n
            cells[(label, gamma)] = CellStats(
                n=n,
                mean=acc.mean,
                variance=variance,
                mean_se=math.sqrt(variance / n),
                variance_se=math.sqrt(var_of_var),
                p_delta=p,
                p_delta_se=math.sqrt(p * (1.0 - p) / n),
                hist=acc.hist,
                underflow=acc.underflow,
                overflow=acc.overflow,
            )
    return ExperimentSummary(config=cfg, cells=cells)


# ---------------------------------------------------------------------------
# Histogram vs analytic density
# ---------------------------------------------------------------------------

def _analytic_bin_density(kind: EstimatorKind, gamma: float, edges: np.ndarray,
                          variant: GarmanKlassVariant):
    """Exact bin-averaged analytic estimator density.

    The estimator's mass in a bin is the difference of its distribution
    function (``analytics._estimator_cdf``) between the bin's edges: one
    evaluation per edge, shared by the two bins it bounds.
    """
    from . import analytics

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
    return [(float(c), float(e), float(a)) for c, e, a in zip(centers, empirical, analytic)]


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

    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= _MIN_EXPECTED:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if pooled_obs and acc_e > 0.0:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    out_obs = cell.n - sum(pooled_obs)
    out_exp = cell.n - sum(pooled_exp)
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
    for batch in range(-(-count // cfg.batch_size)):
        samples = _batch_samples(first, batch)
        start = batch * cfg.batch_size
        take = min(count - start, cfg.batch_size)
        for j, label in enumerate(labels):
            out[start : start + take, j] = samples[(label, gamma)][:take]
    return labels, out
