"""Deterministic Monte Carlo comparison of the canonical estimators.

Paths come in fixed-size batches of the stream layout owned by
:mod:`rangevol.paths` (see its docstring): a batch's content is fixed by the
experiment seed and the batch index, so results are bit-identical for any
worker count and any scheduling order (workers only decide who computes a
batch, never what it contains).  Within a batch every estimator and every
drift value consume the same shock matrix (common random numbers), and the
bridge samples are bit-identical across the drift grid.

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
(``histogram_vs_pdf``, ``goodness_of_fit``) imports the density layer and
``scipy.special`` when it is first called.
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

_ALL_KINDS = (
    EstimatorKind.PARKINSON,
    EstimatorKind.GARMAN_KLASS,
    EstimatorKind.ROGERS_SATCHELL,
    EstimatorKind.BRIDGE,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale, drift grid and bookkeeping of one simulation experiment.

    ``batch_size`` is part of the stream layout: changing it changes which
    shocks each path receives (but never breaks determinism for a fixed
    value).  ``gk_both_variants`` reports the two Garman-Klass cross-term
    variants side by side whenever Garman-Klass is requested.  ``shocks``
    is a test hook: a fixed (n_paths, n_steps) shock matrix that replaces
    the RNG entirely.
    """

    n_steps: int = 5_000
    n_paths: int = 100_000
    gamma_grid: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0)
    seed: int = 0
    estimators: tuple[EstimatorKind, ...] = _ALL_KINDS
    gk_variant: GarmanKlassVariant = GarmanKlassVariant.HIGH_LOW_CROSS
    gk_both_variants: bool = True
    histogram_bins: int = 200
    histogram_range: tuple[float, float] = (0.0, 6.0)
    batch_size: int = 512
    max_draws: int = 200_000_000_000
    shocks: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.n_paths < 2:
            raise ValueError("n_paths must be >= 2")
        if self.histogram_bins < 1:
            raise ValueError("histogram_bins must be >= 1")
        if not self.histogram_range[1] > self.histogram_range[0]:
            raise ValueError("histogram_range must be increasing")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.gamma_grid:
            raise ValueError("gamma_grid must not be empty")
        if not all(math.isfinite(g) for g in self.gamma_grid):
            raise ValueError(f"gamma_grid must hold finite drifts, got {self.gamma_grid}")
        if self.n_paths * self.n_steps > self.max_draws:
            raise ValueError(
                f"resource limit exceeded: n_paths * n_steps = {self.n_paths * self.n_steps} "
                f"> max_draws = {self.max_draws}"
            )
        if self.shocks is not None and self.shocks.shape != (self.n_paths, self.n_steps):
            raise ValueError("shocks must have shape (n_paths, n_steps)")

    def labels(self) -> tuple[str, ...]:
        out = []
        for kind in self.estimators:
            if kind is EstimatorKind.GARMAN_KLASS and self.gk_both_variants:
                out.append(estimator_label(kind, GarmanKlassVariant.HIGH_LOW_CROSS))
                out.append(estimator_label(kind, GarmanKlassVariant.HIGH_CLOSE_CROSS))
            else:
                out.append(estimator_label(kind, self.gk_variant))
        return tuple(out)


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
        lo, hi = self.config.histogram_range
        return np.linspace(lo, hi, self.config.histogram_bins + 1)


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
        for kind in cfg.estimators:
            gk_both = kind is EstimatorKind.GARMAN_KLASS and cfg.gk_both_variants
            for var in tuple(GarmanKlassVariant) if gk_both else (cfg.gk_variant,):
                out[(estimator_label(kind, var), gamma)] = estimator_value(
                    kind, h, l, c, xi, zeta, var
                )
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
    lo, hi = cfg.histogram_range
    edges = np.linspace(lo, hi, cfg.histogram_bins + 1)
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

def _analytic_bin_density(kind: EstimatorKind, gamma: float, edges: np.ndarray):
    """Exact bin-averaged analytic estimator density; None for the kinds
    without one.

    The estimator is d^2 / alpha, so its mass in a bin is the difference of
    the range CDF at sqrt(alpha x) between the bin's edges: one evaluation
    per edge, shared by the two bins it bounds.
    """
    if kind not in (EstimatorKind.PARKINSON, EstimatorKind.BRIDGE):
        return None
    from . import densities

    law, alpha = densities._range_law(kind, gamma)
    cdf, _ = law(np.sqrt(alpha * np.maximum(edges, 0.0)))
    return np.diff(cdf) / np.diff(edges)


def _resolve_label(summary: ExperimentSummary, estimator) -> tuple[str, EstimatorKind]:
    if isinstance(estimator, EstimatorKind):
        return estimator_label(estimator, summary.config.gk_variant), estimator
    for kind in _ALL_KINDS:
        if estimator == kind.value or estimator.startswith(kind.value):
            return estimator, kind
    raise ValueError(f"unknown estimator {estimator!r}")


def histogram_vs_pdf(summary: ExperimentSummary, estimator, gamma: float):
    """Rows of (bin_center, empirical_density, analytic_density).

    The analytic column holds the exact bin-averaged estimator density
    for Parkinson and bridge and None for the others.  Raises if
    the requested cell was not simulated.
    """
    label, kind = _resolve_label(summary, estimator)
    cell = summary.cell(label, gamma)
    edges = summary.hist_edges
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    empirical = cell.hist / (cell.n * widths)
    analytic = _analytic_bin_density(kind, gamma, edges)
    rows = []
    for i, center in enumerate(centers):
        rows.append(
            (float(center), float(empirical[i]), None if analytic is None else float(analytic[i]))
        )
    return rows


def goodness_of_fit(summary: ExperimentSummary, estimator, gamma: float,
                    min_expected: float = 5.0):
    """Chi-square test of the sampled histogram against the analytic density.

    Adjacent bins are pooled until each expected count reaches
    ``min_expected``; mass outside the histogram range forms one extra
    cell.  Returns (chi2, dof, p_value).
    """
    from scipy.special import chdtrc  # the survival function that chi2.sf wraps

    label, kind = _resolve_label(summary, estimator)
    if kind not in (EstimatorKind.PARKINSON, EstimatorKind.BRIDGE):
        raise ValueError(f"no analytic density to test against for {label!r}")
    cell = summary.cell(label, gamma)
    edges = summary.hist_edges
    widths = np.diff(edges)
    expected = _analytic_bin_density(kind, gamma, edges) * widths * cell.n
    observed = cell.hist.astype(float)

    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if pooled_obs and acc_e > 0.0:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    out_obs = cell.n - sum(pooled_obs)
    out_exp = cell.n - sum(pooled_exp)
    if out_exp >= min_expected:
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
    Garman-Klass uses ``cfg.gk_variant``.  Returns (labels, array of shape
    (count, len(labels))).  Deterministic for a fixed seed.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if count > cfg.n_paths:
        raise ValueError(f"count={count} exceeds n_paths={cfg.n_paths}")
    gamma = cfg.gamma_grid[0]
    labels = [estimator_label(kind, cfg.gk_variant) for kind in cfg.estimators]
    out = np.empty((count, len(labels)))
    done = 0
    batch = 0
    single = replace(cfg, gk_both_variants=False, gamma_grid=cfg.gamma_grid[:1])
    while done < count:
        samples = _batch_samples(single, batch)
        take = min(count - done, next(iter(samples.values())).size)
        for j, label in enumerate(labels):
            out[done : done + take, j] = samples[(label, gamma)][:take]
        done += take
        batch += 1
    return labels, out
