import math
import warnings

import numpy as np
import pytest
from conftest import cells_digest
from scipy import integrate
from scipy.stats import chi2 as chi2_dist

from rangevol import (
    EstimatorKind,
    GarmanKlassVariant,
    analytics,
    estimator_label,
    densities,
    goodness_of_fit,
    histogram_vs_pdf,
    montecarlo,
    run_experiment,
    sample_dump,
)
from rangevol.estimators import (
    bridge_value,
    garman_klass_value,
    parkinson_value,
    rogers_satchell_value,
)
from rangevol.montecarlo import ExperimentConfig

ALL = (
    EstimatorKind.PARKINSON,
    EstimatorKind.GARMAN_KLASS,
    EstimatorKind.ROGERS_SATCHELL,
    EstimatorKind.BRIDGE,
)


def _hand_stats(shocks, gamma):
    """Independent per-path estimator values: plain arithmetic, no engine."""
    n = shocks.shape[1]
    out = {label: [] for label in ("parkinson", "garman-klass-hl", "rogers-satchell", "bridge")}
    for row in shocks:
        x = np.concatenate([[0.0], np.cumsum(row) / math.sqrt(n)])
        x = x + gamma * np.arange(n + 1) / n
        h, l, c = x.max(), x.min(), x[-1]
        z = x - np.arange(n + 1) / n * x[-1]
        out["parkinson"].append(parkinson_value(h, l))
        out["garman-klass-hl"].append(garman_klass_value(h, l, c))
        out["rogers-satchell"].append(rogers_satchell_value(h, l, c))
        out["bridge"].append(bridge_value(z.max(), z.min()))
    return {k: np.array(v) for k, v in out.items()}


def test_two_forced_paths_match_hand_computation():
    shocks = np.array([[1.0, -2.0, 1.5, 0.5], [-0.5, 0.25, 0.0, 1.0]])
    cfg = ExperimentConfig(
        n_steps=4, n_paths=2, gamma_grid=(0.0, 1.0), shocks=shocks,
    )
    summary = run_experiment(cfg)
    for gamma in (0.0, 1.0):
        hand = _hand_stats(shocks, gamma)
        for label, values in hand.items():
            cell = summary.cell(label, gamma)
            assert cell.mean == pytest.approx(values.mean(), rel=1e-13)
            assert cell.variance == pytest.approx(values.var(ddof=1), rel=1e-12)
            assert cell.n == 2


def test_shocks_hook_takes_a_list_of_rows():
    shocks = np.array([[1.0, -2.0, 1.5, 0.5], [-0.5, 0.25, 0.0, 1.0], [0.0, 0.0, 2.0, -1.0]])
    rows = ExperimentConfig(n_steps=4, n_paths=3, batch_size=2, shocks=shocks.tolist())
    array = ExperimentConfig(n_steps=4, n_paths=3, batch_size=2, shocks=shocks)
    assert cells_digest(run_experiment(rows)) == cells_digest(run_experiment(array))


def _histogram_rows(bins):
    # every edge of the histogram, its floating-point neighbours and values
    # out of range, in order, shuffled and beside uniform draws
    edges = montecarlo._hist_edges(bins)
    near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    outside = [-np.inf, -1e300, -1.0, -5e-324, -0.0, 0.0, 6.0 + 1e-9, 7.0, 1e300, np.inf, np.nan]
    values = np.concatenate([near, outside])
    rng = np.random.default_rng(3)
    return edges, np.stack([values, rng.permutation(values), rng.uniform(-1.0, 7.0, values.size)])


@pytest.mark.filterwarnings("ignore:invalid value encountered in reduce:RuntimeWarning")
@pytest.mark.parametrize("bins", [200, 11, 1])
def test_cells_count_as_np_histogram(bins):
    # the guess from the bin width overshoots some edges at 200 bins and
    # falls short of some at 11, so both corrections are exercised
    edges, rows = _histogram_rows(bins)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="invalid value encountered in cast")
        cells = montecarlo._Cells.of(rows, edges)
    assert cells.n == rows.shape[1] and cells.counts.shape == (3, bins + 2)
    for row, counts in zip(rows, cells.counts):
        assert np.array_equal(counts[1:-1], np.histogram(row, bins=edges)[0])
        assert counts[0] == np.sum(row < edges[0]) and counts[-1] == np.sum(row > edges[-1])


def test_cells_of_a_matrix_are_the_cells_of_its_rows():
    # one row per cell: each row of a (drifts, labels, paths) batch gives,
    # bit for bit, what the numpy calls on that row alone give
    v = np.random.default_rng(8).gamma(1.0, 1.2, (2, 3, 300))
    edges = montecarlo._hist_edges(50)
    cells = montecarlo._Cells.of(v, edges)
    assert cells.n == 300
    for i, row in enumerate(v.reshape(6, 300)):
        mean = row.mean()
        dev = row - mean
        dev2 = dev * dev
        assert cells.mean[i] == mean
        assert (cells.m2[i], cells.m3[i], cells.m4[i]) == (
            dev2.sum(), (dev2 * dev).sum(), (dev2 * dev2).sum())
        assert cells.in_band[i] == np.sum((row > 0.5) & (row < 2.0))
        assert np.array_equal(cells.counts[i, 1:-1], np.histogram(row, bins=edges)[0])


def test_small_study_runs_without_a_pool(monkeypatch):
    # the ticks study: 10 000 paths of 20 steps are 2e5 shocks in 20 batches,
    # under the two workers' worth of shocks that open a pool
    cfg = ExperimentConfig(n_steps=20, n_paths=10_000, seed=201)
    work = cfg.n_paths * cfg.n_steps + 20 * montecarlo._BATCH_SHOCKS
    assert work < 2 * montecarlo._WORKER_SHOCKS

    def no_pool(*args, **kwargs):
        raise AssertionError("a small study started a process pool")

    monkeypatch.setenv("RANGEVOL_THREADS", "2")
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
        inline = run_experiment(cfg)
    monkeypatch.setattr(montecarlo, "_WORKER_SHOCKS", 1)
    assert cells_digest(run_experiment(cfg)) == cells_digest(inline)


@pytest.mark.parametrize("n_paths, workers", [(199, None), (200, 2), (299, 2), (300, 3), (900, 3)])
def test_pool_gives_every_worker_its_shocks(monkeypatch, n_paths, workers):
    # with 100 shocks a worker and no batch cost, 199 shocks run in-process,
    # 200 open a two-worker pool and 300 a three-worker one; RANGEVOL_THREADS caps it
    class Started(Exception):
        pass

    def pool(max_workers):
        raise Started(max_workers)

    monkeypatch.setattr(montecarlo, "_WORKER_SHOCKS", 100)
    monkeypatch.setattr(montecarlo, "_BATCH_SHOCKS", 0)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", pool)
    monkeypatch.setenv("RANGEVOL_THREADS", "3")
    cfg = ExperimentConfig(n_steps=1, n_paths=n_paths, batch_size=10, gamma_grid=(0.0,))
    if workers is None:
        assert run_experiment(cfg).cell("parkinson", 0.0).n == n_paths
    else:
        with pytest.raises(Started) as started:
            run_experiment(cfg)
        assert started.value.args == (workers,)


@pytest.mark.parametrize("n_steps, n_paths, pooled", [
    (20, 15_000, False), (20, 20_000, True), (200, 4_000, False), (200, 4_600, True),
    (1000, 850, False), (1000, 1_024, True),
])
def test_short_rows_count_their_batches(monkeypatch, n_steps, n_paths, pooled):
    # the measured crossovers: 20-step studies pool from 40 batches (0.38 Mi
    # shocks), 200-step ones from 9 batches (0.88 Mi), long rows from about 1 Mi
    class Started(Exception):
        pass

    def pool(max_workers):
        raise Started(max_workers)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", pool)
    monkeypatch.setenv("RANGEVOL_THREADS", "2")
    cfg = ExperimentConfig(n_steps=n_steps, n_paths=n_paths, gamma_grid=(0.0,))
    if pooled:
        with pytest.raises(Started) as started:
            run_experiment(cfg)
        assert started.value.args == (2,)
    else:
        assert run_experiment(cfg).cell("parkinson", 0.0).n == n_paths


def test_bit_identical_across_worker_counts(monkeypatch, study_pools):
    cfg = ExperimentConfig(n_steps=300, n_paths=2_000, gamma_grid=(0.0, 0.7), seed=99)
    monkeypatch.setenv("RANGEVOL_THREADS", "1")
    one = run_experiment(cfg)
    monkeypatch.setenv("RANGEVOL_THREADS", "2")
    two = run_experiment(cfg)
    assert study_pools == [2]
    for key, cell in one.cells.items():
        other = two.cells[key]
        assert cell.mean == other.mean
        assert cell.variance == other.variance
        assert cell.p_delta == other.p_delta
        assert np.array_equal(cell.hist, other.hist)


def test_bridge_cells_bit_identical_across_drifts(desk_summary):
    summary, _ = desk_summary
    base = summary.cell("bridge", 0.0)
    for gamma in summary.config.gamma_grid[1:]:
        cell = summary.cell("bridge", gamma)
        assert cell.mean == base.mean
        assert cell.variance == base.variance
        assert np.array_equal(cell.hist, base.hist)


def test_histogram_counts_sum_to_paths(desk_summary):
    summary, _ = desk_summary
    for cell in summary.cells.values():
        assert int(cell.hist.sum()) + cell.underflow + cell.overflow == cell.n


def test_common_random_numbers_shared_across_estimators():
    cfg = ExperimentConfig(n_steps=64, n_paths=40, gamma_grid=(0.5,), seed=5)
    labels, dump = sample_dump(cfg, 40)
    # recompute from the same counter stream
    gen = np.random.Generator(np.random.Philox(key=5, counter=[0, 0, 0, 0]))
    shocks = gen.standard_normal((40, 64))
    hand = _hand_stats(shocks, 0.5)
    for j, label in enumerate(labels):
        np.testing.assert_allclose(dump[:, j], hand[label], rtol=1e-13)


def test_resource_cap():
    with pytest.raises(ValueError, match="resource limit"):
        ExperimentConfig(n_steps=10**7, n_paths=10**6)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_paths=1)
    with pytest.raises(ValueError):
        ExperimentConfig(gamma_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(histogram_bins=0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite drifts"):
            ExperimentConfig(gamma_grid=(0.0, bad))


def test_run_experiment_rejects_non_finite_cells():
    # at this drift the Garman-Klass and Parkinson samples overflow; two
    # batches, so their non-finite cells are merged too, without a warning
    cfg = ExperimentConfig(n_steps=4, n_paths=8, gamma_grid=(1e200,), batch_size=4,
                           estimators=(EstimatorKind.GARMAN_KLASS, EstimatorKind.PARKINSON))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as exc:
            run_experiment(cfg)
    assert str(exc.value) == "garman-klass-hl at drift 1e+200: mean is nan, not finite"


def test_worker_count_names_bad_env(monkeypatch):
    monkeypatch.setenv("RANGEVOL_THREADS", "abc")
    with pytest.raises(ValueError, match="RANGEVOL_THREADS must be an integer, got 'abc'"):
        montecarlo._worker_count(4)
    monkeypatch.setenv("RANGEVOL_THREADS", "3")
    assert montecarlo._worker_count(4) == 3 and montecarlo._worker_count(2) == 2


def test_labels_report_both_gk_variants():
    cfg = ExperimentConfig(n_steps=8, n_paths=4)
    assert cfg.labels() == (
        "parkinson", "garman-klass-hl", "garman-klass-hc", "rogers-satchell", "bridge",
    )


def test_histogram_vs_pdf_columns(desk_summary):
    summary, _ = desk_summary
    rows = histogram_vs_pdf(summary, EstimatorKind.BRIDGE, 0.0)
    assert len(rows) == summary.config.histogram_bins
    centers = np.array([r[0] for r in rows])
    emp = np.array([r[1] for r in rows])
    ana = np.array([r[2] for r in rows])
    width = centers[1] - centers[0]
    assert abs(emp.sum() * width - 1.0) < 1e-3  # nearly all mass inside [0, 6]
    assert abs(ana.sum() * width - 1.0) < 1e-6
    # empirical and analytic curves agree to a few percent at the peak
    peak = ana.argmax()
    assert abs(emp[peak] - ana[peak]) / ana[peak] < 0.05


def test_histogram_vs_pdf_rogers_satchell_column(desk_summary):
    # the analytic column of GK and RS is the bin-averaged density of their
    # exact (high, low, close) distribution function
    summary, _ = desk_summary
    rows = histogram_vs_pdf(summary, EstimatorKind.ROGERS_SATCHELL, 1.0)
    edges = summary.hist_edges
    cdf = analytics._estimator_cdf(EstimatorKind.ROGERS_SATCHELL, 1.0, edges,
                                   GarmanKlassVariant.HIGH_LOW_CROSS)
    ana = np.array([r[2] for r in rows])
    assert np.all(np.isfinite(ana)) and np.all(ana >= 0.0)
    assert np.array_equal(ana, np.diff(cdf) / np.diff(edges))


def test_histogram_vs_pdf_missing_cell_errors(desk_summary):
    summary, _ = desk_summary
    with pytest.raises(KeyError):
        histogram_vs_pdf(summary, EstimatorKind.BRIDGE, 0.123)


def test_parkinson_fit_rejects_drifts_past_the_range_law_bound():
    # the bin edges reach the range law's kernels, which at 1e9 gave finite
    # values without digits and at 1e10 NaN; the bridge law has no drift
    summary = run_experiment(ExperimentConfig(n_steps=8, n_paths=64, gamma_grid=(1e9, 1e10)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for gamma in (1e9, 1e10):
            for fit in (histogram_vs_pdf, goodness_of_fit):
                with pytest.raises(ValueError, match=f"at drift {gamma!r} has no digits"):
                    fit(summary, EstimatorKind.PARKINSON, gamma)
            assert len(histogram_vs_pdf(summary, EstimatorKind.BRIDGE, gamma)) == len(summary.hist_edges) - 1


def test_goodness_of_fit_reads_the_labelled_gk_variant(desk_summary, monkeypatch):
    summary, _ = desk_summary
    chi2, dof, p = goodness_of_fit(summary, EstimatorKind.BRIDGE, 0.0)
    assert chi2 > 0 and dof > 50 and 0.0 <= p <= 1.0
    seen = []

    def spy(kind, gamma, xs, variant):  # a uniform stand-in law, no joint integral
        seen.append((kind, gamma, variant))
        return np.linspace(0.0, 1.0, len(xs))

    monkeypatch.setattr(analytics, "_estimator_cdf", spy)
    chi2, dof, p = goodness_of_fit(summary, "garman-klass-hc", 0.5)
    assert 0.0 <= p <= 1.0
    goodness_of_fit(summary, EstimatorKind.GARMAN_KLASS, 0.5)
    gk = EstimatorKind.GARMAN_KLASS
    assert seen == [(gk, 0.5, GarmanKlassVariant.HIGH_CLOSE_CROSS),
                    (gk, 0.5, GarmanKlassVariant.HIGH_LOW_CROSS)]
    with pytest.raises(ValueError, match="unknown estimator"):
        goodness_of_fit(summary, "garman-klass", 0.5)


def test_goodness_of_fit_p_value_is_chi2_survival(desk_summary):
    summary, _ = desk_summary
    cells = [(EstimatorKind.PARKINSON, g) for g in summary.config.gamma_grid]
    for kind, gamma in cells + [(EstimatorKind.BRIDGE, 0.0)]:
        chi2, dof, p = goodness_of_fit(summary, kind, gamma)
        assert p == chi2_dist.sf(chi2, dof)


def test_goodness_of_fit_joint_law_kinds(gof_summary):
    # the exact (high, low, close) laws against 1e5 paths of 1e5 steps
    for label in ("rogers-satchell", "garman-klass-hl", "garman-klass-hc"):
        chi2, dof, p = goodness_of_fit(gof_summary, label, 0.0)
        assert dof > 100 and p > 1e-3, (label, chi2, dof, p)


@pytest.mark.parametrize("kind, gamma", [
    (EstimatorKind.PARKINSON, 0.0), (EstimatorKind.PARKINSON, 1.5), (EstimatorKind.BRIDGE, 0.0),
])
def test_analytic_bin_density_evaluates_shared_edges_once(kind, gamma, monkeypatch):
    # exact bin masses: CDF differences at the n + 1 edges, one law call
    edges = np.linspace(0.0, 6.0, 201)
    law, alpha = densities._range_law(kind, gamma)
    points = []

    def spy(k, g):
        assert (k, g) == (kind, gamma)
        return (lambda d, density: points.append(np.size(d)) or law(d, density=density)), alpha

    monkeypatch.setattr(densities, "_range_law", spy)
    got = montecarlo._analytic_bin_density(kind, gamma, edges, GarmanKlassVariant.HIGH_LOW_CROSS)
    assert points == [201]
    masses = got * np.diff(edges)
    cdf = law(np.sqrt(alpha * edges), density=False)
    assert np.all(masses >= 0.0)
    assert abs(masses.sum() - (cdf[-1] - cdf[0])) < 1e-15
    # each bin mass is the integral of the estimator density over the bin
    pdf = densities.parkinson_estimator_pdf if kind is EstimatorKind.PARKINSON else (
        lambda x, g: densities.bridge_estimator_pdf(x))
    for i in (0, 10, 35, 120, 199):
        mass, _ = integrate.quad(lambda x: pdf(x, gamma).value, edges[i], edges[i + 1],
                                 epsabs=1e-14, epsrel=1e-12)
        assert abs(masses[i] - mass) < 1e-13


def test_sample_dump_shapes_and_determinism():
    cfg = ExperimentConfig(n_steps=32, n_paths=300, gamma_grid=(0.0,), seed=77)
    labels, dump = sample_dump(cfg, 200)
    assert dump.shape == (200, 4)
    assert labels == ["parkinson", "garman-klass-hl", "rogers-satchell", "bridge"]
    labels2, again = sample_dump(cfg, 200)
    assert np.array_equal(dump, again)
    empty_labels, empty = sample_dump(cfg, 0)
    assert empty.shape == (0, 4)
    with pytest.raises(ValueError, match="exceeds"):
        sample_dump(cfg, 301)


def test_sample_dump_prefix_stable():
    # the first k rows do not depend on how many were requested
    cfg = ExperimentConfig(n_steps=32, n_paths=2_000, gamma_grid=(0.0,), seed=78)
    _, small = sample_dump(cfg, 50)
    _, large = sample_dump(cfg, 1_500)
    assert np.array_equal(small, large[:50])


def test_sample_dump_columns_are_the_high_low_cells_of_the_batches():
    # the dump reads the cells of the run at the first drift; Garman-Klass gives hl
    cfg = ExperimentConfig(n_steps=50, n_paths=150, gamma_grid=(0.4, 1.2), seed=13, batch_size=64)
    labels, dump = sample_dump(cfg, 150)
    assert labels == ["parkinson", "garman-klass-hl", "rogers-satchell", "bridge"]
    batches = np.concatenate([montecarlo._batch_samples(cfg, b) for b in range(3)], axis=-1)
    for j, label in enumerate(labels):
        assert np.array_equal(dump[:, j], batches[0, cfg.labels().index(label)])


def test_estimator_label():
    assert estimator_label(EstimatorKind.PARKINSON) == "parkinson"
    assert estimator_label(EstimatorKind.GARMAN_KLASS, GarmanKlassVariant.HIGH_CLOSE_CROSS) == "garman-klass-hc"


def test_gk_desk_variants_both_close_to_unit(desk_summary):
    summary, _ = desk_summary
    for label in ("garman-klass-hl", "garman-klass-hc"):
        cell = summary.cell(label, 0.0)
        assert abs(cell.mean - 1.0) < 0.03


def test_rs_bridge_bias_bound_moderate_drifts(desk_summary):
    """Unbiasedness of R&S and bridge at desk scale: 3 SE + 3% allowance.

    The gamma = 2 Rogers-Satchell point is excluded here: its discrete
    sampling bias (about -4% at N=5000, scaling like E[range]/sqrt(N))
    exceeds the allowance.  Acceptance criterion 7d asserts the desk means
    against the discrete-monitoring mean 1 - 2 * 0.5826 / sqrt(N) * E[range]
    instead (see tests/test_acceptance.py), and the shortfall from 1 is
    pinned by test_rs_gamma2_bias_exceeds_allowance below.
    """
    summary, _ = desk_summary
    for gamma in summary.config.gamma_grid:
        cell = summary.cell("bridge", gamma)
        assert abs(cell.mean - 1.0) < 0.03 + 3 * cell.mean_se
    for gamma in (0.0, 0.5, 1.0, 1.5):
        cell = summary.cell("rogers-satchell", gamma)
        assert abs(cell.mean - 1.0) < 0.03 + 3 * cell.mean_se


def test_rs_gamma2_bias_exceeds_allowance(desk_summary):
    """The flip side of the exclusion above, pinned so a fix is noticed."""
    summary, _ = desk_summary
    cell = summary.cell("rogers-satchell", 2.0)
    assert abs(cell.mean - 1.0) > 0.03 + 3 * cell.mean_se
