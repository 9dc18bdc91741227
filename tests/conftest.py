import hashlib
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rangevol import EstimatorKind, montecarlo, paths

# Fixed seeds: the statistical assertions below were verified once against
# independent oracles and are exactly reproducible (Philox streams).
DESK_SEED = 20260810
EXTREMES_SEED = 55001
GOF_SEED = 90210


@pytest.fixture(scope="session")
def desk_summary():
    """The desk-scale experiment: N=5000, M=1e5, full drift grid."""
    cfg = montecarlo.ExperimentConfig(seed=DESK_SEED)
    t0 = time.time()
    summary = montecarlo.run_experiment(cfg)
    runtime = time.time() - t0
    return summary, runtime


@pytest.fixture(scope="session")
def gof_summary():
    """Histogram experiment for the chi-square criterion.

    M = 1e5 and 200 bins are fixed by the criterion; the step count must
    grow with M because the test compares continuous-law densities against
    discretely sampled paths (chi-square inflation scales like M/N and
    only drops below the noise floor for N >~ 5e4 at this M).  All four
    kinds share the paths, so the Parkinson and bridge cells are the same
    with or without Garman-Klass and Rogers-Satchell.
    """
    cfg = montecarlo.ExperimentConfig(
        n_steps=100_000,
        n_paths=100_000,
        gamma_grid=(0.0,),
        estimators=(EstimatorKind.PARKINSON, EstimatorKind.GARMAN_KLASS,
                    EstimatorKind.ROGERS_SATCHELL, EstimatorKind.BRIDGE),
        seed=GOF_SEED,
        batch_size=256,
    )
    return montecarlo.run_experiment(cfg)


@pytest.fixture(scope="session")
def validation_report():
    """The formula validation report at 60k paths x 1200 steps, shared by
    tests/test_validation.py and acceptance criterion 12."""
    from rangevol import validation

    return validation.formula_validation_report(n_paths=60_000, n_steps=1_200, seed=4200)


def peak_mb(fn) -> float:
    """Peak of the memory traced while ``fn()`` runs, in MB (numpy reports
    its buffers to ``tracemalloc``)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if started:
            tracemalloc.stop()


def cells_digest(summary) -> str:
    """sha256 of every field and histogram of every cell of a study."""
    h = hashlib.sha256()
    for key in sorted(summary.cells):
        c = summary.cells[key]
        h.update(repr((key, c.n, c.mean, c.variance, c.mean_se, c.variance_se,
                       c.p_delta, c.p_delta_se, c.underflow, c.overflow)).encode())
        h.update(np.ascontiguousarray(c.hist).tobytes())
    return h.hexdigest()


@pytest.fixture
def study_pools(monkeypatch):
    """Send every study of two batches or more to the process pool, however
    small; the list holds the worker count of each pool a study started."""
    started = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(montecarlo, "_WORKER_SHOCKS", 1)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountedPool)
    return started


def sample_extremes(n_paths, n_steps, gamma, seed, batch=1024):
    """(high, low, close, bridge high, bridge low) samples, fixed streams."""
    hlc, xz = paths.batch_extremes(seed, n_paths, n_steps, (gamma,), batch)
    return (*hlc[0], *xz)


@pytest.fixture(scope="session")
def extremes_samples():
    """Zero-drift extreme-value samples at the desk step count."""
    return sample_extremes(120_000, 5_000, 0.0, EXTREMES_SEED)
