"""The stream layout, pinned.

Every seeded number of the package comes from the layout that
``rangevol.paths`` owns: Philox keyed by the seed with counter
``[0, 0, 0, b]`` for batch ``b``, row-major normal draws, ``cumsum / sqrt(N)``
and ``+ gamma * n/N``.  The digests below pin that layout: a change to it (or
to the floating-point order of any step) fails here and has to justify
itself.

The tick-file digest also covers the ``%.17g`` formatting of numpy's float64
``exp``, which on another CPU or numpy build may differ in the last bit.
"""

import hashlib

import numpy as np
import pytest
from conftest import sample_extremes

from rangevol import bridge_extremes, extremes, montecarlo, paths, simulate_path
from rangevol.cli import main


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_montecarlo_batch_digest():
    cfg = montecarlo.ExperimentConfig(
        n_steps=200, n_paths=192, batch_size=64, gamma_grid=(0.0, 0.7), seed=11
    )
    samples = montecarlo._batch_samples(cfg, 2)
    assert len(samples) == 10
    h = hashlib.sha256()
    for key in sorted(samples):
        h.update(repr(key).encode())
        h.update(samples[key].tobytes())
    assert h.hexdigest() == "15d80af5b08faa129dcc39ed52f95eb5c57af091bbcc32dba544fe342b2d23db"


def test_sample_extremes_digest():
    assert _digest(*sample_extremes(3000, 200, 0.7, 11)) == (
        "40eb3397594ce7e8200a3df8fff3764ced9d0d088d191082ded71ad9e1129ca4"
    )


def test_emitted_ticks_digest(tmp_path):
    ticks = tmp_path / "ticks.csv"
    assert main(["simulate", "--paths", "20", "--steps", "20", "--seed", "11", "--gammas", "0.7",
                 "--batch-size", "8", "--skip-theory", "--emit-ticks", str(ticks),
                 "--out", str(tmp_path / "sim.csv")]) == 0
    assert hashlib.sha256(ticks.read_bytes()).hexdigest() == (
        "44c760e3a7379af42b2e24ee798925a1cd3321e648d547771699281081ad2257"
    )


def test_emitted_ticks_do_not_depend_on_worker_count(tmp_path, monkeypatch):
    # 13 rows of 5000 steps make one formatting task, so each 16-path batch
    # splits into two tasks, written in order by three workers
    files = []
    for workers in ("1", "3"):
        monkeypatch.setenv("RANGEVOL_THREADS", workers)
        ticks = tmp_path / f"ticks-{workers}.csv"
        assert main(["simulate", "--paths", "40", "--steps", "5000", "--batch-size", "16",
                     "--gammas", "0.7", "--skip-theory", "--emit-ticks", str(ticks),
                     "--out", str(tmp_path / "sim.csv")]) == 0
        files.append(ticks.read_bytes())
    assert files[0] == files[1]
    assert files[0].count(b"\n") == 1 + 40 * 5000 + 1


SIMULATE_PATH_DIGESTS = {
    0.0: "455bd2b8cf1ea70f0980f2ed82c770cb32dd7a939065cba7fe5cc869da43cca8",
    1.3: "4c8d4df810da2743fab966b2261e448d7355b90b3e3ceff91e116bcdb677a463",
}


@pytest.mark.parametrize("gamma", [0.0, 1.3])
def test_simulate_path_is_row_zero_of_batch_zero(gamma):
    n, seed = 300, 42
    path = simulate_path(n, gamma, seed)
    assert _digest(path.values) == SIMULATE_PATH_DIGESTS[gamma]
    hlc, xz = paths.batch_extremes(seed, 5, n, (0.5, gamma))
    e, b = extremes(path), bridge_extremes(path)
    assert (e.high, e.low, e.close) == tuple(hlc[1, :, 0])
    assert (b.xi, b.zeta) == tuple(xz[:, 0])
