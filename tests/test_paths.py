import math
import re

import numpy as np
import pytest
from conftest import peak_mb
from scipy import integrate

from rangevol import (
    BridgeExtremes,
    Extremes,
    Path,
    bar_from_samples,
    bridge_extremes,
    bridge_transform,
    densities,
    extremes,
    montecarlo,
    paths,
    simulate_path,
)


def test_single_step_is_first_normal_draw():
    p = simulate_path(1, 0.0, seed=123)
    eps = np.random.Generator(np.random.Philox(key=123)).standard_normal(1)
    assert p.values[0] == 0.0
    assert p.values[1] == eps[0]


def test_pure_drift_path():
    p = simulate_path(4, 2.0, seed=0, shocks=np.zeros(4))
    np.testing.assert_array_equal(p.values, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_close_is_unbiased_at_zero_drift():
    closes = [simulate_path(500, 0.0, seed=s).values[-1] for s in range(400)]
    se = 1.0 / math.sqrt(len(closes))
    assert abs(np.mean(closes)) < 3 * se


def test_simulate_path_rejects_zero_steps():
    with pytest.raises(ValueError):
        simulate_path(0, 0.0, seed=1)


def test_path_layer_rejects_non_finite_drift():
    with pytest.raises(ValueError, match="batch_extremes: drift must be finite, got nan"):
        paths.batch_extremes(1, 4, 1000, (math.nan, 1.0))
    with pytest.raises(ValueError, match="simulate_path: drift must be finite, got nan"):
        simulate_path(100, math.nan, 1)


def test_simulate_path_deterministic():
    a = simulate_path(200, 0.7, seed=42)
    b = simulate_path(200, 0.7, seed=42)
    c = simulate_path(200, 0.7, seed=43)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_path_invariants_enforced():
    with pytest.raises(ValueError):
        Path(values=np.array([0.0, 1.0]), n_steps=2, gamma=0.0)
    with pytest.raises(ValueError):
        Path(values=np.array([0.5, 1.0, 2.0]), n_steps=2, gamma=0.0)


def test_bridge_of_line_is_zero():
    p = Path(values=np.array([0.0, 0.5, 1.0, 1.5, 2.0]), n_steps=4, gamma=2.0)
    np.testing.assert_array_equal(bridge_transform(p).values, np.zeros(5))


def test_bridge_direct_arithmetic():
    p = Path(values=np.array([0.0, 1.0, 0.5]), n_steps=2, gamma=0.0)
    np.testing.assert_allclose(bridge_transform(p).values, [0.0, 0.75, 0.0], atol=0)
    assert bridge_extremes(p) == BridgeExtremes(xi=0.75, zeta=0.0)


def test_bridge_idempotent():
    p = simulate_path(300, 1.3, seed=9)
    once = bridge_transform(p).values
    twice = bridge_transform(bridge_transform(p)).values
    np.testing.assert_array_equal(once, twice)


def test_bridge_ramp_invariance():
    p = simulate_path(400, 0.0, seed=11)
    ramp = np.arange(401) / 400
    for c in (-2.0, 0.3, 1.7):
        shifted = Path(values=p.values + c * ramp, n_steps=400, gamma=c)
        diff = np.abs(bridge_transform(shifted).values - bridge_transform(p).values)
        assert diff.max() < 1e-12
        be0, be1 = bridge_extremes(p), bridge_extremes(shifted)
        assert abs(be0.xi - be1.xi) < 1e-12 and abs(be0.zeta - be1.zeta) < 1e-12


def test_extremes_examples():
    p = Path(values=np.array([0.0, 1.0, -1.0, 0.5]), n_steps=3, gamma=0.0)
    assert extremes(p) == Extremes(high=1.0, low=-1.0, close=0.5)
    z = Path(values=np.zeros(4), n_steps=3, gamma=0.0)
    assert extremes(z) == Extremes(0.0, 0.0, 0.0)


def test_extremes_scale_equivariance():
    p = simulate_path(250, 0.4, seed=3)
    e = extremes(p)
    for alpha in (0.25, 3.0):
        scaled = Path(values=alpha * p.values, n_steps=250, gamma=0.4 * alpha)
        es = extremes(scaled)
        assert es.high == alpha * e.high and es.low == alpha * e.low


def test_extremes_invariants_enforced():
    with pytest.raises(ValueError):
        Extremes(high=-0.1, low=-1.0, close=-0.5)
    with pytest.raises(ValueError):
        Extremes(high=1.0, low=-1.0, close=2.0)


def test_mean_range_matches_density_moment(extremes_samples):
    # oracle: first moment of the analytic range density
    e_d, _ = integrate.quad(
        lambda d: d * densities.range_pdf(d).value, 0.02, 13, limit=300, epsabs=1e-11
    )
    assert abs(e_d - math.sqrt(8 / math.pi)) < 1e-9
    h, l, _, _, _ = extremes_samples
    sampled = float(np.mean(h - l))
    assert abs(sampled - e_d) / e_d < 0.02  # discrete extremes bias is downward
    assert sampled < e_d


def test_mean_square_bridge_range(extremes_samples):
    _, _, _, xi, zeta = extremes_samples
    s2 = float(np.mean((xi - zeta) ** 2))
    assert abs(s2 - math.pi**2 / 6) / (math.pi**2 / 6) < 0.03


# ---------------------------------------------------------------------------
# bar_from_samples
# ---------------------------------------------------------------------------

def test_bar_constant_price():
    ticks = [(0.0, 5.0), (0.5, 5.0), (1.0, 5.0)]
    bar, bridge = bar_from_samples(ticks, (0.0, 1.0))
    assert bar.high == bar.low == bar.close == 0.0
    assert bridge.xi == bridge.zeta == 0.0


def test_bar_two_ticks_log_e():
    bar, bridge = bar_from_samples([(0.0, 1.0), (1.0, math.e)], (0.0, 1.0))
    assert abs(bar.high - 1.0) < 1e-15 and abs(bar.close - 1.0) < 1e-15
    assert bar.low == 0.0
    assert bridge.xi == 0.0 and bridge.zeta == 0.0


def test_bar_scaled_canonical_path_bit_level():
    p = simulate_path(64, 0.8, seed=77)
    scale = 0.3 * math.sqrt(2.5)  # sigma * sqrt(T)
    times = 2.5 * np.arange(65) / 64
    ticks = np.column_stack([times, scale * p.values])
    bar, bridge = bar_from_samples(ticks, (0.0, 2.5), log_input=True)
    e = extremes(p)
    assert bar.high == scale * e.high
    assert bar.low == scale * e.low
    assert bar.close == scale * e.close
    be = bridge_extremes(p)
    assert abs(bridge.xi - scale * be.xi) < 1e-14
    assert abs(bridge.zeta - scale * be.zeta) < 1e-14


def test_bar_errors():
    with pytest.raises(ValueError, match="at least 2 ticks"):
        bar_from_samples([(0.0, 1.0), (5.0, 2.0)], (1.0, 2.0))
    with pytest.raises(ValueError, match="positive"):
        bar_from_samples([(0.0, 1.0), (1.0, -2.0)], (0.0, 1.0))
    with pytest.raises(ValueError, match="non-decreasing"):
        bar_from_samples([(1.0, 1.0), (0.5, 2.0)], (0.0, 1.0))
    for bad in (math.inf, -math.inf, math.nan):
        for ticks in ([(0.0, 1.0), (1.0, bad)], [(0.0, 1.0), (bad, 2.0)]):
            for log_input in (False, True):
                with pytest.raises(ValueError, match="finite"):
                    bar_from_samples(ticks, (0.0, 1.0), log_input=log_input)


# ---------------------------------------------------------------------------
# window_extremes: every tick window at once, against bar_from_samples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("log_input", [False, True], ids=["prices", "log-prices"])
def test_window_extremes_bit_identical_to_bar_from_samples(log_input):
    # 0.1-spaced ticks, about half of them repeated at the same timestamp
    rng = np.random.default_rng(8)
    t = np.repeat(np.arange(61) / 10.0, rng.integers(1, 3, size=61))
    p = rng.normal(0.0, 0.02, t.size).cumsum()
    prices = p if log_input else 100.0 * np.exp(p)
    ticks = np.column_stack([t, prices])
    sizes = set()
    for width in (0.1, 0.3, 1.7):
        lo = np.arange(int(6.0 / width)) * width
        starts = np.searchsorted(t, lo, side="left")
        stops = np.searchsorted(t, lo + width, side="right")
        # windows that hold one timestamp only (lo * 0.1 rounds past a tick) raise; see below
        keep = (stops - starts >= 2) & (t[stops - 1] > t[starts])
        starts, stops = starts[keep], stops[keep]
        sizes.update((stops - starts).tolist())
        got = np.array(paths.window_extremes(t, p if log_input else np.log(prices), starts, stops))
        assert got.shape == (5, keep.sum())
        assert np.any(starts[1:] < stops[:-1])  # neighbours share boundary ticks
        for k, w in enumerate(np.flatnonzero(keep)):
            bar, bridge = bar_from_samples(ticks, (lo[w], lo[w] + width), log_input=log_input)
            want = np.array([bar.high, bar.low, bar.close, bridge.xi, bridge.zeta])
            assert got[:, k].tobytes() == want.tobytes()
    assert min(sizes) == 2 and max(sizes) > 20 and np.any(np.diff(t) == 0)


def test_window_extremes_groups_match_one_pass(monkeypatch):
    # groups of at most 50 gathered ticks, a 121-tick window on its own
    rng = np.random.default_rng(9)
    t = np.arange(400) / 100.0
    y = rng.normal(0.0, 0.02, t.size).cumsum()
    stops = np.array([3, 30, 150, 151, 200, 260, 300, 399])
    starts = np.concatenate(([0], stops[:-1] - 1))
    whole = paths.window_extremes(t, y, starts, stops)
    monkeypatch.setattr(paths, "_GROUP_TICKS", 50)
    grouped = paths.window_extremes(t, y, starts, stops)
    for a, b in zip(whole, grouped):
        assert a.tobytes() == b.tobytes() and a.size == starts.size


def test_window_extremes_rejects_degenerate_windows():
    t = np.array([0.0, 1.0, 1.0, 2.0])
    y = np.array([0.0, 0.1, 0.2, 0.3])
    high, low, close, xi, zeta = paths.window_extremes(t, y, [0, 1], [2, 4])
    assert close.tolist() == [0.1, 0.3 - 0.1] and xi.tolist()[0] == zeta.tolist()[0] == 0.0
    for starts, stops in (([1], [3]), ([0, 2], [2, 3]), ([0], [1])):
        with pytest.raises(ValueError, match="window ticks must span a positive time interval"):
            paths.window_extremes(t, y, starts, stops)


# ---------------------------------------------------------------------------
# batch_extremes: block-pruned reduction against the whole-row reduction
# ---------------------------------------------------------------------------

PRUNE_GAMMAS = (0.0, 0.5, -0.5, 2.0, -2.0, 5.0, -5.0)


def _whole_row_batch_extremes(seed, n_paths, n_steps, gammas, batch_size, shocks, first_batch=0):
    """``batch_extremes`` as a plain loop over every value of every row."""
    tau = np.arange(n_steps + 1) / n_steps
    hlc = np.empty((len(gammas), 3, n_paths))
    xz = np.empty((2, n_paths))
    for lo, s in paths._sum_chunks(seed, n_paths, n_steps, batch_size, batch_size, first_batch,
                                   shocks):
        hi = lo + len(s)
        z = s - tau[None, :] * s[:, -1:]
        xz[:, lo:hi] = z.max(axis=1), z.min(axis=1)
        for g, gamma in enumerate(gammas):
            x = s + gamma * tau[None, :] if gamma != 0.0 else s
            hlc[g, :, lo:hi] = x.max(axis=1), x.min(axis=1), x[:, -1]
    return hlc, xz


@pytest.mark.parametrize("zero_shocks", [False, True], ids=["random", "zero-shocks"])
@pytest.mark.parametrize("n_steps", [1, 20, 63, 64, 65, 638, 639, 640, 702, 5000, 20000])
def test_batch_extremes_bit_identical_to_whole_rows(n_steps, zero_shocks):
    # Rows of fewer than 640 values are reduced whole; 639, 640 and 702 steps
    # give pruned rows whose last block holds 64, 1 and 63 columns.  150
    # paths in batches of 64: the last batch holds 22.  Zero shocks put
    # every block's extreme exactly on its bound (bridge: every value is 0).
    # At 20 000 steps a chunk holds 26 rows, so each full batch is drawn and
    # reduced in chunks of 26, 26 and 12 rows.
    n_paths, batch = 150, 64
    shocks = np.zeros((n_paths, n_steps)) if zero_shocks else None
    for first_batch in (0, 3):
        hlc, xz = _whole_row_batch_extremes(7, n_paths, n_steps, PRUNE_GAMMAS, batch, shocks,
                                            first_batch)
        got_hlc, got_xz = paths.batch_extremes(7, n_paths, n_steps, PRUNE_GAMMAS, batch,
                                               first_batch, shocks=shocks)
        assert got_hlc.tobytes() == hlc.tobytes()
        assert got_xz.tobytes() == xz.tobytes()
        no_bridge, none = paths.batch_extremes(7, n_paths, n_steps, PRUNE_GAMMAS, batch,
                                               first_batch, shocks=shocks, bridge=False)
        assert none is None and no_bridge.tobytes() == hlc.tobytes()
    if n_steps == 20000:
        assert paths._CHUNK_SHOCKS // n_steps == 26


@pytest.mark.parametrize("rows", [1, 3, 7, 50])
def test_path_chunks_are_the_rows_of_the_batch(rows):
    # 12 paths in batches of 7 and 5: each chunk is the next rows of its
    # batch's whole-batch draw, bit for bit
    whole = [(lo, s.copy()) for lo, s in paths._sum_chunks(5, 12, 300, 7, 7, 2)]
    chunks = [(lo, s.copy()) for lo, s in paths._sum_chunks(5, 12, 300, 7, rows, 2)]
    assert [lo for lo, _ in whole] == [0, 7]
    assert [lo for lo, _ in chunks] == [*range(0, 7, rows), *range(7, 12, rows)]
    assert (np.concatenate([s for _, s in chunks]).tobytes()
            == np.concatenate([s for _, s in whole]).tobytes())


@pytest.mark.parametrize("call, shape", [
    (lambda eps: simulate_path(5, 0.0, 1, shocks=eps), "(5,)"),
    (lambda eps: paths.batch_extremes(1, 3, 5, (0.0,), shocks=eps), "(3, 5)"),
    (lambda eps: montecarlo.ExperimentConfig(n_steps=5, n_paths=3, shocks=eps),
     "(n_paths, n_steps)"),
], ids=["simulate_path", "batch_extremes", "ExperimentConfig"])
def test_shocks_hook_rejects_wrong_shape(call, shape):
    with pytest.raises(ValueError, match=re.escape(f"shocks must have shape {shape}")):
        call(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="n_steps must be >= 1"):
        paths.batch_extremes(1, 4, 0, (0.0,))


def test_batch_extremes_rejects_bad_batch_size():
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        paths.batch_extremes(1, 4, 10, (0.0,), batch_size=0)


@pytest.mark.parametrize("size, n_steps", [(512, 5000), (64, 100_000)], ids=["desk", "long-rows"])
def test_batch_extremes_working_set_is_bounded(size, n_steps):
    # one whole batch at once peaked at 39.9 MB (desk) and 98.4 MB (long rows)
    gammas = (0.0, 0.5, 1.0, 2.0, -1.0)
    peak = peak_mb(lambda: paths.batch_extremes(3, size, n_steps, gammas, size))
    assert peak < 16.0
