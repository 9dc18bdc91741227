"""Discretized canonical Brownian paths and their extreme-value statistics.

A canonical path is the unit-window, unit-variance reduction of a GBM
log-price: ``x_n = gamma * n/N + (1/sqrt(N)) * sum_{k<=n} eps_k`` with iid
standard normal shocks ``eps_k`` and dimensionless drift ``gamma``.  All
range-based volatility estimators consume only the high, low and close of
such a path, plus the high and low of its bridge (the path minus the linear
interpolant between its endpoints, which removes any drift exactly).

This module is the one owner of the stream layout, which every simulated
number in the package depends on:

* paths come in batches; batch ``b`` draws from numpy's Philox bit
  generator keyed by ``seed`` with counter ``[0, 0, 0, b]`` (normal
  variates via numpy's ziggurat), so a batch's paths are fixed by
  ``(seed, b)`` whatever the scheduling;
* the batch's shock matrix is drawn row-major, one row of ``N`` shocks per
  path, and summed along the row: ``cumsum(eps) / sqrt(N)``, after a
  leading 0;
* drift is added last, as ``+ gamma * n/N``.  Every drift of a grid reuses
  the same driftless sums (common random numbers), and the bridge is
  computed from the driftless sums, which makes it bit-identical across
  drifts.

:func:`batch_paths` draws one batch, :func:`batch_extremes` reduces
consecutive batches to their extremes at a drift grid, and
:func:`simulate_path` is row 0 of batch 0.  Changing any step above changes
every seeded result; ``tests/test_stream_layout.py`` pins the layout.

:func:`batch_extremes` draws and reduces each batch in chunks of
consecutive rows, at most ``_CHUNK_SHOCKS`` shocks each, through reused
shock and sums buffers.  The chunks consume the batch's generator in the
order of one whole-batch draw, and every step is row by row, so the stream
layout is unchanged.  Besides its results, its working set depends on
neither ``n_paths``, ``batch_size`` nor ``n_steps`` (up to
``_CHUNK_SHOCKS`` steps).  :func:`_partial_sums` is the one owner of the
draw, the cumsum and the scaling, for a chunk or a whole batch.

The reduction to extremes is block-pruned on long rows: the driftless sums
are reduced to per-block extremes once per chunk, and each drift (and the
bridge) evaluates only the blocks whose bound can hold the row's extreme.
It is exact -- every value it keeps is computed with the same operations
as the whole row, and max and min do not round -- so it returns the
whole-row extremes bit for bit and leaves the stream layout unchanged.

Observed ticks take the same shape: :func:`window_extremes` is the one
reduction of tick windows to their high, low, close and bridge extremes,
all windows in one array pass, and :func:`bar_from_samples` is its
one-window form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Path",
    "Extremes",
    "BridgeExtremes",
    "PhysicalBar",
    "simulate_path",
    "batch_paths",
    "batch_extremes",
    "bridge_transform",
    "extremes",
    "bridge_extremes",
    "window_extremes",
    "bar_from_samples",
]


def _require_finite(context: str, **args: float) -> None:
    """Raise ``ValueError`` naming the first non-finite argument."""
    for name, value in args.items():
        if not math.isfinite(value):
            raise ValueError(f"{context}: {name} must be finite, got {value!r}")


@dataclass
class Path:
    """A discretized path: N+1 values on the uniform grid n/N, starting at 0."""

    values: np.ndarray
    n_steps: int
    gamma: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.values.ndim != 1 or self.values.shape[0] != self.n_steps + 1:
            raise ValueError(
                f"values must hold n_steps+1 = {self.n_steps + 1} entries, "
                f"got shape {self.values.shape}"
            )
        if self.values[0] != 0.0:
            raise ValueError("values[0] must be 0")


@dataclass(frozen=True)
class Extremes:
    """High, low and close of a path started at 0."""

    high: float
    low: float
    close: float

    def __post_init__(self):
        if not (self.low <= 0.0 <= self.high):
            raise ValueError(f"need low <= 0 <= high, got ({self.low}, {self.high})")
        if not (self.low <= self.close <= self.high):
            raise ValueError("close must lie within [low, high]")


@dataclass(frozen=True)
class BridgeExtremes:
    """High and low of a bridge (a path pinned to 0 at both ends)."""

    xi: float
    zeta: float

    def __post_init__(self):
        if not (self.zeta <= 0.0 <= self.xi):
            raise ValueError(f"need zeta <= 0 <= xi, got ({self.zeta}, {self.xi})")


@dataclass(frozen=True)
class PhysicalBar:
    """High/low/close of the log-price increment over a window of length T.

    All three are increments relative to the log-price at the window start,
    so ``low <= 0 <= high`` always holds.
    """

    high: float
    low: float
    close: float
    horizon: float

    def __post_init__(self):
        if not (self.low <= 0.0 <= self.high):
            raise ValueError("need low <= 0 <= high")
        if not (self.low <= self.close <= self.high):
            raise ValueError("close must lie within [low, high]")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")


def batch_paths(seed, batch_index: int, size: int, n_steps: int, gamma: float = 0.0,
                shocks=None) -> np.ndarray:
    """Batch ``batch_index`` of the stream: ``size`` paths as a ``(size, n_steps + 1)`` array.

    Row ``k`` holds path ``k`` of the batch on the grid n/N, starting at 0,
    with drift ``gamma`` (the default 0 gives the driftless partial sums).
    ``shocks`` is a test hook: a fixed ``(size, n_steps)`` eps-matrix used
    instead of drawing from the RNG.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    _require_finite("batch_paths", drift=gamma)
    x = np.empty((size, n_steps + 1))
    if shocks is not None:
        _partial_sums(_checked_shocks(shocks, size, n_steps), x)
    else:
        _partial_sums(np.empty((size, n_steps)), x, _generator(seed, batch_index))
    if gamma != 0.0:
        x += gamma * (np.arange(n_steps + 1) / n_steps)
    return x


def _generator(seed, batch_index: int) -> np.random.Generator:
    """The generator of batch ``batch_index``: Philox keyed by ``seed``."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, batch_index]))


def _checked_shocks(shocks, rows: int, n_steps: int) -> np.ndarray:
    """The ``shocks`` test hook as a float ``(rows, n_steps)`` array."""
    eps = np.asarray(shocks, dtype=float)
    if eps.shape != (rows, n_steps):
        raise ValueError(f"shocks must have shape ({rows}, {n_steps})")
    return eps


def _partial_sums(eps, out, gen=None) -> None:
    """Write the driftless sums of the rows of ``eps`` into ``out``.

    ``out`` holds one more column than ``eps``: a leading 0, then
    ``cumsum(eps) / sqrt(N)`` along each row.  With ``gen`` the rows of
    ``eps`` are first drawn from it, row-major, so consecutive calls on
    consecutive rows consume the stream as one whole-batch draw would.
    """
    if gen is not None:
        gen.standard_normal(out=eps)
    out[:, 0] = 0.0
    np.cumsum(eps, axis=1, out=out[:, 1:])
    out[:, 1:] /= math.sqrt(eps.shape[1])


_CHUNK_SHOCKS = 1 << 19
"""Most shocks :func:`batch_extremes` draws and reduces at once (one row at least).

Measured on one desk batch (512 x 5000, five drifts), one process on 2
vCPUs: 2^19-2^20 shocks take 79-90 ms, as fast as the whole batch (84-96
ms); 2^17 take 87-101 ms and 2^15 153 ms, because the pruned reduction has
a fixed cost per chunk."""


def batch_extremes(seed, n_paths: int, n_steps: int, gammas, batch_size: int = 1024,
                   first_batch: int = 0, shocks=None, bridge: bool = True):
    """Extremes of ``n_paths`` paths, drawn batch by batch from ``first_batch`` on.

    Each batch holds ``batch_size`` paths (the last one may hold fewer).  A
    batch is drawn and reduced in chunks of consecutive rows, at most
    ``_CHUNK_SHOCKS`` shocks (or one row) each: a chunk's rows are drawn
    from the batch's generator into one reused shock buffer, summed into one
    reused sums buffer, and reduced at every drift before the next chunk is
    drawn.  The generator is consumed in the order of one whole-batch draw,
    so the stream layout is unchanged.  Besides the returned arrays the
    working set is one chunk, whatever ``n_paths``, ``batch_size``,
    ``n_steps`` (up to ``_CHUNK_SHOCKS``) or the length of the grid.
    ``shocks`` replaces the RNG with a fixed ``(n_paths, n_steps)`` matrix.

    On rows of at least ``_MIN_PRUNED_COLS`` values the reduction works on
    blocks of ``_BLOCK`` columns: the block max and min of the driftless
    sums are taken once per chunk, zero drift reads its extremes off them,
    and every other drift and the bridge evaluate only the blocks that can
    hold an extreme (see :func:`_drifted_extremes`).  Shorter rows are
    reduced whole.  Both give the whole-row extremes bit for bit.

    Returns ``(hlc, xz)``: ``hlc[g]`` holds the rows high, low and close at
    drift ``gammas[g]`` (shape ``(len(gammas), 3, n_paths)``); ``xz`` holds
    the bridge high and low (shape ``(2, n_paths)``), or is None when
    ``bridge`` is false.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    for gamma in gammas:
        _require_finite("batch_extremes", drift=gamma)
    if shocks is not None:
        shocks = _checked_shocks(shocks, n_paths, n_steps)
    tau = np.arange(n_steps + 1) / n_steps
    hlc = np.empty((len(gammas), 3, n_paths))
    xz = np.empty((2, n_paths)) if bridge else None
    chunk = max(1, _CHUNK_SHOCKS // n_steps)
    rows = min(chunk, batch_size, n_paths)
    eps_buf = np.empty((rows, n_steps)) if shocks is None else None
    s_buf = np.empty((rows, n_steps + 1))
    for lo in range(0, n_paths, batch_size):
        hi = min(lo + batch_size, n_paths)
        gen = None if shocks is not None else _generator(seed, first_batch + lo // batch_size)
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            s = s_buf[:b - a]
            _partial_sums(eps_buf[:b - a] if gen is not None else shocks[a:b], s, gen)
            blocks = _block_extremes(s) if n_steps + 1 >= _MIN_PRUNED_COLS else None
            if bridge:
                xz[:, a:b] = _drifted_extremes(s, tau, -s[:, -1:], blocks)
            for g, gamma in enumerate(gammas):
                hlc[g, :2, a:b] = _drifted_extremes(s, tau, gamma, blocks)
                hlc[g, 2, a:b] = s[:, -1] + gamma if gamma != 0.0 else s[:, -1]
    return hlc, xz


# Block width of the pruned reduction and the shortest row it is used on,
# measured on 512-path batches: 64 columns is as fast as 128 on the desk row
# (5001 columns) and faster on shorter ones, and pruning overtakes the
# whole-row reduction between 513 and 601 columns (it is 6x slower at 65).
_BLOCK = 64
_MIN_PRUNED_COLS = 10 * _BLOCK


def _block_extremes(s):
    """First column, last column, max and min of the blocks of the rows of ``s``.

    ``_BLOCK``-column blocks tile each row from column 0; the last block
    holds what is left.
    """
    n_cols = s.shape[1]
    first = np.arange(0, n_cols, _BLOCK)
    last = np.minimum(first + _BLOCK, n_cols) - 1
    return (first, last,
            np.maximum.reduceat(s, first, axis=1), np.minimum.reduceat(s, first, axis=1))


def _drifted_extremes(s, tau, g, blocks):
    """Row max and row min of ``s + tau * g``, for a scalar or a ``(rows, 1)`` ``g``.

    Adding ``tau * -c`` is bit for bit subtracting ``tau * c``, so a column
    ``g = -close`` gives the bridge.  With ``blocks`` (the
    :func:`_block_extremes` of ``s``) only the blocks that can hold an
    extreme are evaluated.  Along a block ``tau * g`` is monotone, and so is
    rounding, so every value in the block lies between its block extreme
    plus the drift term at one end and plus the term at the other.  A block
    is kept unless its bound is beaten by a value some block surely holds;
    ties are kept, so the block holding the extreme always is.  Kept values
    are computed with the same operations as the whole row, and max and min
    are exact, so the result is bit-identical to the whole-row reduction.
    """
    no_drift = np.ndim(g) == 0 and g == 0.0
    if blocks is None:
        x = s if no_drift else s + tau * g
        return x.max(axis=1), x.min(axis=1)
    first, last, b_max, b_min = blocks
    if no_drift:
        return b_max.max(axis=1), b_min.min(axis=1)
    d0, d1 = tau[first] * g, tau[last] * g
    d_lo, d_hi = np.minimum(d0, d1), np.maximum(d0, d1)
    sure_max = (b_max + d_lo).max(axis=1, keepdims=True)
    sure_min = (b_min + d_hi).min(axis=1, keepdims=True)
    # the short last block is read through the last full-width window
    starts = np.minimum(first, s.shape[1] - _BLOCK)
    return (_kept_reduce(np.maximum, s, tau, g, starts, ~(b_max + d_hi < sure_max)),
            _kept_reduce(np.minimum, s, tau, g, starts, ~(b_min + d_lo > sure_min)))


def _kept_reduce(ufunc, s, tau, g, starts, keep):
    """``ufunc``-reduce ``s + tau * g`` over the kept blocks of each row.

    Block ``j`` is read as the ``_BLOCK`` columns from ``starts[j]``; a
    window wider than its block adds only other values of the same row.
    Every row keeps at least one block.  A NaN bound keeps every block of
    its row, so a NaN reaches the result as it would in the whole row.
    """
    rows, cols = np.nonzero(keep)
    cols = starts[cols]
    vals = (sliding_window_view(s, _BLOCK, axis=1)[rows, cols]
            + sliding_window_view(tau, _BLOCK)[cols] * (g if np.ndim(g) == 0 else g[rows]))
    counts = keep.sum(axis=1)
    return ufunc.reduceat(ufunc.reduce(vals, axis=1), np.cumsum(counts) - counts)


def simulate_path(n_steps: int, gamma: float, seed, shocks=None) -> Path:
    """Simulate one canonical path on the grid n/N, n = 0..N.

    Parameters
    ----------
    n_steps : int
        Number of increments N (>= 1).
    gamma : float
        Dimensionless drift of the canonical path.
    seed : int or sequence of int
        Philox key.  The same seed always yields the bit-identical path,
        independent of thread count or call order: row 0 of batch 0.
    shocks : array-like, optional
        Test hook: a fixed eps-sequence of length ``n_steps`` used instead
        of drawing from the RNG.

    Returns
    -------
    Path
    """
    if shocks is not None:
        shocks = np.asarray(shocks, dtype=float)
        if shocks.shape != (n_steps,):
            raise ValueError(f"shocks must have shape ({n_steps},)")
        shocks = shocks[None, :]
    values = batch_paths(seed, 0, 1, n_steps, gamma, shocks)[0]
    return Path(values=values, n_steps=n_steps, gamma=gamma)


def bridge_transform(path: Path) -> Path:
    """Subtract the linear interpolant between the endpoints.

    The result starts and ends at exactly 0 and is invariant under adding
    any linear ramp to the input, which is what makes bridge statistics
    drift-free.
    """
    n = path.n_steps
    tau = np.arange(n + 1) / n
    z = path.values - tau * path.values[-1]
    return Path(values=z, n_steps=n, gamma=0.0)


def extremes(path: Path) -> Extremes:
    """High, low and close of the path."""
    v = path.values
    return Extremes(high=float(v.max()), low=float(v.min()), close=float(v[-1]))


def bridge_extremes(path: Path) -> BridgeExtremes:
    """High and low of the path's bridge."""
    z = bridge_transform(path).values
    return BridgeExtremes(xi=float(z.max()), zeta=float(z.min()))


_GROUP_TICKS = 1 << 20
"""Most gathered ticks :func:`window_extremes` reduces in one array pass."""


def window_extremes(times, log_prices, starts, stops):
    """High, low, close and bridge high and low of every tick window at once.

    Window ``w`` holds ticks ``starts[w]:stops[w]`` of the time-sorted
    arrays ``times`` and ``log_prices``; neighbouring windows may share a
    boundary tick.  Each window is measured from its first log-price, and
    its bridge subtracts the line from its first tick to its last, as in
    :func:`bar_from_samples`.  The gathered windows are reduced with
    ``np.maximum.reduceat`` and ``np.minimum.reduceat``, in groups of
    consecutive windows that gather at most ``_GROUP_TICKS`` ticks (or one
    window), so the per-tick temporaries stay bounded on long files.

    Returns ``(high, low, close, xi, zeta)``, arrays with one entry per window.
    """
    starts = np.asarray(starts, dtype=np.intp)
    stops = np.asarray(stops, dtype=np.intp)
    counts = stops - starts
    if np.any(counts < 2) or not np.all(times[stops - 1] > times[starts]):
        raise ValueError("window ticks must span a positive time interval")
    ends = np.cumsum(counts)
    if not ends.size or ends[-1] <= _GROUP_TICKS:
        return _group_extremes(times, log_prices, starts, stops)
    groups = []
    lo = 0
    while lo < counts.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + _GROUP_TICKS, "right")))
        groups.append(_group_extremes(times, log_prices, starts[lo:hi], stops[lo:hi]))
        lo = hi
    return tuple(np.concatenate(parts) for parts in zip(*groups))


def _group_extremes(times, log_prices, starts, stops):
    """:func:`window_extremes` of checked windows, in one array pass."""
    counts = stops - starts
    first = np.cumsum(counts) - counts
    idx = np.repeat(starts - first, counts)
    idx += np.arange(idx.size)
    y, z = log_prices[idx], times[idx]
    del idx
    y -= np.repeat(log_prices[starts], counts)
    close = y[first + counts - 1]
    # the bridge y - ((t - t0) / span) * close, one in-place step at a time
    z -= np.repeat(times[starts], counts)
    z /= np.repeat(times[stops - 1] - times[starts], counts)
    z *= np.repeat(close, counts)
    np.subtract(y, z, out=z)
    return (np.maximum.reduceat(y, first), np.minimum.reduceat(y, first), close,
            np.maximum.reduceat(z, first), np.minimum.reduceat(z, first))


def bar_from_samples(ticks, window, log_input: bool = False):
    """Build a PhysicalBar plus bridge extremes from sampled (time, price) ticks.

    Parameters
    ----------
    ticks : array-like of shape (n, 2)
        Rows of (timestamp, price).  Timestamps must be non-decreasing.
    window : (t0, t1)
        Only ticks with t0 <= t <= t1 are used; both edges are inclusive so
        a boundary tick can serve as the close of one window and the open
        of the next.
    log_input : bool
        When true the price column already holds log-prices; otherwise
        prices must be positive and are log-transformed.

    Returns
    -------
    (PhysicalBar, BridgeExtremes)
        Log-price increments relative to the first tick in the window, and
        the extremes of those increments after removing the linear
        interpolant between the first and last in-window tick.
    """
    arr = np.asarray(ticks, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("ticks must be a sequence of (time, price) pairs")
    if not np.isfinite(arr).all():
        raise ValueError("ticks must hold finite times and prices")
    t, p = arr[:, 0], arr[:, 1]
    if np.any(np.diff(t) < 0):
        raise ValueError("tick timestamps must be non-decreasing")
    t0, t1 = window
    if not t1 > t0:
        raise ValueError("window must satisfy t1 > t0")
    i, j = int(np.searchsorted(t, t0, side="left")), int(np.searchsorted(t, t1, side="right"))
    if j - i < 2:
        raise ValueError("need at least 2 ticks inside the window")
    logp = p[i:j]
    if not log_input:
        if np.any(logp <= 0.0):
            raise ValueError("prices must be positive unless log_input is set")
        logp = np.log(logp)
    high, low, close, xi, zeta = (float(v[0]) for v in window_extremes(t[i:j], logp, [0], [j - i]))
    return PhysicalBar(high, low, close, horizon=t1 - t0), BridgeExtremes(xi, zeta)
