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

:func:`_sum_chunks` is the one place that draws: it yields the driftless
sums of consecutive batches in chunks of at most a given number of rows of
one batch, drawn into one reused shock buffer and summed into one reused
sums buffer.  The chunks consume each batch's generator in the order of one
whole-batch draw, so the chunk size never changes a number.  Its callers
add the drift: :func:`batch_extremes` reduces each chunk to its extremes at
a drift grid, ``simulate --emit-ticks`` turns chunks into ticks, and
:func:`simulate_path` is row 0 of batch 0.  Changing any step above changes
every seeded result; ``tests/test_stream_layout.py`` pins the layout.

:func:`batch_extremes` takes chunks of at most ``_CHUNK_SHOCKS`` shocks
(or one row), so besides its results its working set depends on neither
``n_paths``, ``batch_size`` nor ``n_steps`` (up to ``_CHUNK_SHOCKS``
steps).

The reduction to extremes is block-pruned on long rows: the driftless sums
are reduced to per-block extremes once per chunk, and each drift (and the
bridge) evaluates only the blocks whose bound can hold the row's extreme.
It is exact -- every value it keeps is computed with the same operations
as the whole row, and max and min do not round -- so it returns the
whole-row extremes bit for bit and leaves the stream layout unchanged.

Observed ticks take the same shape: :func:`window_extremes` is the one
reduction of tick windows to their high, low, close and bridge extremes,
all windows in one array pass.  A caller picks its windows with
``np.searchsorted`` on the tick times, as ``rangevol estimate`` does, and
checks the ticks itself (finite, time-sorted, positive prices before the
log); one window is the case of one start and one stop.
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
    "simulate_path",
    "batch_extremes",
    "bridge_transform",
    "extremes",
    "bridge_extremes",
    "window_extremes",
]


def _require_finite(context: str, **args) -> None:
    """Raise ``ValueError`` naming the first non-finite argument (float or array)."""
    for name, value in args.items():
        if not (math.isfinite(value) if type(value) is float else np.isfinite(value).all()):
            first = float(np.asarray(value)[~np.isfinite(value)][0])
            raise ValueError(f"{context}: {name} must be finite, got {first!r}")


def _require_finite_table(values, names, where) -> None:
    """Raise ``ValueError`` naming the first non-finite entry of ``values``, one
    row per statistic in ``names`` and one column per table row, which
    ``where(i)`` describes."""
    bad = ~np.isfinite(values)
    if bad.any():
        j, i = np.argwhere(bad)[0]
        raise ValueError(f"{where(i)}: {names[j]} is {float(values[j, i])!r}, not finite")


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


def _sum_chunks(seed, n_paths: int, n_steps: int, batch_size: int, rows: int,
                first_batch: int = 0, shocks=None):
    """The driftless sums of ``n_paths`` paths, as ``(first_row, sums)`` for
    each chunk of at most ``rows`` consecutive rows of one batch.

    The rows from ``b * batch_size`` on are batch ``first_batch + b`` of
    the stream, drawn from Philox keyed by ``seed`` with counter
    ``[0, 0, 0, first_batch + b]``.  A chunk's shocks are the next rows of
    its batch's generator, so the chunks consume it as one whole-batch draw
    would.  ``sums`` holds a leading 0, then ``cumsum(eps) / sqrt(N)`` along
    each row.  ``shocks`` is a test hook: a float ``(n_paths, n_steps)``
    matrix used instead of the generators.

    Every chunk is drawn into one reused shock buffer and summed into one
    reused sums buffer, so the next chunk overwrites ``sums``: a caller that
    keeps it copies it.  A generator's body runs only at the first
    ``next()``, so callers check their arguments before they call.
    """
    size = min(rows, batch_size, n_paths)
    eps = np.empty((size, n_steps)) if shocks is None else None
    buf = np.empty((size, n_steps + 1))
    for lo in range(0, n_paths, batch_size):
        hi = min(lo + batch_size, n_paths)
        if shocks is None:
            gen = np.random.Generator(
                np.random.Philox(key=seed, counter=[0, 0, 0, first_batch + lo // batch_size]))
        for a in range(lo, hi, rows):
            sums = buf[:min(rows, hi - a)]
            if shocks is None:
                e = gen.standard_normal(out=eps[:len(sums)])
            else:
                e = shocks[a:a + len(sums)]
            sums[:, 0] = 0.0
            np.cumsum(e, axis=1, out=sums[:, 1:])
            sums[:, 1:] /= math.sqrt(n_steps)
            yield a, sums


_CHUNK_SHOCKS = 1 << 19
"""Most shocks :func:`batch_extremes` draws and reduces at once (one row at least).

Measured on one desk batch (512 x 5000, five drifts), one process on 2
vCPUs: 2^19-2^20 shocks take 79-90 ms, as fast as the whole batch (84-96
ms); 2^17 take 87-101 ms and 2^15 153 ms, because the pruned reduction has
a fixed cost per chunk."""


def batch_extremes(seed, n_paths: int, n_steps: int, gammas, batch_size: int = 1024,
                   first_batch: int = 0, shocks=None, bridge: bool = True):
    """Extremes of ``n_paths`` paths, drawn batch by batch from ``first_batch`` on.

    Each batch holds ``batch_size`` paths (the last one may hold fewer).
    The batches are drawn by :func:`_sum_chunks` in chunks of at most
    ``_CHUNK_SHOCKS`` shocks (or one row), and each chunk is reduced at
    every drift before the next is drawn.  Besides the returned arrays the
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
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    for gamma in gammas:
        _require_finite("batch_extremes", drift=gamma)
    if shocks is not None:
        shocks = np.asarray(shocks, dtype=float)
        if shocks.shape != (n_paths, n_steps):
            raise ValueError(f"shocks must have shape ({n_paths}, {n_steps})")
    tau = np.arange(n_steps + 1) / n_steps
    hlc = np.empty((len(gammas), 3, n_paths))
    xz = np.empty((2, n_paths)) if bridge else None
    for a, s in _sum_chunks(seed, n_paths, n_steps, batch_size,
                            max(1, _CHUNK_SHOCKS // n_steps), first_batch, shocks):
        b = a + len(s)
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
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    _require_finite("simulate_path", drift=gamma)
    if shocks is not None:
        shocks = np.asarray(shocks, dtype=float)
        if shocks.shape != (n_steps,):
            raise ValueError(f"shocks must have shape ({n_steps},)")
        shocks = shocks[None, :]
    _, s = next(_sum_chunks(seed, 1, n_steps, 1, 1, shocks=shocks))
    values = s[0] if gamma == 0.0 else s[0] + gamma * (np.arange(n_steps + 1) / n_steps)
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
    its bridge subtracts the line from its first tick to its last.  The
    gathered windows are reduced with
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

