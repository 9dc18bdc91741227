"""Timings scaled to a fixed host speed by a reference kernel.

The benchmark runs on shared hosts whose speed drifts by up to about 1.6x
over minutes, because other tenants load the same cores; the drift moves every
wall time of a run together and swamps the differences between two versions
of rangevol.  So every timed call is bracketed by a reference kernel -- plain
Python and numpy work that never touches rangevol -- and reported in
*reference seconds*:

    scaled = raw * REF_NOMINAL_S / reference

the time the call would take on a host that runs the reference kernel in
``REF_NOMINAL_S``.  A change to rangevol moves ``raw`` and not ``reference``;
a change of host speed moves both.  ``reference`` is the mean of the kernel's
times just before and just after the call.  Raw times go to the run record.
"""

from __future__ import annotations

import time

import numpy as np

# The reference kernel's time on an idle core of a 2.0 GHz Xeon host.
REF_NOMINAL_S = 0.066
_KEYS = np.random.default_rng(0).standard_normal(1 << 20)


def _kernel() -> None:
    # Interpreter work like rangevol's Python loops and scipy callbacks ...
    table = {}
    x = 0.0
    for i in range(225_000):
        x = (x * 1.0000001 + i) % 97.0
        table[i & 1023] = x
    # ... and compiled array work like its numpy kernels.
    for _ in range(3):
        np.sort(_KEYS)


def reference_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Stage:
    """Raw and scaled time of the calls that make up one timed stage.

    Consecutive calls share the reference run between them; pass the previous
    stage as ``after`` to share the one at the boundary too.
    """

    def __init__(self, after: Stage | None = None):
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.last_ref_s = after.last_ref_s if after is not None else None

    def run(self, fn, *args, **kwargs):
        before = self.last_ref_s if self.last_ref_s is not None else reference_s()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        self.last_ref_s = reference_s()
        self.raw_s += raw
        self.scaled_s += raw * REF_NOMINAL_S / (0.5 * (before + self.last_ref_s))
        return result
