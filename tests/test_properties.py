"""Property tests at quick-tier sizes: invariances the exact values must keep."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rangevol import EstimatorKind, GarmanKlassVariant, paths
from rangevol.estimators import estimator_value
from rangevol.montecarlo import _CellAccumulator

QUICK = settings(max_examples=60, deadline=None)
U = np.finfo(float).eps
TINY = np.finfo(float).tiny


@QUICK
@given(n_steps=st.integers(1, 1500), n_paths=st.integers(1, 5),
       shift=st.floats(-5.0, 5.0), seed=st.integers(0, 2**32 - 1))
def test_bridge_extremes_invariant_to_constant_shock(n_steps, n_paths, shift, seed):
    # a constant added to every shock adds a linear ramp to the path, which
    # the bridge removes; only the rounding of the cumsum may differ
    eps = np.random.default_rng(seed).standard_normal((n_paths, n_steps))
    _, base = paths.batch_extremes(0, n_paths, n_steps, (0.0,), shocks=eps)
    _, ramped = paths.batch_extremes(0, n_paths, n_steps, (0.0,), shocks=eps + shift)
    tol = 8 * U * n_steps * (abs(shift) * math.sqrt(n_steps) + 10.0)
    assert np.max(np.abs(ramped - base)) <= tol


samples = st.lists(st.floats(-10.0, 10.0), max_size=25)


def _accumulated(values, edges):
    acc = _CellAccumulator()
    if values:
        acc.add_samples(np.array(values), edges)
    return acc


@QUICK
@given(a=samples, b=samples, c=samples)
def test_cell_merge_is_associative(a, b, c):
    edges = np.linspace(-8.0, 8.0, 9)
    left = _accumulated(a, edges)
    left.merge(_accumulated(b, edges))
    left.merge(_accumulated(c, edges))
    tail = _accumulated(b, edges)
    tail.merge(_accumulated(c, edges))
    right = _accumulated(a, edges)
    right.merge(tail)

    assert (left.n, left.in_band, left.underflow, left.overflow) == (
        right.n, right.in_band, right.underflow, right.overflow)
    if left.n == 0:
        return
    assert np.array_equal(left.hist, right.hist)
    scale = 1.0 + max(map(abs, a + b + c))
    for k, name in enumerate(("mean", "m2", "m3", "m4"), start=1):
        tol = 1e-10 * (left.n if k > 1 else 1) * scale**k
        assert abs(getattr(left, name) - getattr(right, name)) <= tol, name


extreme = st.floats(0.0, 5.0)


@QUICK
@given(h=extreme, l=extreme, frac=st.floats(0.0, 1.0), xi=extreme, zeta=extreme,
       alpha=st.floats(1e-3, 1e3))
def test_estimators_are_scale_equivariant(h, l, frac, xi, zeta, alpha):
    # every estimator is a quadratic form in the extremes: scaling the path
    # by alpha scales the estimate by alpha^2
    bound = (alpha * max(h, l, xi, zeta)) ** 2
    low, zeta = -l, -zeta
    close = low + frac * (h - low)
    for kind in EstimatorKind:
        for variant in GarmanKlassVariant:
            base = estimator_value(kind, h, low, close, xi, zeta, variant)
            scaled = estimator_value(kind, alpha * h, alpha * low, alpha * close,
                                     alpha * xi, alpha * zeta, variant)
            # the floor covers results that land among the subnormals
            assert abs(scaled - alpha**2 * base) <= 1e-13 * bound + TINY, (kind, variant)
