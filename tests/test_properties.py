"""Property tests at quick-tier sizes: invariances the exact values must keep."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangevol import EstimatorKind, GarmanKlassVariant, analytics, densities, paths
from rangevol.estimators import estimator_value
from rangevol.montecarlo import _Cells

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
    acc = _Cells()
    if values:
        acc.merge(_Cells.of(np.array([values]), edges))
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

    assert left.n == right.n == len(a + b + c)
    if left.n == 0:
        return
    assert np.array_equal(left.in_band, right.in_band)
    assert np.array_equal(left.counts, right.counts)
    assert left.counts.sum() == left.n
    scale = 1.0 + max(map(abs, a + b + c))
    for k, name in enumerate(("mean", "m2", "m3", "m4"), start=1):
        tol = 1e-10 * (left.n if k > 1 else 1) * scale**k
        assert abs(getattr(left, name)[0] - getattr(right, name)[0]) <= tol, name


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


finite = st.floats(allow_nan=False, allow_infinity=False)
drift = st.floats(-1e3, 1e3)  # far past the paper's; from about 1e8 the closed forms cancel
DENSITIES = (  # each public scalar density, its point arguments, and whether a drift follows
    (densities.close_pdf, 1, True), (densities.high_pdf, 1, True),
    (densities.high_close_joint_pdf, 2, True), (densities.hlc_joint_pdf, 3, True),
    (densities.range_close_joint_pdf, 2, True), (densities.range_pdf, 1, True),
    (densities.bridge_hl_joint_pdf, 2, False), (densities.bridge_range_pdf, 1, False),
    (densities.parkinson_estimator_pdf, 1, True), (densities.bridge_estimator_pdf, 1, False),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_public_densities_are_finite_and_nonnegative(data):
    # every point argument over the whole finite float range
    for density, points, drifted in DENSITIES:
        args = data.draw(st.tuples(*[finite] * points, *[drift] * drifted), label=density.__name__)
        value = density(*args)
        value = value if isinstance(value, float) else value.value
        assert math.isfinite(value) and value >= 0.0, (density.__name__, args, value)


@QUICK
@given(points=st.lists(st.floats(allow_nan=False), max_size=40), gamma=drift)
def test_range_law_cdfs_are_monotone_in_the_unit_interval(points, gamma):
    # the array laws and the estimator CDFs on them, with +-inf always included;
    # the dual and image forms meet at d = 1.5 to within 1e-14
    x = np.sort(np.array(points + [-math.inf, math.inf]))
    for kind in (EstimatorKind.PARKINSON, EstimatorKind.BRIDGE):
        law, _ = densities._range_law(kind, gamma)
        for cdf in (law(x, density=False), analytics._estimator_cdf(kind, gamma, x, None)):
            assert cdf[0] == 0.0 and cdf[-1] == 1.0
            assert np.all((cdf >= 0.0) & (cdf <= 1.0)) and np.all(np.diff(cdf) >= -1e-14)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(0.01, 20.0), gamma=st.floats(-3.0, 3.0))
def test_one_point_densities_are_the_array_law(x, gamma):
    # each scalar range and estimator density reads the form of the array
    # law that holds at its range, with that form's term count (no range
    # here reaches a law's cut, 40 or more)
    def expect(law, d):
        terms = (0 if d < densities._LOW else densities._DUAL_A.size
                 if d <= densities._SWITCH else densities._IMAGE_SHELLS)
        return float(law(np.array([d]), density=True)[0]), terms

    for kind in (EstimatorKind.PARKINSON, EstimatorKind.BRIDGE):
        law, alpha = densities._range_law(kind, gamma)
        if kind is EstimatorKind.PARKINSON:
            ranged = densities.range_pdf(x, gamma)
            estimator = densities.parkinson_estimator_pdf(x, gamma)
        else:
            ranged, estimator = densities.bridge_range_pdf(x), densities.bridge_estimator_pdf(x)
        value, terms = expect(law, x)
        scaled, scaled_terms = expect(law, math.sqrt(alpha * x))
        for got, want, n in ((ranged, value, terms),
                             (estimator, math.sqrt(alpha / (4.0 * x)) * scaled, scaled_terms)):
            assert got.value == pytest.approx(want, rel=1e-15, abs=0.0), (kind, got, want)
            assert got.terms_used == n and got.converged and not got.clamped, (kind, got)
