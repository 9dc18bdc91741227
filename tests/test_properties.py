"""Property tests at quick-tier sizes: invariances the exact values must keep."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
drift = st.floats(-1e3, 1e3)  # far past the paper's; the range laws lose digits from 1e5
DENSITIES = (  # each public density, its point arguments, whether a drift follows, and
    # whether it is one code path at floats and arrays (the closed forms and joint laws)
    (densities.close_pdf, 1, True, True), (densities.high_pdf, 1, True, True),
    (densities.high_close_joint_pdf, 2, True, True), (densities.hlc_joint_pdf, 3, True, True),
    (densities.range_close_joint_pdf, 2, True, True), (densities.range_pdf, 1, True, False),
    (densities.bridge_hl_joint_pdf, 2, False, True), (densities.bridge_range_pdf, 1, False, False),
    (densities.parkinson_estimator_pdf, 1, True, False),
    (densities.bridge_estimator_pdf, 1, False, False),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_public_densities_are_finite_and_nonnegative(data):
    # every point argument over the whole finite float range
    for density, points, drifted, _ in DENSITIES:
        args = data.draw(st.tuples(*[finite] * points, *[drift] * drifted), label=density.__name__)
        value = density(*args)
        value = value if isinstance(value, float) else value.value
        assert math.isfinite(value) and value >= 0.0, (density.__name__, args, value)


@QUICK
@given(points=st.lists(st.floats(allow_nan=False), max_size=40), gamma=drift)
@example(points=[13.0], gamma=51.234375)
@example(points=[906.7568180355753], gamma=-944.8817735138632)
def test_range_law_cdfs_are_monotone_in_the_unit_interval(points, gamma):
    # the array laws and the estimator CDFs on them, with +-inf always included;
    # the dual and image forms meet at d = 1.5 to within 1e-14; at the examples
    # the CDF underflows and the image sum's round-off fell a few subnormals below 0
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


def _fields(result):
    """(value, terms_used, converged, clamped) of a density's result; close_pdf
    returns its values alone."""
    if isinstance(result, densities.DensityValue):
        return result.value, result.terms_used, result.converged, result.clamped
    return (result,)


# A range law's float route keeps math.exp in its dual's drift factors and
# reduces its bridge terms by one dot product per point, so it may differ
# from the array route by a few units in the last place: 1.2e-15 relative
# at most over about 10^5 random points (drifts within 1e3, ranges up to 50).
RANGE_LAW_ROUTES_REL = 4e-15


@settings(max_examples=100, deadline=None)
@given(data=st.data(), rows=st.integers(1, 3), cols=st.integers(1, 3))
def test_public_densities_on_arrays_are_their_one_point_calls(data, rows, cols):
    # each argument alternates between a column of `rows` and a row of `cols`
    # points, so a call with two or more broadcasts to (rows, cols); the drift
    # of a range law is one float
    point = st.floats(-6.0, 6.0) | finite
    for density, points, drifted, shared in DENSITIES:
        args = []
        for i in range(points + drifted):
            if i == points and not shared:
                args.append(data.draw(drift, label=density.__name__))
                continue
            each = (rows, 1) if i % 2 == 0 else (1, cols)
            values = data.draw(st.lists(point if i < points else drift, min_size=max(each),
                                        max_size=max(each)), label=density.__name__)
            args.append(np.array(values).reshape(each))
        shape = np.broadcast_shapes(*(np.shape(a) for a in args))
        got = _fields(density(*args))
        assert all(np.shape(f) == shape for f in got), (density.__name__, got)
        for index in np.ndindex(shape):
            one = density(*(float(np.broadcast_to(a, shape)[index])
                            if isinstance(a, np.ndarray) else a for a in args))
            want = _fields(one)
            assert type(want[0]) is float, (density.__name__, one)
            where = (density.__name__, index, args)
            if shared:
                assert got[0][index] == want[0], where
            else:
                assert got[0][index] == pytest.approx(want[0], rel=RANGE_LAW_ROUTES_REL,
                                                      abs=0.0), where
            assert [f[index] for f in got[1:]] == list(want[1:]), where


ONE_POINT_LAWS = ((densities.range_pdf, (0.75,)), (densities.parkinson_estimator_pdf, (-1.25,)),
                  (densities.bridge_range_pdf, ()), (densities.bridge_estimator_pdf, ()))


def _forms(x: float) -> tuple[list, list]:
    """A point as scalars (float, numpy and, if whole, int) and as ndarrays (0-d, 1 element)."""
    ints = [int(x), np.int64(x)] if x.is_integer() and abs(x) < 1e9 else []
    return [x, np.float64(x)] + ints, [np.array(x), np.array([x])]


def _raised(density, *args) -> str:
    with pytest.raises(ValueError) as err:
        density(*args)
    return str(err.value)


@pytest.mark.parametrize("density, drift", ONE_POINT_LAWS, ids=lambda v: getattr(v, "__name__", ""))
def test_one_point_route_is_the_array_route(density, drift):
    # a scalar point takes the one-point route as its float, an ndarray the
    # array route: the same value (bit for bit among scalars), flags and errors
    def point(x, *gamma):
        return tuple(np.asarray(f).item() for f in _fields(density(x, *(gamma or drift))))

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for x in (0.3, 1.0, 1.5, 2.0, 3.0, 7.0, 25.0):
            want = point(x)
            assert want[1] > 0 and want[2] and not want[3], want
            scalars, arrays = _forms(x)
            assert [point(a) for a in scalars] == [want] * len(scalars), x
            for a in arrays:
                assert point(a)[0] == pytest.approx(want[0], rel=RANGE_LAW_ROUTES_REL, abs=0.0), x
                assert point(a)[1:] == want[1:], x
        name = density.__name__
        arg = "delta" if name.endswith("range_pdf") else "x"
        for x in (math.nan, math.inf, -math.inf):
            for a in sum(_forms(x), []):
                assert _raised(density, a, *drift) == f"{name}: {arg} must be finite, got {x!r}"
        for x in (0.0, -0.0, 5e-324, -1.0, 1e300, 1e308):
            for a in sum(_forms(x), []):
                assert point(a) == (0.0, 0, True, False), (x, a)
        if not drift:
            return
        for a in sum(_forms(1.0), []):
            assert _raised(density, a, np.array([0.5])) == (
                f"{name}: gamma must be one float, got an array of shape (1,)")
            # past the drift bound the law raises where a kernel runs, and
            # keeps its limits elsewhere
            assert _raised(density, a, 2e5) == str(densities._no_digits(name, 2e5))
        for x in (1e-4, 1e300):
            for a in sum(_forms(x), []):
                assert point(a, 2e5) == (0.0, 0, True, False), (x, a)
