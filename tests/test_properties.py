"""Property tests: kernel and forward-backward invariants on random generators,
the scans (smoother and Euler path) against the step-by-step loops, numpy's
regime-axis reductions against a slice-by-slice fold, and the CSV writer
against one format() or str() call per value."""

import sys
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from switchem import (
    CauchyTerms,
    ObservationSeries,
    SmoothedPairProbs,
    Theta,
    backward_smooth,
    euler_path,
    forward_filter,
    transition_matrix_approx,
    update_generator,
    validate_generator,
)
from switchem.cli import _csv_text

from oracles import euler_loop, fold_across, loop_filter_smoother, pair_stats
from test_smoother import pairs_of

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def generator_and_step(draw):
    """A valid N-state generator (N in 2..5) and a step 0 < h <= g.max_step()."""
    n = draw(st.integers(2, 5))
    rate = st.one_of(st.just(0.0), st.floats(1e-6, 5.0))
    q = np.array(draw(st.lists(rate, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # absorbing states
        g = validate_generator(q)
    frac = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1.0)))
    return g, frac * min(g.max_step(), 1.0)


@st.composite
def filter_instance(draw):
    """A filter input: N in 2..5 and n in 2..3000 steps (perfect cubes and
    their neighbours drawn often, so the scan's blocks come out whole, one
    step short or one step over), with observations uniform on [-10, 10]."""
    g, h = draw(generator_and_step())
    b = draw(st.lists(st.floats(-5.0, 5.0), min_size=g.n_states, max_size=g.n_states))
    lam, delta = draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 3.0))
    theta = Theta(np.array(b), lam, delta)
    root = draw(st.integers(2, 14))
    n = draw(st.one_of(
        st.integers(2, 29),
        st.builds(lambda d: root**3 + d, st.integers(-1, 1)),
        st.integers(2, 3000),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return theta, g, ObservationSeries(rng.uniform(-10.0, 10.0, n + 1), h)


@PROPERTY_SETTINGS
@given(generator_and_step())
def test_kernel_rows_are_distributions_up_to_rounding(gh):
    g, h = gh
    a = transition_matrix_approx(g, h)
    assert np.array_equal(a, np.eye(g.n_states) + g.q * h)
    assert np.all((a >= 0.0) & (a <= 1.0))
    assert np.all(np.abs(a.sum(axis=1) - 1.0) <= g.n_states * np.finfo(float).eps)


@st.composite
def weights_without_stay_mass(draw):
    """Pair weights (N, N, n) whose total puts no mass on some row's
    diagonal, and a generator to update with a step h it allows, as in EM,
    where the generator has just built its kernel at h."""
    g, h = draw(generator_and_step())
    n_states = g.n_states
    n = draw(st.integers(1, 4))
    mass = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    w = np.array(draw(st.lists(mass, min_size=n * n_states**2, max_size=n * n_states**2)))
    w = w.reshape(n, n_states, n_states)
    row = draw(st.integers(0, n_states - 1))
    w[:, row, row] = 0.0
    # the row is live and must jump, and every slice has mass to normalize
    w[:, row, (row + 1) % n_states] += 1.0
    w /= w.sum(axis=(1, 2), keepdims=True)
    return g, SmoothedPairProbs(*pair_stats(w.transpose(1, 2, 0))), h


@PROPERTY_SETTINGS
@given(weights_without_stay_mass())
def test_updated_generator_kernel_builds_at_its_step(inst):
    g, w, h = inst
    a = transition_matrix_approx(update_generator(g, w, h), h)
    assert np.all((a >= 0.0) & (a <= 1.0))


@PROPERTY_SETTINGS
@given(filter_instance())
def test_filter_carries_the_kernel_and_slices_are_distributions(inst):
    theta, g, obs = inst
    fs = forward_filter(CauchyTerms(theta, obs), g)
    assert np.array_equal(fs.kernel, transition_matrix_approx(g, obs.h))
    assert np.all(fs.filtered >= 0.0)
    np.testing.assert_allclose(fs.filtered.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    w = pairs_of(fs, backward_smooth(fs))
    assert np.all(w >= 0.0)
    np.testing.assert_allclose(w.sum(axis=(0, 1)), 1.0, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(filter_instance())
def test_scans_match_the_loop(inst):
    theta, g, obs = inst
    fs = forward_filter(CauchyTerms(theta, obs), g)
    ref_filt, ref_w = loop_filter_smoother(
        fs.kernel, CauchyTerms(theta, obs).density, fs.filtered[:, 0]
    )
    np.testing.assert_allclose(fs.filtered, ref_filt, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pairs_of(fs, backward_smooth(fs)), ref_w, rtol=0, atol=1e-12)


@st.composite
def euler_instance(draw):
    """An Euler path input: n in 0..3000 (perfect squares and their
    neighbours drawn often), N in 1..3 and lam*step from 1e-4 to 2.2, so
    c = 1 - lam*step ranges over [0, 1), [-1, 0) and [-1.2, -1)."""
    root = draw(st.integers(0, 54))
    n = draw(st.one_of(
        st.sampled_from([0, 1, 2]),
        st.builds(lambda d: max(root * root + d, 0), st.integers(-1, 1)),
        st.integers(0, 3000),
    ))
    m = draw(st.integers(1, 3))
    step = draw(st.floats(1e-3, 0.1))
    lam_step = draw(st.one_of(st.floats(1e-4, 1.0), st.floats(1.0, 2.2)))
    b = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m)))
    theta = Theta(b, lam_step / step, 1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = rng.integers(1, m + 1, n + 1)
    increments = rng.standard_cauchy(n) * draw(st.floats(1e-4, 1.0))
    x0 = draw(st.floats(-10.0, 10.0))
    return x0, theta, states, increments, step


def magnitude_scale(x0, theta, states, increments, step):
    """max_k y_k for y_0 = |x0|, y_{k+1} = |c| y_k + |lam*step*b(alpha_k)| + |dZ_k|.

    y bounds |X_k| and sets the scale of the rounding error of either
    recursion.  It equals max |X| up to a modest factor unless c < -1 and
    the growing mode cancels, when X can be far smaller than the rounding
    committed while it grew."""
    c = abs(1.0 - theta.lam * step)
    u = np.abs(theta.lam * step * theta.b[states[:-1] - 1]) + np.abs(increments)
    y = top = abs(x0)
    for uk in u:
        y = c * y + uk
        top = max(top, y)
    return top


@PROPERTY_SETTINGS
@given(euler_instance())
def test_euler_scan_matches_the_loop(inst):
    ref = euler_loop(*inst)
    x = euler_path(*inst)
    assert x.shape == ref.shape and x[0] == ref[0]
    np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12 * magnitude_scale(*inst))


def regime_array(elements, ndim, max_states=5):
    """Float arrays whose axis -1 (ndim 2) or axis 1 (ndim 3) has the
    length N of a regime axis, 1..max_states, and whose other axes have
    length 0..4."""
    side = st.integers(0, 4)
    return st.integers(1, max_states).flatmap(lambda n: hnp.arrays(
        np.float64,
        st.tuples(side, st.just(n)) if ndim == 2 else st.tuples(side, st.just(n), side),
        elements=elements,
    ))


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
FINITE = st.floats(-1e6, 1e6)


def assert_same_floats(got, ref):
    """Equal shapes and values, NaN where NaN; signed zeros may differ."""
    assert got.shape == ref.shape
    assert np.array_equal(got, ref, equal_nan=True)


def assert_sum_close(got, ref, terms, n_states):
    """Equal for N <= 2, where both add the same terms in the same order;
    otherwise within N*eps of the sum of magnitudes."""
    if n_states <= 2:
        assert_same_floats(got, ref)
    else:
        bound = n_states * np.finfo(float).eps * terms
        assert got.shape == ref.shape and np.all(np.abs(got - ref) <= bound)


# The smoother stores the regime axes outer (observation axis last) and
# reduces them with numpy's sum and max; over an outer axis numpy combines
# whole slices in order, so its results equal the fold bitwise.


@PROPERTY_SETTINGS
@given(regime_array(ANY_FLOAT, 2))
def test_fold_max_is_the_reduction(x):
    got, ref = x.T.max(axis=0), fold_across(np.maximum, x)
    assert_same_floats(got, ref)
    assert_same_floats(x.max(axis=-1), got)
    real = ~np.isnan(ref)
    assert np.array_equal(np.signbit(got[real]), np.signbit(ref[real]))


@PROPERTY_SETTINGS
@given(regime_array(ANY_FLOAT, 2, max_states=2))
def test_fold_sum_keeps_non_finite_values(x):
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_floats(x.T.sum(axis=0), fold_across(np.add, x))


@PROPERTY_SETTINGS
@given(regime_array(FINITE, 2))
def test_fold_sum_over_the_last_axis(x):
    got, ref = x.sum(axis=-1), fold_across(np.add, x)
    assert_sum_close(got, ref, np.abs(x).sum(axis=-1), x.shape[1])


@PROPERTY_SETTINGS
@given(regime_array(FINITE, 3))
def test_fold_sum_over_the_middle_axis(x):
    got, ref = x.sum(axis=1), fold_across(np.add, x, axis=1)
    assert_same_floats(got, ref)
    # with the regime axis leading, as the smoother stores it
    assert_same_floats(x.swapaxes(0, 1).sum(axis=0), ref)


# floats whose 9-digit text is easy to get wrong: signed zeros, non-finite
# values, subnormals, the float range's ends, exact and inexact half-way
# points, and powers of ten with their lower neighbours
NAMED_FLOATS = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    np.nextafter(2.2250738585072014e-308, 0.0), 1.7e308, -sys.float_info.max,
    999999999.5, 99999.99995, 100000000.5, 0.1234567895, -1.0000000005e-5,
    *(float(f"1e{k}") for k in range(-30, 31)),
    *(np.nextafter(float(f"1e{k}"), 0.0) for k in range(-30, 31)),
]
NAMED_INTS = [0, -1, 7, -12345, 10**9 - 1, 10**9, -(10**9 - 1), -(10**9), 2**53 + 1,
              -(2**53) - 1, 10**18 + 7, 2**63 - 1, -(2**63)]
# the doubles nearest to d.5 units of the 9th significant digit
HALF_WAY = st.builds(lambda d, k: float(f"{d}5e{k}"), st.integers(10**8, 10**9 - 1),
                     st.integers(-335, 300))
CSV_FLOAT = st.one_of(
    ANY_FLOAT,
    st.sampled_from(NAMED_FLOATS),
    HALF_WAY,
    st.builds(np.nextafter, HALF_WAY, st.sampled_from([0.0, np.inf])),
)
CSV_INT = st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(-(10**9) - 5, 10**9 + 5),
                    st.sampled_from(NAMED_INTS))


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(CSV_FLOAT, CSV_INT), max_size=40))
def test_csv_cells_are_format_and_str(rows):
    floats = np.array([x for x, _ in rows], dtype=float)
    ints = np.array([i for _, i in rows], dtype=np.int64)
    assert _csv_text(["x", "i"], [floats, ints]) == "".join(
        ["x,i\n", *(f"{format(x, '.9g')},{i}\n" for x, i in rows)]
    ).encode()


def test_csv_named_cells():
    floats, ints = np.array(NAMED_FLOATS), np.array(NAMED_INTS, dtype=np.int64)
    assert _csv_text(["x"], [floats]).decode().splitlines()[1:] == [
        format(float(x), ".9g") for x in NAMED_FLOATS
    ]
    assert _csv_text(["i"], [ints]).decode().splitlines()[1:] == [str(i) for i in NAMED_INTS]
