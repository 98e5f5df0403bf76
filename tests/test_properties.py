"""Property tests: kernel and forward-backward invariants on random generators,
and the scans against the step-by-step loop."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from switchem import (
    ObservationSeries,
    Theta,
    backward_smooth,
    forward_filter,
    transition_matrix_approx,
    validate_generator,
)
from switchem.likelihood import cauchy_density_matrix

from oracles import loop_filter_smoother

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
    g, h = draw(generator_and_step())
    b = draw(st.lists(st.floats(-5.0, 5.0), min_size=g.n_states, max_size=g.n_states))
    lam, delta = draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # coinciding levels
        theta = Theta(np.array(b), lam, delta)
    x = draw(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=30))
    return theta, g, ObservationSeries(np.array(x), h)


@PROPERTY_SETTINGS
@given(generator_and_step())
def test_kernel_rows_are_exact_distributions(gh):
    g, h = gh
    a = transition_matrix_approx(g, h)
    assert np.all((a >= 0.0) & (a <= 1.0))
    for row in a:
        assert row.sum() == 1.0  # exact, not approximate


@PROPERTY_SETTINGS
@given(filter_instance())
def test_filter_carries_the_kernel_and_slices_are_distributions(inst):
    theta, g, obs = inst
    fs = forward_filter(theta, g, obs)
    assert np.array_equal(fs.kernel, transition_matrix_approx(g, obs.h))
    assert np.all(fs.filtered >= 0.0)
    np.testing.assert_allclose(fs.filtered.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    w = backward_smooth(fs).w[1:]
    assert np.all(w >= 0.0)
    np.testing.assert_allclose(w.sum(axis=(1, 2)), 1.0, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(filter_instance())
def test_scans_match_the_loop(inst):
    theta, g, obs = inst
    fs = forward_filter(theta, g, obs)
    ref_filt, ref_w = loop_filter_smoother(
        fs.kernel, cauchy_density_matrix(theta, obs), fs.filtered[0]
    )
    np.testing.assert_allclose(fs.filtered, ref_filt, rtol=0, atol=1e-12)
    np.testing.assert_allclose(backward_smooth(fs).w, ref_w, rtol=0, atol=1e-12)
