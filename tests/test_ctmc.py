import dataclasses
import warnings

import numpy as np
import pytest

from switchem import (
    ConfigError,
    SmoothedPairProbs,
    simulate_chain,
    transition_matrix_approx,
    update_generator,
    validate_generator,
)

from oracles import pair_stats

BENCH_Q = [[-0.009, 0.009], [0.005, -0.005]]


class TestValidateGenerator:
    def test_accepts_valid(self):
        g = validate_generator(BENCH_Q)
        assert g.n_states == 2
        np.testing.assert_allclose(g.q.sum(axis=1), 0.0, atol=1e-15)

    def test_n_states_follows_q(self):
        # n_states is read from q, not stored beside it
        g = validate_generator([[-1.0, 0.5, 0.5], [0.0, -2.0, 2.0], [1.0, 1.0, -2.0]])
        assert [f.name for f in dataclasses.fields(g)] == ["q"]
        assert g.n_states == g.q.shape[0] == 3
        w = np.full((3, 3, 4), 1.0 / 9.0)
        assert update_generator(g, SmoothedPairProbs(*pair_stats(w)), 0.1).n_states == 3

    def test_rejects_nonsquare(self):
        with pytest.raises(ConfigError):
            validate_generator([[-1.0, 1.0]])

    def test_accepts_single_state(self):
        g = validate_generator([[0.0]])
        assert g.n_states == 1

    @pytest.mark.parametrize("q", [[], [[]], np.zeros((0, 0))])
    def test_rejects_empty(self, q):
        with pytest.raises(ConfigError):
            validate_generator(q)

    def test_rejects_negative_offdiagonal(self):
        with pytest.raises(ConfigError, match=r"q\[1,2\]"):
            validate_generator([[1.0, -1.0], [2.0, -2.0]])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ConfigError, match="row 2"):
            validate_generator([[-1.0, 1.0], [1.0, -2.0]])

    def test_warns_on_absorbing_state(self):
        with pytest.warns(RuntimeWarning, match="absorbing"):
            validate_generator([[0.0, 0.0], [1.0, -1.0]])

    def test_single_state_is_not_flagged_absorbing(self):
        # a one-state chain has nowhere to go, so it raises no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = validate_generator([[0.0]])
        assert g.q.tolist() == [[0.0]]

    def test_result_is_readonly(self):
        g = validate_generator(BENCH_Q)
        with pytest.raises(ValueError):
            g.q[0, 0] = 5.0

    def test_max_step(self):
        g = validate_generator(BENCH_Q)
        assert g.max_step() == pytest.approx(1.0 / 0.009)


class TestTransitionKernel:
    def test_entries(self):
        g = validate_generator(BENCH_Q)
        h = 0.1
        a = transition_matrix_approx(g, h)
        # stay probability 1 + q_11 h with q_11 = -0.009
        assert a[0, 0] == pytest.approx(0.9991, abs=1e-12)
        assert a[0, 1] == pytest.approx(0.0009, abs=1e-12)
        assert a[1, 0] == pytest.approx(0.0005, abs=1e-12)

    def test_kernel_is_identity_plus_qh(self):
        rng = np.random.default_rng(3)
        eps = np.finfo(float).eps
        for _ in range(20):
            n = int(rng.integers(2, 6))
            q = rng.uniform(0.0, 0.7, (n, n))
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, -q.sum(axis=1))
            g = validate_generator(q)
            a = transition_matrix_approx(g, 0.31)
            assert np.array_equal(a, np.eye(n) + g.q * 0.31)
            assert np.all(np.abs(a.sum(axis=1) - 1.0) <= n * eps)

    def test_exit_rate_at_step_bound_gives_no_negative_entry(self):
        # a generator row reached by EM generator updates: 1 + q_11*h
        # rounds to exactly 0 at h = 0.1
        g = validate_generator([
            [-10.0, 9.995196389104132, 0.004803610895868315],
            [7.842573840070078e-37, -0.023259082536973927, 0.023259082536973927],
            [0.0011539583584654295, 0.021335322807412477, -0.02248928116587791],
        ])
        a = transition_matrix_approx(g, 0.1)
        assert a[0, 0] == 0.0
        assert np.all((a >= 0.0) & (a <= 1.0))
        assert np.all(np.abs(a.sum(axis=1) - 1.0) <= 3 * np.finfo(float).eps)

    def test_step_guard(self):
        g = validate_generator([[-3.0, 3.0], [1.0, -1.0]])
        with pytest.raises(ConfigError, match="state 1"):
            transition_matrix_approx(g, 0.5)


class TestSimulateChain:
    def test_deterministic_given_seed(self):
        g = validate_generator(BENCH_Q)
        p1 = simulate_chain(g, 0.01, 5000, 1, np.random.default_rng(9))
        p2 = simulate_chain(g, 0.01, 5000, 1, np.random.default_rng(9))
        np.testing.assert_array_equal(p1.states, p2.states)

    def test_labels_and_shape(self):
        g = validate_generator(BENCH_Q)
        p = simulate_chain(g, 0.01, 1000, 2, np.random.default_rng(0))
        assert p.states.shape == (1001,)
        assert p.states[0] == 2
        assert set(np.unique(p.states)) <= {1, 2}

    def test_stationary_occupancy(self):
        # stationary distribution of the two-state chain is
        # (q21, q12) / (q12 + q21) = (5/14, 9/14)
        g = validate_generator(BENCH_Q)
        p = simulate_chain(g, 0.1, 1_000_000, 1, np.random.default_rng(2024))
        frac1 = np.mean(p.states == 1)
        assert frac1 == pytest.approx(5.0 / 14.0, abs=0.02)

    def test_holding_time_mean(self):
        # mean holding time in state 1 is 1/q12; estimate from sojourns
        g = validate_generator([[-0.5, 0.5], [0.5, -0.5]])
        p = simulate_chain(g, 0.01, 400_000, 1, np.random.default_rng(7))
        changes = np.flatnonzero(np.diff(p.states) != 0)
        sojourns = np.diff(changes) * p.step
        assert np.mean(sojourns) == pytest.approx(2.0, rel=0.05)

    def test_absorbing_state_stays(self):
        with pytest.warns(RuntimeWarning):
            g = validate_generator([[0.0, 0.0], [1.0, -1.0]])
        p = simulate_chain(g, 0.1, 100, 1, np.random.default_rng(1))
        assert np.all(p.states == 1)

    def test_rejects_bad_initial(self):
        g = validate_generator(BENCH_Q)
        with pytest.raises(ConfigError):
            simulate_chain(g, 0.1, 10, 3, np.random.default_rng(0))
