import warnings

import numpy as np
import pytest

from switchem import (
    ConfigError,
    EmConfig,
    H_n,
    SimulationConfig,
    SmoothedPairProbs,
    Theta,
    em_fit,
    first_order_step,
    grad_H,
    hessian_H,
    newton_step,
    quadratic_error,
    simulate_path,
    smooth_regimes,
    sort_regimes,
    termination_stat,
    update_generator,
    validate_generator,
)

from oracles import loop_update_rates

BENCH_Q = [[-0.009, 0.009], [0.005, -0.005]]


@pytest.fixture(scope="module")
def short_path():
    theta = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
    g = validate_generator(BENCH_Q)
    cfg = SimulationConfig(theta, 0.3, g, 100.0, 0.1, seed=31)
    obs, _, _ = simulate_path(cfg)
    return theta, g, obs


class TestEmConfig:
    def test_rejects_unknown_termination(self):
        with pytest.raises(ConfigError):
            EmConfig(termination="D4")

    def test_rejects_nonpositive_lower_bounds(self):
        with pytest.raises(ConfigError):
            EmConfig(delta_box=(0.0, 5.0))

    def test_initial_theta_explicit(self):
        cfg = EmConfig(theta0=(6.0, 3.0, 2.0, 1.0))
        t = cfg.initial_theta(2)
        np.testing.assert_array_equal(t.to_vector(), [6.0, 3.0, 2.0, 1.0])
        with pytest.raises(ConfigError):
            cfg.initial_theta(3)

    @pytest.mark.parametrize(
        "key,pair",
        [
            ("init_b_range", (1.0, 0.0)),
            ("init_lambda_range", (float("nan"), 1.0)),
            ("init_delta_range", (0.5, float("nan"))),
            ("init_lambda_range", (-2.0, -1.0)),
            ("init_delta_range", (-1.0, 0.0)),
            ("init_lambda_range", (-1e6, 1e-6)),
            ("init_delta_range", (-1.0, 1.0)),
        ],
    )
    def test_rejects_init_ranges_it_cannot_draw_from(self, key, pair):
        # a lam or delta range without positive values would redraw forever,
        # and one with a negative low may redraw practically forever
        with pytest.raises(ConfigError, match=key):
            EmConfig(init_seed=1, **{key: pair})

    def test_check_sizes_rejects_nan_filter_probs(self):
        with pytest.raises(ConfigError, match="initial filter probabilities invalid"):
            EmConfig(initial_filter_probs=(float("nan"), 1.0)).check_sizes(2)

    def test_initial_theta_random_in_ranges(self):
        cfg = EmConfig(init_seed=2)
        for _ in range(5):
            t = cfg.initial_theta(2)
            assert np.all((t.b >= 0.0) & (t.b <= 10.0))
            assert 0.0 < t.lam <= 10.0
            assert 0.0 < t.delta <= 5.0


class TestSteps:
    def test_first_order_moves_uphill(self, short_path):
        theta_true, g, obs = short_path
        theta = Theta(np.array([5.0, 2.0]), 1.0, 2.0)
        cfg = EmConfig()
        fs, _, w = smooth_regimes(theta, g, obs)
        grad = grad_H(theta, obs, w)
        new = first_order_step(theta, grad, cfg.rho, cfg.theta_boxes(2))
        assert H_n(new, fs.kernel, obs, w) >= H_n(theta, fs.kernel, obs, w)

    def test_first_order_respects_boxes(self):
        theta = Theta(np.array([9.9]), 1.0, 1.0)
        boxes = (np.array([-10.0, 1e-6, 1e-6]), np.array([10.0, 20.0, 10.0]))
        new = first_order_step(theta, np.array([1e9, 0.0, 0.0]), 1e-4, boxes)
        assert new.b[0] == 10.0

    def test_newton_step_solves_linear_system(self):
        theta = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        hess = -(a @ a.T + 4.0 * np.eye(4))  # concave quadratic model
        grad = rng.standard_normal(4)
        boxes = (np.full(4, -100.0), np.full(4, 100.0))
        new, failed = newton_step(theta, grad, hess, boxes)
        assert not failed
        expected = theta.to_vector() + np.linalg.solve(hess, -grad)
        np.testing.assert_allclose(new.to_vector(), expected, rtol=1e-12)

    def test_newton_mode_in_em_falls_back_safely(self, short_path):
        # far from the optimum raw Newton diverges; the EM loop must catch
        # the non-improving step and take the gradient step instead
        _, g, obs = short_path
        cfg = EmConfig(
            epsilon=0.02, rho=1e-4, m_step="newton", theta0=(5.0, 2.0, 1.0, 2.5)
        )
        res = em_fit(obs, g, cfg)
        assert res.status in ("converged", "max_iters_reached")
        assert all(np.isfinite(r.h_before) for r in res.trace)
        assert any(r.used_fallback for r in res.trace)

    def test_newton_flags_singular(self):
        theta = Theta(np.array([1.0]), 1.0, 1.0)
        boxes = (np.full(3, -10.0), np.full(3, 10.0))
        _, failed = newton_step(theta, np.ones(3), np.zeros((3, 3)), boxes)
        assert failed


class TestTerminationStat:
    def test_values(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, 2.5])
        assert termination_stat("D3", a, b, -10.0, -9.0) == pytest.approx(0.5)
        assert termination_stat("D2", a, b, -10.0, -9.0) == pytest.approx(
            0.5 / np.sqrt(5.0)
        )
        assert termination_stat("D1", a, b, -10.0, -9.0) == pytest.approx(0.1)

    def test_d2_zero_denominator_warns(self):
        with pytest.warns(RuntimeWarning):
            v = termination_stat("D2", np.zeros(2), np.ones(2), -1.0, -1.0)
        assert v == pytest.approx(np.sqrt(2.0))


class TestEmFit:
    def test_recovers_parameters_roughly(self, short_path):
        theta_true, g, obs = short_path
        res = em_fit(obs, g, EmConfig(epsilon=0.02, rho=1e-4, theta0=(5.0, 2.0, 1.0, 2.0)))
        assert res.status in ("converged", "max_iters_reached")
        est = sort_regimes(res.theta)
        assert abs(est.b[0] - 6.0) < 1.0
        assert abs(est.b[1] - 3.0) < 1.0

    def test_trace_contents(self, short_path):
        _, g, obs = short_path
        res = em_fit(obs, g, EmConfig(max_iters=5, theta0=(5.0, 2.0, 1.0, 2.0)))
        assert [r.iteration for r in res.trace] == [1, 2, 3, 4, 5]
        assert all(np.isfinite(r.h_before) for r in res.trace)
        assert all(r.stat >= 0.0 for r in res.trace)

    def test_no_ascent_violations_at_small_rho(self, short_path):
        _, g, obs = short_path
        res = em_fit(
            obs, g, EmConfig(epsilon=0.02, rho=2.5e-5, theta0=(5.0, 2.0, 1.0, 2.0))
        )
        assert res.ascent_violations == 0

    def test_deterministic(self, short_path):
        _, g, obs = short_path
        r1 = em_fit(obs, g, EmConfig(max_iters=10, init_seed=4))
        r2 = em_fit(obs, g, EmConfig(max_iters=10, init_seed=4))
        np.testing.assert_array_equal(r1.theta.to_vector(), r2.theta.to_vector())

    def test_update_q_moves_generator(self, short_path):
        _, g, obs = short_path
        res = em_fit(
            obs,
            g,
            EmConfig(max_iters=5, update_q=True, theta0=(6.0, 3.0, 2.0, 1.0)),
        )
        assert not np.array_equal(res.generator.q, np.asarray(BENCH_Q))
        np.testing.assert_allclose(res.generator.q.sum(axis=1), 0.0, atol=1e-12)


class TestUpdateGenerator:
    def test_matches_weight_row_normalization(self, short_path):
        _, g, obs = short_path
        theta = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
        _, _, w = smooth_regimes(theta, g, obs)
        g2 = update_generator(g, w, obs.h)
        tot = w.w.sum(axis=0)
        a_row = tot[0] / tot[0].sum()
        assert g2.q[0, 1] == pytest.approx(a_row[1] / obs.h)

    def test_zero_weight_row_keeps_its_rates(self):
        g = validate_generator(
            [[-0.02, 0.01, 0.01], [0.03, -0.05, 0.02], [0.004, 0.006, -0.01]]
        )
        w = np.zeros((3, 3, 3))
        w[:, 0, 0], w[:, 0, 2], w[:, 2, 1] = 0.5, 0.3, 0.2
        g2 = update_generator(g, SmoothedPairProbs(w), 0.1)
        np.testing.assert_array_equal(g2.q[1], g.q[1])
        np.testing.assert_array_equal(g2.q[2], [0.0, 10.0, -10.0])

    def test_matches_row_loop_reference(self):
        rng = np.random.default_rng(11)
        for n_states in (2, 3, 5) * 4:
            q = rng.uniform(0.0, 0.05, (n_states, n_states))
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, -q.sum(axis=1))
            g = validate_generator(q)
            w = rng.uniform(size=(30, n_states, n_states))
            w[:, rng.integers(n_states)] = 0.0  # one row without weight
            w /= w.sum(axis=(1, 2), keepdims=True)
            h = float(rng.uniform(0.05, 0.5))
            got = update_generator(g, SmoothedPairProbs(w), h)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = validate_generator(loop_update_rates(g.q, w, h))
            np.testing.assert_array_equal(got.q, want.q)


class TestHelpers:
    def test_sort_regimes(self):
        theta = Theta(np.array([1.0, 7.0, 4.0]), 2.0, 1.0)
        s = sort_regimes(theta)
        np.testing.assert_array_equal(s.b, [7.0, 4.0, 1.0])

    def test_quadratic_error(self):
        a = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
        b = Theta(np.array([5.0, 3.5]), 1.0, 0.5)
        np.testing.assert_allclose(quadratic_error(a, b), [1.0, 0.25, 1.0, 0.25])

    def test_random_theta0_positive(self):
        for seed in range(20):
            t = EmConfig(init_seed=seed).initial_theta(2)
            assert t.lam > 0.0 and t.delta > 0.0
