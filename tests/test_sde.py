import numpy as np
import pytest

from switchem import (
    ConfigError,
    NigParams,
    SimulationConfig,
    Theta,
    euler_path,
    sample_nig,
    simulate_chain,
    simulate_path,
    validate_generator,
)
from switchem.sde import MAX_FINE_STEPS

from test_acceptance import self_convergence_test

BENCH_Q = [[-0.009, 0.009], [0.005, -0.005]]


def padded_euler_path(x0, theta, states, increments, step):
    """The blocked scan of ``euler_path`` on a zero-padded copy of the noise,
    with the levels indexed by labels - 1."""
    n, lam = increments.shape[0], theta.lam
    bl = max(1, int(np.ceil(np.sqrt(n))))
    nb = -(-n // bl)
    x = np.zeros(nb * bl + 1)
    x[0] = x0
    x[1 : n + 1] = theta.b[states[:-1] - 1]
    drift = x[1:].reshape(nb, bl)
    noise = np.zeros(nb * bl)
    noise[:n] = increments
    noise = noise.reshape(nb, bl)
    c = 1.0 - lam * step
    powers = c ** np.arange(bl - 1, -1, -1.0)
    ends = lam * step * (drift @ powers) + noise @ powers
    starts = np.empty(nb)
    cur, c_block = float(x0), c**bl
    for j in range(nb):
        starts[j] = cur
        cur = c_block * cur + ends[j]
    cur = starts
    for t in range(bl):
        cur = cur + lam * (drift[:, t] - cur) * step + noise[:, t]
        drift[:, t] = cur
    return x[: n + 1]


@pytest.fixture
def bench_cfg():
    theta = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
    g = validate_generator(BENCH_Q)
    return SimulationConfig(theta, 0.3, g, 100.0, 0.1, seed=17)


class TestSimulationConfig:
    def test_defaults(self, bench_cfg):
        assert bench_cfg.n_obs == 1000
        assert bench_cfg.fine_step == pytest.approx(0.01)
        # default initial regime is the one with the largest level b
        assert bench_cfg.initial_state == 1

    def test_rejects_noninteger_grid(self):
        theta = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
        g = validate_generator(BENCH_Q)
        with pytest.raises(ConfigError, match="integer"):
            SimulationConfig(theta, 0.3, g, 100.05, 0.1)

    def test_rejects_step_guard_violation(self):
        theta = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
        g = validate_generator([[-30.0, 30.0], [10.0, -10.0]])
        with pytest.raises(ConfigError, match="step"):
            SimulationConfig(theta, 0.3, g, 10.0, 0.5, fine_factor=10)

    @pytest.mark.parametrize("lam,stable", [(199.99, True), (200.0, False), (1e-300, True)])
    def test_euler_stability_bound(self, lam, stable):
        # fine step 0.01: |1 - lam*step| < 1 iff lam*step < 2; at 1e-300,
        # 1 - lam*step rounds to 1.0, yet the recursion does not diverge
        theta = Theta(np.array([6.0, 3.0]), lam, 1.0)
        g = validate_generator(BENCH_Q)
        if stable:
            SimulationConfig(theta, 0.3, g, 10.0, 0.1, fine_factor=10)
        else:
            with pytest.raises(ConfigError, match=r"simulation\.lambda \* fine step"):
                SimulationConfig(theta, 0.3, g, 10.0, 0.1, fine_factor=10)

    def test_accepts_fine_step_at_the_chain_bound(self):
        # fine step 1/10 = 1/max exit rate gives 1 + q_11*h = 0, the bound
        # the chain kernel admits: the chain leaves state 1 at every step
        theta = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
        g = validate_generator([[-10.0, 10.0], [1.0, -1.0]])
        cfg = SimulationConfig(theta, 0.3, g, 10.0, 1.0, fine_factor=10, seed=5)
        obs, _, fine = simulate_path(cfg)
        assert obs.n == 10
        assert not np.any((fine.states[:-1] == 1) & (fine.states[1:] == 1))

    @pytest.mark.parametrize(
        "horizon_t,fine_factor,fits",
        [
            (50.0, MAX_FINE_STEPS // 500, True),
            (50.0, MAX_FINE_STEPS // 500 + 1, False),
            (50.0, 10**9, False),
            (50.0, 10**18, False),
            (1e12, 1, False),
        ],
    )
    def test_fine_grid_bound(self, horizon_t, fine_factor, fits):
        # checked at construction, which allocates nothing; n_obs = 500 at T = 50
        theta = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
        g = validate_generator(BENCH_Q)
        if fits:
            cfg = SimulationConfig(theta, 0.3, g, horizon_t, 0.1, fine_factor=fine_factor)
            assert cfg.n_obs * cfg.fine_factor == MAX_FINE_STEPS
        else:
            with pytest.raises(ConfigError, match=f"steps, more than {MAX_FINE_STEPS}$"):
                SimulationConfig(theta, 0.3, g, horizon_t, 0.1, fine_factor=fine_factor)

    def test_dimension_mismatch(self):
        theta = Theta(np.array([6.0, 3.0, 1.0]), 2.0, 1.0)
        with pytest.raises(ConfigError):
            SimulationConfig(theta, 0.3, validate_generator(BENCH_Q), 10.0, 0.1)


class TestSimulatePath:
    def test_shapes_and_grids(self, bench_cfg):
        obs, chain_obs, chain_fine = simulate_path(bench_cfg)
        assert obs.n == 1000
        assert obs.x.shape == (1001,)
        assert chain_obs.states.shape == (1001,)
        assert chain_fine.states.shape == (10001,)
        assert obs.x[0] == 0.0
        np.testing.assert_array_equal(chain_fine.states[::10], chain_obs.states)

    def test_deterministic_given_seed(self, bench_cfg):
        x1 = simulate_path(bench_cfg)[0].x
        x2 = simulate_path(bench_cfg)[0].x
        np.testing.assert_array_equal(x1, x2)

    def test_custom_increments_reproduce_euler(self, bench_cfg):
        # the documented draw order: the fine chain, then the fine noise,
        # both from default_rng(cfg.seed)
        obs, _, chain_fine = simulate_path(bench_cfg)
        rng = np.random.default_rng(bench_cfg.seed)
        n_fine, step = bench_cfg.n_obs * bench_cfg.fine_factor, bench_cfg.fine_step
        chain = simulate_chain(bench_cfg.generator, step, n_fine, bench_cfg.initial_state, rng)
        np.testing.assert_array_equal(chain.states, chain_fine.states)
        theta = bench_cfg.theta_true
        inc = sample_nig(NigParams(bench_cfg.a_nuisance, theta.delta, step), n_fine, rng)
        x = euler_path(bench_cfg.x0, theta, chain.states, inc, step)
        np.testing.assert_array_equal(obs.x, x[::10])

    @pytest.mark.parametrize("n", [10_000, 10_001])
    def test_euler_path_reads_the_noise_in_place(self, bench_cfg, n):
        # at a perfect square n the blocked scan reads the increments as
        # they are; otherwise it pads a copy.  Either way the increments are
        # left as they were and the path equals, to the bit, that of the
        # scan on a zero-padded copy indexed by labels - 1
        theta, step = bench_cfg.theta_true, 0.01
        rng = np.random.default_rng(n)
        chain = simulate_chain(bench_cfg.generator, step, n, 1, rng)
        inc = sample_nig(NigParams(bench_cfg.a_nuisance, theta.delta, step), n, rng)
        kept = inc.copy()
        x = euler_path(0.0, theta, chain.states, inc, step)
        np.testing.assert_array_equal(inc, kept)
        ref = padded_euler_path(0.0, theta, chain.states, kept, step)
        np.testing.assert_array_equal(x.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("label", [0, 3])
    def test_euler_path_rejects_labels_outside_the_regimes(self, bench_cfg, label):
        states = np.ones(11, dtype=np.int64)
        states[4] = label
        with pytest.raises(ConfigError, match="labels must lie in 1..2"):
            euler_path(0.0, bench_cfg.theta_true, states, np.zeros(10), 0.01)

    def test_mean_reversion_without_noise(self):
        # with zero noise and a single regime the path tracks the ODE
        # solution toward b, so X_t = b (1 - (1 - lam*step)^k)
        theta = Theta(np.array([5.0]), 1.0, 1.0)
        g = validate_generator([[0.0]])
        chain = simulate_chain(g, 0.01, 1000, 1, np.random.default_rng(0))
        x = euler_path(0.0, theta, chain.states, np.zeros(1000), 0.01)
        k = np.arange(0, 1001, 10)
        expected = 5.0 * (1.0 - (1.0 - 1.0 * 0.01) ** k)
        np.testing.assert_allclose(x[::10], expected, rtol=1e-10)

    def test_stationary_mean_tracks_regime_mix(self):
        # over a long horizon the path mean approaches the pi-weighted
        # average of the levels; with pi = (5/14, 9/14) that is 4.0714...
        theta = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
        g = validate_generator(BENCH_Q)
        cfg = SimulationConfig(theta, 0.3, g, 5000.0, 0.1, seed=99)
        obs, chain_obs, _ = simulate_path(cfg)
        mix = 6.0 * np.mean(chain_obs.states == 1) + 3.0 * np.mean(chain_obs.states == 2)
        assert np.mean(obs.x) == pytest.approx(mix, abs=0.25)


class TestSelfConvergence:
    def test_zero_noise_second_order(self):
        # without noise the drift discretization error is the whole story
        # and the coupled gap shrinks like step^2 (ratio ~ 4 for halving);
        # levels 0..3 halve the step 0.1 and share one finest-grid chain
        theta = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
        g = validate_generator(BENCH_Q)
        rng = np.random.default_rng(5)
        n_finest, finest_step = 500 * 2**3, 0.1 / 2**3
        paths = np.empty((4, 50, 501))
        for r in range(50):
            states = simulate_chain(g, finest_step, n_finest, 1, rng).states
            for lvl in range(4):
                sub = 2 ** (3 - lvl)
                x = euler_path(0.0, theta, states[::sub], np.zeros(n_finest // sub),
                               finest_step * sub)
                paths[lvl, r] = x[:: 2**lvl]  # thin to the observation grid
        gaps = np.mean(np.max(np.diff(paths, axis=0) ** 2, axis=2), axis=1)
        ratios = gaps[:-1] / gaps[1:]
        assert gaps.shape == (3,)
        assert np.all(np.diff(gaps) < 0.0)
        assert np.all(ratios > 3.0)

    def test_gaps_decrease_with_noise(self):
        theta = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
        g = validate_generator(BENCH_Q)
        cfg = SimulationConfig(theta, 0.3, g, 20.0, 0.1, fine_factor=2, seed=6)
        gaps = self_convergence_test(cfg, levels=2, n_reps=100)
        assert gaps.shape == (2,)
        assert np.all(gaps > 0.0)
        assert gaps[1] < gaps[0]
