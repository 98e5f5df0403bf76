import warnings

import numpy as np
import pytest

from switchem import (
    CauchyTerms,
    EvaluationError,
    H_n,
    ObservationSeries,
    SimulationConfig,
    SmoothedPairProbs,
    Theta,
    backward_smooth,
    forward_filter,
    grad_H,
    hessian_H,
    simulate_path,
    transition_matrix_approx,
    validate_generator,
)

from oracles import (
    cauchy_density,
    cauchy_transition_density,
    central_diff,
    central_diff_jacobian,
    h_bruteforce,
    pair_stats,
)


def random_pair_instance(rng, n=None, m=None):
    """A random (theta, generator, observations, pair weights) quadruple,
    the weights an (N, N, n) array."""
    m = m if m is not None else int(rng.integers(1, 4))
    n = n if n is not None else int(rng.integers(5, 60))
    h = float(rng.uniform(0.05, 0.2))
    b = np.sort(rng.uniform(-4.0, 8.0, m))[::-1].copy()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        theta = Theta(b, float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.3, 3.0)))
    q = rng.uniform(0.05, 1.5, (m, m))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        g = validate_generator(q)
    obs = ObservationSeries(np.cumsum(rng.standard_cauchy(n + 1) * 0.3), h)
    # drawn observation-first with one spare leading slice dropped, then
    # laid out observation-last: the instances each seed has always given
    w = rng.uniform(0.01, 1.0, (n + 1, m, m))[1:]
    w /= w.sum(axis=(1, 2), keepdims=True)
    return theta, g, obs, w.transpose(1, 2, 0).copy()


def random_instance(rng, n=None, m=None):
    """A random (theta, generator, observations, weights) quadruple."""
    theta, g, obs, w = random_pair_instance(rng, n, m)
    return theta, g, obs, SmoothedPairProbs(*pair_stats(w))


class TestBasics:
    def test_theta_vector_roundtrip(self):
        theta = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
        back = Theta.from_vector(theta.to_vector())
        np.testing.assert_array_equal(back.b, theta.b)
        assert (back.lam, back.delta) == (theta.lam, theta.delta)

    @pytest.mark.parametrize("lam,delta", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_theta_rejects_nonpositive(self, lam, delta):
        with pytest.raises(ValueError):
            Theta(np.array([1.0]), lam, delta)

    def test_cauchy_density_peak_and_scale(self):
        theta = Theta(np.array([6.0]), 2.0, 1.0)
        h = 0.1
        loc = 1.0 + theta.lam * (6.0 - 1.0) * h  # one-step Euler location
        x = np.array([1.0, loc, 1.0, loc + theta.delta * h])
        d = CauchyTerms(theta, ObservationSeries(x, h)).density[0]
        peak, half = d[0], d[2]
        assert peak == pytest.approx(1.0 / (np.pi * theta.delta * h))
        assert half == pytest.approx(peak / 2.0)

    def test_terms_are_the_public_density_and_its_log(self):
        # one q = pi (s^2 + u^2) gives both, bitwise as cauchy_density and
        # the log density H_n took before the terms were shared
        theta, _, obs, _ = random_instance(np.random.default_rng(4), m=3)
        terms = CauchyTerms(theta, obs)
        s = theta.delta * obs.h
        u = obs.x[1:] - obs.x[:-1] - theta.lam * (theta.b[:, None] - obs.x[:-1]) * obs.h
        np.testing.assert_array_equal(terms.u, u)
        np.testing.assert_array_equal(terms.density, cauchy_density(u, s))
        np.testing.assert_array_equal(terms.log_density, -np.log(np.pi * (s * s + u * u) / s))

    def test_pair_probs_validation(self):
        sm, tot = np.full((2, 3), 0.5), np.full((2, 2), 0.5)
        SmoothedPairProbs(sm, tot)  # valid
        for bad_sm, bad_tot in [(sm[:, :1], tot), (sm[None], tot), (sm, tot[:1]),
                                (np.empty((0, 3)), np.empty((0, 0)))]:
            with pytest.raises(ValueError, match="bad shapes"):
                SmoothedPairProbs(bad_sm, bad_tot)
        sm[0, 0] = 0.75
        with pytest.raises(ValueError, match="column 0 sums to"):
            SmoothedPairProbs(sm, tot)
        tot[1, 0] = -1e-300
        with pytest.raises(ValueError, match=">= 0"):
            SmoothedPairProbs(np.full((2, 3), 0.5), tot)

    def test_pair_probs_reject_non_finite_weights(self):
        # NaN fails every comparison, so the range tests must be positive;
        # H_n and grad_H would otherwise return NaN
        tot = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="lie in"):
            SmoothedPairProbs(np.full((2, 3), np.nan), tot)
        sm = np.full((2, 3), 0.5)
        sm[1, 2] = np.nan
        with pytest.raises(ValueError, match="lie in"):
            SmoothedPairProbs(sm, tot)
        tot[0, 1] = np.nan
        with pytest.raises(ValueError, match=">= 0"):
            SmoothedPairProbs(np.full((2, 3), 0.5), tot)


class TestHn:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            theta, g, obs, w = random_pair_instance(rng)
            a = transition_matrix_approx(g, obs.h)
            ref = h_bruteforce(obs.x, obs.h, theta.b, theta.lam, theta.delta, a, w)
            val = H_n(CauchyTerms(theta, obs), a, SmoothedPairProbs(*pair_stats(w)))
            assert val == pytest.approx(ref, rel=1e-12)

    def test_zero_weight_zero_prob_convention(self):
        # a vanishing transition probability is fine while its weight is 0
        theta = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
        with pytest.warns(RuntimeWarning, match="absorbing"):
            g = validate_generator([[0.0, 0.0], [0.005, -0.005]])
        obs = ObservationSeries(np.array([0.0, 0.5, 0.9]), 0.1)
        a = transition_matrix_approx(g, obs.h)
        w = np.zeros((2, 2, 2))
        w[0, 0] = 1.0  # never uses the impossible 1 -> 2 move
        val = H_n(CauchyTerms(theta, obs), a, SmoothedPairProbs(*pair_stats(w)))
        assert np.isfinite(val)
        w2 = np.zeros((2, 2, 2))
        w2[0, 1] = 1.0  # positive weight on a zero-probability move
        with pytest.raises(EvaluationError):
            H_n(CauchyTerms(theta, obs), a, SmoothedPairProbs(*pair_stats(w2)))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        theta, g, obs, w = random_instance(rng, n=10, m=2)
        other = Theta(np.array([1.0, 2.0, 3.0]), 1.0, 1.0)
        with pytest.raises(EvaluationError):
            H_n(CauchyTerms(other, obs), transition_matrix_approx(g, obs.h), w)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            theta, g, obs, w = random_instance(rng)
            analytic = grad_H(CauchyTerms(theta, obs), w)
            a = transition_matrix_approx(g, obs.h)

            def f(v):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    return H_n(CauchyTerms(Theta.from_vector(v), obs), a, w)

            fd = central_diff(f, theta.to_vector())
            np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8)

    def test_gradient_zero_at_interior_max_1d(self):
        # with one regime and fixed (b, lam), dH/ddelta = 0 defines the
        # scale that balances the Cauchy residuals; check sign change
        rng = np.random.default_rng(7)
        theta, g, obs, w = random_instance(rng, n=40, m=1)
        deltas = np.geomspace(1e-3, 30.0, 60)
        vals = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for d in deltas:
                t = Theta(theta.b, theta.lam, float(d))
                vals.append(grad_H(CauchyTerms(t, obs), w)[-1])
        vals = np.asarray(vals)
        assert vals[0] > 0.0 and vals[-1] < 0.0


class TestHessian:
    def test_matches_fd_of_gradient(self):
        rng = np.random.default_rng(314)
        for _ in range(25):
            theta, g, obs, w = random_instance(rng)
            analytic = hessian_H(CauchyTerms(theta, obs), w)

            def gr(v):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    return grad_H(CauchyTerms(Theta.from_vector(v), obs), w)

            fd = central_diff_jacobian(gr, theta.to_vector())
            fd = 0.5 * (fd + fd.T)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-6)

    def test_bb_offdiagonal_exactly_zero(self):
        rng = np.random.default_rng(8)
        theta, g, obs, w = random_instance(rng, n=30, m=3)
        hess = hessian_H(CauchyTerms(theta, obs), w)
        for l in range(3):
            for k in range(3):
                if l != k:
                    assert hess[l, k] == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        theta, g, obs, w = random_instance(rng)
        hess = hessian_H(CauchyTerms(theta, obs), w)
        np.testing.assert_array_equal(hess, hess.T)


def loglik(theta, q, obs):
    """The Euler-Cauchy log-likelihood of ``obs`` under rates ``q`` from the
    uniform start, by a plain normalized forward loop."""
    a = np.eye(len(q)) + np.asarray(q) * obs.h
    dens = cauchy_transition_density(obs.x[1:], obs.x[:-1], theta.b[:, None],
                                     theta.lam, theta.delta, obs.h)
    f, ll = np.full(len(q), 1.0 / len(q)), 0.0
    for d in dens.T:
        col = (f * d) @ a
        ll += np.log(col.sum())
        f = col / col.sum()
    return ll


class TestFisherIdentity:
    """The smoothed distributions and pair totals are the posterior
    expectations the score needs (Fisher's identity): the gradient of H at
    the iterate it was smoothed under, and the rates' score, match finite
    differences of the log-likelihood, with no enumeration."""

    Q = np.array([[-0.5, 0.3, 0.2], [0.2, -0.4, 0.2], [0.1, 0.3, -0.4]])
    OFF = ~np.eye(3, dtype=bool)

    def instance(self):
        g = validate_generator(self.Q)
        truth = Theta(np.array([6.0, 3.0, 0.0]), 2.0, 1.0)
        obs, _, _ = simulate_path(SimulationConfig(truth, 0.3, g, 30.0, 0.1, seed=7))
        theta = Theta(np.array([5.5, 3.4, 0.5]), 1.6, 0.8)
        terms = CauchyTerms(theta, obs)
        fs = forward_filter(terms, g)
        return theta, obs, terms, fs, backward_smooth(fs)

    def test_grad_H_is_the_score_in_theta(self):
        theta, obs, terms, _, w = self.instance()
        fd = central_diff(lambda v: loglik(Theta.from_vector(v), self.Q, obs),
                          theta.to_vector())
        np.testing.assert_allclose(grad_H(terms, w), fd, rtol=1e-6, atol=0)

    def test_pair_totals_give_the_score_in_the_rates(self):
        # q_ik moves A[i, k] by h and A[i, i] by -h, so the score is
        # h (W[i, k] / A[i, k] - W[i, i] / A[i, i])
        theta, obs, _, fs, w = self.instance()

        def ll(v):
            q = np.zeros((3, 3))
            q[self.OFF] = v
            np.fill_diagonal(q, -q.sum(axis=1))
            return loglik(theta, q, obs)

        a, tot = fs.kernel, w.totals
        score = obs.h * (tot / a - (np.diag(tot) / np.diag(a))[:, None])
        fd = central_diff(ll, self.Q[self.OFF])
        np.testing.assert_allclose(score[self.OFF], fd, rtol=1e-5, atol=0)
