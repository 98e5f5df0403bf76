import dataclasses
import warnings

import numpy as np
import pytest

from switchem import (
    CauchyTerms,
    ConfigError,
    FilterState,
    H_n,
    NumericalFailure,
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
    update_generator,
    validate_generator,
)
from switchem.smoother import _blocks, _kernel_scan, _scan

from oracles import enumerate_filter_smoother, loop_filter_smoother, rebuilt_pairs

# Scan vs loop: both round once per product in float64 (eps 2.2e-16), the
# scan along fewer than 50 chained products at n <= 10^4, so a gap above
# 1e-12 means a wrong product, not rounding.
SCAN_TOL = 1e-12


def pairs_of(fs, sw):
    """The pair weights behind ``sw``, rebuilt from ``fs`` and the smoothed
    distributions; the pass must have kept the filter's length, and its
    totals must be the rebuilt pairs summed."""
    assert sw.n == fs.n
    w = rebuilt_pairs(fs, sw.smoothed)
    np.testing.assert_allclose(sw.totals, w.sum(axis=2), rtol=1e-12, atol=SCAN_TOL)
    return w


def small_instance(rng, n=5, m=2):
    h = float(rng.uniform(0.05, 0.2))
    b = np.sort(rng.uniform(-2.0, 8.0, m))[::-1].copy()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        theta = Theta(b, float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 2.0)))
    q = rng.uniform(0.1, 2.0, (m, m))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    g = validate_generator(q)
    obs = ObservationSeries(np.cumsum(rng.standard_normal(n + 1)), h)
    return theta, g, obs


class TestForwardFilter:
    def test_matches_enumeration_exactly(self):
        rng = np.random.default_rng(100)
        for _ in range(10):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(3, 7))
            theta, g, obs = small_instance(rng, n=n, m=m)
            fs = forward_filter(CauchyTerms(theta, obs), g)
            a = transition_matrix_approx(g, obs.h)
            p0 = np.full(m, 1.0 / m)
            ref_filt, _, _ = enumerate_filter_smoother(
                obs.x, obs.h, theta.b, theta.lam, theta.delta, a, p0
            )
            np.testing.assert_allclose(fs.filtered, ref_filt, atol=1e-12)

    def test_slices_are_distributions(self):
        rng = np.random.default_rng(5)
        theta, g, obs = small_instance(rng, n=200)
        fs = forward_filter(CauchyTerms(theta, obs), g)
        np.testing.assert_allclose(fs.filtered.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(fs.filtered >= 0.0) and np.all(fs.filtered <= 1.0)
        pair = fs.kernel[:, :, None] * fs.filtered[:, None, :-1]
        marginal = pair.sum(axis=0)
        np.testing.assert_allclose(pair.sum(axis=(0, 1)), 1.0, atol=1e-12)
        np.testing.assert_allclose(pair.sum(axis=0), marginal, atol=1e-15)

    def test_custom_initial_probs(self):
        rng = np.random.default_rng(6)
        theta, g, obs = small_instance(rng)
        fs = forward_filter(CauchyTerms(theta, obs), g, initial_probs=[1.0, 0.0])
        np.testing.assert_array_equal(fs.filtered[:, 0], [1.0, 0.0])
        with pytest.raises(ConfigError):
            forward_filter(CauchyTerms(theta, obs), g, initial_probs=[0.7, 0.7])

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        theta, g, obs = small_instance(rng, m=2)
        bad = Theta(np.array([1.0, 2.0, 3.0]), 1.0, 1.0)
        with pytest.raises(ConfigError):
            forward_filter(CauchyTerms(bad, obs), g)

    def test_breakdown_reports_index(self):
        # an absurd outlier overflows every squared residual, so all
        # emission densities vanish and the failing step is reported
        theta = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
        g = validate_generator([[-0.009, 0.009], [0.005, -0.005]])
        x = np.array([0.0, 0.4, 1e200, 0.5, 0.7])
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalFailure) as exc_info:
                forward_filter(CauchyTerms(theta, ObservationSeries(x, 0.1)), g)
        assert exc_info.value.index == 2


class TestBackwardSmooth:
    def test_pair_slices_are_distributions(self):
        rng = np.random.default_rng(12)
        theta, g, obs = small_instance(rng, n=150)
        fs = forward_filter(CauchyTerms(theta, obs), g)
        w = pairs_of(fs, backward_smooth(fs))
        np.testing.assert_allclose(w.sum(axis=(0, 1)), 1.0, atol=1e-12)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_terminal_marginal_is_filtered(self):
        rng = np.random.default_rng(13)
        theta, g, obs = small_instance(rng, n=60)
        fs = forward_filter(CauchyTerms(theta, obs), g)
        sw = backward_smooth(fs)
        sm = sw.smoothed
        np.testing.assert_allclose(sm[:, -1], fs.filtered[:, -1], atol=1e-12)
        # marginalizing the pair weights over i reproduces the smoothed
        # marginal at the later time point
        np.testing.assert_allclose(pairs_of(fs, sw).sum(axis=0), sm[:, 1:], atol=1e-10)

    def test_matches_enumeration_exactly(self):
        # strongly informative instances, where Kim's pass is far off: the
        # pair weights and marginals are the exact smoothed probabilities
        rng = np.random.default_rng(15)
        for _ in range(10):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(3, 7))
            theta, g, obs = small_instance(rng, n=n, m=m)
            fs = forward_filter(CauchyTerms(theta, obs), g)
            sw = backward_smooth(fs)
            _, ref_pair, ref_marg = enumerate_filter_smoother(
                obs.x, obs.h, theta.b, theta.lam, theta.delta, fs.kernel, np.full(m, 1.0 / m)
            )
            np.testing.assert_allclose(pairs_of(fs, sw), ref_pair, rtol=0, atol=1e-12)
            np.testing.assert_allclose(sw.smoothed, ref_marg, rtol=0, atol=1e-12)

    def test_close_to_enumeration_when_weakly_informative(self):
        # Kim's one-lag pass drops the next emission's information about
        # the earlier state; when single steps carry little regime
        # information (lam*|db| << delta) it stays close to the exact
        # smoother, which backward_smooth reproduces to rounding
        rng = np.random.default_rng(14)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            theta = Theta(np.array([0.8, 0.2]), 0.3, 2.0)
        g = validate_generator([[-0.05, 0.05], [0.03, -0.03]])
        cfg = SimulationConfig(theta, 0.3, g, 0.5, 0.1, seed=3)
        obs, _, _ = simulate_path(cfg)
        fs = forward_filter(CauchyTerms(theta, obs), g)
        w = pairs_of(fs, backward_smooth(fs))
        _, ref_pair, _ = enumerate_filter_smoother(
            obs.x, obs.h, theta.b, theta.lam, theta.delta, fs.kernel, np.full(2, 0.5)
        )
        _, kim_w = loop_filter_smoother(
            fs.kernel, CauchyTerms(theta, obs).density, fs.filtered[:, 0], kim=True
        )
        assert np.max(np.abs(kim_w - ref_pair)) < 1e-2
        np.testing.assert_allclose(w, ref_pair, rtol=0, atol=1e-12)

    def test_approximation_error_can_be_large(self):
        # with strongly discriminating observations the emission factor
        # Kim's pass drops matters; record that its gap is then genuinely
        # non-small, where the exact pass stays at rounding level
        rng = np.random.default_rng(14)
        theta, g, obs = small_instance(rng, n=5)
        fs = forward_filter(CauchyTerms(theta, obs), g)
        w = pairs_of(fs, backward_smooth(fs))
        _, ref_pair, _ = enumerate_filter_smoother(
            obs.x, obs.h, theta.b, theta.lam, theta.delta, fs.kernel, np.full(2, 0.5)
        )
        _, kim_w = loop_filter_smoother(
            fs.kernel, CauchyTerms(theta, obs).density, fs.filtered[:, 0], kim=True
        )
        assert np.max(np.abs(kim_w - ref_pair)) > 1e-2  # Kim is not exact in general
        assert np.max(np.abs(w - ref_pair)) < 1e-12


def assert_scan_matches_loop(theta, g, obs, initial_probs=None):
    fs = forward_filter(CauchyTerms(theta, obs), g, initial_probs)
    w = pairs_of(fs, backward_smooth(fs))
    dens = CauchyTerms(theta, obs).density
    ref_filt, ref_w = loop_filter_smoother(fs.kernel, dens, fs.filtered[:, 0])
    np.testing.assert_allclose(fs.filtered, ref_filt, rtol=0, atol=SCAN_TOL)
    np.testing.assert_allclose(w, ref_w, rtol=0, atol=SCAN_TOL)
    return fs


def two_regime_path(n, seed):
    theta = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
    g = validate_generator([[-0.009, 0.009], [0.005, -0.005]])
    cfg = SimulationConfig(theta, 0.3, g, n * 0.1, 0.1, seed=seed)
    return simulate_path(cfg)[0]


class TestScanMatchesLoop:
    """The scans reproduce the step-by-step loop of tests/oracles.py."""

    def test_random_instances(self):
        rng = np.random.default_rng(30)
        # the last case has fit-long's size: the filter's ``_scan`` and the
        # backward pass's ``_kernel_scan`` both cut it into 455 blocks of 22
        # steps and chain the first 454 block ends in 9 doubling rounds
        sizes = [(m, n) for m in range(2, 6) for n in (1, 2, 37, 500, 2000)] + [(2, 10_000)]
        for m, n in sizes:
            theta, g, obs = small_instance(rng, n=n, m=m)
            h = min(obs.h, 0.9 * g.max_step())
            assert_scan_matches_loop(theta, g, ObservationSeries(obs.x, h))

    def test_underflowing_normalizer_is_rescaled(self):
        # delta*h = 1e-320: the first step pins the filter to regime 1 up
        # to the kernel's 1e-13, the second fits only regime 2, whose
        # density 3e-315 times 1e-13 underflows to a zero normalizer
        theta = Theta(np.array([0.0, 1000.0]), 1.0, 1e-319)
        g = validate_generator([[-1e-12, 1e-12], [1e-12, -1e-12]])
        x = [0.0, 1e-160]
        x.append(x[-1] + 0.1 * (1000.0 - x[-1]) + 1e-3)
        x.append(x[-1] + 0.1 * (1000.0 - x[-1]) + 1e-160)
        obs = ObservationSeries(np.array(x), 0.1)
        fs = assert_scan_matches_loop(theta, g, obs)
        dens = CauchyTerms(theta, obs).density
        unscaled = (dens[:, 1, None] * fs.kernel * fs.filtered[:, 1, None]).sum()
        assert unscaled == 0.0 and dens[:, 1].max() > 0.0
        np.testing.assert_allclose(fs.filtered[:, 2], [1e-13, 1.0], rtol=1e-12)

    @pytest.mark.parametrize(
        "start,n",
        [([1.0, 0.0], 2000), ([0.0, 1.0], 2000), (None, 2000), ([1.0, 0.0], 10_000)],
        ids=["start0", "start1", "start2", "start0-n10000"],
    )
    def test_absorbing_state(self, start, n):
        # regime 1 absorbs, and its level is so far from the path that
        # each step favours regime 2 by a factor near 1e8: started in
        # regime 1 the filter must stay there, although over one block of
        # the scan (13 steps at n = 2000, 22 at n = 10^4) that row of the
        # product falls 200 to 430 nats below the other, and the doubling
        # rounds that chain the block ends widen the gap to tens of
        # thousands of nats, past any shared scale
        obs = two_regime_path(n, seed=31)
        theta = Theta(np.array([1e4, 3.0]), 2.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            g = validate_generator([[0.0, 0.0], [0.5, -0.5]])
        fs = assert_scan_matches_loop(theta, g, obs, start)
        if start == [1.0, 0.0]:
            np.testing.assert_array_equal(fs.filtered[1], 0.0)

    def test_zero_diagonal_kernel(self):
        # exit rate 1/h clamps the kernel diagonal to 0: regimes alternate
        obs = two_regime_path(2000, seed=32)
        g = validate_generator([[-10.0, 10.0], [10.0, -10.0]])
        theta = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
        fs = assert_scan_matches_loop(theta, g, obs)
        np.testing.assert_array_equal(np.diag(fs.kernel), 0.0)

    def test_one_hot_initial_probs(self):
        rng = np.random.default_rng(33)
        theta, g, obs = small_instance(rng, n=1000, m=3)
        assert_scan_matches_loop(theta, g, obs, [0.0, 0.0, 1.0])

    def test_backward_breakdown_reports_highest_index(self):
        # filtered distributions that jump between the states of an identity
        # kernel (and flat densities) leave no predicted mass under the
        # smoothed distribution at j = 3; the ones before it are then
        # undefined, and the pass reports the highest failing step, where a
        # loop counting down from n stops
        filtered = np.array([[1.0, 0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 1.0, 1.0]])
        with pytest.raises(NumericalFailure) as exc_info:
            backward_smooth(FilterState(filtered, np.eye(2), np.ones((2, 4))))
        assert exc_info.value.index == 3


class TestScanMasslessRows:
    """The filter's ``_scan`` keeps every row without mass exactly zero, at
    every level."""

    N_STEPS = 2000  # 154 blocks of 13, the first 153 ends chained in 8 doubling rounds

    def stack(self, dead_step=None):
        # regime 1 absorbs; regime 2 emits nothing at every 7th step, so the
        # block products' rows that start in regime 2 lose all their mass
        # inside their blocks.  With ``dead_step``, regime 1 emits nothing
        # there either.
        d = np.random.default_rng(34).uniform(0.1, 1.0, (3, self.N_STEPS))
        d[1, 3::7] = 0.0
        if dead_step is not None:
            d[0, dead_step] = 0.0
        a = np.array([[1.0, 0.0, 0.0], [0.3, 0.3, 0.4], [0.2, 0.5, 0.3]])
        return d[:, None, :] * a[:, :, None], a, d

    @pytest.mark.parametrize("start", [0, 1])
    def test_matches_loop_from_a_one_hot_start(self, start):
        mats, a, d = self.stack()
        v0 = np.eye(3)[start]
        with np.errstate(divide="ignore"):
            rows = _scan(mats, v0)
        ref = loop_filter_smoother(a, d, v0)[0]
        np.testing.assert_allclose(rows, ref, rtol=0, atol=SCAN_TOL)
        if start == 0:  # the absorbing regime keeps all the mass
            np.testing.assert_array_equal(rows, np.broadcast_to(v0[:, None], ref.shape))

    def test_rows_after_the_mass_dies_are_zero(self):
        # started in the absorbing regime, all mass dies at step 995, the
        # eighth of its block: the loop stops there, and every
        # later row of the scan must be exactly zero
        mats, a, d = self.stack(dead_step=995)
        v0 = np.eye(3)[0]
        with pytest.raises(ArithmeticError):
            loop_filter_smoother(a, d, v0)
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = _scan(mats, v0)
        np.testing.assert_array_equal(rows[:, :996], np.broadcast_to(v0[:, None], (3, 996)))
        np.testing.assert_array_equal(rows[:, 996:], 0.0)


def loop_rows(mats, v0):
    """The rows v_0 P_0 ... P_{j-1} of ``_kernel_scan``, one product a step."""
    rows = [v0]
    for j in range(mats.shape[-1]):
        rows.append(rows[-1] @ mats[:, :, j])
    return np.array(rows).T


class TestKernelScan:
    """The backward pass's ``_kernel_scan`` of stacks whose rows each sum to
    one or to zero matches the step-by-step loop, without rescaling."""

    # n = 1 is one block with no end to chain; 8, 9, 37, 2000 and 10^4
    # chain 3, 4, 12, 153 and 454 block ends in 2, 2, 4, 8 and 9 doubling
    # rounds
    @pytest.mark.parametrize("n", [1, 8, 9, 37, 2000, 10_000])
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_matches_loop_on_random_stacks(self, m, n):
        rng = np.random.default_rng(35 + 7 * m + n)
        mats = rng.uniform(size=(m, m, n)) ** 4
        mats /= mats.sum(axis=1, keepdims=True)
        dead = max(1, n // 1000)  # all-zero rows, each taking part of the mass
        mats[rng.integers(m, size=dead), :, rng.integers(n, size=dead)] = 0.0
        v0 = rng.dirichlet(np.ones(m))
        ref = loop_rows(mats, v0)
        np.testing.assert_allclose(_kernel_scan(mats, v0), ref, rtol=0, atol=SCAN_TOL)

    def test_mass_on_a_dead_row_is_lost_not_rescaled(self):
        # row 3 is zero at three steps, and every row sends it 0.3 of its
        # mass the step before, so the row sums fall to 0.7^3 at the end:
        # the scan must give the loop's sums, not rows renormalized to one
        step = np.array([[0.5, 0.2, 0.3], [0.1, 0.6, 0.3], [0.4, 0.3, 0.3]])
        mats = np.repeat(step[:, :, None], 2000, axis=2)
        mats[2, :, [5, 700, 1500]] = 0.0
        v0 = np.array([0.2, 0.3, 0.5])
        ref = loop_rows(mats, v0).sum(axis=0)
        np.testing.assert_allclose(ref[-1], 0.7 ** 3, rtol=1e-12)
        np.testing.assert_allclose(_kernel_scan(mats, v0).sum(axis=0), ref, rtol=0, atol=SCAN_TOL)


class TestDoubling:
    """Both scans chain their block ends by doubling: the rows match the
    step-by-step loops whatever the number of rounds, and the filter's rows
    keep their own scales at every round."""

    # n and the c - 1 block ends the scans chain: none, one, and both sides
    # of 2, 4, 8 and 16, then fit-long's 454
    @pytest.mark.parametrize(
        "n,chained",
        [(1, 0), (2, 1), (3, 2), (9, 4), (11, 5), (25, 8), (28, 9), (65, 16), (69, 17),
         (10_000, 454)],
    )
    def test_both_scans_match_their_loops(self, n, chained):
        assert _blocks(np.empty((1, n))).shape[-1] - 1 == chained
        rng = np.random.default_rng(40 + n)
        a = rng.dirichlet(np.ones(3), size=3)
        d = rng.uniform(size=(3, n)) ** 4
        v0 = rng.dirichlet(np.ones(3))
        with np.errstate(divide="ignore"):  # the padding of the last block has no mass
            rows = _scan(d[:, None, :] * a[:, :, None], v0)
        np.testing.assert_allclose(rows, loop_filter_smoother(a, d, v0)[0], rtol=0, atol=SCAN_TOL)
        back = rng.uniform(size=(3, 3, n)) ** 4
        back /= back.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(_kernel_scan(back, v0), loop_rows(back, v0),
                                   rtol=0, atol=SCAN_TOL)

    @pytest.mark.parametrize("start", [0, 1])
    def test_one_hot_start_on_an_absorbing_regime(self, start):
        # regime 1 absorbs and emits about e^-100 times what regime 2 does,
        # so the block products' row that starts in regime 1 lies more than
        # 745 nats below the other at every block end (e^-745 is below the
        # smallest double), and further below at every doubling round;
        # started there, the filter must stay there exactly
        n = 2000
        d = np.random.default_rng(42).uniform(0.1, 1.0, (2, n))
        d[0] *= np.exp(-100.0)
        a = np.array([[1.0, 0.0], [0.3, 0.7]])
        assert len(_blocks(d)) * np.log(d[1] * a[1, 1] / d[0]).min() > 745.0
        v0 = np.eye(2)[start]
        with np.errstate(divide="ignore"):
            rows = _scan(d[:, None, :] * a[:, :, None], v0)
        np.testing.assert_allclose(rows, loop_filter_smoother(a, d, v0)[0], rtol=0, atol=SCAN_TOL)
        if start == 0:
            np.testing.assert_array_equal(rows, np.broadcast_to(v0[:, None], (2, n + 1)))


class TestManyRegimes:
    """The scans match the step-by-step loop beyond the 2 to 5 regimes of
    TestScanMatchesLoop: a regime sum of 8 or more terms is added pairwise
    by numpy, of fewer in order, and both must stay within SCAN_TOL."""

    # n = 1 and 5 are one block, 8 and 37 chain 3 and 12 block ends, 1000
    # chains 99
    @pytest.mark.parametrize("n", [1, 5, 8, 37, 1000])
    @pytest.mark.parametrize("m", [6, 7, 8, 9, 12])
    def test_scan_matches_loop(self, m, n):
        rng = np.random.default_rng(70 + 10 * m + n)
        theta, g, obs = small_instance(rng, n=n, m=m)
        h = min(obs.h, 0.9 * g.max_step())
        fs = assert_scan_matches_loop(theta, g, ObservationSeries(obs.x, h))
        np.testing.assert_allclose(fs.filtered.sum(axis=0), 1.0, rtol=0, atol=1e-12)


class TestEinsumOrder:
    """The scans contract with np.einsum where they once summed a broadcast
    product over the regime axis.  Both add the N products of each entry in
    regime order, so their results agree to the bit; the digests of every
    simulation and fit rest on that order, and a numpy release that changes
    it fails here first."""

    @pytest.mark.parametrize("m", range(2, 13))
    @pytest.mark.parametrize("blocks", [1, 2, 17, 455])
    def test_contractions_equal_broadcast_sums_bitwise(self, m, blocks):
        rng = np.random.default_rng(100 * m + blocks)
        a, b = rng.uniform(size=(2, m, m, blocks)) ** 4
        v, v0 = rng.uniform(size=(m, blocks)), rng.uniform(size=m)
        stack = rng.uniform(size=(3, m, m, blocks))
        ref = (a[:, :, None] * b).sum(axis=1)
        out = b.copy()  # the in-block step writes over its right operand
        pairs = [
            (np.einsum("ijb,jkb->ikb", a, out, out=out), ref),
            (np.einsum("ijb,jkb->ikb", a, b), ref),
            (np.einsum("...jb,...jkb->...kb", a, b), ref),
            (np.einsum("...jb,...jkb->...kb", v, b), (v[:, None, :] * b).sum(axis=-3)),
            (np.einsum("j,jkb->kb", v0, b), (v0[:, None, None] * b).sum(axis=0)),
            (np.einsum("jb,tjkb->tkb", v, stack), (v[:, None] * stack).sum(axis=1)),
        ]
        for got, want in pairs:
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestPassesAlone:
    """A pass's bytes depend on its own request only: a worker fits the
    replications the pool hands it one after another, in an order set by
    timing, and each must come out as if it ran alone."""

    @staticmethod
    def requests(m, n, count=6):
        rng = np.random.default_rng(50 + 10 * m + n)
        out = []
        for r in range(count):
            theta, g, obs = small_instance(rng, n=n, m=m)
            init = rng.dirichlet(np.ones(m)) if r % 2 else None
            out.append((CauchyTerms(theta, obs), g, init))
        return out

    # "backward_last" runs every forward pass before any backward pass, so
    # a FilterState must carry all that its backward pass reads
    @pytest.mark.parametrize("order", ["forward", "reversed", "backward_last"])
    @pytest.mark.parametrize("n", [1, 8, 37, 1000])
    @pytest.mark.parametrize("m", [2, 3])
    def test_each_pass_gets_its_bytes_alone(self, m, n, order):
        alone = []
        for request in self.requests(m, n):
            fs = forward_filter(*request)
            alone.append((fs, backward_smooth(fs)))
            # the references themselves ran after other passes: pin them to the loop
            ref_filt, ref_w = loop_filter_smoother(fs.kernel, request[0].density,
                                                   fs.filtered[:, 0])
            np.testing.assert_allclose(fs.filtered, ref_filt, rtol=0, atol=SCAN_TOL)
            np.testing.assert_allclose(pairs_of(*alone[-1]), ref_w, rtol=0, atol=SCAN_TOL)
        requests = self.requests(m, n)
        density = [terms.density.copy() for terms, _, _ in requests]
        rank = list(range(len(requests)))
        if order == "reversed":
            rank.reverse()
        got = {}
        if order == "backward_last":
            states = {r: forward_filter(*requests[r]) for r in rank}
            got = {r: (states[r], backward_smooth(states[r])) for r in rank}
        else:
            for r in rank:
                fs = forward_filter(*requests[r])
                got[r] = (fs, backward_smooth(fs))
        for r, (ref_fs, ref_w) in enumerate(alone):
            fs, w = got[r]
            for have, want in [(fs.filtered, ref_fs.filtered), (fs.kernel, ref_fs.kernel),
                               (fs.density, ref_fs.density), (w.smoothed, ref_w.smoothed),
                               (w.totals, ref_w.totals)]:
                np.testing.assert_array_equal(have, want)
            assert w.smoothed.flags.c_contiguous
            np.testing.assert_array_equal(requests[r][0].density, density[r])


class TestSmoothedMarginals:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(20)
        theta, g, obs = small_instance(rng, n=80)
        fs = forward_filter(CauchyTerms(theta, obs), g)
        sm = backward_smooth(fs).smoothed
        np.testing.assert_array_equal(sm[:, -1], fs.filtered[:, -1])
        np.testing.assert_allclose(sm.sum(axis=0), 1.0, atol=1e-12)


class TestMemoryLayout:
    """The smoother keeps every per-observation array with the observation
    axis last and contiguous, and hands out those arrays themselves."""

    def instance(self):
        theta, g, obs = small_instance(np.random.default_rng(21), n=500, m=3)
        fs = forward_filter(CauchyTerms(theta, obs), g)
        return theta, g, obs, fs, backward_smooth(fs)

    def test_public_arrays_are_c_contiguous_with_the_observation_axis_last(self):
        _, _, obs, fs, w = self.instance()
        assert fs.filtered.shape == w.smoothed.shape == (3, obs.n + 1)
        assert fs.density.shape == (3, obs.n) and w.totals.shape == (3, 3)
        for arr in (fs.filtered, fs.density, w.smoothed, w.totals):
            assert arr.flags.c_contiguous and arr.flags.owndata  # not a view
        # the passes hand out no (N, N, n) array: none is larger than N (n+1)
        for obj in (fs, w):
            assert all(getattr(obj, f.name).size <= 3 * (obs.n + 1)
                       for f in dataclasses.fields(obj))

    def test_other_memory_layouts_give_the_same_results(self):
        # callers may build their own weights and filter states in any layout
        theta, g, obs, fs, w = self.instance()
        fs_c = FilterState(np.asfortranarray(fs.filtered), fs.kernel,
                           np.asfortranarray(fs.density))
        w_c = SmoothedPairProbs(np.asfortranarray(w.smoothed), np.asfortranarray(w.totals))
        assert w_c.smoothed.flags.f_contiguous and fs_c.density.flags.f_contiguous
        terms = CauchyTerms(theta, obs)
        pairs = [
            (H_n(terms, fs.kernel, w_c), H_n(terms, fs.kernel, w)),
            (grad_H(terms, w_c), grad_H(terms, w)),
            (hessian_H(terms, w_c), hessian_H(terms, w)),
            (update_generator(g, w_c, obs.h).q, update_generator(g, w, obs.h).q),
            (backward_smooth(fs_c).smoothed, w.smoothed),
            (backward_smooth(fs_c).totals, w.totals),
        ]
        for got, ref in pairs:
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
