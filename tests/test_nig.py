import numpy as np
import pytest
from scipy import integrate

from switchem import NigParams, sample_nig

from oracles import cauchy_density, nig_density, nig_density_direct
from test_acceptance import std_cauchy_limit_check


class TestNigParams:
    def test_scale(self):
        p = NigParams(0.3, 1.0, 0.1)
        assert p.scale == pytest.approx(0.1)

    @pytest.mark.parametrize("kw", [{"a": 0.0}, {"delta": -1.0}, {"t": 0.0}])
    def test_rejects_nonpositive(self, kw):
        args = {"a": 0.3, "delta": 1.0, "t": 1.0, **kw}
        with pytest.raises(ValueError):
            NigParams(**args)


class TestNigDensity:
    """The test oracle's scaled-K1 density, against its quadrature form."""

    def test_matches_direct_formula(self):
        a, s = 0.3, 0.1
        for z in [-5.0, -0.3, 0.0, 0.01, 2.0, 40.0]:
            assert nig_density(z, a, s) == pytest.approx(
                nig_density_direct(z, a, s), rel=1e-9
            )

    def test_symmetric_and_positive(self):
        z = np.linspace(-20, 20, 401)
        f = nig_density(z, 1.0, 0.5)
        assert np.all(f > 0.0)
        np.testing.assert_allclose(f, f[::-1], rtol=1e-13)

    def test_integrates_to_one(self):
        for a, s in [(0.3, 0.1), (0.3, 1.0), (1.0, 0.05)]:
            mass, _ = integrate.quad(nig_density, -np.inf, np.inf, args=(a, s), limit=400)
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_array_matches_scalar_calls(self):
        # nig_cdf_grid evaluates whole grids, quad one point at a time
        z = np.array([-40.0, -2.0, 0.0, 0.01, 0.3, 5.0])
        np.testing.assert_array_equal(
            nig_density(z, 0.3, 0.1), [nig_density(v, 0.3, 0.1) for v in z]
        )

    def test_large_argument_no_overflow(self):
        # the exp(a*s) prefactor alone would overflow for a*s > 709
        assert np.isfinite(nig_density(0.5, 800.0, 1.0))


class TestSampleNig:
    def test_deterministic_given_seed(self):
        p = NigParams(0.3, 1.0, 0.1)
        z1 = sample_nig(p, 100, np.random.default_rng(5))
        z2 = sample_nig(p, 100, np.random.default_rng(5))
        np.testing.assert_array_equal(z1, z2)

    def test_mean_and_variance(self):
        p = NigParams(0.3, 1.0, 1.0)
        z = sample_nig(p, 200_000, np.random.default_rng(11))
        # Var = scale / a for the symmetric centered law
        assert abs(np.mean(z)) < 0.05
        assert np.var(z) == pytest.approx(p.scale / p.a, rel=0.05)

    @pytest.mark.parametrize("count", [1, 7, 10_001])
    def test_in_place_mixing_keeps_the_draws(self, count):
        # the square root and the product are taken in the Wald draws' array;
        # the draws, their order and every bit of the result stay the same
        p = NigParams(0.3, 1.0, 0.1)
        s = p.scale
        rng = np.random.default_rng(23)
        ref = np.sqrt(rng.wald(s / p.a, s * s, size=count)) * rng.standard_normal(count)
        z = sample_nig(p, count, np.random.default_rng(23))
        np.testing.assert_array_equal(z.view(np.uint64), ref.view(np.uint64))

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample_nig(NigParams(0.3, 1.0), 0, np.random.default_rng(0))


class TestCauchyLimit:
    def test_gaps_decrease(self):
        # criterion 6 takes a*|delta| = 0.3; here a larger product, 3
        gaps = std_cauchy_limit_check(2.0, 1.5, [0.4, 0.2, 0.1, 0.05, 0.025])
        assert gaps.shape == (5,)
        assert np.all(np.diff(gaps) < 0.0)

    def test_cauchy_density_value(self):
        assert cauchy_density(0.0) == pytest.approx(1.0 / np.pi)
