"""Quadrature rules and Gaussian expectations."""
import mpmath
import numpy as np
import pytest
from scipy.special import beta, roots_jacobi, roots_legendre

from deepntk.activations import relu
from deepntk.errors import NumericError
from deepntk.gaussmath import (SERIES_DEGREE, clamp_correlation, expect1,
                               expect2, expect2_pairs, gauss_hermite,
                               gauss_jacobi, hermite_projection)

RULE = gauss_hermite(64)


class TestGaussHermite:
    def test_two_point_rule(self):
        r = gauss_hermite(2)
        np.testing.assert_allclose(r.nodes, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(r.weights, [0.5, 0.5], atol=1e-14)

    def test_weights_sum_to_one(self):
        assert abs(RULE.weights.sum() - 1.0) < 1e-12

    def test_second_moment(self):
        assert abs(expect1(lambda z: z * z, 1.0, RULE) - 1.0) < 1e-12

    def test_fourth_moment(self):
        assert abs(expect1(lambda z: z**4, 1.0, RULE) - 3.0) < 1e-10

    def test_order_below_two_rejected(self):
        with pytest.raises(ValueError):
            gauss_hermite(1)

    def test_nodes_increasing_weights_positive(self):
        for order in (2, 16, 64, 128):
            r = gauss_hermite(order)
            assert np.all(np.diff(r.nodes) > 0)
            assert np.all(r.weights > 0)

    @pytest.mark.parametrize("order", [2, 16, 64, 128, 256])
    def test_even_moments_to_degree_2n_minus_1(self, order):
        # E[Z^{2k}] = (2k-1)!!, the rule's sum taken exactly (40 digits)
        # because the high moments overflow a double
        r = gauss_hermite(order)
        mpmath.mp.dps = 40
        z2 = [mpmath.mpf(float(z)) ** 2 for z in r.nodes]
        powers = [mpmath.mpf(float(w)) for w in r.weights]
        worst, exact = 0.0, mpmath.mpf(1)
        for k in range(order):  # 2k <= 2n - 1
            worst = max(worst, float(abs(mpmath.fsum(powers) / exact - 1)))
            powers = [p * s for p, s in zip(powers, z2)]
            exact *= 2 * k + 1
        assert worst < 1e-12

    @pytest.mark.parametrize("order", [3, 64, 65])
    def test_rule_exactly_symmetric(self, order):
        r = gauss_hermite(order)
        assert np.array_equal(r.nodes, -r.nodes[::-1])
        assert np.array_equal(r.weights, r.weights[::-1])

    def test_rule_built_once_per_order(self):
        assert gauss_hermite(64) is gauss_hermite(64) is RULE

    def test_underflowing_order_rejected(self):
        # past order ~370 the outer weights underflow
        with pytest.raises(ValueError):
            gauss_hermite(400)


class TestExpect1:
    def test_odd_integrand_vanishes(self):
        assert abs(expect1(lambda z: z, 4.0, RULE)) < 1e-14

    def test_scaled_second_moment(self):
        assert abs(expect1(lambda z: z * z, 4.0, RULE) - 4.0) < 1e-11

    def test_tanh_square_vs_monte_carlo(self):
        rng = np.random.default_rng(101)
        samples = np.tanh(rng.standard_normal(10**6)) ** 2
        mc, se = samples.mean(), samples.std(ddof=1) / 1000.0
        assert abs(expect1(lambda z: np.tanh(z) ** 2, 1.0, RULE) - mc) < 3 * se

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            expect1(np.tanh, -0.1, RULE)

    def test_nonfinite_integrand_raises(self):
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            expect1(lambda z: np.exp(z**2), 10.0, RULE)


class TestExpect2:
    def test_identity_half_correlation(self):
        assert abs(expect2(lambda u: u, 1.0, 1.0, 0.5, RULE) - 0.5) < 1e-13

    def test_identity_perfect_correlation(self):
        assert abs(expect2(lambda u: u, 1.0, 1.0, 1.0, RULE) - 1.0) < 1e-12

    def test_tanh_vs_monte_carlo(self):
        rng = np.random.default_rng(123)
        z1, z2 = rng.standard_normal((2, 10**6))
        c = 0.7
        vals = np.tanh(z1) * np.tanh(c * z1 + np.sqrt(1 - c * c) * z2)
        mc, se = vals.mean(), vals.std(ddof=1) / 1000.0
        assert abs(expect2(np.tanh, 1.0, 1.0, c, RULE) - mc) < 3 * se

    def test_correlation_beyond_slack_rejected(self):
        with pytest.raises(ValueError):
            expect2(np.tanh, 1.0, 1.0, 1.0 + 1e-11, RULE)

    def test_nan_correlation_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            clamp_correlation(np.array([0.3, np.nan]))

    def test_correlation_within_slack_clamped(self):
        a = expect2(np.tanh, 1.0, 1.0, 1.0 + 1e-13, RULE)
        b = expect2(np.tanh, 1.0, 1.0, 1.0, RULE)
        assert a == b

    def test_pairs_matches_scalar(self):
        qs = np.array([0.5, 1.0, 2.0])
        cs = np.array([-0.5, 0.2, 0.9])
        vec = expect2_pairs(np.tanh, qs, qs[::-1], cs, RULE)
        for i in range(3):
            assert abs(vec[i] - expect2(np.tanh, qs[i], qs[::-1][i], cs[i], RULE)) < 1e-15

    @pytest.mark.parametrize("order", [64, 256])
    @pytest.mark.parametrize("P", [1, 8, 9, 17])
    def test_pairs_blocks_match_scalar(self, P, order):
        # 8 pairs per block at order 64, 1 at order 256
        rule = gauss_hermite(order)
        rng = np.random.default_rng(P)
        q1, q2 = rng.uniform(0.1, 3.0, (2, P))
        cs = rng.uniform(-1.0, 1.0, P)
        vec = expect2_pairs(np.tanh, q1, q2, cs, rule)
        for i in range(P):
            assert abs(vec[i] - expect2(np.tanh, q1[i], q2[i], cs[i], rule)) < 1e-15

    def test_pairs_keep_input_shape(self):
        rng = np.random.default_rng(5)
        q = rng.uniform(0.1, 3.0, (3, 3))
        cs = rng.uniform(-1.0, 1.0, (3, 3))
        vec = expect2_pairs(np.tanh, q, q.T, cs, RULE)
        assert vec.shape == (3, 3)
        for i in range(3):
            for j in range(3):
                assert abs(vec[i, j] - expect2(np.tanh, q[i, j], q[j, i],
                                               cs[i, j], RULE)) < 1e-15

    def test_pairs_same_bits_in_any_batch(self):
        # a BLAS matrix-vector product sums a row differently by its
        # position, so a BLAS reduction would make a pair's bits depend on
        # the other pairs of its call (the Gram's batch against predict's)
        rng = np.random.default_rng(11)
        q1, q2 = rng.uniform(0.1, 3.0, (2, 200))
        cs = rng.uniform(-1.0, 1.0, 200)
        whole = expect2_pairs(np.tanh, q1, q2, cs, RULE)
        for _ in range(50):
            idx = rng.choice(200, 37, replace=False)
            np.testing.assert_array_equal(
                expect2_pairs(np.tanh, q1[idx], q2[idx], cs[idx], RULE), whole[idx])


class TestHermiteProjection:
    def test_coefficients_of_a_cubic(self):
        # u^3 = q^{3/2} z^3 = q^{3/2} (sqrt(6) h_3 + 3 h_1), E[u^6] = 15 q^3
        q = np.array([0.5, 2.0])
        a, s = hermite_projection(lambda u: u**3, q)
        assert a.shape == (2, SERIES_DEGREE + 1)
        want = np.zeros_like(a)
        want[:, 1] = 3.0 * q**1.5
        want[:, 3] = np.sqrt(6.0) * q**1.5
        np.testing.assert_allclose(a, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(s, 15.0 * q**3, rtol=1e-13)

    def test_a_variance_gets_the_same_bits_in_any_batch(self):
        q = np.linspace(0.1, 3.0, 13)
        a, s = hermite_projection(np.tanh, q)
        for i in range(q.size):
            ai, si = hermite_projection(np.tanh, q[i:i + 1])
            assert np.array_equal(ai[0], a[i]) and si[0] == s[i]

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            hermite_projection(np.tanh, np.array([0.5, -0.1]))


class TestInvariants:
    def test_diag_reduces_to_expect1(self):
        for q in (0.25, 1.0, 2.5):
            lhs = expect2(np.tanh, q, q, 1.0, RULE)
            rhs = expect1(lambda u: np.tanh(u) ** 2, q, RULE)
            assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("g", [relu, np.tanh], ids=["relu", "tanh"])
    def test_nondecreasing_in_c(self, g):
        grid = np.linspace(-1.0, 1.0, 21)
        vals = [expect2(g, 1.0, 1.0, c, RULE) for c in grid]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_symmetric_in_variances(self):
        for c in (-0.7, 0.0, 0.4, 1.0):
            assert abs(expect2(np.tanh, 0.5, 2.0, c, RULE)
                       - expect2(np.tanh, 2.0, 0.5, c, RULE)) < 1e-12


class TestGaussJacobi:
    def test_total_weight(self):
        # integral of (1-t^2)^0 over [-1,1] is 2
        r = gauss_jacobi(64, 0.0)
        assert abs(r.weights.sum() - 2.0) < 1e-12

    def test_polynomial_exactness(self):
        r = gauss_jacobi(16, 0.5)
        # int t^2 (1-t^2)^{1/2} dt = pi/8
        assert abs(r.weights @ r.nodes**2 - np.pi / 8) < 1e-13

    @pytest.mark.parametrize("order", [16, 64, 256])
    def test_legendre_rule_is_scipys_bit_for_bit(self, order):
        # the spectrum's seed-0 reference was recorded with scipy's rule
        r = gauss_jacobi(order, 0.0)
        x, w = roots_legendre(order)
        assert np.array_equal(r.nodes, x) and np.array_equal(r.weights, w)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.5])
    @pytest.mark.parametrize("order", [16, 64, 256])
    def test_gegenbauer_rule_matches_scipy_and_is_exact(self, order, alpha):
        r = gauss_jacobi(order, alpha)
        x, w = roots_jacobi(order, alpha, alpha)
        np.testing.assert_allclose(r.nodes, x, rtol=0, atol=1e-11)
        np.testing.assert_allclose(r.weights, w, rtol=0, atol=1e-11)
        # odd moments vanish by symmetry; int t^{2k} (1-t^2)^a dt = B(k+1/2, a+1),
        # which scipy's rule also meets to 1.1e-12 at order 256 and degree 470
        k = np.arange(order)
        moments = (r.nodes[:, None] ** (2 * k) * r.weights[:, None]).sum(axis=0)
        np.testing.assert_allclose(moments, beta(k + 0.5, alpha + 1), rtol=1e-11)

    def test_rule_domain(self):
        with pytest.raises(ValueError):
            gauss_jacobi(16, -0.5)
        with pytest.raises(ValueError):
            gauss_jacobi(1, 0.0)

    def test_clamp_correlation_array(self):
        arr = clamp_correlation(np.array([1.0 + 1e-13, -1.0 - 1e-13, 0.3]))
        np.testing.assert_allclose(arr, [1.0, -1.0, 0.3])
