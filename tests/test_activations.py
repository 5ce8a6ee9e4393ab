"""Activation maps: closed forms, series maps, derivatives at 1, one layer."""
import numpy as np
import pytest
from scipy.integrate import dblquad

from deepntk.activations import (SERIES_TOLERANCE, CorrelationMap,
                                 layer_correlation,
                                 make_activation, phiphi_expectation,
                                 phiprime_expectation, relu, relu_f,
                                 relu_one_minus_f, tanh_prime)
from deepntk.gaussmath import (PROJECTION_ORDER, expect1, expect2,
                               expect2_pairs, gauss_hermite, hermite_projection)
from deepntk.kernels import dense_layer_arrays
from deepntk.phase import InitParams, eoc_curve, variance_fixed_point

RELU = make_activation("relu")
TANH = make_activation("tanh")
ORACLE = gauss_hermite(256)
#: the package's one Tanh rule, behind the series and every fallback (the
#: same order as ORACLE, and the same cached object)
PROJECTION = gauss_hermite(PROJECTION_ORDER)


def series_bound(g, q1, q2):
    """The certificate's bound SERIES_TOLERANCE sqrt(E[g(u1)^2] E[g(u2)^2]),
    second moments by the order-256 rule."""
    s1, s2 = (expect1(lambda u: g(u) ** 2, q, ORACLE) for q in (q1, q2))
    return SERIES_TOLERANCE * np.sqrt(s1 * s2)


def relu_f_prime(c):
    """f'(c) = asin(c)/pi + 1/2, twice E[relu'(u1) relu'(u2)] at unit
    variances (the doubling is exact)."""
    return 2.0 * phiprime_expectation(RELU, 1.0, 1.0, c)


def engine_layer(activation, qx, qxp, qcov):
    """(E[phi(u1) phi(u2)], E[phi'(u1) phi'(u2)]) of one layer: layer 2 of
    the kernel engine at (sigma_b, sigma_w) = (0, 1), where its vcov and
    qdot are the two expectations bit for bit."""
    trace = dense_layer_arrays("ffnn", activation, InitParams(0.0, 1.0),
                               qx, qxp, qcov, 2)
    return trace.vcov[1], trace.qdot[1]


def engine_diagonal(activation, q):
    """E[phi(sqrt(q) Z)^2] of each variance of q: layer 2's variance of the
    kernel engine at (sigma_b, sigma_w) = (0, 1), bit for bit."""
    q = np.asarray(q, dtype=np.float64)
    return dense_layer_arrays("ffnn", activation, InitParams(0.0, 1.0),
                              q, q, 0.0, 2).vx[1]


def relu_phiphi_oracle(c: float) -> float:
    """E[relu(u1) relu(u2)] at unit variances by adaptive quadrature over
    the positive quadrant (independent of the arcsin closed form)."""
    s = np.sqrt(1.0 - c * c)

    def integrand(z2, z1):
        return (z1 * (c * z1 + s * z2)
                * np.exp(-(z1 * z1 + z2 * z2) / 2.0) / (2.0 * np.pi))

    val, _ = dblquad(integrand, 0.0, 12.0, lambda z1: -c * z1 / s, 12.0,
                     epsabs=1e-13, epsrel=1e-13)
    return val


class TestReluF:
    def test_value_at_one(self):
        assert relu_f(1.0) == 1.0

    def test_value_at_zero(self):
        assert abs(relu_f(0.0) - 1.0 / np.pi) < 1e-15

    def test_value_at_minus_one(self):
        assert abs(relu_f(-1.0)) < 1e-15

    def test_prime_at_one(self):
        assert relu_f_prime(1.0) == 1.0

    def test_prime_at_zero(self):
        assert relu_f_prime(0.0) == 0.5

    def test_prime_at_minus_one(self):
        assert abs(relu_f_prime(-1.0)) < 1e-15

    @pytest.mark.parametrize("c", [-0.8, -0.3, 0.2, 0.7])
    def test_against_adaptive_oracle(self, c):
        assert abs(2.0 * relu_phiphi_oracle(c) - relu_f(c)) < 1e-9

    def test_series_and_direct_branches_agree(self):
        # around the 1e-4 switchover both evaluations must coincide
        for gamma in (2e-4, 1.001e-4, 0.999e-4, 5e-5):
            direct = (1 - gamma) / 2.0 + (
                (1 - gamma) * np.arcsin(1 - gamma) + np.sqrt(1 - (1 - gamma) ** 2)
            ) / np.pi
            assert abs(relu_f(1.0 - gamma) - direct) < 1e-12

    def test_one_minus_f_accuracy_deep(self):
        # frozen 50-digit mpmath evaluation of 1 - f(1 - 1e-8)
        val = relu_one_minus_f(1e-8)
        assert abs(val - 9.9996998945611309e-09) < 1e-21

    @pytest.mark.parametrize("low,high,bound", [
        (1e-14, 1e-5, 1e-15), (1e-5, 1e-4, 3e-13), (1e-4, 1e-2, 1e-11),
        (1e-2, np.inf, 2e-14)], ids=["series", "series_edge", "exact_edge", "exact"])
    def test_one_minus_f_against_mpmath(self, low, high, bound):
        # relative error against 40-digit 1 - f(1 - gamma) on 302 log-uniform
        # gammas in [1e-14, 2], by band [low, high) on either side of the
        # 1e-4 switch.
        # Largest errors measured: 6.7e-16, 2.1e-13 (the truncated g^{7/2}
        # term), 9.2e-12 (cancellation in the exact form, the weakest band)
        # and 8.4e-15.  The series summed as g - g sqrt(g) (s + b g) and as
        # g - s g^{3/2} - b g^{5/2} give the same maxima.
        mpmath = pytest.importorskip("mpmath")
        gammas = np.logspace(-14, np.log10(2.0), 302)
        gammas = gammas[(gammas >= low) & (gammas < high)]
        got = relu_one_minus_f(gammas)
        with mpmath.workdps(40):
            worst = 0.0
            for g, value in zip(gammas.tolist(), got.tolist()):
                c = 1 - mpmath.mpf(g)
                want = 1 - ((c * mpmath.asin(c) + mpmath.sqrt(1 - c * c))
                            / mpmath.pi + c / 2)
                worst = max(worst, abs(float((value - want) / want)))
        assert worst < bound


@pytest.fixture(scope="module")
def eoc_map():
    sw = eoc_curve(TANH, 0.2)
    q = variance_fixed_point(TANH, InitParams(0.2, sw))
    return CorrelationMap(TANH, q, 0.2, sw)


class TestTanhF:

    def test_fixed_point_normalization(self, eoc_map):
        assert abs(eoc_map(1.0) - 1.0) < 1e-8

    def test_zero_bias_uncorrelated(self):
        cm = CorrelationMap(TANH, 0.8, 0.0, 1.3)
        assert abs(cm(0.0)) < 1e-14  # odd function, zero mean

    def test_against_monte_carlo(self, eoc_map):
        rng = np.random.default_rng(7)
        z1, z2 = rng.standard_normal((2, 10**6))
        c, q = 0.5, eoc_map.q
        u1 = np.sqrt(q) * z1
        u2 = np.sqrt(q) * (c * z1 + np.sqrt(1 - c * c) * z2)
        vals = np.tanh(u1) * np.tanh(u2)
        mc = (eoc_map.sigma_b**2 + eoc_map.sigma_w**2 * vals.mean()) / q
        se = eoc_map.sigma_w**2 * vals.std(ddof=1) / 1000.0 / q
        assert abs(eoc_map(c) - mc) < 3 * se

    def test_first_derivative_at_one_is_chi(self, eoc_map):
        assert abs(eoc_map.derivative_at_one(1) - 1.0) < 1e-6

    @pytest.mark.parametrize("c", [-0.6, 0.0, 0.45, 0.8])
    def test_first_derivative_vs_finite_difference(self, eoc_map, c):
        # Price's theorem: f'(c) = sigma_w^2 E[tanh'(u1) tanh'(u2)]
        h = 1e-5
        fd = (eoc_map(c + h) - eoc_map(c - h)) / (2 * h)
        q = eoc_map.q
        assert abs(eoc_map.sigma_w**2 * phiprime_expectation(TANH, q, q, c) - fd) < 1e-6

    def test_second_derivative_positive_at_one(self, eoc_map):
        assert eoc_map.derivative_at_one(2) > 0

    def test_third_derivative_vs_finite_difference(self, eoc_map):
        # second backward difference at 1 of f'(c) = sigma_w^2 E[tanh' tanh'],
        # first-order accurate: 2.8e-4 relative at h = 1e-4
        h = 1e-4
        q, sw2 = eoc_map.q, eoc_map.sigma_w**2
        f1 = sw2 * phiprime_expectation(TANH, np.full(3, q), np.full(3, q),
                                        1.0 - h * np.arange(3))
        fd = (f1[0] - 2.0 * f1[1] + f1[2]) / h**2
        assert abs(fd / eoc_map.derivative_at_one(3) - 1.0) < 1e-3

    # q^(j-1) E[tanh^(j)(sqrt(q) Z)^2], whose sigma_w^2 multiple is f^(j)(1),
    # by 50-digit mpmath quadrature (the same 40 digits at 70)
    @pytest.mark.parametrize("q, j, reference, rtol", [
        (0.5, 1, 0.5924257933717963939799452122802561975892, 1e-12),
        (0.5, 2, 0.1621589969414366029017216680448810356906, 1e-12),
        (0.5, 3, 0.3374893975929949361107850660483434457318, 1e-12),
        (1.3, 1, 0.4187277677618403506603904986367844485523, 1e-10),
        (1.3, 2, 0.3676752696452714130529438233706921878064, 1e-8),
        (1.3, 3, 1.577442648928258444998433065148179257608, 1e-6),
    ])
    def test_derivative_at_one_against_mpmath(self, q, j, reference, rtol):
        cmap = CorrelationMap(TANH, q, 0.2, 1.3)
        assert abs(cmap.derivative_at_one(j) / (1.3**2 * reference) - 1.0) < rtol

    def test_order_out_of_range(self, eoc_map):
        with pytest.raises(ValueError):
            eoc_map.derivative_at_one(0)

    def test_relu_map_rejected(self):
        with pytest.raises(ValueError, match="Tanh"):
            CorrelationMap(RELU, 1.0, 0.0, np.sqrt(2.0))


class TestCovarianceStep:
    """One ffnn layer of variance/covariance propagation (layer 2 of a
    ``dense_layer_arrays`` recursion from the given first-layer triple)."""

    def test_relu_critical_fixed_triple(self):
        v = np.array([0.5, 1.0, 3.0])
        tr = dense_layer_arrays("ffnn", RELU, InitParams(0.0, np.sqrt(2.0)),
                                v, v, v, 2, keep=[2])
        for out in (tr.qx, tr.qxp, tr.qcov):
            np.testing.assert_allclose(out[0], v, rtol=1e-14)

    def test_relu_ordered_variance_limit(self):
        tr = dense_layer_arrays("ffnn", RELU, InitParams(1.0, 0.1),
                                5.0, 5.0, 5.0, 201, keep=[201])
        assert abs(tr.qx[0] - 1.0 / 0.995) < 1e-12

    def test_tanh_step_vs_wide_random_layer(self):
        # propagate (1, 1, 0.5) through one width-1e5 random tanh layer:
        # the next-layer covariance equals sb^2 + sw^2 mean_j phi(u1_j) phi(u2_j)
        # over the layer's sampled input units (weight average taken exactly)
        rng = np.random.default_rng(42)
        n = 10**5
        sb, sw = 0.3, 1.2
        z1, z2 = rng.standard_normal((2, n))
        u1, u2 = z1, 0.5 * z1 + np.sqrt(1 - 0.25) * z2
        prods = np.tanh(u1) * np.tanh(u2)
        est = sb**2 + sw**2 * prods.mean()
        se = sw**2 * prods.std(ddof=1) / np.sqrt(n)
        qcov = dense_layer_arrays("ffnn", TANH, InitParams(sb, sw),
                                  1.0, 1.0, 0.5, 2, keep=[2]).qcov[0]
        assert abs(qcov - est) < 3 * se

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            dense_layer_arrays("ffnn", RELU, InitParams(0.0, 1.0), 0.0, 1.0, 0.0, 2)

    def test_cauchy_schwarz_violation_rejected(self):
        with pytest.raises(ValueError):
            dense_layer_arrays("ffnn", RELU, InitParams(0.0, 1.0), 1.0, 1.0, 1.1, 2)

    def test_tanh_diagonal_is_the_rules_second_moment(self):
        # every variance, its series certified or not, takes E[tanh^2] from
        # the order-256 projection, bit for bit
        q = np.array([[0.5, 2.0, 0.5], [1.25, 2.0, 0.5]])
        diag = engine_diagonal(TANH, q)
        assert diag.shape == q.shape
        kinds = set()
        for v, e in zip(q.ravel(), diag.ravel()):
            one = np.array([v])
            kinds.add(bool(TANH.series.pairs(one, one, np.ones(1))[1][0, 0]))
            assert e == hermite_projection(np.tanh, [v])[1][0]
        assert kinds == {True, False}


class TestLayerExpectations:
    def test_relu_snaps_near_one_correlations(self):
        # f'(c) has square-root sensitivity at 1: within 1e-12 it is f'(1)
        qx = np.array([2.0, 2.0, 0.5])
        qcov = qx * np.array([1.0 - 1e-13, 1.0 + 1e-13, -1.0 + 1e-13])
        phiphi, phiprime = engine_layer(RELU, qx, qx, qcov)
        np.testing.assert_array_equal(phiprime, [0.5, 0.5, 0.0])
        np.testing.assert_array_equal(phiphi, [1.0, 1.0, 0.0])

    def test_mixed_batch_is_the_scalar_calls(self):
        # every branch in one batch: c = +-1, the snap on both sides of +-1,
        # 1 - c on both sides of the series threshold 1e-4, ordinary c
        c = np.array([1.0, -1.0, 1.0 - 5e-13, 1.0 + 5e-13, -1.0 + 5e-13,
                      1.0 - 5e-12, 1.0 - 5e-5, 1.0 - 1e-4, 1.0 - 2e-4, 0.3,
                      -0.7, 0.0, -1.0 + 5e-5])
        root = np.linspace(0.5, 3.0, c.size)
        got = layer_correlation(c * root, root)

        def maps(c):
            return relu_f(c), relu_f_prime(c)

        f, f_prime = maps(got)
        for i in range(c.size):
            alone = layer_correlation(c[i] * root[i], root[i])
            assert got[i] == alone
            assert (f[i], f_prime[i]) == maps(alone)
        past = 1.0 - got < 1e-4
        for part in (got[past], got[~past]):  # all, or none, on the series side
            f, f_prime = maps(part)
            assert all((f[i], f_prime[i]) == maps(part[i])
                       for i in range(part.size))

    def test_exact_unit_correlations_skip_the_series(self, monkeypatch):
        # c = 1 gives f = 1 from either form: a batch whose only entries
        # past the threshold are exactly 1 (self pairs) runs no series, and
        # one more entry near 1 brings the series back, with the same bits
        from deepntk import activations
        calls = []
        series = activations._relu_series
        monkeypatch.setattr(activations, "_relu_series",
                            lambda g, *a: calls.append(g.size) or series(g, *a))
        c = np.array([0.3, 1.0, -0.5, 1.0, 1.0 - 5e-5])
        alone = [relu_f(np.array([v])) for v in c]
        calls.clear()
        np.testing.assert_array_equal(relu_f(c[:4]), np.concatenate(alone[:4]))
        assert calls == []
        np.testing.assert_array_equal(relu_f(c), np.concatenate(alone))
        assert calls == [3]

    def test_tanh_matches_scalar_quadrature(self):
        # order-256 oracle; the tolerance is the series certificate's bound
        qx = np.array([0.4, 1.3, 2.0])
        qxp = np.array([0.9, 1.3, 0.3])
        c = np.array([-0.7, 0.2, 0.95])
        phiphi, phiprime = engine_layer(TANH, qx, qxp, c * np.sqrt(qx * qxp))
        for i in range(3):
            args = (qx[i], qxp[i], c[i], ORACLE)
            for got, g in ((phiphi[i], np.tanh), (phiprime[i], tanh_prime)):
                assert abs(got - expect2(g, *args)) <= series_bound(g, qx[i], qxp[i])

    @pytest.mark.parametrize("activation", [RELU, TANH], ids=["relu", "tanh"])
    def test_is_the_kernel_engine_layer(self, activation):
        # both run activations.layer_maps, so layer 2 of the engine is
        # sigma_b^2 + sigma_w^2 E[phi phi] and sigma_w^2 E[phi' phi'] bit for
        # bit, the pair functions taken at the engine's checked correlations
        qx = np.array([0.4, 1.3, 2.0, 0.7])
        qxp = np.array([0.9, 1.3, 0.3, 0.7])
        qcov = np.array([-0.7, 0.2, 0.95, 1.0 - 1e-13]) * np.sqrt(qx * qxp)
        p = InitParams(0.3, 1.2)
        trace = dense_layer_arrays("ffnn", activation, p, qx, qxp, qcov, 2)
        c = layer_correlation(qcov, np.sqrt(qx * qxp))
        phiphi = phiphi_expectation(activation, qx, qxp, c)
        phiprime = phiprime_expectation(activation, qx, qxp, c)
        np.testing.assert_array_equal(trace.vcov[1],
                                      p.sigma_b**2 + p.sigma_w**2 * phiphi)
        np.testing.assert_array_equal(trace.qdot[1], p.sigma_w**2 * phiprime)

    @pytest.mark.parametrize("activation", [RELU, TANH], ids=["relu", "tanh"])
    def test_zero_variance_rejected(self, activation):
        with pytest.raises(ValueError, match="not finite"):
            with np.errstate(invalid="ignore"):
                engine_layer(activation, np.zeros(2), np.ones(2), np.zeros(2))


class TestTanhSeries:
    VARIANCES = (0.21, 0.512, 1.0)
    C_GRID = np.array([-1.0 + 1e-12, -0.9, -0.4, 0.0, 0.3, 0.8, 0.99,
                       1.0 - 1e-12, 1.0])

    @pytest.mark.parametrize("q1", VARIANCES)
    @pytest.mark.parametrize("q2", VARIANCES)
    def test_certified_pairs_within_the_bound_of_order_256(self, q1, q2):
        c = self.C_GRID
        values, certified = TANH.series.pairs(np.full(c.size, q1),
                                              np.full(c.size, q2), c)
        assert certified[:, 0].all()  # tanh certifies at every c up to q = 1
        if max(q1, q2) < 1.0:
            assert certified.all()
        for j, g in enumerate((np.tanh, tanh_prime)):
            bound = series_bound(g, q1, q2)
            for i in np.flatnonzero(certified[:, j]):
                assert abs(values[i, j] - expect2(g, q1, q2, c[i], ORACLE)) <= bound

    def test_uncertified_pairs_are_the_quadrature_bit_for_bit(self):
        q = np.full(4, 5.2)
        c = np.array([0.9, 0.99, 1.0 - 1e-12, 1.0])
        assert not TANH.series.pairs(q, q, c)[1].any()
        np.testing.assert_array_equal(phiphi_expectation(TANH, q, q, c),
                                      expect2_pairs(np.tanh, q, q, c, PROJECTION))
        np.testing.assert_array_equal(phiprime_expectation(TANH, q, q, c),
                                      expect2_pairs(tanh_prime, q, q, c, PROJECTION))

    def test_mixed_call_sends_only_uncertified_pairs_to_the_quadrature(self):
        q = np.array([5.2, 0.3, 5.2, 0.512])
        c = np.array([0.999, 0.9, 0.2, 1.0])
        values, certified = TANH.series.pairs(q, q, c)
        np.testing.assert_array_equal(certified[:, 0], [False, True, True, True])
        got = phiphi_expectation(TANH, q, q, c)
        np.testing.assert_array_equal(got[1:], values[1:, 0])
        assert got[0] == expect2_pairs(np.tanh, q[:1], q[:1], c[:1], PROJECTION)[0]

    def test_full_table_starts_over_with_the_variances_of_the_call(self, monkeypatch):
        import deepntk.activations as act
        q = np.array([0.3, 0.4, 0.5, 0.6, 0.7])
        c = np.linspace(-0.5, 1.0, 5)
        calls = [(q[:3], q[:3], c[:3]),    # 3 of the 4 rows
                 (q[2:], q[2:], c[2:]),    # 0.5 seen, 2 new: starts over
                 (q, q[::-1], c)]          # 5 variances: a larger table
        want = [TANH.series.pairs(*args) for args in calls]
        monkeypatch.setattr(act, "_SERIES_TABLE_ROWS", 4)
        small = make_activation("tanh").series
        for args, (values, certified) in zip(calls, want):
            got_values, got_certified = small.pairs(*args)
            np.testing.assert_array_equal(got_values, values)
            np.testing.assert_array_equal(got_certified, certified)
        assert small.degree.size == 5

    def test_values_after_a_start_over_are_a_fresh_tables(self):
        # 300 variances overfill the 256 rows; the start-over renumbers the
        # rows, and no value read after it may come from a row's old variance
        rng = np.random.default_rng(7)
        table = make_activation("tanh").series
        old = rng.uniform(0.05, 3.0, 200)
        for v in old:  # the row pair (r, r) of every row
            table.pairs(np.array([v]), np.array([v]), np.array([0.5]))
        q1, q2 = rng.uniform(0.05, 3.0, (2, 50))
        q1[:10] = old[:10]  # seen before the start-over, in other rows after it
        c = rng.uniform(-1.0, 1.0, 50)
        got = [table.pairs(q1, q2, c)]
        assert len(table.index) == 100
        got += [table.pairs(np.array([v]), np.array([v]), np.array([0.5]))
                for v in np.concatenate((q1, q2))]
        fresh = make_activation("tanh").series
        want = [fresh.pairs(q1, q2, c)]
        want += [fresh.pairs(np.array([v]), np.array([v]), np.array([0.5]))
                 for v in np.concatenate((q1, q2))]
        for (values, certified), (fresh_values, fresh_certified) in zip(got, want):
            np.testing.assert_array_equal(values, fresh_values)
            np.testing.assert_array_equal(certified, fresh_certified)
        # and the diagonals, looked up on a table of no rows yet
        np.testing.assert_array_equal(engine_diagonal(make_activation("tanh"), q1),
                                      engine_diagonal(TANH, q1))

    def test_a_pair_through_a_fixed_point_is_a_fresh_tables_run(self):
        # at the edge of chaos q reaches a fixed point bit for bit, where a
        # lookup reuses the previous layer's data; the shared table has seen
        # other variances and pairs, the fresh one none
        p = InitParams(0.2, eoc_curve(TANH, 0.2))
        first = (0.9, 0.4, 0.3)
        warm = dense_layer_arrays("ffnn", TANH, p, *first, 300)
        fresh = dense_layer_arrays("ffnn", make_activation("tanh"), p, *first, 300)
        assert warm.vx[-1] == warm.vx[-2] == warm.vxp[-1]
        for name in ("vx", "vxp", "vcov", "wK", "qdot"):
            np.testing.assert_array_equal(getattr(warm, name), getattr(fresh, name))

    @pytest.mark.parametrize("q", VARIANCES)
    def test_series_at_one_is_the_diagonal(self, q):
        one = np.array([q])
        phiphi = phiphi_expectation(TANH, one, one, np.ones(1))
        cmap = CorrelationMap(TANH, q, 0.2, 1.3)
        assert cmap(1.0) == (0.2**2 + 1.3**2 * phiphi[0]) / q

    @pytest.mark.parametrize("sigma_b, sigma_w", [
        (0.2, None), (1.0, 2.5), (0.5, 3.0), (0.2, 1.2)],
        ids=["eoc", "chaotic", "chaotic_wide", "ordered"])
    def test_self_pair_correlation_stays_one(self, sigma_b, sigma_w):
        # a self pair's covariance is the series at c = 1 (or the
        # quadrature), its variance the rule's second moment: their gap sits
        # inside the snap, so c is 1 at every layer, per pair and shared
        sigma_w = eoc_curve(TANH, sigma_b) if sigma_w is None else sigma_w
        p = InitParams(sigma_b, sigma_w)
        q = np.array([0.3, 1.0, 4.0])
        for first in (q, *q):
            trace = dense_layer_arrays("ffnn", TANH, p, first, first, first, 300)
            assert np.all(trace.corr == 1.0)

    def test_map_takes_the_pair_value(self):
        q = 0.5  # f(c) = e / q, and back, without rounding
        cmap = CorrelationMap(TANH, q, 0.0, 1.0)
        c = self.C_GRID
        e = phiphi_expectation(TANH, np.full(c.size, q), np.full(c.size, q), c)
        assert [cmap(v) * q for v in c] == list(e)

    @pytest.mark.parametrize("sigma_b, sigma_w", [
        (0.2, None), (1.0, 1.0), (0.5, 2.5)], ids=["eoc", "ordered", "chaotic"])
    def test_map_is_the_engine_pair_bit_for_bit(self, sigma_b, sigma_w):
        # f(c) = (sigma_b^2 + sigma_w^2 E[tanh tanh]) / q at the fixed point,
        # certified or not: near c = 1 at the larger variances the pair is
        # the quadrature, as the engine's is
        sigma_w = eoc_curve(TANH, sigma_b) if sigma_w is None else sigma_w
        q = variance_fixed_point(TANH, InitParams(sigma_b, sigma_w))
        cmap = CorrelationMap(TANH, q, sigma_b, sigma_w)
        for c in [*np.linspace(-1.0, 1.0, 41), 1.0 - 1e-9, 1.0 - 1e-6, 0.999]:
            e = phiphi_expectation(TANH, q, q, c)
            assert cmap(c) == (sigma_b**2 + sigma_w**2 * e) / q


class TestInvariants:
    def test_relu_f_matches_quadrature_expectation(self):
        # kinked integrand: tensor Gauss-Hermite converges only algebraically,
        # so the cross-validation runs at measured quadrature accuracy (the
        # 1e-9 closed-form validation is test_against_adaptive_oracle above)
        from deepntk.gaussmath import expect2
        worst = max(abs(2.0 * expect2(relu, 1.0, 1.0, c, gauss_hermite(64)) - relu_f(c))
                    for c in np.linspace(-0.9, 0.9, 13))
        assert worst < 1e-2

    def test_tanh_map_uncertified_branch_is_the_quadrature(self):
        # at q = 5.2 and c near 1 the series is not certified: the map is
        # the engine's bivariate quadrature on the projection rule, bit for bit
        q, c, sb, sw = 5.2, 1.0 - 1e-12, 0.2, 1.3
        got = CorrelationMap(TANH, q, sb, sw)(c)
        e = expect2_pairs(np.tanh, np.array([q]), np.array([q]), np.array([c]),
                          PROJECTION)[0]
        assert got == (sb**2 + sw**2 * e) / q
