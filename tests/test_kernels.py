"""Kernel recursions: dense, conv, residual, scaled; limits and normalization."""
import numpy as np
import pytest

from deepntk.activations import make_activation, relu_f, relu_f_prime
from deepntk.errors import AssumptionViolatedError, DivergenceError
from deepntk.kernels import (Architecture, InputPair, dense_layer_arrays,
                             first_layer_dense, kind_law, limiting_kernel,
                             normalize, ntk_trace, scaled_resnet_growth_constant)
from deepntk.phase import InitParams, eoc_curve
from deepntk.spectral import KernelConfig, zonal_profile

RELU = make_activation("relu")
TANH = make_activation("tanh")
EOC_RELU = InitParams(0.0, np.sqrt(2.0))
FFNN = Architecture("ffnn")
RESNET = Architecture("resnet_dense")
SCALED = Architecture("scaled_resnet_dense")


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(17)


def brute_force_conv_ntk(x, xp, params, M, k, L, kind):
    """Loop/dict re-implementation of the conv recursions, no vectorization.

    Independent oracle for the circulant code paths: ReLU expectations via
    the closed forms, every (alpha, alpha') pair handled by explicit loops.
    ``kind`` is "cnn", "resnet_conv" or "scaled_resnet_conv"; the scaled
    kind weights layer l's block terms by 1/l.
    """
    residual = kind != "cnn"
    sb2, sw2 = params.sigma_b**2, params.sigma_w**2
    n0 = x.shape[0]
    norm = n0 * (2 * k + 1)

    def window(u, v, a, ap):
        return sum(u[j][(a + b) % M] * v[j][(ap + b) % M]
                   for j in range(n0) for b in range(-k, k + 1))

    grids = {}
    for name, (u, v) in (("xx", (x, x)), ("pp", (xp, xp)), ("xp", (x, xp))):
        grids[name] = [[sb2 + sw2 * window(u, v, a, ap) / norm
                        for ap in range(M)] for a in range(M)]
    K = [row[:] for row in grids["xp"]]

    def qhat_and_qdot(g, varx, varxp, w):
        qhat = [[0.0] * M for _ in range(M)]
        qdot = [[0.0] * M for _ in range(M)]
        for a in range(M):
            for ap in range(M):
                v1, v2 = varx[a], varxp[ap]
                c = min(1.0, max(-1.0, g[a][ap] / np.sqrt(v1 * v2)))
                qhat[a][ap] = w * (sb2 + sw2 * 0.5 * np.sqrt(v1 * v2) * relu_f(c))
                qdot[a][ap] = w * sw2 * 0.5 * relu_f_prime(c)
        return qhat, qdot

    for layer in range(2, L + 1):
        w = 1.0 / layer if kind == "scaled_resnet_conv" else 1.0
        varx = [grids["xx"][a][a] for a in range(M)]
        varxp = [grids["pp"][a][a] for a in range(M)]
        qh_xx, _ = qhat_and_qdot(grids["xx"], varx, varx, w)
        qh_pp, _ = qhat_and_qdot(grids["pp"], varxp, varxp, w)
        qh_xp, qd_xp = qhat_and_qdot(grids["xp"], varx, varxp, w)
        psi = [[qd_xp[a][ap] * K[a][ap] + qh_xp[a][ap] for ap in range(M)]
               for a in range(M)]

        def circ(g):
            return [[sum(g[(a + b) % M][(ap + b) % M] for b in range(-k, k + 1))
                     / (2 * k + 1) for ap in range(M)] for a in range(M)]

        if residual:
            K = [[K[a][ap] + circ(psi)[a][ap] for ap in range(M)] for a in range(M)]
            for name, qh in (("xx", qh_xx), ("pp", qh_pp), ("xp", qh_xp)):
                cg = circ(qh)
                grids[name] = [[grids[name][a][ap] + cg[a][ap] for ap in range(M)]
                               for a in range(M)]
        else:
            K = circ(psi)
            for name, qh in (("xx", qh_xx), ("pp", qh_pp), ("xp", qh_xp)):
                grids[name] = circ(qh)
    return np.array(K)


class TestFfnn:
    def test_relu_critical_diagonal_linear(self):
        d = 4
        x = np.full(d, 1.0)  # ||x||^2 = d
        tr = ntk_trace(FFNN, InputPair(x, x), RELU, EOC_RELU, 10)
        assert abs(tr.ntk[-1] - 20.0) < 1e-12
        np.testing.assert_allclose(tr.ntk, 2.0 * np.arange(1, 11), rtol=1e-14)

    def test_first_layer_orthogonal_inputs(self):
        x = np.array([1.0, 0.0])
        xp = np.array([0.0, 1.0])
        tr = ntk_trace(FFNN, InputPair(x, xp), RELU, InitParams(0.0, 1.0), 1)
        assert tr.ntk[0] == 0.0

    def test_first_layer_value(self, rng):
        x, xp = rng.standard_normal((2, 5))
        p = InitParams(0.4, 1.1)
        tr = ntk_trace(FFNN, InputPair(x, xp), TANH, p, 3)
        expect = p.sigma_b**2 + p.sigma_w**2 * (x @ xp) / 5
        assert abs(tr.ntk[0] - expect) < 1e-14

    def test_ordered_converges_to_lambda(self, rng):
        p = InitParams(1.0, 0.1)
        x, xp = rng.standard_normal((2, 7))
        pair = InputPair(x, xp)
        lam = limiting_kernel(Architecture("ffnn"), RELU, p, pair)
        # oracle: run the recursion itself to depth 500 (geometric tail)
        deep = ntk_trace(FFNN, pair, RELU, p, 500)
        assert abs(deep.ntk[-1] - lam) < 1e-12
        tr = ntk_trace(FFNN, pair, RELU, p, 60)
        assert abs(tr.ntk[-1] - lam) < 1e-6

    def test_chaotic_relu_overflow_flagged(self, rng):
        x, xp = rng.standard_normal((2, 6))
        tr = ntk_trace(FFNN, InputPair(x, xp), RELU, InitParams(0.0, 2.0), 3000)
        assert tr.overflow
        assert np.all(np.isfinite(tr.log_qx))
        assert np.isinf(tr.qx[-1])

    def test_chaotic_relu_renormalised_state_stays_finite(self, rng):
        # variances double per layer; without renormalising below
        # sqrt(float max) the correlation's qx * qxp overflows near 1e154
        x, xp = rng.standard_normal((2, 6))
        tr = ntk_trace(FFNN, InputPair(x, xp), RELU, InitParams(0.0, 2.0), 3000)
        assert tr.overflow
        assert np.all(np.isfinite(tr.corr))
        assert np.all(np.isfinite(tr.qdot[1:]))
        assert np.all(np.isfinite(tr.ntk_log))

    def test_ordered_relu_variance_log_exact_past_underflow(self, rng):
        # sigma_b = 0: q^l = (sigma_w^2/2)^{l-1} q^1 drops below 1e-308
        x, xp = rng.standard_normal((2, 6))
        tr = ntk_trace(FFNN, InputPair(x, xp), RELU, InitParams(0.0, 1.0), 3000)
        ls = np.arange(3000)
        np.testing.assert_allclose(tr.log_qx, np.log(x @ x / 6) + ls * np.log(0.5),
                                   rtol=1e-12)
        assert np.all(np.isfinite(tr.corr)) and np.all(np.isfinite(tr.ntk_log))

    def test_trace_correlations_bounded(self, rng):
        x, xp = rng.standard_normal((2, 6))
        tr = ntk_trace(FFNN, InputPair(x, xp), TANH, InitParams(0.3, 1.5), 100)
        assert np.all(np.abs(tr.corr) <= 1.0)

    def test_pair_swap_symmetry(self, rng):
        x, xp = rng.standard_normal((2, 6))
        a = ntk_trace(FFNN, InputPair(x, xp), RELU, InitParams(0.5, 1.2), 25).ntk
        b = ntk_trace(FFNN, InputPair(xp, x), RELU, InitParams(0.5, 1.2), 25).ntk
        assert np.array_equal(a, b)


class TestCnn:
    def test_translation_invariant_matches_dense_everywhere(self, rng):
        n0, M, k = 3, 6, 1
        cx = np.repeat(rng.standard_normal(n0)[:, None], M, axis=1)
        cxp = np.repeat(rng.standard_normal(n0)[:, None], M, axis=1)
        pair = InputPair(cx, cxp)
        p = InitParams(0.3, 1.2)
        full = ntk_trace(Architecture("cnn", M, k, False), pair, RELU, p, 50)
        scalar = ntk_trace(Architecture("cnn", M, k, True), pair, RELU, p, 50)
        dev = np.abs(full.ntk - scalar.ntk[:, None, None]).max()
        assert dev < 1e-10

    def test_first_layer_window_formula(self, rng):
        n0, M, k = 2, 5, 1
        x = rng.standard_normal((n0, M))
        xp = rng.standard_normal((n0, M))
        p = InitParams(0.4, 1.3)
        tr = ntk_trace(Architecture("cnn", M, k, False), InputPair(x, xp), RELU, p, 1)
        expected = (p.sigma_w**2 * InputPair(x, xp).conv_inner(k)
                    / (n0 * (2 * k + 1)) + p.sigma_b**2)
        np.testing.assert_allclose(tr.ntk[0], expected, atol=1e-14)

    def test_full_filter_averages_within_offset(self, rng):
        # 2k+1 = M: the circulant average runs over every shift, so each
        # kernel entry depends only on the offset alpha - alpha'
        n0, M, k = 2, 5, 2
        x = rng.standard_normal((n0, M))
        xp = rng.standard_normal((n0, M))
        tr = ntk_trace(Architecture("cnn", M, k, False), InputPair(x, xp), RELU,
                       InitParams(0.2, 1.1), 4)
        K2 = tr.ntk[1]
        for off in range(M):
            diag = [K2[a, (a + off) % M] for a in range(M)]
            assert np.ptp(diag) < 1e-12

    def test_assumption1_violation_raises(self, rng):
        n0, M, k = 2, 4, 1
        x = rng.standard_normal((n0, M))
        xp = rng.standard_normal((n0, M))
        with pytest.raises(AssumptionViolatedError):
            ntk_trace(Architecture("cnn", M, k, True), InputPair(x, xp), RELU,
                      InitParams(0.3, 1.1), 3)

    def test_filter_width_validation(self):
        with pytest.raises(ValueError):
            Architecture("cnn", positions=3, filter_half_width=2)


class TestResnetDense:
    def test_variance_growth_closed_form(self):
        d = 6
        x = np.full(d, 1.0)
        tr = ntk_trace(RESNET, InputPair(x, x), RELU, EOC_RELU, 12)
        expect = (1.0 + 1.0) ** np.arange(12) * 2.0  # (1+sw^2/2)^{l-1} sw^2 ||x||^2/d
        np.testing.assert_allclose(tr.qx, expect, rtol=1e-13)

    def test_first_layer_matches_dense(self, rng):
        x, xp = rng.standard_normal((2, 5))
        p = InitParams(0.3, 1.0)
        tr = ntk_trace(RESNET, InputPair(x, xp), RELU, p, 1)
        assert abs(tr.ntk[0] - (p.sigma_b**2 + p.sigma_w**2 * (x @ xp) / 5)) < 1e-14

    def test_normalized_diagonal_limit_and_rate(self):
        # block-only skip recursion: K^l/(l (1+a)^{l-1}) -> (a/(1+a)) q^1
        # with an exactly C/l residual (the limiting constant carries the
        # a/(1+a) block weight; the skip path itself adds no parameters)
        d = 6
        x = np.full(d, 1.0)
        pair = InputPair(x, x)
        tr = ntk_trace(RESNET, pair, RELU, EOC_RELU, 4096)
        nk = normalize(tr)
        lim = limiting_kernel(Architecture("resnet_dense"), RELU, EOC_RELU, pair)
        assert abs(lim - 1.0) < 1e-14  # (1/2) * 2.0
        resid = np.abs(nk - lim)
        ls = np.arange(1, 4097)
        # the log-space reconstruction carries ~1e-12 relative noise at this
        # depth, so compare the exact C/l law at 1e-6
        np.testing.assert_allclose(resid[10:], 1.0 / ls[10:], rtol=1e-6)

    def test_exact_small_depth_values(self):
        # hand-computed: K^1..K^4 = 2, 6, 16, 40 at sigma_w = sqrt(2), q1 = 2
        x = np.full(4, 1.0)
        tr = ntk_trace(RESNET, InputPair(x, x), RELU, EOC_RELU, 4)
        np.testing.assert_allclose(tr.ntk, [2.0, 6.0, 16.0, 40.0], rtol=1e-14)

    def test_log_representation_survives_great_depth(self):
        x = np.full(4, 1.0)
        tr = ntk_trace(RESNET, InputPair(x, x), RELU, EOC_RELU, 2000)
        assert np.isinf(tr.ntk[-1])  # raw value overflows past ~1000 layers
        assert np.isfinite(tr.ntk_log[-1])
        nk = normalize(tr)
        assert np.isfinite(nk[-1])

    def test_tanh_rejected(self, rng):
        x, xp = rng.standard_normal((2, 5))
        with pytest.raises(ValueError):
            ntk_trace(RESNET, InputPair(x, xp), TANH, InitParams(0.1, 1.0), 4)


class TestResnetConv:
    def test_translation_invariant_matches_dense(self, rng):
        n0, M, k = 3, 6, 1
        cx = np.repeat(rng.standard_normal(n0)[:, None], M, axis=1)
        cxp = np.repeat(rng.standard_normal(n0)[:, None], M, axis=1)
        pair = InputPair(cx, cxp)
        p = InitParams(0.2, 1.2)
        full = ntk_trace(Architecture("resnet_conv", M, k, False), pair, RELU, p, 30)
        dense = ntk_trace(RESNET, InputPair(cx[:, 0], cxp[:, 0]), RELU, p, 30)
        # first-layer covariances coincide for constant channels, so the
        # scalar recursions must agree at every position pair; kernels grow
        # geometrically here, so compare relative to the depth scale
        rel = (np.abs(full.ntk - dense.ntk[:, None, None])
               / np.abs(dense.ntk)[:, None, None]).max()
        assert rel < 1e-10

    def test_first_layer_formula(self, rng):
        n0, M, k = 2, 4, 1
        x = rng.standard_normal((n0, M))
        xp = rng.standard_normal((n0, M))
        p = InitParams(0.5, 0.9)
        tr = ntk_trace(Architecture("resnet_conv", M, k, False), InputPair(x, xp),
                       RELU, p, 1)
        expected = (p.sigma_w**2 * InputPair(x, xp).conv_inner(k)
                    / (n0 * (2 * k + 1)) + p.sigma_b**2)
        np.testing.assert_allclose(tr.ntk[0], expected, atol=1e-14)


class TestScaledResnet:
    def test_variance_product_formula(self):
        d = 6
        x = np.full(d, 1.0)
        tr = ntk_trace(SCALED, InputPair(x, x), RELU, EOC_RELU, 50)
        ls = np.arange(2, 51)
        expect = 2.0 * np.concatenate(([1.0], np.cumprod(1.0 + 1.0 / ls)))
        np.testing.assert_allclose(tr.qx, expect, rtol=1e-13)

    def test_first_layer_matches_resnet(self, rng):
        x, xp = rng.standard_normal((2, 5))
        p = InitParams(0.2, 1.3)
        a = ntk_trace(SCALED, InputPair(x, xp), RELU, p, 1)
        b = ntk_trace(RESNET, InputPair(x, xp), RELU, p, 1)
        assert a.ntk[0] == b.ntk[0]

    def test_growth_envelope(self):
        # the block-only kernel grows as L^{sw^2/2} log L: the block term
        # is ~1/l of the full field covariance, which removes one factor of
        # L from the covariance envelope L^{1+sw^2/2} -- the normalised
        # sequence is bounded and slowly varying over two decades of depth
        d = 6
        x = np.full(d, 1.0)
        tr = ntk_trace(SCALED, InputPair(x, x), RELU, EOC_RELU, 10**4)
        comp = normalize(tr)
        window = comp[100:]
        assert window.max() / window.min() < 1.6
        lim = limiting_kernel(SCALED, RELU, EOC_RELU, InputPair(x, x))
        assert abs(comp[-1] / lim - 1.0) < 0.15  # 1/log L corrections remain

    @pytest.mark.parametrize("sigma_w", [0.5, 1.0, np.sqrt(2.0), 2.0])
    def test_growth_constant_is_the_product_at_its_depth(self, sigma_w):
        # prod_{k=2}^{L}(1 + h/k) = Gamma(L+1+h) / (Gamma(2+h) Gamma(L+1));
        # over L^h it tends to 1 / Gamma(2+h) as 1 + h(h+1)/(2L) + O(L^-2)
        mpmath = pytest.importorskip("mpmath")
        L = 10**6
        got = scaled_resnet_growth_constant(InitParams(0.1, sigma_w))
        with mpmath.workdps(40):
            h = mpmath.mpf(sigma_w**2) / 2
            assert abs(float(got * mpmath.gamma(2 + h)) - 1.0) < 1e-14
            product = (mpmath.gamma(L + 1 + h)
                       / (mpmath.gamma(2 + h) * mpmath.gamma(L + 1))
                       / mpmath.mpf(L) ** h)
            at_depth = got * (1 + h * (h + 1) / (2 * L))
            assert abs(float(product / at_depth) - 1.0) < 1e-11

    def test_conv_variant_matches_dense_on_invariant_inputs(self, rng):
        n0, M, k = 3, 6, 1
        cx = np.repeat(rng.standard_normal(n0)[:, None], M, axis=1)
        cxp = np.repeat(rng.standard_normal(n0)[:, None], M, axis=1)
        pair = InputPair(cx, cxp)
        p = InitParams(0.2, 1.2)
        arch = Architecture("scaled_resnet_conv", positions=M,
                            filter_half_width=k, assumption1=False)
        full = ntk_trace(arch, pair, RELU, p, 25)
        dense = ntk_trace(SCALED, InputPair(cx[:, 0], cxp[:, 0]), RELU, p, 25)
        rel = (np.abs(full.ntk - dense.ntk[:, None, None])
               / np.abs(dense.ntk)[:, None, None]).max()
        assert rel < 1e-12


class TestOneBadPairInABatch:
    """A batch with one bad pair among good ones raises as the bad pair
    alone does."""

    @pytest.mark.parametrize("kind,activation", [
        ("ffnn", RELU), ("resnet_dense", RELU), ("scaled_resnet_dense", RELU),
        ("ffnn", TANH)], ids=["ffnn", "resnet", "scaled", "tanh"])
    @pytest.mark.parametrize("field,value,message", [
        (0, 0.0, "variances must be positive and finite"),
        (1, np.inf, "variances must be positive and finite"),
        (2, np.nan, r"not finite or out of range \[-1,1\]"),
        (2, (1.0 + 1e-11) * np.sqrt(0.8), r"not finite or out of range \[-1,1\]"),
        (2, (-1.0 - 1e-11) * np.sqrt(0.8), r"not finite or out of range \[-1,1\]"),
    ], ids=["zero_variance", "inf_variance", "nan_covariance", "c_above_1",
            "c_below_minus_1"])
    def test_raises_with_the_lone_pair_message(self, kind, activation, field,
                                               value, message):
        p = InitParams(0.1, 1.2)
        batch = (np.full(6, 1.0), np.full(6, 0.8),
                 np.linspace(-0.5, 0.5, 6) * np.sqrt(0.8))
        batch[field][3] = value
        with pytest.raises(ValueError, match=message) as lone:
            dense_layer_arrays(kind, activation, p, *(a[3] for a in batch), 3)
        with pytest.raises(ValueError, match=message) as mixed:
            dense_layer_arrays(kind, activation, p, *batch, 3)
        assert str(mixed.value).split(":")[0] == str(lone.value).split(":")[0]


class TestNormalize:
    def test_average_critical_diagonal_constant(self):
        x = np.full(4, 1.0)
        tr = ntk_trace(FFNN, InputPair(x, x), RELU, EOC_RELU, 64)
        nk = normalize(tr)
        np.testing.assert_allclose(nk, 2.0, rtol=1e-13)

    def test_depth_one_all_schemes_identity(self, rng):
        # alpha_1 = 1 for ffnn and resnet kinds and log 2 for scaled kinds,
        # whose envelope is l^{sw^2/2} log max(l, 2) (values pass through
        # exp(log .), so compare at float roundtrip accuracy)
        x, xp = rng.standard_normal((2, 5))
        p = InitParams(0.2, 1.1)
        pairs = InputPair(x, xp)
        for arch, alpha_1 in ((FFNN, 1.0), (RESNET, 1.0), (SCALED, np.log(2.0))):
            trace = ntk_trace(arch, pairs, RELU, p, 1)
            assert normalize(trace)[0] == pytest.approx(
                trace.ntk[0] / alpha_1, rel=1e-14)

    @pytest.mark.parametrize("arch,p", [
        (FFNN, EOC_RELU), (RESNET, InitParams(0.2, 1.1)),
        (SCALED, InitParams(0.2, 1.1))], ids=["ffnn", "resnet_dense",
                                              "scaled_resnet_dense"])
    def test_zonal_profile_matches_normalized_trace(self, arch, p):
        # zonal_profile and normalize must apply the same alpha_L
        d, L, t = 5, 40, 0.3
        x = np.zeros(d); x[0] = 1.0
        xp = np.zeros(d); xp[0] = t; xp[1] = np.sqrt(1.0 - t * t)
        profile = zonal_profile(KernelConfig(arch, RELU, p), d, L, np.array([t]))
        trace = ntk_trace(arch, InputPair(x, xp), RELU, p, L)
        np.testing.assert_allclose(profile[0], normalize(trace)[-1], rtol=1e-13)

    @pytest.mark.parametrize("arch", [FFNN, RESNET, SCALED], ids=lambda a: a.kind)
    def test_last_layer_trace_is_the_last_row(self, arch, rng):
        # sigma_w = 2 renormalises the ffnn and resnet states on the way
        q = rng.uniform(0.5, 2.0, (2, 6))
        qcov = rng.uniform(-0.9, 0.9, 6) * np.sqrt(q[0] * q[1])
        args = (arch.kind, RELU, InitParams(0.0, 2.0), q[0], q[1], qcov, 700)
        full = dense_layer_arrays(*args)
        last = dense_layer_arrays(*args, last_only=True)
        for name in ("vx", "vxp", "vcov", "wK", "qdot", "scale_log", "layers"):
            np.testing.assert_array_equal(getattr(last, name),
                                          getattr(full, name)[-1:])
        np.testing.assert_array_equal(normalize(last), normalize(full)[-1:])


class TestLimitingKernel:
    def test_relu_critical_off_diagonal(self):
        d = 4
        x = np.zeros(d); x[0] = np.sqrt(d)
        xp = np.zeros(d); xp[1] = np.sqrt(d)
        lim = limiting_kernel(Architecture("ffnn"), RELU, EOC_RELU,
                              InputPair(x, xp))
        assert abs(lim - 0.5) < 1e-14  # 2 * (1/4)

    def test_relu_critical_diagonal(self, rng):
        x = rng.standard_normal(6)
        lim = limiting_kernel(Architecture("ffnn"), RELU, EOC_RELU,
                              InputPair(x, x))
        assert abs(lim - 2.0 * (x @ x) / 6) < 1e-12

    @pytest.mark.slow
    def test_tanh_critical_long_depth_oracle(self, rng):
        sw = eoc_curve(TANH, 0.2)
        p = InitParams(0.2, sw)
        x, xp = rng.standard_normal((2, 8))
        x /= np.linalg.norm(x); xp /= np.linalg.norm(xp)
        pair = InputPair(x, xp)
        lim = limiting_kernel(Architecture("ffnn"), TANH, p, pair)
        qx, qxp, qcov = first_layer_dense(pair, p)
        arrays = dense_layer_arrays("ffnn", TANH, p, qx, qxp, qcov, 10**5)
        ak = arrays.ntk[-1] / 10**5
        assert abs(ak / lim - 1.0) < 1e-3

    def test_chaotic_relu_diverges(self, rng):
        x, xp = rng.standard_normal((2, 5))
        with pytest.raises(DivergenceError):
            limiting_kernel(Architecture("ffnn"), RELU, InitParams(0.0, 1.8),
                            InputPair(x, xp))

    def test_chaotic_tanh_constant(self, rng):
        p = InitParams(0.2, 1.8)
        x, xp = rng.standard_normal((2, 9))
        pair = InputPair(x, xp)
        lam = limiting_kernel(Architecture("ffnn"), TANH, p, pair)
        deep = ntk_trace(FFNN, pair, TANH, p, 400)
        assert abs(deep.ntk[-1] - lam) < 1e-8

    def test_chaotic_tanh_diagonal_diverges(self, rng):
        x = rng.standard_normal(9)
        with pytest.raises(DivergenceError):
            limiting_kernel(Architecture("ffnn"), TANH, InitParams(0.2, 1.8),
                            InputPair(x, x))

    def test_chaotic_tanh_near_degenerate_pair_rejected(self, rng):
        x = rng.standard_normal(9)
        xp = x + 1e-9 * rng.standard_normal(9)
        with pytest.raises(ValueError):
            limiting_kernel(Architecture("ffnn"), TANH, InitParams(0.2, 1.8),
                            InputPair(x, xp))


class TestGramPsd:
    def test_min_eigenvalue_nonnegative(self, rng):
        from deepntk.regression import Dataset, KernelSpec, build_gram
        X = rng.standard_normal((10, 7))
        ds = Dataset(X, np.zeros((10, 1)))
        for p, act in ((EOC_RELU, RELU), (InitParams(0.3, 1.4), TANH)):
            state = build_gram(ds, KernelSpec(Architecture("ffnn"), act, p, 6))
            assert state.min_eig >= -1e-8 * state.max_eig


@pytest.mark.parametrize("kind", ["cnn", "resnet_conv", "scaled_resnet_conv"])
def test_brute_force_conv_oracle(kind, rng):
    n0, M, k, L = 2, 4, 1, 5
    x = rng.standard_normal((n0, M))
    xp = rng.standard_normal((n0, M))
    p = InitParams(0.3, 1.1)
    tr = ntk_trace(Architecture(kind, M, k, False), InputPair(x, xp), RELU, p, L)
    oracle = brute_force_conv_ntk(x, xp, p, M, k, L, kind)
    np.testing.assert_allclose(tr.ntk[-1], oracle, atol=1e-12)


@pytest.mark.parametrize("kind,params,L", [
    ("cnn", InitParams(0.0, 2.0), 1200),
    ("resnet_conv", InitParams(0.1, 1.0), 3000),
], ids=["cnn", "resnet_conv"])
def test_conv_grid_renormalises_past_overflow(kind, params, L):
    # the variances grow like 2^l (cnn) and 1.5^l (resnet_conv): the raw
    # grids pass float max, the renormalised state does not
    x, xp = np.random.default_rng(8).standard_normal((2, 2, 8))
    arch = Architecture(kind, 8, 1, False)
    tr = ntk_trace(arch, InputPair(x, xp), RELU, params, L)
    assert tr.overflow
    assert np.all(np.isfinite(tr.ntk_log))
    if arch.is_residual:  # K^L / alpha_L converges; chaotic cnn K^L / L does not
        assert np.all(np.isfinite(normalize(tr)[-1]))


class TestKindLawLimits:
    """Each law's limit against the engine at depth 10^4: K^L / alpha_L
    where the law is normalized, else K^L, for an off-diagonal and (off
    the chaotic phase) a diagonal pair on the sphere."""

    @staticmethod
    def gaps(kind, activation, p, depths):
        x, xp = np.random.default_rng(3).standard_normal((2, 8))
        x /= np.linalg.norm(x); xp /= np.linalg.norm(xp)
        arch = Architecture(kind)
        law = kind_law(arch, activation, p)
        pairs = [InputPair(x, xp)]
        if law.phase != "chaotic":
            pairs.append(InputPair(x, x))
        first = zip(*(first_layer_dense(pair, p) for pair in pairs))
        tr = dense_layer_arrays(arch, activation, p, *map(np.array, first), depths[-1])
        values = normalize(tr) if law.normalized else tr.ntk
        lims = np.array([limiting_kernel(arch, activation, p, pair) for pair in pairs])
        return np.abs(values[np.asarray(depths) - 1] / lims - 1.0)

    @pytest.mark.parametrize("kind,activation,p", [
        ("ffnn", RELU, EOC_RELU),
        ("ffnn", RELU, InitParams(0.3, np.sqrt(1.8))),
        ("ffnn", TANH, InitParams(0.2, eoc_curve(TANH, 0.2))),
        ("ffnn", TANH, InitParams(0.3, 0.8)),
        ("ffnn", TANH, InitParams(0.2, 1.8)),
        ("resnet_dense", RELU, InitParams(0.0, 1.0)),
        ("resnet_dense", RELU, InitParams(0.1, 1.0)),
    ], ids=["relu_eoc", "relu_ordered", "tanh_eoc", "tanh_ordered",
            "tanh_chaotic", "resnet", "resnet_bias"])
    def test_limit_at_depth_10_4(self, kind, activation, p):
        assert self.gaps(kind, activation, p, [10**4]).max() <= 2.8e-3

    def test_scaled_limit_gap_shrinks(self):
        gaps = self.gaps("scaled_resnet_dense", RELU, InitParams(0.0, 1.0),
                         [10**2, 10**3, 10**4])
        assert np.all(np.diff(gaps, axis=0) < 0)
        assert gaps[-1].max() < 0.2
