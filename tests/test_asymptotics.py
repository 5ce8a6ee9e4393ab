"""Depth expansions, exact constants, and rate fitting."""
import numpy as np
import pytest

from deepntk.activations import B_RELU, S_RELU, CorrelationMap, make_activation
from deepntk.asymptotics import check_expansion, default_depth_grid, fit_rate
from deepntk.kernels import KAPPA_RELU, Architecture, kind_law
from deepntk.phase import InitParams, eoc_curve, variance_fixed_point

RELU = make_activation("relu")
TANH = make_activation("tanh")
EOC_RELU = InitParams(0.0, np.sqrt(2.0))


def law(kind, activation, params):
    """The kind's record from ``kind_law`` (a conv kind with a geometry
    that Assumption 1 allows)."""
    arch = Architecture(kind, 4, 1) if "conv" in kind else Architecture(kind)
    return kind_law(arch, activation, params)


@pytest.fixture(scope="module")
def tanh_eoc():
    # the map that kind_law builds for this point: the same fixed point q
    sw = eoc_curve(TANH, 0.2)
    p = InitParams(0.2, sw)
    q = variance_fixed_point(TANH, p)
    return p, CorrelationMap(TANH, q, 0.2, sw)


class TestConstants:
    def test_kappa_relu(self):
        assert KAPPA_RELU == 9.0 * np.pi**2 / 2.0

    def test_taylor_coefficients(self):
        assert abs(S_RELU - 2.0 * np.sqrt(2.0) / (3.0 * np.pi)) < 1e-16
        assert abs(B_RELU - np.sqrt(2.0) / (30.0 * np.pi)) < 1e-16

    def test_kappa_resnet_at_sqrt2(self):
        # (9 pi^2/2)(1 + 2/sigma_w^2)^2 with sigma_w^2 = 2 gives 18 pi^2
        assert abs(law("resnet_dense", RELU, EOC_RELU).constant - 18 * np.pi**2) < 1e-12

    def test_zeta_scaled_at_sqrt2(self):
        # 16/(s^2 * 4) = 4/s^2
        assert abs(law("scaled_resnet_dense", RELU, EOC_RELU).constant
                   - 4.0 / S_RELU**2) < 1e-10

    def test_kappa_tanh_positive(self, tanh_eoc):
        p, _ = tanh_eoc
        assert law("ffnn", TANH, p).constant > 0


class TestTheoreticalCorrelation:
    """The law's leading term 1 - c^l = constant / rescale(l), and the next
    order of the ReLU law, which the iterated deficit reaches."""

    def test_relu_next_order(self):
        # gamma_l = kappa/l^2 - 3 kappa log(l)/l^3 + O(1/l^3): between two
        # depths (gamma_l - kappa/l^2) l^3 changes by -3 kappa log(l2/l1)
        relu_law = law("ffnn", RELU, EOC_RELU)
        l1, l2 = 10**4, 10**5
        g1, g2 = (relu_law.iterate(0.5, l) for l in (l1, l2))
        change = (g2 - KAPPA_RELU / l2**2) * l2**3 - (g1 - KAPPA_RELU / l1**2) * l1**3
        assert abs(change / (-3.0 * KAPPA_RELU * np.log(l2 / l1)) - 1.0) < 0.02

    def test_tanh_deficit_scales_to_kappa(self, tanh_eoc):
        p, cmap = tanh_eoc
        l = 10**5
        tanh_law = law("ffnn", TANH, p)
        assert abs(l * tanh_law.constant / tanh_law.rescale(l)
                   - 2.0 / cmap.derivative_at_one(2)) < 1e-10

    def test_scaled_resnet_form(self):
        l = 10**4
        scaled = law("scaled_resnet_dense", RELU, EOC_RELU)
        assert abs(scaled.constant / scaled.rescale(l) * np.log(l) ** 2
                   - 16.0 / (S_RELU**2 * np.sqrt(2.0) ** 4)) < 1e-10

    def test_rejected_off_criticality(self):
        with pytest.raises(ValueError):
            law("ffnn", RELU, InitParams(1.0, 0.1)).iterate(0.5, 10)


class TestIterators:
    def test_relu_matches_direct_map_moderate_depth(self):
        from deepntk.activations import relu_f
        g = 0.5
        c = 0.5
        for _ in range(50):
            c = relu_f(c)
        gs = law("ffnn", RELU, EOC_RELU).iterate(1.0 - 0.5, 51)
        assert abs((1.0 - c) - gs) < 1e-13

    def test_relu_deficit_positive_and_decreasing(self):
        relu_law = law("ffnn", RELU, EOC_RELU)
        gs = [relu_law.iterate(0.5, depth) for depth in (10, 100, 1000, 10**4)]
        assert all(g > 0 for g in gs)
        assert all(a > b for a, b in zip(gs, gs[1:]))

    def test_resnet_reduces_to_weighted_map(self):
        from deepntk.activations import relu_f
        alpha = 1.0
        c = 0.3
        for _ in range(20):
            c = (c + alpha * relu_f(c)) / (1.0 + alpha)
        g = law("resnet_dense", RELU, EOC_RELU).iterate(0.7, 21)
        assert abs((1.0 - c) - g) < 1e-13

    def test_tanh_iterator_matches_map(self, tanh_eoc):
        p, cmap = tanh_eoc
        c = 0.4
        for _ in range(10):
            c = cmap(c)
        g = law("ffnn", TANH, p).iterate(1.0 - 0.4, 11)
        assert abs((1.0 - c) - g) < 1e-14

    def test_tanh_deficit_is_one_minus_the_map(self, tanh_eoc):
        _, cmap = tanh_eoc
        assert cmap.deficit(0.0) == 0.0
        for gamma in (0.3, 1.0, 1.5, 2.0):
            assert abs(cmap.deficit(gamma) - (1.0 - cmap(1.0 - gamma))) < 1e-13
        # D(gamma) / gamma -> f'(1) = 1 keeps its digits where 1 - f(1 - gamma)
        # has lost them to the rounding of 1 - gamma
        assert abs(cmap.deficit(1e-12) / 1e-12 - cmap.derivative_at_one(1)) < 1e-11

    @pytest.mark.slow
    def test_tanh_law_matches_mpmath_iteration(self, tanh_eoc):
        # the same series D(g) = sum_k b_k (1 - (1 - g)^k), iterated in 40 digits
        mpmath = pytest.importorskip("mpmath")
        p, cmap = tanh_eoc
        depth = 10**4
        got = law("ffnn", TANH, p).iterate(0.5, depth)
        with mpmath.workdps(40):
            b = [mpmath.mpf(float(v)) for v in cmap._weights]  # b_1, b_2, ...
            total = mpmath.fsum(b)
            coeffs = b[::-1] + [0]
            g = mpmath.mpf(0.5)
            for _ in range(depth - 1):
                g = total - mpmath.polyval(coeffs, 1 - g)
        assert abs(got / float(g) - 1.0) < 1e-9


class TestCheckExpansion:
    def test_relu_constant_five_percent(self):
        r = check_expansion("ffnn", RELU, EOC_RELU, 20000, gamma0=0.5)
        assert r["relative_error"] < 0.05

    def test_resnet_constant_five_percent(self):
        r = check_expansion("resnet_dense", RELU, EOC_RELU, 20000, gamma0=0.5)
        assert r["relative_error"] < 0.05

    @pytest.mark.slow
    def test_tanh_constant_at_moderate_depth(self, tanh_eoc):
        p, cmap = tanh_eoc
        r = check_expansion("ffnn", TANH, p, 10**4, gamma0=0.5)
        assert r["relative_error"] < 0.05

    def test_scaled_constant_via_log_slope(self):
        # the direct log(l)^2 (1-c^l) / zeta check needs depths ~ e^90 at
        # sigma_w = sqrt(2); the slope of gamma^{-1/2} in log l cancels the
        # offending constant and recovers zeta at l <= 1e6
        sw = np.sqrt(2.0)
        scaled = law("scaled_resnet_dense", RELU, InitParams(0.0, sw))
        g1, g2 = scaled.iterate(0.5, 10**3), scaled.iterate(0.5, 10**6)
        slope = (g2**-0.5 - g1**-0.5) / (np.log(10**6) - np.log(10**3))
        zeta_hat = 1.0 / slope**2
        assert abs(zeta_hat / scaled.constant - 1.0) < 0.02


class TestLawRefusals:
    @pytest.mark.parametrize("kind", ["resnet_dense", "resnet_conv",
                                      "scaled_resnet_dense", "scaled_resnet_conv"])
    def test_residual_tanh_rejected(self, kind, tanh_eoc):
        p, _ = tanh_eoc
        with pytest.raises(ValueError, match="relu only"):
            check_expansion(kind, TANH, p, 100)
        with pytest.raises(ValueError, match="relu only"):
            law(kind, TANH, p)

    @pytest.mark.parametrize("dense,conv", [("resnet_dense", "resnet_conv"),
                                            ("scaled_resnet_dense", "scaled_resnet_conv")])
    def test_conv_kind_follows_its_dense_law(self, dense, conv):
        p = InitParams(0.0, 1.3)
        assert check_expansion(conv, RELU, p, 100) == check_expansion(dense, RELU, p, 100)

    def test_off_criticality_rejected_by_both(self):
        p = InitParams(0.5, 1.0)
        with pytest.raises(ValueError, match="critical"):
            check_expansion("ffnn", RELU, p, 1000)
        with pytest.raises(ValueError, match="critical"):
            law("ffnn", RELU, p).iterate(0.5, 1000)

    @pytest.mark.parametrize("args,name", [
        pytest.param({"depth": 0}, "depth", id="depth-0"),
        pytest.param({"depth": 1}, "depth", id="depth-1"),
        pytest.param({"gamma0": 3.0}, "gamma0", id="gamma0-3"),
        pytest.param({"gamma0": -0.1}, "gamma0", id="gamma0-negative"),
        pytest.param({"gamma0": 0.0}, "gamma0", id="gamma0-0"),
        pytest.param({"gamma0": float("nan")}, "gamma0", id="gamma0-nan"),
    ])
    def test_bad_arguments_rejected(self, args, name):
        kw = {"gamma0": 0.5, "depth": 10} | args
        with pytest.raises(ValueError, match=name):
            law("resnet_dense", RELU, EOC_RELU).iterate(**kw)
        with pytest.raises(ValueError, match=name):
            check_expansion("ffnn", RELU, EOC_RELU, kw["depth"], gamma0=kw["gamma0"])


class TestFitRate:
    def test_pure_power(self):
        L = np.array(default_depth_grid())
        fit = fit_rate(L, 3.7 / L, "power")
        assert abs(fit.exponent + 1.0) < 1e-10
        assert abs(fit.r_squared - 1.0) < 1e-12
        assert abs(fit.prefactor - 3.7) < 1e-9

    def test_pure_exponential(self):
        L = np.linspace(10, 80, 8)
        fit = fit_rate(L, 2.0 * np.exp(-0.3 * L), "exp")
        assert abs(fit.exponent - 0.3) < 1e-8
        assert abs(fit.r_squared - 1.0) < 1e-12

    def test_inv_log(self):
        L = np.array(default_depth_grid())
        fit = fit_rate(L, 2.0 / np.log(L) ** 1.5, "inv_log")
        assert abs(fit.exponent - 1.5) < 1e-6

    def test_inv_log_is_the_least_squares_solution(self):
        # normal equations: the log residuals are orthogonal to 1 and log log L
        L = np.array(default_depth_grid(), dtype=float)
        noise = np.random.default_rng(3).normal(0.0, 0.1, L.size)
        r = 2.0 / np.log(L) ** 1.5 * np.exp(noise)
        fit = fit_rate(L, r, "inv_log")
        x = np.log(np.log(L))
        resid = np.log(r) - (np.log(fit.prefactor) - fit.exponent * x)
        np.testing.assert_allclose([resid.sum(), resid @ x], 0.0, atol=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_rate([32, 64, 128], [1, 2, 3], "power")

    def test_nonpositive_residuals(self):
        L = default_depth_grid()
        with pytest.raises(ValueError):
            fit_rate(L, [0.0] * len(L), "power")
