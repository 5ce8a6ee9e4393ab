"""Finite-width networks: exact kernels, gradients, width scaling."""
import numpy as np
import pytest

from deepntk.activations import make_activation
from deepntk.empirical import (empirical_ntk, finite_difference_gradient,
                               flat_params, forward, parameter_gradient,
                               sample_net, width_convergence_study)
from deepntk.kernels import Architecture, InputPair, ntk_trace
from deepntk.phase import InitParams

RELU = make_activation("relu")
TANH = make_activation("tanh")
EOC = InitParams(0.0, np.sqrt(2.0))


def mean_field_reference(arch, params, x, xp, depth):
    """The infinite-width ReLU kernel of the pair (x, x') at ``depth``."""
    return float(ntk_trace(Architecture(arch), InputPair(x, xp), RELU, params,
                           depth).ntk[-1])


class TestSampling:
    def test_deterministic_in_seed(self):
        a = sample_net("ffnn", RELU, EOC, [8, 8], 4, 123)
        b = sample_net("ffnn", RELU, EOC, [8, 8], 4, 123)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_draws_are_the_seed_stream(self):
        # weights layer by layer, then biases, as fresh arrays would be drawn
        net = sample_net("ffnn", RELU, EOC, [6, 5], 4, 11)
        rng = np.random.default_rng(11)
        for a in (*net.weights, *net.biases):
            assert np.array_equal(a, rng.standard_normal(a.shape))

    # at sigma_b = 0 the study draws only the prefix of each seed's stream
    # that the kernel reads; depth 1 reads its one matrix by row 0 alone
    @pytest.mark.parametrize("sigma_b", [0.0, 0.3])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("arch", ["ffnn", "resnet_dense"])
    def test_study_refills_the_nets_of_sample_net(self, arch, depth, sigma_b):
        x, xp = np.array([1.0, 0.0, 0.5]), np.array([0.2, 1.0, -0.3])
        p = InitParams(sigma_b, np.sqrt(2.0))
        widths, seeds = [8, 16], 4
        study = width_convergence_study(arch, RELU, p, x, xp, widths, depth, seeds,
                                        base_seed=5)
        for iw, width in enumerate(widths):
            vals = np.array([
                empirical_ntk(sample_net(arch, RELU, p, [width] * depth,
                                         x.size, 5 + 7919 * iw + s), x, xp)
                for s in range(seeds)])
            assert study["mean"][iw] == float(vals.mean())
            assert study["std"][iw] == float(vals.std(ddof=1))

    def test_single_unit_forward(self):
        p = InitParams(0.7, 1.1)
        net = sample_net("ffnn", RELU, p, [1], 3, 5)
        x = np.array([0.5, -1.0, 2.0])
        y = forward(net, x)[-1][0]
        expect = (p.sigma_w / np.sqrt(3)) * float((net.weights[0] @ x)[0]) \
            + p.sigma_b * net.biases[0][0]
        assert abs(y - expect) < 1e-15

    def test_first_layer_output_zero_mean(self):
        p = InitParams(0.4, 1.2)
        x = np.array([1.0, -0.5])
        vals = np.array([forward(sample_net("ffnn", RELU, p, [1], 2, s), x)[-1][0]
                         for s in range(10**4)])
        se = vals.std(ddof=1) / 100.0
        assert abs(vals.mean()) < 3 * se

    def test_resnet_needs_constant_width(self):
        with pytest.raises(ValueError):
            sample_net("resnet_dense", RELU, EOC, [4, 8], 4, 0)


class TestEmpiricalNtk:
    def test_depth_one_exact_any_width(self):
        p = InitParams(0.3, 1.4)
        x = np.array([1.0, 2.0, -1.0])
        xp = np.array([0.0, 1.0, 1.5])
        expect = p.sigma_w**2 * (x @ xp) / 3 + p.sigma_b**2
        for width in (1, 7, 64):
            net = sample_net("ffnn", RELU, p, [width], 3, width)
            assert abs(empirical_ntk(net, x, xp) - expect) < 1e-12

    def test_diagonal_nonnegative(self):
        net = sample_net("ffnn", TANH, InitParams(0.2, 1.1), [9, 9, 9], 5, 2)
        x = np.linspace(-1, 1, 5)
        assert empirical_ntk(net, x, x) >= 0.0

    @pytest.mark.parametrize("arch", ["ffnn", "resnet_dense"])
    @pytest.mark.parametrize("act", [RELU, TANH], ids=["relu", "tanh"])
    def test_gradient_vs_finite_differences(self, arch, act):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(4)
        net = sample_net(arch, act, InitParams(0.4, 1.1), [4, 4, 4], 4, 77)
        assert flat_params(net).size <= 100
        g = parameter_gradient(net, x)
        fd = finite_difference_gradient(net, x)
        rel = np.abs(g - fd).max() / np.abs(fd).max()
        assert rel < 1e-5

    def test_ntk_equals_gradient_inner_product(self):
        rng = np.random.default_rng(14)
        x, xp = rng.standard_normal((2, 4))
        net = sample_net("resnet_dense", RELU, InitParams(0.3, 1.2), [5, 5], 4, 3)
        k_fast = empirical_ntk(net, x, xp)
        k_direct = parameter_gradient(net, x) @ parameter_gradient(net, xp)
        assert abs(k_fast - k_direct) < 1e-12


class TestMeanFieldAgreement:
    def test_ffnn_width_1024(self):
        rng = np.random.default_rng(0)
        x, xp = rng.standard_normal((2, 6))
        ref = mean_field_reference("ffnn", EOC, x, xp, 3)
        vals = np.array([
            empirical_ntk(sample_net("ffnn", RELU, EOC, [1024] * 3, 6, s), x, xp)
            for s in range(12)
        ])
        assert abs(vals.mean() - ref) / abs(ref) < 0.08

    def test_resnet_skip_recursion_width_2048(self):
        rng = np.random.default_rng(3)
        x, xp = rng.standard_normal((2, 6))
        p = EOC
        ref = mean_field_reference("resnet_dense", p, x, xp, 4)
        vals = np.array([
            empirical_ntk(sample_net("resnet_dense", RELU, p, [2048] * 4, 6, s),
                          x, xp)
            for s in range(20)
        ])
        assert abs(vals.mean() - ref) / abs(ref) < 0.05

    def test_width_study_monotone_and_slope(self):
        rng = np.random.default_rng(4)
        x, xp = rng.standard_normal((2, 6))
        widths = [64, 256, 1024]
        study = width_convergence_study("ffnn", RELU, EOC, x, xp,
                                        widths, depth=3, seeds=16)
        assert study["deviation"][-1] < study["deviation"][0]
        slope = np.polyfit(np.log(widths), np.log(study["deviation"]), 1)[0]
        assert -0.9 < slope < -0.2
