"""Spherical-harmonic machinery and kernel spectra."""
import numpy as np
import pytest

from deepntk.activations import make_activation
from deepntk.errors import ResolutionError
from deepntk.kernels import Architecture
from deepntk.phase import InitParams
from deepntk.spectral import (KernelConfig, decompose,
                              decompose_kernel, eigen_trend, harmonic_count,
                              jacobi_rule, legendre_poly, legendre_table,
                              surface_area, zonal_profile)

RELU = make_activation("relu")
ORDERED = InitParams(0.3, np.sqrt(2 * 0.9))
EOC = InitParams(0.0, np.sqrt(2.0))


class TestHarmonicCount:
    def test_three_dimensions_reduce_to_odd_numbers(self):
        for k in range(0, 12):
            assert harmonic_count(3, k) == (1 if k == 0 else 2 * k + 1)

    def test_quoted_values(self):
        assert harmonic_count(3, 5) == 11
        assert harmonic_count(3, 0) == 1
        assert harmonic_count(4, 2) == 9

    def test_matches_dimension_difference_formula(self):
        from math import comb
        for d in (3, 4, 5, 8):
            for k in range(1, 10):
                alt = comb(k + d - 1, d - 1) - comb(k + d - 3, d - 1)
                assert harmonic_count(d, k) == alt

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            harmonic_count(2, 1)


class TestLegendre:
    def test_normalization_and_degree_one(self):
        t = np.linspace(-1, 1, 7)
        for d in (3, 4, 6):
            table = legendre_table(d, 3, t)
            np.testing.assert_allclose(table[0], 1.0)
            np.testing.assert_allclose(table[1], t)
            assert abs(legendre_poly(d, 2, 1.0) - 1.0) < 1e-14

    def test_classical_p2_at_zero(self):
        assert abs(legendre_poly(3, 2, 0.0) + 0.5) < 1e-15

    def test_rodrigues_cross_check(self):
        # d=5, k=2: expanding Rodrigues' formula symbolically gives
        # (1/4)(Gamma(2)/Gamma(4)) (1-t^2)^{-1} d^2/dt^2 (1-t^2)^3
        # = (5 t^2 - 1)/4; d=3, k=3 gives the classical (5t^3 - 3t)/2
        t = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(legendre_table(5, 2, t)[2],
                                   (5 * t**2 - 1) / 4, atol=1e-14)
        np.testing.assert_allclose(legendre_table(3, 3, t)[3],
                                   (5 * t**3 - 3 * t) / 2, atol=1e-14)

    def test_weighted_orthogonality(self):
        rule = jacobi_rule(5)
        table = legendre_table(5, 20, rule.nodes)
        gram = np.einsum("kn,jn,n->kj", table, table, rule.weights)
        off = np.abs(gram - np.diag(np.diag(gram))).max()
        assert off < 1e-10

    def test_norm_identity(self):
        # ||P^d_k||^2_w = Omega_d / (Omega_{d-1} N(d,k))
        for d in (3, 4, 6):
            rule = jacobi_rule(d)
            table = legendre_table(d, 8, rule.nodes)
            for k in (0, 1, 4, 8):
                norm2 = float(rule.weights @ table[k] ** 2)
                expect = surface_area(d) / (surface_area(d - 1) * harmonic_count(d, k))
                assert abs(norm2 - expect) < 1e-12


class TestDecompose:
    def test_constant_profile(self):
        rule = jacobi_rule(4)
        dec = decompose(np.full(rule.order, 2.5), 4, 40, rule)
        # mu_0 = C (Omega_{d-1}/Omega_d) int w dt = C
        assert abs(dec.mu[0] - 2.5) < 1e-12
        assert np.abs(dec.mu[1:]).max() < 1e-12

    def test_linear_profile_single_mode(self):
        rule = jacobi_rule(3)
        dec = decompose(rule.nodes.copy(), 3, 40, rule)
        assert np.abs(np.delete(dec.mu, 1)).max() < 1e-12
        assert abs(dec.weighted_mass[1] - 1.0) < 1e-12  # reconstructs t

    def test_resolution_guard(self):
        rule = jacobi_rule(3, nodes=64)
        with pytest.raises(ResolutionError):
            decompose(np.ones(64), 3, 64, rule)

    def test_reconstruction_identity_on_smooth_kernel(self):
        cfg = KernelConfig(Architecture("ffnn"), RELU, ORDERED)
        dec = decompose_kernel(cfg, 3, 300)
        t = np.linspace(-0.99, 0.99, 301)
        g = zonal_profile(cfg, 3, 300, t)
        assert np.abs(dec.reconstruct(t) - g).max() < 1e-6

    def test_critical_kernel_reconstruction_is_truncation_limited(self):
        # the depth-300 critical kernel has a boundary layer of width
        # ~1/L^2 at t -> 1 whose harmonic content extends far past k = 64;
        # interior reconstruction improves with k_max but cannot reach 1e-6
        # at k_max = 64
        cfg = KernelConfig(Architecture("ffnn"), RELU, EOC)
        rule = jacobi_rule(3, 1024)
        prof = zonal_profile(cfg, 3, 300, rule.nodes)
        t = np.linspace(-0.99, 0.99, 301)
        g = zonal_profile(cfg, 3, 300, t)
        errs = []
        for kmax in (64, 128, 256):
            dec = decompose(prof, 3, kmax, rule)
            errs.append(np.abs(dec.reconstruct(t) - g).max())
        assert errs[0] < 5e-3
        assert errs[0] > errs[1] > errs[2]


class TestZonalProfile:
    def test_diagonal_endpoint(self):
        cfg = KernelConfig(Architecture("ffnn"), RELU, EOC)
        val = zonal_profile(cfg, 5, 40, np.array([1.0]))[0]
        # critical average kernel on the diagonal: sigma_w^2 / d
        assert abs(val - 2.0 / 5) < 1e-12

    def test_no_symmetry_assumed(self):
        cfg = KernelConfig(Architecture("ffnn"), RELU, ORDERED)
        gm = zonal_profile(cfg, 3, 5, np.array([-0.73]))[0]
        gp = zonal_profile(cfg, 3, 5, np.array([0.73]))[0]
        assert gm != gp  # computed independently, genuinely asymmetric


class TestSpectraTrends:
    def test_ordered_mass_concentrates_with_depth(self):
        cfg = KernelConfig(Architecture("ffnn"), RELU, ORDERED)
        table = eigen_trend(cfg, 3, [3, 30, 300], k_max=32)
        m = {L: dec.normalized_mass() for L, dec in table.items()}
        assert m[300][0] > 0.99
        assert m[3][1] > m[30][1] > m[300][1]  # mu_1 share shrinks

    def test_critical_mass_exceeds_ordered_at_depth_300(self):
        cfg_o = KernelConfig(Architecture("ffnn"), RELU, ORDERED)
        cfg_e = KernelConfig(Architecture("ffnn"), RELU, EOC)
        mo = decompose_kernel(cfg_o, 3, 300).normalized_mass()
        me = decompose_kernel(cfg_e, 3, 300).normalized_mass()
        assert me[1:].sum() > mo[1:].sum()

    def test_mu0_converges_for_critical_kernel(self):
        cfg = KernelConfig(Architecture("ffnn"), RELU, EOC)
        rule = jacobi_rule(3)
        mu0 = {}
        for L in (4096, 8192):
            prof = zonal_profile(cfg, 3, L, rule.nodes)
            mu0[L] = decompose(prof, 3, 8, rule).mu[0]
        assert abs(mu0[4096] - mu0[8192]) / mu0[8192] < 0.02

    def test_psd_of_spectra(self):
        for cfg in (KernelConfig(Architecture("ffnn"), RELU, ORDERED),
                    KernelConfig(Architecture("ffnn"), RELU, EOC)):
            dec = decompose_kernel(cfg, 3, 300)
            assert np.all(dec.mu >= -1e-8 * dec.mu[0])

    def test_conv_rejected(self):
        with pytest.raises(ValueError):
            KernelConfig(Architecture("cnn", positions=4, filter_half_width=1),
                         RELU, EOC)
