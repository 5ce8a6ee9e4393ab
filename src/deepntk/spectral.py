"""Spherical-harmonic decomposition of depth-L kernels on the unit sphere.

On S^{d-1} the kernels here are zonal: K^L(x, x') = g_L(x . x').  Such a
kernel decomposes over spherical harmonics with Funk-Hecke coefficients

    mu_k = (Omega_{d-1} / Omega_d) int_{-1}^{1} g(t) P^d_k(t) (1-t^2)^{(d-3)/2} dt,

where Omega_m = 2 pi^{m/2} / Gamma(m/2) is the surface area of S^{m-1} and
P^d_k is the d-dimensional Legendre (Gegenbauer, P^d_k(1) = 1) polynomial.
With harmonics orthonormal under the uniform probability measure, the
addition theorem gives the reconstruction

    g(t) = sum_k mu_k N(d,k) P^d_k(t),

N(d,k) being the number of degree-k harmonics.  The k = 0 share of the
(multiplicity-weighted) mass measures how close the kernel is to a constant
kernel, whose RKHS contains only constant functions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, gamma

import numpy as np

from .activations import ActivationModel
from .errors import ResolutionError
from .gaussmath import QuadratureRule, gauss_jacobi
from .kernels import (Architecture, KindLaw, dense_layer_arrays, first_layer_cov,
                      kind_law, normalize)
from .phase import InitParams

#: Gauss-Jacobi nodes used for the Funk-Hecke integrals.
DEFAULT_NODES = 256
DEFAULT_KMAX = 64
#: the largest d whose sphere area Omega_d is a float: Gamma(d / 2) of
#: surface_area overflows from d = 344
MAX_DIMENSION = 343


def surface_area(m: int) -> float:
    """Surface area Omega_m of the unit sphere S^{m-1} in R^m."""
    return 2.0 * np.pi ** (m / 2.0) / gamma(m / 2.0)


def harmonic_count(d: int, k: int) -> int:
    """Number N(d,k) of degree-k spherical harmonics on S^{d-1}."""
    if d < 3:
        raise ValueError("d must be >= 3")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1
    num = (2 * k + d - 2) * comb(k + d - 3, d - 2)
    quotient, remainder = divmod(num, k)
    if remainder:
        raise ArithmeticError(f"harmonic count not integral for d={d}, k={k}")
    return quotient


def legendre_table(d: int, k_max: int, t: np.ndarray) -> np.ndarray:
    """P^d_k(t) for k = 0..k_max, via the three-term recurrence.

    P_0 = 1, P_1 = t, and
    P_{k+1}(t) = ((2k + d - 2) t P_k(t) - k P_{k-1}(t)) / (k + d - 2),
    which keeps the normalization P^d_k(1) = 1 at every degree.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    t = np.asarray(t, dtype=np.float64)
    if np.any(np.abs(t) > 1 + 1e-12):
        raise ValueError("t must lie in [-1, 1]")
    out = np.empty((k_max + 1,) + t.shape)
    out[0] = 1.0
    if k_max >= 1:
        out[1] = t
    for k in range(1, k_max):
        out[k + 1] = ((2 * k + d - 2) * t * out[k] - k * out[k - 1]) / (k + d - 2)
    return out


@dataclass(frozen=True)
class KernelConfig:
    """Which kernel to decompose: architecture, activation, init.

    The profile is K^L / alpha_L where ``law`` says that has the limit
    (residual kinds, critical feedforward ones) and the raw K^L otherwise
    (ordered and chaotic feedforward ones); see ``kernels.kind_law``.
    """

    architecture: Architecture
    activation: ActivationModel
    params: InitParams

    def __post_init__(self):
        if self.architecture.is_conv:
            raise ValueError(
                "spectral decomposition is restricted to dense-equivalent kernels"
            )

    @cached_property
    def law(self) -> KindLaw:
        return kind_law(self.architecture, self.activation, self.params)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Funk-Hecke coefficients of one zonal profile."""

    d: int
    mu: np.ndarray
    multiplicities: np.ndarray

    @property
    def weighted_mass(self) -> np.ndarray:
        """mu_k N(d,k), the multiplicity-weighted spectrum."""
        return self.mu * self.multiplicities

    def normalized_mass(self) -> np.ndarray:
        """Weighted mass normalized to unit total."""
        total = float(np.sum(self.weighted_mass))
        return self.weighted_mass / total

    def reconstruct(self, t: np.ndarray) -> np.ndarray:
        """g(t) = sum_k mu_k N(d,k) P^d_k(t)."""
        table = legendre_table(self.d, len(self.mu) - 1, np.asarray(t))
        return np.tensordot(self.weighted_mass, table, axes=(0, 0))


def zonal_profile(config: KernelConfig, d: int, depth: int,
                  grid: np.ndarray) -> np.ndarray:
    """g_L(t) on the given t grid at L = ``depth``: the one row of
    :func:`zonal_profiles`."""
    return zonal_profiles(config, d, [depth], grid)[0]


def zonal_profiles(config: KernelConfig, d: int, depths: list[int],
                   grid: np.ndarray) -> np.ndarray:
    """g_L(t) on the given t grid at each depth L of ``depths``, one row
    per entry, from one recursion per node to the largest depth that keeps
    the layers asked for.

    g_L is K^L / alpha_L if ``config.law`` is normalized, else K^L.
    Inputs live on S^{d-1}: first-layer covariances are
    q^1(x,x) = sigma_b^2 + sigma_w^2 / d and
    q^1(x,x') = sigma_b^2 + sigma_w^2 t / d, so every node shares its
    variances.  Each row has the bits of a recursion to its own depth.
    """
    for L in depths:
        if L < 1:
            raise ValueError(f"depth must be >= 1, got {L}")
    grid = np.asarray(grid, dtype=np.float64)
    p = config.params
    qdiag = first_layer_cov(p, 1.0, d)
    qcov = first_layer_cov(p, grid, d)
    trace = dense_layer_arrays(config.architecture, config.activation, p,
                               qdiag, qdiag, qcov, max(depths), keep=depths)
    values = normalize(trace) if config.law.normalized else trace.ntk
    stored = trace.layers.tolist()
    return values[[stored.index(L) for L in depths]]


def decompose(profile: np.ndarray, d: int, k_max: int,
              rule: QuadratureRule | None = None) -> SpectralDecomposition:
    """Funk-Hecke coefficients of a profile sampled on Gauss-Jacobi nodes."""
    if d < 3:
        raise ValueError("d must be >= 3")
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    rule = rule or jacobi_rule(d)
    if rule.kind != "jacobi" or rule.alpha_exponent != (d - 3) / 2.0:
        raise ValueError("rule must be Gauss-Jacobi with exponent (d-3)/2")
    if k_max >= rule.order:
        raise ResolutionError(
            f"k_max={k_max} not resolvable with {rule.order} nodes"
        )
    profile = np.asarray(profile, dtype=np.float64)
    if profile.shape != rule.nodes.shape:
        raise ValueError("profile must be sampled on the rule's nodes")
    table = legendre_table(d, k_max, rule.nodes)
    ratio = surface_area(d - 1) / surface_area(d)
    mu = ratio * table @ (rule.weights * profile)
    counts = np.array([harmonic_count(d, k) for k in range(k_max + 1)],
                      dtype=np.float64)
    return SpectralDecomposition(d=d, mu=mu, multiplicities=counts)


def jacobi_rule(d: int) -> QuadratureRule:
    """The Funk-Hecke quadrature rule for dimension d."""
    return gauss_jacobi(DEFAULT_NODES, (d - 3) / 2.0)


def decompose_kernel(config: KernelConfig, d: int, depth: int,
                     k_max: int = DEFAULT_KMAX,
                     rule: QuadratureRule | None = None) -> SpectralDecomposition:
    """Run the depth-L recursion on the quadrature nodes and decompose."""
    rule = rule or jacobi_rule(d)
    return decompose(zonal_profile(config, d, depth, rule.nodes), d, k_max, rule)


def eigen_trend(config: KernelConfig, d: int, depths: list[int],
                k_max: int = DEFAULT_KMAX) -> dict[int, SpectralDecomposition]:
    """mu_k^L per requested depth, from one recursion to the largest."""
    rule = jacobi_rule(d)
    depths = list(dict.fromkeys(depths))  # a repeated depth is one entry
    if not depths:
        return {}
    profiles = zonal_profiles(config, d, depths, rule.nodes)
    return {L: decompose(g, d, k_max, rule) for L, g in zip(depths, profiles)}
