"""Finite-width Monte-Carlo oracle for the mean-field kernel recursions.

Samples actual random networks in the width-scaled parameterization

    y^1 = (sigma_w / sqrt(d)) W^1 x + sigma_b b^1,
    y^l = (sigma_w / sqrt(n_{l-1})) W^l phi(y^{l-1}) + sigma_b b^l,

(with an identity skip for the residual variant) and computes the *exact*
kernel K(x, x') = grad_theta y^L_1(x) . grad_theta y^L_1(x') by a manual
layerwise backward pass.  Per-layer gradient inner products factorize as

    (sigma_w^2 / n_{l-1}) (delta^l(x) . delta^l(x')) (a^{l-1}(x) . a^{l-1}(x'))
    + sigma_b^2 (delta^l(x) . delta^l(x')),

with a^0 = x and a^l = phi(y^l), so no Jacobian is ever materialized.
Scalar output head only (output unit 1); the mean-field kernel is diagonal
in output channels, so this loses nothing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .activations import ActivationModel
from .kernels import Architecture, InputPair, ntk_trace
from .phase import InitParams

_ARCHS = ("ffnn", "resnet_dense")
_FD_STEP = 1e-5  # step of the central differences of finite_difference_gradient


@dataclass(frozen=True)
class FiniteNet:
    """One sampled network: its architecture and weights."""

    arch: str
    activation: ActivationModel
    params: InitParams
    widths: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        return len(self.weights)


def _parameter_arrays(arch: str, widths: list[int], input_dim: int) -> tuple:
    """Unfilled (weights, biases) of a net, each a tuple of one array per
    layer; the net's architecture and widths checked."""
    if arch not in _ARCHS:
        raise ValueError(f"unsupported architecture {arch!r}")
    if any(w < 1 for w in widths):
        raise ValueError("widths must be >= 1")
    if arch == "resnet_dense" and len(set(widths)) > 1:
        raise ValueError("residual nets need constant width")
    dims = [input_dim] + list(widths)
    return (tuple(np.empty((dims[i + 1], dims[i])) for i in range(len(widths))),
            tuple(np.empty(dims[i + 1]) for i in range(len(widths))))


def _draw(seed: int, weights, biases) -> None:
    """Fill the weights, then the biases, with iid N(0,1) draws of the
    stream of ``seed``, in place: the values a fresh allocation of each
    array, in the same order, would get."""
    rng = default_rng(seed)
    for a in (*weights, *biases):
        rng.standard_normal(out=a)


def sample_net(arch: str, activation: ActivationModel, params: InitParams,
               widths: list[int], input_dim: int, seed: int) -> FiniteNet:
    """Draw all weights and biases iid N(0,1)."""
    weights, biases = _parameter_arrays(arch, widths, input_dim)
    _draw(seed, weights, biases)
    return FiniteNet(arch=arch, activation=activation, params=params,
                     widths=tuple(widths), weights=weights, biases=biases)


def forward(net: FiniteNet, x: np.ndarray) -> list[np.ndarray]:
    """Pre-activations y^1..y^L."""
    p = net.params
    phi = net.activation.phi
    ys = []
    a = np.asarray(x, dtype=np.float64)
    for l, (W, b) in enumerate(zip(net.weights, net.biases), start=1):
        fan_in = a.size if l == 1 else net.widths[l - 2]
        block = (p.sigma_w / np.sqrt(fan_in)) * (W @ (a if l == 1 else phi(a))) \
            + p.sigma_b * b
        y = block if (l == 1 or net.arch == "ffnn") else a + block
        ys.append(y)
        a = y
    return ys


def _backward_deltas(net: FiniteNet, ys: list[np.ndarray]) -> list[np.ndarray]:
    """delta^l = d y^L_1 / d y^l, for output unit 1."""
    p = net.params
    phi_prime = net.activation.phi_prime
    L = net.depth
    deltas = [None] * L
    d = np.zeros(net.widths[-1])
    d[0] = 1.0
    deltas[L - 1] = d
    for l in range(L - 1, 0, -1):
        W = net.weights[l]
        fan_in = net.widths[l - 1]
        back = (p.sigma_w / np.sqrt(fan_in)) * (W.T @ deltas[l]) * phi_prime(ys[l - 1])
        deltas[l - 1] = back if net.arch == "ffnn" else deltas[l] + back
    return deltas


def empirical_ntk(net: FiniteNet, x: np.ndarray, xp: np.ndarray) -> float:
    """Exact parameter-gradient inner product for output unit 1."""
    x = np.asarray(x, dtype=np.float64)
    xp = np.asarray(xp, dtype=np.float64)
    ys_x, ys_xp = forward(net, x), forward(net, xp)
    dx, dxp = _backward_deltas(net, ys_x), _backward_deltas(net, ys_xp)
    phi = net.activation.phi
    p = net.params
    total = 0.0
    for l in range(net.depth):
        a_x = x if l == 0 else phi(ys_x[l - 1])
        a_xp = xp if l == 0 else phi(ys_xp[l - 1])
        ddot = float(dx[l] @ dxp[l])
        total += (p.sigma_w**2 / a_x.size) * ddot * float(a_x @ a_xp)
        total += p.sigma_b**2 * ddot
    return total


def parameter_gradient(net: FiniteNet, x: np.ndarray) -> np.ndarray:
    """Flat gradient of y^L_1(x) w.r.t. all weights then biases, per layer.

    Only intended for small nets (finite-difference validation).
    """
    x = np.asarray(x, dtype=np.float64)
    ys = forward(net, x)
    deltas = _backward_deltas(net, ys)
    phi = net.activation.phi
    p = net.params
    parts = []
    for l in range(net.depth):
        a = x if l == 0 else phi(ys[l - 1])
        gw = (p.sigma_w / np.sqrt(a.size)) * np.outer(deltas[l], a)
        gb = p.sigma_b * deltas[l]
        parts.extend([gw.ravel(), gb])
    return np.concatenate(parts)


def output_for_flat_params(net: FiniteNet, x: np.ndarray,
                           flat: np.ndarray) -> float:
    """y^L_1(x) with parameters replaced by the flat vector (FD oracle)."""
    dims = [np.asarray(x).size] + list(net.widths)
    weights, biases = [], []
    pos = 0
    for l in range(net.depth):
        nw = dims[l + 1] * dims[l]
        weights.append(flat[pos:pos + nw].reshape(dims[l + 1], dims[l]))
        pos += nw
        biases.append(flat[pos:pos + dims[l + 1]])
        pos += dims[l + 1]
    clone = FiniteNet(arch=net.arch, activation=net.activation, params=net.params,
                      widths=net.widths, weights=tuple(weights), biases=tuple(biases))
    return float(forward(clone, x)[-1][0])


def flat_params(net: FiniteNet) -> np.ndarray:
    parts = []
    for W, b in zip(net.weights, net.biases):
        parts.extend([W.ravel(), b])
    return np.concatenate(parts)


def finite_difference_gradient(net: FiniteNet, x: np.ndarray) -> np.ndarray:
    """Central finite differences of y^L_1(x) over all parameters."""
    theta = flat_params(net)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy(); up[i] += _FD_STEP
        dn = theta.copy(); dn[i] -= _FD_STEP
        grad[i] = (output_for_flat_params(net, x, up)
                   - output_for_flat_params(net, x, dn)) / (2 * _FD_STEP)
    return grad


def _seed_kernels(arch: str, activation: ActivationModel, params: InitParams,
                  x: np.ndarray, xp: np.ndarray, widths: tuple[int, ...],
                  seeds: range) -> np.ndarray:
    """empirical_ntk of the net of each seed, as sample_net draws them, bit
    for bit: one set of arrays, refilled for each seed (and freed on
    return, before the caller allocates the next set).

    The kernel of output unit 1 reads only row 0 of W^L: the backward pass
    starts from delta^L = e_1, so it reads W^L^T e_1, and the layer-L term
    multiplies by e_1.  At sigma_b = 0 the biases enter only as 0 b.
    sample_net draws W^1 ... W^L and then the biases from one stream, so
    there the read weights, W^1 ... W^{L-1} and row 0 of W^L, are a prefix
    of that stream: each seed draws only them.  The other rows of W^L and
    the biases are zeros, set once.  A zero row adds exact zeros to
    W^L^T e_1, and 0 b is a zero either way, so every kernel has the bits
    of the net sample_net draws.  At sigma_b > 0 the biases come after all
    of W^L, and each seed draws every array."""
    weights, biases = _parameter_arrays(arch, widths, np.asarray(x).size)
    drawn = (*weights, *biases)
    if params.sigma_b == 0.0:
        weights[-1][1:] = 0.0
        for b in biases:
            b.fill(0.0)
        drawn = (*weights[:-1], weights[-1][0])
    vals = np.empty(len(seeds))
    for i, seed in enumerate(seeds):
        _draw(seed, drawn, ())
        net = FiniteNet(arch=arch, activation=activation, params=params,
                        widths=widths, weights=weights, biases=biases)
        vals[i] = empirical_ntk(net, x, xp)
    return vals


def width_convergence_study(arch: str, activation: ActivationModel,
                            params: InitParams, x: np.ndarray, xp: np.ndarray,
                            widths: list[int], depth: int, seeds: int,
                            base_seed: int = 0) -> dict:
    """Mean absolute deviation from the mean-field kernel per width, with
    the seed means and standard deviations and the mean-field kernel.  The
    Monte-Carlo error of one sampled network decays like width^{-1/2}; at
    depth 1 the kernel does not depend on the weights, and it is 0."""
    if seeds < 2:
        raise ValueError(f"need at least 2 seeds for the seed standard deviation, got {seeds}")
    pair = InputPair(np.asarray(x, dtype=np.float64), np.asarray(xp, dtype=np.float64))
    reference = float(ntk_trace(Architecture(arch), pair, activation, params,
                                depth).ntk[-1])
    deviations = []
    means = []
    stds = []
    for iw, width in enumerate(widths):
        vals = _seed_kernels(arch, activation, params, x, xp, (width,) * depth,
                             range(base_seed + 7919 * iw, base_seed + 7919 * iw + seeds))
        deviations.append(float(np.mean(np.abs(vals - reference))))
        means.append(float(vals.mean()))
        stds.append(float(vals.std(ddof=1)))
    return {
        "deviation": deviations,
        "mean": means,
        "std": stds,
        "reference": reference,
    }
