"""Exact infinite-width NTK recursions per depth for four architectures.

Dense feedforward (depth-L) kernel, per input pair:

    K^1 = q^1 = sigma_b^2 + sigma_w^2 (x . x') / d,
    K^l = qdot^l K^{l-1} + q^l,                        l >= 2,

with q^l = sigma_b^2 + sigma_w^2 E[phi phi] and
qdot^l = sigma_w^2 E[phi' phi'] evaluated on the layer-(l-1) Gaussian
field.  Convolutional kernels replace the scalars by (alpha, alpha') grids
with a circulant average over the filter window; residual kernels gain a
skip term

    K^l = K^{l-1} (qdot^l + 1) + qhat^l,

where qhat^l = sigma_b^2 + sigma_w^2 E[phi phi] is the covariance of the
residual *block output* (the skip path contributes the K^{l-1} term, the
block parameters contribute qhat^l; the full field covariance
q^l = q^{l-1} + qhat^l is what propagates forward).  Scaled residual
blocks carry a 1/sqrt(l) factor, so their kernel contributions scale
by 1/l.

Every kind runs one layer step.  With the layer weight w_l (1/l for
scaled residual kinds, 1 otherwise), the skip weight s (1 for residual
kinds, 0 otherwise) and a mixing operator ``mix``, the layer is

    block^l = w_l (sigma_b^2 + sigma_w^2 E[phi phi]),   qdot^l = w_l sigma_w^2 E[phi' phi'],
    q^l     = s q^{l-1} + mix(w_l (sigma_b^2 + sigma_w^2 E[phi^2]))   (each variance),
    qcov^l  = s qcov^{l-1} + mix(block^l),
    K^l     = s K^{l-1} + mix(qdot^l K^{l-1} + block^l).

``mix`` is the identity for dense kinds, whose state is one entry per
input pair.  A full-grid conv state has one entry per position pair
(alpha, alpha'): the variance of x at alpha, that of x' at alpha', their
covariance and the kernel, and ``mix`` is the circulant window average
(1/(2k+1)) sum_{|beta| <= k} G[alpha+beta, alpha'+beta].  The window
average of a grid that depends on alpha alone depends on alpha alone, so
the variance grids stay the diagonals of the x and x' covariance grids.

The loop keeps the state as one stacked (4, P) array S, rows q_x, q_x',
qcov and K, P entries per row (pairs, or the M^2 grid positions), so a
layer costs a fixed number of numpy calls whatever P.  The two variance
expectations and E[phi phi] fill rows 0-2 of one (4, P) array B, which
becomes w_l (sigma_b^2 + sigma_w^2 E) in place; row 3 is
qdot^l K^{l-1} + block^l, and the layer is S = s S + mix(B).  Every
element goes through the ufunc expressions written above in that order,
so a pair's trace does not depend on the other pairs of its batch.

Residual variances grow like (1 + sigma_w^2/2)^L and ReLU ones with
sigma_b = 0 like (sigma_w^2/2)^L, so the state is renormalised: when the
largest variance leaves [1e-150, 1e150] (_RENORM_LIMIT) the whole state is
divided by it and its log is added to a per-layer ``scale_log``.  Raw values
are state * exp(scale_log); the log fields of ``KernelTrace`` stay finite
at any depth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .activations import (
    ActivationModel,
    CorrelationMap,
    _diag_expectation,
    layer_correlation,
    layer_expectations,
    phiprime_expectation,
)
from .errors import AssumptionViolatedError, DivergenceError
from .gaussmath import clamp_correlation
from .phase import InitParams, classify, variance_fixed_point

_DENSE_KINDS = ("ffnn", "resnet_dense", "scaled_resnet_dense")
#: same order as _DENSE_KINDS: under Assumption 1 each conv kind runs the
#: recursion of the dense kind at its index
CONV_KINDS = ("cnn", "resnet_conv", "scaled_resnet_conv")

#: a variance above this or below its inverse is divided out of the
#: recursion state; sqrt(float max) bounds it, so that qx * qxp in the
#: correlation neither overflows nor underflows
_RENORM_LIMIT = 1e150


@dataclass(frozen=True)
class Architecture:
    """Architecture selector; conv kinds carry the channel geometry."""

    kind: str
    positions: int | None = None          # M, neurons per channel
    filter_half_width: int | None = None  # k, filter = [-k, k]
    assumption1: bool = True

    def __post_init__(self):
        if self.kind not in _DENSE_KINDS + CONV_KINDS:
            raise ValueError(f"unknown architecture kind {self.kind!r}")
        if self.is_conv:
            if self.positions is None or self.filter_half_width is None:
                raise ValueError("conv architectures need positions and filter_half_width")
            if 2 * self.filter_half_width + 1 > self.positions:
                raise ValueError("filter size 2k+1 must not exceed positions M")

    @property
    def is_conv(self) -> bool:
        return self.kind in CONV_KINDS

    @property
    def is_residual(self) -> bool:
        return "resnet" in self.kind

    @property
    def is_scaled(self) -> bool:
        return self.kind.startswith("scaled")


@dataclass(frozen=True)
class InputPair:
    """A pair of inputs; vectors (d,) for dense, arrays (n0, M) for conv."""

    x: np.ndarray
    xp: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        xp = np.asarray(self.xp, dtype=np.float64)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xp", xp)
        if x.shape != xp.shape:
            raise ValueError("x and xp must have identical shapes")
        if x.ndim not in (1, 2):
            raise ValueError("inputs must be vectors (dense) or (n0, M) arrays (conv)")

    @property
    def dim(self) -> int:
        return self.x.size

    @property
    def is_conv(self) -> bool:
        return self.x.ndim == 2

    def conv_inner(self, k: int) -> np.ndarray:
        """Window inner products [x,x']_{a,a'} on the circular position grid."""
        _, m = self.x.shape
        out = np.zeros((m, m))
        for beta in range(-k, k + 1):
            xs = np.roll(self.x, -beta, axis=1)
            xps = np.roll(self.xp, -beta, axis=1)
            out += xs.T @ xps
        return out


@dataclass
class KernelTrace:
    """Per-depth state of one kernel recursion.

    State arrays have shape (n,) + the input shape for the last n layers,
    ``layers``, of the depth-L recursion: n = L, or 1 for a last-layer
    trace.  The input shape is () for one dense pair, (P,) for P pairs
    given as arrays, (M, M) for full-grid conv kernels, whose full ``vx``
    and ``vxp`` grids hold the variance of x at alpha and of x' at alpha'
    at each (alpha, alpha').  The stored state is the raw value divided by
    exp(scale_log[l]), for every kind; scale_log changes only when a
    variance leaves [1/_RENORM_LIMIT, _RENORM_LIMIT] (see the module
    docstring).  ``qdot`` at layer 1 is NaN (there is no
    previous layer).  The raw values ``qx``, ``qxp``, ``qcov`` and ``ntk`` overflow to inf (or
    underflow to 0) once exp(scale_log) does; ``log_qx``, ``log_qxp``,
    ``ntk_log``/``ntk_sign`` and ``corr`` stay finite.
    """

    architecture: Architecture
    activation: str
    params: InitParams
    depth: int
    vx: np.ndarray
    vxp: np.ndarray
    vcov: np.ndarray
    wK: np.ndarray
    qdot: np.ndarray
    scale_log: np.ndarray

    def _log_scale(self) -> np.ndarray:
        return self.scale_log.reshape((-1,) + (1,) * (self.vx.ndim - 1))

    def _raw(self, state: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return state * np.exp(self._log_scale())

    @property
    def qx(self) -> np.ndarray:
        return self._raw(self.vx)

    @property
    def qxp(self) -> np.ndarray:
        return self._raw(self.vxp)

    @property
    def qcov(self) -> np.ndarray:
        return self._raw(self.vcov)

    @property
    def ntk(self) -> np.ndarray:
        return self._raw(self.wK)

    @property
    def corr(self) -> np.ndarray:
        return layer_correlation(self.vcov, np.sqrt(self.vx * self.vxp))

    @property
    def log_qx(self) -> np.ndarray:
        return np.log(self.vx) + self._log_scale()

    @property
    def log_qxp(self) -> np.ndarray:
        return np.log(self.vxp) + self._log_scale()

    @property
    def ntk_log(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.wK)) + self._log_scale()

    @property
    def ntk_sign(self) -> np.ndarray:
        return np.sign(self.wK)

    @property
    def layers(self) -> np.ndarray:
        """Depths l of the stored layers, as floats."""
        return np.arange(self.depth - self.scale_log.size + 1, self.depth + 1,
                         dtype=np.float64)

    @property
    def overflow(self) -> bool:
        """Whether the recursion was renormalised at some layer."""
        return bool(np.any(self.scale_log))


def first_layer_cov(params: InitParams, inner, dim):
    """First-layer covariance sigma_b^2 + sigma_w^2 inner / dim.

    ``inner`` is an inner product (scalar or array) of two inputs and
    ``dim`` its normalising fan-in: d for dense inputs, n0 (2k+1) for conv
    windows.
    """
    return params.sigma_b**2 + params.sigma_w**2 * inner / dim


def first_layer_dense(pair: InputPair, params: InitParams):
    """q^1 triplet (x.x, x'.x', x.x') for a dense first layer."""
    x, xp, d = pair.x, pair.xp, pair.dim
    return (first_layer_cov(params, float(x @ x), d),
            first_layer_cov(params, float(xp @ xp), d),
            first_layer_cov(params, float(x @ xp), d))


def _require_relu(kind: str, activation: ActivationModel) -> None:
    if "resnet" in kind and activation.kind != "relu":
        raise ValueError("residual kernels are defined for relu only")


# ---------------------------------------------------------------------------
# the layer recursion, vectorized over input pairs or conv position pairs
# ---------------------------------------------------------------------------

def _circulant_average(grid: np.ndarray, k: int) -> np.ndarray:
    """(1/(2k+1)) sum_beta grid[..., a+beta, a'+beta] with circular
    wraparound, over the last two axes (one grid or a stack of them)."""
    acc = np.zeros_like(grid)
    for beta in range(-k, k + 1):
        acc += np.roll(grid, (-beta, -beta), axis=(-2, -1))
    return acc / (2 * k + 1)


def dense_layer_arrays(kind: str | Architecture, activation: ActivationModel,
                       params: InitParams, qx0, qxp0, qcov0, L: int,
                       last_only: bool = False) -> KernelTrace:
    """Run a kernel recursion from first-layer covariances.

    ``kind`` is a dense kind name or an :class:`Architecture`.  The
    first-layer variances and covariances may be scalars or arrays of one
    shape (one entry per input pair); the trace arrays have shape (L,) +
    that shape, or (1,) + that shape with ``last_only``, which keeps layer
    L alone.  A full-grid conv architecture takes (M, M) grids, the
    variances of x at alpha and of x' at alpha' broadcast over the grid,
    and averages each layer's new terms over the filter window (see the
    module docstring).  One layer step serves every kind.
    """
    arch = kind if isinstance(kind, Architecture) else Architecture(kind)
    _require_relu(arch.kind, activation)
    first = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64)
                                  for a in (qx0, qxp0, qcov0)))
    shape = first[0].shape
    if arch.is_conv:
        if shape != (arch.positions,) * 2:
            raise ValueError(f"conv kernels need (M, M) grids, got {shape}")
        k = arch.filter_half_width

        def mix(a):
            return _circulant_average(a.reshape((-1,) + shape), k).reshape(a.shape)
    else:
        def mix(a):
            return a
    # rows vx, vxp, vcov, wK (the stacked state S) and qdot
    state = np.empty((5, first[0].size))
    S, qdot = state[:4], state[4]
    S[:3] = [a.ravel() for a in first]
    S[3] = S[2]
    qdot[:] = np.nan
    # rows: the two new variance terms, the block, the new kernel term
    B = np.empty_like(S)
    sb2, sw2 = params.sigma_b**2, params.sigma_w**2
    sb2_l = sb2  # the bias in units of the renormalised state
    skip = 1.0 if arch.is_residual else 0.0
    weights = 1.0 / np.arange(1, L + 1) if arch.is_scaled else np.ones(L)
    kept = 1 if last_only else L
    hist = np.empty((5, kept, S.shape[1]))
    scale_log = np.zeros(kept)
    log_scale = 0.0

    for i in range(L):
        if i:
            w = weights[i]
            phiphi, phiprime = layer_expectations(activation, S[0], S[1], S[2])
            np.multiply(w * sw2, phiprime, out=qdot)
            B[:2] = _diag_expectation(activation, S[:2])
            B[2] = phiphi
            E = B[:3]  # w (sigma_b^2 + sigma_w^2 E), in place
            E *= sw2
            E += sb2_l
            E *= w
            np.multiply(qdot, S[3], out=B[3])
            B[3] += B[2]
            S *= skip
            S += mix(B)
            top = S[:2].max()
            if top > _RENORM_LIMIT or 0.0 < top < 1.0 / _RENORM_LIMIT:
                S /= top
                log_scale += float(np.log(top))
                sb2_l = sb2 * np.exp(-log_scale) if sb2 else 0.0
        j = i - (L - kept)
        if j >= 0:
            hist[:, j] = state
            scale_log[j] = log_scale

    return KernelTrace(arch, activation.kind, params, L,
                       *hist.reshape((5, kept) + shape), scale_log)


def ntk_trace(arch: Architecture, pair: InputPair, activation: ActivationModel,
              params: InitParams, L: int) -> KernelTrace:
    """Depth-L NTK trace of one input pair for any architecture kind.

    Dense kinds take vector inputs and return length-L arrays.  Conv kinds
    take (n0, M) inputs; under ``arch.assumption1`` they reduce to the
    matching dense recursion, otherwise they return (L, M, M) grids from
    the same layer step with the circulant window average.
    """
    if L < 1:
        raise ValueError("depth must be >= 1")
    if arch.is_conv:
        return _conv_trace(pair, activation, params, arch, L)
    if pair.is_conv:
        raise ValueError(f"{arch.kind} expects dense inputs")
    return dense_layer_arrays(arch, activation, params,
                              *first_layer_dense(pair, params), L)


# ---------------------------------------------------------------------------
# convolutional first layer (full (alpha, alpha') grids, circular indexing)
# ---------------------------------------------------------------------------

def _conv_trace(pair: InputPair, activation: ActivationModel, params: InitParams,
                arch: Architecture, L: int) -> KernelTrace:
    if not pair.is_conv:
        raise ValueError("conv kernels need (n0, M) inputs")
    M, k = arch.positions, arch.filter_half_width
    n0, m = pair.x.shape
    if m != M:
        raise ValueError(f"input has {m} positions, architecture expects {M}")
    norm = n0 * (2 * k + 1)

    # first-layer covariance grids for the three input combinations
    Cxx = first_layer_cov(params, InputPair(pair.x, pair.x).conv_inner(k), norm)
    Cpp = first_layer_cov(params, InputPair(pair.xp, pair.xp).conv_inner(k), norm)
    Cxp = first_layer_cov(params, pair.conv_inner(k), norm)

    if arch.assumption1:
        for name, g in (("q1(x,x)", Cxx), ("q1(x',x')", Cpp), ("q1(x,x')", Cxp)):
            if np.ptp(g) > 1e-9:
                raise AssumptionViolatedError(
                    f"first-layer grid {name} varies by {np.ptp(g):.2e} > 1e-9"
                )
        trace = dense_layer_arrays(_DENSE_KINDS[CONV_KINDS.index(arch.kind)],
                                   activation, params,
                                   Cxx[0, 0], Cpp[0, 0], Cxp[0, 0], L)
        return replace(trace, architecture=arch)
    # only the diagonals of the x and x' grids feed the recursion: the
    # window average keeps diag(Cxx)[alpha] a function of alpha alone
    return dense_layer_arrays(arch, activation, params, np.diag(Cxx)[:, None],
                              np.diag(Cpp)[None, :], Cxp, L)


# ---------------------------------------------------------------------------
# normalization and limits
# ---------------------------------------------------------------------------

def log_alpha(arch: Architecture, sigma_w: float, ls) -> np.ndarray:
    """log of the depth normalisation alpha_l of ``arch`` at depths ``ls``.

    alpha_l is l for ffnn and cnn, l (1+sigma_w^2/2)^{l-1} for resnet kinds
    (kept in log space because it overflows) and l^{sigma_w^2/2} log max(l, 2)
    for scaled kinds, whose kernel grows like that envelope: the block term
    of layer l is about 1/l of the field covariance, which grows like
    l^{sigma_w^2/2}, and the blocks add up harmonically.
    """
    if arch.is_scaled:
        return sigma_w**2 / 2.0 * np.log(ls) + np.log(np.log(np.maximum(ls, 2.0)))
    if arch.is_residual:
        return np.log(ls) + (ls - 1.0) * np.log(1.0 + sigma_w**2 / 2.0)
    return np.log(ls)


def normalize(trace: KernelTrace) -> np.ndarray:
    """Per-layer normalized kernel K^l / alpha_l (see ``log_alpha``)."""
    ls = trace.layers.reshape((-1,) + (1,) * (trace.wK.ndim - 1))
    return trace.ntk_sign * np.exp(
        trace.ntk_log - log_alpha(trace.architecture, trace.params.sigma_w, ls))


class KindLaw(NamedTuple):
    """How the kernel of one kind and initialization behaves at depth."""

    phase: str | None  # classify's phase for feedforward kinds, else None
    normalized: bool   # whether K^L / alpha_L, not K^L, has the limit
    model: str         # decay law of the residual: "exp", "power" or "inv_log"


def kind_law(arch: Architecture, activation: ActivationModel,
             params: InitParams) -> KindLaw:
    """The depth law of ``arch`` at ``params``.

    Residual kinds converge after the depth normalisation at every
    sigma_w, at a power rate (resnet) or like 1/log L (scaled).  Feedforward
    kinds route on the phase: on the critical curve K^L / L converges at a
    power rate; off it K^L itself converges exponentially fast.
    """
    if arch.is_residual:
        return KindLaw(None, True, "inv_log" if arch.is_scaled else "power")
    phase = classify(activation, params).phase
    eoc = phase == "eoc"
    return KindLaw(phase, eoc, "power" if eoc else "exp")


def scaled_resnet_growth_constant(params: InitParams) -> float:
    """lim_L prod_{k=2}^{L}(1 + h/k) / L^h = 1/Gamma(2 + h), h = sigma_w^2/2.

    The scaled-residual variance product grows like this constant times
    L^{sigma_w^2/2}; it enters the scaled kinds' limiting kernel.
    """
    return math.exp(-math.lgamma(2.0 + params.sigma_w**2 / 2.0))


def limiting_kernel(architecture: Architecture, activation: ActivationModel,
                    params: InitParams, pair: InputPair) -> float:
    """Limiting value of the normalized kernel for the pair.

    Critical feedforward initializations: the depth-averaged kernel K^L/L
    converges, off the diagonal, to q_lim/(1+a) where q_lim is the limit of
    the per-layer additive covariance and a is the leading 1/l coefficient
    of the multiplier (a = 3 for ReLU, a = 2 for Tanh); on the diagonal the
    multiplier is exactly 1 and the limit is q_lim itself.  Residual
    kernels follow the same pattern in the (1+sigma_w^2/2)^{l-1}-rescaled
    space, where the block covariance converges to
    (alpha/(1+alpha)) sqrt(v_inf(x) v_inf(x')) with
    v_inf(u) = q^1(u,u) + sigma_b^2/alpha, and scaled residual kernels
    over L^{alpha} log L (alpha = sigma_w^2/2) to
    alpha sqrt(q^1(x,x) q^1(x',x')) / Gamma(2 + alpha), again over 1+a off
    the diagonal.  Ordered/chaotic feedforward initializations converge to
    the constant q_inf/(1 - qdot_inf).
    """
    if pair.is_conv:
        raise ValueError("limiting_kernel expects dense inputs (use Assumption 1)")
    same = np.array_equal(pair.x, pair.xp)
    qx1, qxp1, qcov1 = first_layer_dense(pair, params)
    sw2 = params.sigma_w**2
    alpha = sw2 / 2.0
    # off the diagonal the limit is the diagonal one over 1 + a
    share = 1.0 if same else 1.0 + (3.0 if activation.kind == "relu" else 2.0)

    if architecture.is_residual:
        if architecture.is_scaled:
            # limit of K^L / (L^{sigma_w^2/2} log L): block sums are
            # (sigma_w^2/2k)/(1+sigma_w^2/2k) per layer, harmonic in k.
            q_lim = alpha * scaled_resnet_growth_constant(params) * np.sqrt(qx1 * qxp1)
        else:
            v_inf_x = qx1 + params.sigma_b**2 / alpha
            v_inf_xp = qxp1 + params.sigma_b**2 / alpha
            q_lim = (alpha / (1.0 + alpha)) * np.sqrt(v_inf_x * v_inf_xp)
        return float(q_lim / share)

    report = classify(activation, params, input_variance=qx1)
    q = report.q_fixed
    if activation.kind == "tanh":
        # the variance the recursion settles at: past the certified range of
        # the series its diagonals come from the activation's rule, whose
        # fixed point is off classify's order-256 one (by 4.3e-4 at (1, 2.5))
        q = variance_fixed_point(
            activation, params,
            moment=lambda v: float(_diag_expectation(activation, v)))
    if report.phase == "eoc":
        if activation.kind == "relu":  # every variance is fixed: q = q^1
            q = (sw2 * float(np.linalg.norm(pair.x)) * float(np.linalg.norm(pair.xp))
                 / pair.dim)
        return float(q / share)
    if report.phase == "chaotic" and activation.kind == "relu":
        raise DivergenceError("chaotic ReLU NTK diverges")
    # ordered (or chaotic tanh): K^L -> q c* / (1 - f'(c*)), where c* is the
    # stable fixed point of the correlation map (1 in the ordered phase) and
    # f'(c*) = sigma_w^2 E[phi' phi'] is the limiting kernel multiplier.
    if report.phase == "ordered":
        c_star = 1.0
    else:
        # the chaotic constant only applies to pairs whose first-layer
        # correlation is bounded away from 1 (default margin 1e-3): on the
        # diagonal the multiplier is chi > 1 and the kernel diverges
        if same:
            raise DivergenceError(
                "chaotic diagonal kernel grows like chi^L; no finite limit"
            )
        c1 = qcov1 / np.sqrt(qx1 * qxp1)
        if c1 > 1.0 - 1e-3:
            raise ValueError(
                "chaotic-phase limit needs first-layer correlation <= 1 - 1e-3"
            )
        c_star = stable_correlation_fixed_point(activation, params, q)
    qdot_inf = sw2 * phiprime_expectation(activation, q, q, c_star)
    if qdot_inf >= 1.0:
        raise DivergenceError("kernel multiplier does not contract")
    return float(q * c_star / (1.0 - qdot_inf))


def stable_correlation_fixed_point(activation: ActivationModel,
                                   params: InitParams, q: float) -> float:
    """Stable fixed point c* < 1 of the chaotic-phase (Tanh) correlation map."""
    f = CorrelationMap(activation, q, params.sigma_b, params.sigma_w)
    c = 0.0
    for _ in range(100_000):
        c_new = clamp_correlation(f(c))
        if abs(c_new - c) < 1e-15:
            return c_new
        c = c_new
    raise DivergenceError("correlation map did not reach its stable fixed point")
