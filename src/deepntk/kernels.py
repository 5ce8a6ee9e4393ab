"""Exact infinite-width NTK recursions per depth for four architectures.

Dense feedforward (depth-L) kernel, per input pair:

    K^1 = q^1 = sigma_b^2 + sigma_w^2 (x . x') / d,
    K^l = qdot^l K^{l-1} + q^l,                        l >= 2,

with q^l = sigma_b^2 + sigma_w^2 E[phi phi] and
qdot^l = sigma_w^2 E[phi' phi'] evaluated on the layer-(l-1) Gaussian
field.  Under Assumption 1 (first-layer covariance grids constant over
the position pairs (alpha, alpha')) a convolutional kernel is the dense
recursion from those constants.  Residual kernels gain a skip term

    K^l = K^{l-1} (qdot^l + 1) + qhat^l,

where qhat^l = sigma_b^2 + sigma_w^2 E[phi phi] is the covariance of the
residual *block output* (the skip path contributes the K^{l-1} term, the
block parameters contribute qhat^l; the full field covariance
q^l = q^{l-1} + qhat^l is what propagates forward).  Scaled residual
blocks carry a 1/sqrt(l) factor, so their kernel contributions scale
by 1/l.

Every kind runs one layer step, on one entry per input pair.  With the
layer weight w_l (1/l for scaled residual kinds, 1 otherwise) and the
skip weight s (1 for residual kinds, 0 otherwise), the layer is

    block^l = w_l (sigma_b^2 + sigma_w^2 E[phi phi]),   qdot^l = w_l sigma_w^2 E[phi' phi'],
    q^l     = s q^{l-1} + w_l (sigma_b^2 + sigma_w^2 E[phi^2])   (each variance),
    qcov^l  = s qcov^{l-1} + block^l,
    K^l     = s K^{l-1} + qdot^l K^{l-1} + block^l.

The loop keeps its state in one buffer: the variances V = (q_x, q_x') as
a (2, m) block, then the rows qcov and K of the P pairs, then qdot.
m = P where the variances differ between pairs.  Where every pair shares
its two first-layer variances (one pair, ``rates`` and ``spectrum``
(inputs on a sphere), the sigma_b = 0 ReLU Gram (see ``regression``)),
m = 0: the variance recursion runs once, on two Python floats, and only
the pair rows are P wide.  Float arithmetic and ``math.sqrt`` are the
correctly rounded IEEE operations of the ufuncs, and the variances of x
and x' propagate on their own, so each pair gets the bits of its
per-pair run either way.  The trace stores the two floats per kept layer
and returns the (n, P) variance rows as read-only broadcast views of
them.  A layer costs a fixed number of numpy calls whatever P, all into
buffers allocated once per call.  A dense ReLU layer runs 19 of them on
shared variances and 24 on per-pair ones, one more for a bias
(sigma_b > 0), one for the skip of the residual kinds, one for the 1/l
weight of the scaled kinds and two for each side of +-1 that needs the
snap, as an ndarray subclass that counts its ufunc and function calls
sees them (numpy 2.4).  A batch with correlations on both sides of the
ReLU series threshold adds four, and seven more for the series where one
of those above it is not exactly 1.  Two are reductions, the least and
largest correlation, which decide the range check, the snap at +-1 and
the branch of the ReLU map; per-pair variances take a third, their
largest, which decides the renormalisation (on two floats, a
comparison).  The expectations come from ``activations.layer_maps``, the
one implementation of a layer's expectations (its pair functions run it
too), bound to those buffers, or on shared variances from
``activations.shared_layer_maps``; for ReLU both run the one map
``activations._relu_maps``.  The hook writes the variance expectations
to the first 2m entries of a buffer B laid out as the state, E[phi phi]
to its qcov row and w_l sigma_w^2 E[phi' phi'] to the qdot row (for
ReLU, f'(c) times 1/2 w_l sigma_w^2 in one product).  The first 2m + P
entries of B become w_l (sigma_b^2 + sigma_w^2 E) in place, its K row is
qdot^l K^{l-1} + block^l, and the layer is S = s S + B on the first
2m + 2P entries of the state.  Where sigma_b = 0 the bias add is
skipped, and where s = 0 B is the state itself: each term is written
over the state once the old values it reads are read, K last.  That has
the bits of adding 0.0 and 0 S for a finite state, but for the sign of a
zero, which follows the layer's own terms, and a K that overflowed,
which stays inf where 0 inf would be NaN.  Every element goes through
the ufunc expressions written above in that order, so a pair's trace
does not depend on the other pairs of its batch.  Only the depths the
caller keeps are stored: ``rates`` its depth grid, the Gram, ``predict``
and ``selftest`` layer L, ``spectrum`` each of its depths from one
recursion to the deepest, ``kernel`` every layer.

A Tanh layer runs the same loop with the series maps of
``activations.TanhSeriesTable``: one table lookup per layer, one row pair
where the variances are all equal, and none where they repeat those of
the layer before (a fixed point, which the EOC recursion at sigma_b = 0.2
reaches within about 60 layers), and about 15 numpy calls for the sums.  Where the variances repeat, a layer of one
pair costs what a ReLU layer costs (21-38 us for either on a 2-core
x86-64 VM); a layer that meets new variances also pays their Hermite
projection, about 0.4 ms per batch of 20.

Residual variances grow like (1 + sigma_w^2/2)^L and ReLU ones with
sigma_b = 0 like (sigma_w^2/2)^L, so the state is renormalised: when the
largest variance leaves [1e-150, 1e150] (_RENORM_LIMIT) the whole state is
divided by it and its log is added to a per-layer ``scale_log``.  That is
exact only for positively homogeneous maps, so it is ReLU's alone: a Tanh
variance that leaves the range (sigma_b = 0 and sigma_w < 1, or a huge
sigma_w) is a ``DivergenceError`` naming its layer.  Raw values are
state * exp(scale_log); ``ntk_log`` and ``corr`` of ``KernelTrace``
stay finite at any depth.  The renormalisation also keeps sqrt(q_x q_x')
finite from layer 2 on, so the first layer's root is checked once, before
the loop, and later roots only on the failure path of the correlation's
range check.  A variance that passes float max is named by a
``DivergenceError`` at its layer.  The kernel is renormalised with the
variances, and where it grows faster (a chaotic Tanh diagonal grows like
chi^L) it can pass float max: it stays inf, and with shared variances,
whose float arithmetic numpy's overflow state does not govern, numpy
warns of nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .activations import (
    ActivationModel,
    CorrelationMap,
    _correlation,
    _reject_root,
    layer_correlation,
    layer_maps,
    phiprime_expectation,
    shared_layer_maps,
)
from .errors import AssumptionViolatedError, DivergenceError
from .gaussmath import clamp_correlation
from .phase import InitParams, classify

_DENSE_KINDS = ("ffnn", "resnet_dense", "scaled_resnet_dense")
#: under Assumption 1 each conv kind runs the recursion of its dense kind
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

    def __post_init__(self):
        if self.kind not in _DENSE_KINDS + CONV_KINDS:
            raise ValueError(f"unknown architecture kind {self.kind!r}")
        if self.is_conv:
            if self.positions is None or self.filter_half_width is None:
                raise ValueError("conv architectures need positions and filter_half_width")
            if self.filter_half_width < 0:
                raise ValueError("filter half-width k must be nonnegative, "
                                 f"got {self.filter_half_width}")
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

    State arrays have shape (n,) + the input shape for the n stored depths
    ``layers`` of the depth-L recursion (all L by default; see
    :func:`dense_layer_arrays`).  The input shape is () for one pair and
    (P,) for P pairs given as arrays.  Where every pair shares its
    variances, ``vx`` and ``vxp`` are read-only broadcast views of one
    value per depth.  The stored state is the raw value divided by
    exp(scale_log[l]), for every kind; scale_log changes only when a
    variance leaves [1/_RENORM_LIMIT, _RENORM_LIMIT] (see the module
    docstring), and the recursion was renormalised where scale_log is not
    0.  ``qdot`` at layer 1 is NaN (there is no previous layer).  The raw
    values ``qx``, ``qxp``, ``qcov`` and ``ntk`` overflow to inf (or
    underflow to 0) once exp(scale_log) does; ``ntk_log``/``ntk_sign`` and
    ``corr`` stay finite.
    """

    architecture: Architecture
    params: InitParams
    vx: np.ndarray
    vxp: np.ndarray
    vcov: np.ndarray
    wK: np.ndarray
    qdot: np.ndarray
    scale_log: np.ndarray
    layers: np.ndarray  # the stored depths l, as floats

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
    def ntk_log(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.wK)) + self._log_scale()

    @property
    def ntk_sign(self) -> np.ndarray:
        return np.sign(self.wK)


def first_layer_cov(params: InitParams, inner, dim):
    """First-layer covariance sigma_b^2 + sigma_w^2 inner / dim.

    ``inner`` is an inner product (scalar or array) of two inputs and
    ``dim`` its normalising fan-in: d for dense inputs, n0 (2k+1) for conv
    windows.
    """
    return params.sigma_b**2 + params.sigma_w**2 * inner / dim


def first_layer_root(qx, qxp):
    """sqrt(qx qxp) of first-layer variances, the root the correlation
    divides by.  Finite variances whose product overflows (one of them
    past about 1.3e154) are refused by name, with no numpy warning; a
    root that is zero or not finite otherwise as
    :func:`activations._reject_root` says."""
    with np.errstate(over="ignore"):
        product = np.multiply(qx, qxp)
    if np.any(product == np.inf) and np.all(np.isfinite(qx)) and np.all(np.isfinite(qxp)):
        raise ValueError("correlation not finite: the variances must be positive "
                         "and finite, with a finite product; the first-layer "
                         f"variances q1(x,x) = {np.max(qx):.6g} and "
                         f"q1(x',x') = {np.max(qxp):.6g} multiply past the float maximum")
    root = np.sqrt(product)
    _reject_root(root)
    return root


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
# the layer recursion, vectorized over input pairs
# ---------------------------------------------------------------------------

def dense_layer_arrays(kind: str | Architecture, activation: ActivationModel,
                       params: InitParams, qx0, qxp0, qcov0, L: int,
                       keep=None) -> KernelTrace:
    """Run a kernel recursion from first-layer covariances.

    ``kind`` is a dense kind name or an :class:`Architecture`; a conv
    kind runs the recursion of its dense kind, which is its kernel under
    Assumption 1.  The first-layer variances and covariances may be
    scalars or arrays of one shape (one entry per input pair); the trace
    arrays have shape (n,) + that shape for the n stored depths: ``keep``,
    depths in [1, L] (stored once each, in increasing order), or every
    depth 1..L by default.  One layer step serves every kind.  Variances
    that every pair shares, bit for bit (scalars, or arrays of one value),
    run once for the whole batch, as two Python floats.  The depth L must
    be at least 1.
    """
    if L < 1:
        raise ValueError(f"depth must be >= 1, got {L}")
    # every depth, or the sorted distinct ones of keep (never a list of L)
    depths = None if keep is None else sorted({int(l) for l in keep})
    if depths is not None and not (depths and 1 <= depths[0] and depths[-1] <= L):
        raise ValueError(f"kept depths must lie in [1, {L}], got {keep!r}")
    arch = kind if isinstance(kind, Architecture) else Architecture(kind)
    _require_relu(arch.kind, activation)
    first = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64)
                                  for a in (qx0, qxp0, qcov0)))
    shape = first[0].shape
    skip = arch.is_residual
    n = first[0].size
    # variances that every pair shares run as the floats x and y; else the
    # state buffer starts with their (2, n) rows
    shared = _shared(first[0]) and _shared(first[1])
    m = 0 if shared else n
    # one buffer: the variances V (2, m), then vcov, wK (the state S) and qdot
    state = np.empty(2 * m + 3 * n)
    S, qdot = state[:2 * m + 2 * n], state[2 * m + 2 * n:]
    V = S[:2 * m].reshape(2, m)
    vx, vxp = V
    qcov, wK = S[2 * m:].reshape(2, n)
    if shared:
        x, y = (float(a.flat[0]) for a in first[:2])
    else:
        V[0], V[1] = (a.ravel() for a in first[:2])
    qcov[:] = first[2].ravel()
    wK[:] = qcov
    qdot[:] = np.nan
    # the new variance terms, the block and the new kernel term, laid out as
    # S; with no skip they are the new state, so they are written over it
    # (each term reads the old state before it is written, and K last)
    B = np.empty_like(S) if skip else S
    E = B[:2 * m + n]  # w (sigma_b^2 + sigma_w^2 E), in place
    block, new_K = B[2 * m:].reshape(2, n)
    if shared:
        maps = shared_layer_maps(activation, block, qdot)
    else:
        root, c = np.empty(m), np.empty(n)
        maps = layer_maps(activation, V, root, B[:2 * m].reshape(2, m), block, qdot)
    sb2, sw2 = float(params.sigma_b**2), float(params.sigma_w**2)
    sb2_l = sb2  # the bias in units of the renormalised state
    # the same two as 0-d arrays, which the ufuncs read faster than floats
    sw2_0, sb2_0 = np.array(sw2), np.array(sb2)
    scaled = arch.is_scaled
    kept = L if depths is None else len(depths)
    # the trace: the state of each kept layer (one write per layer) and,
    # where the variances are shared, their two floats per kept layer
    hist = np.empty((kept, state.size))
    shared_rows = np.empty((kept, 2)) if shared else None
    scale_log = np.zeros(kept)
    log_scale = 0.0
    j, next_kept = 0, 1 if depths is None else depths[0]
    if L > 1:
        # the one root check of the run: from layer 2 on the largest
        # variance is at most _RENORM_LIMIT (or inf or NaN), so a zero,
        # infinite or NaN root shows in the correlation's range check.
        # Shared variances are checked as one (1,) row each
        first_layer_root(*(a.ravel()[:m or 1] for a in first[:2]))

    # a kernel that passes float max stays inf, with no warning: a
    # variance past it is the renormalisation's named DivergenceError
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for l in range(1, L + 1):
            if l > 1:
                w = 1.0 / l if scaled else 1.0
                if shared:
                    try:
                        root = math.sqrt(x * y)
                    except ValueError:  # a negative product: NaN, as np.sqrt
                        root = math.nan
                    dx, dy = maps(x, y, root, qcov, w * sw2)
                    dx *= sw2
                    dy *= sw2
                    if sb2_l:
                        dx += sb2_l
                        dy += sb2_l
                    if w != 1.0:
                        dx *= w
                        dy *= w
                else:
                    np.multiply(vx, vxp, out=root)
                    np.sqrt(root, out=root)
                    maps(*_correlation(qcov, root, c), w * sw2)
                np.multiply(E, sw2_0, E)
                if sb2_l:
                    np.add(E, sb2_0, E)
                if w != 1.0:
                    E *= w
                np.multiply(qdot, wK, new_K)
                np.add(new_K, block, new_K)
                if skip:
                    np.add(S, B, S)
                if shared:
                    x, y = (x + dx, y + dy) if skip else (dx, dy)
                    # np.maximum's choice: NaN if either is NaN
                    top = x if x >= y or x != x else y
                else:
                    top = float(np.maximum.reduce(V, axis=None))
                if top > _RENORM_LIMIT or 0.0 < top < 1.0 / _RENORM_LIMIT:
                    if top == math.inf:
                        raise DivergenceError(
                            f"a field variance passed the float maximum at layer {l}")
                    if activation.kind != "relu":
                        raise DivergenceError(
                            f"a field variance left [1e-150, 1e150] at layer {l}: "
                            "only the ReLU recursion can be renormalised")
                    S /= top
                    if shared:
                        x, y = x / top, y / top
                    log_scale += float(np.log(top))
                    sb2_l = sb2_0[()] = float(sb2 * np.exp(-log_scale)) if sb2 else 0.0
            if l == next_kept:
                hist[j] = state
                if shared:
                    shared_rows[j] = x, y
                scale_log[j] = log_scale
                j += 1
                next_kept = (l + 1 if depths is None
                             else depths[j] if j < kept else 0)

    if shared:  # read-only (kept, P) views, as a per-pair run has the rows
        variances = np.broadcast_to(shared_rows[:, :, None], (kept, 2, n))
    else:
        variances = hist[:, :2 * m].reshape(kept, 2, m)
    pair_rows = hist[:, 2 * m:].reshape(kept, 3, n)
    rows = (*variances.transpose(1, 0, 2), *pair_rows.transpose(1, 0, 2))
    return KernelTrace(arch, params,
                       *(r.reshape((kept,) + shape) for r in rows), scale_log,
                       np.arange(1, L + 1, dtype=np.float64) if depths is None
                       else np.array(depths, dtype=np.float64))


def _shared(a: np.ndarray) -> bool:
    """Whether the float array a is not empty and holds one value
    throughout, bit for bit (so 0.0 and -0.0 differ)."""
    bits = a.view(np.int64)
    return a.size > 0 and bool(np.minimum.reduce(bits, axis=None)
                               == np.maximum.reduce(bits, axis=None))


def ntk_trace(arch: Architecture, pair: InputPair, activation: ActivationModel,
              params: InitParams, L: int) -> KernelTrace:
    """Depth-L NTK trace of one input pair for any architecture kind.

    Dense kinds take vector inputs and return length-L arrays.  Conv kinds
    take (n0, M) inputs whose first-layer covariance grids are constant
    (Assumption 1), else raise AssumptionViolatedError, and return the
    length-L arrays of the dense recursion from those constants.
    """
    if arch.is_conv:
        return _conv_trace(pair, activation, params, arch, L)
    if pair.is_conv:
        raise ValueError(f"{arch.kind} expects dense inputs")
    return dense_layer_arrays(arch, activation, params,
                              *first_layer_dense(pair, params), L)


# ---------------------------------------------------------------------------
# convolutional first layer ((alpha, alpha') grids, circular indexing)
# ---------------------------------------------------------------------------

def _conv_trace(pair: InputPair, activation: ActivationModel, params: InitParams,
                arch: Architecture, L: int) -> KernelTrace:
    """The recursion of the pair's dense kind from its first-layer
    covariances, whose (alpha, alpha') grids Assumption 1 holds constant."""
    if not pair.is_conv:
        raise ValueError("conv kernels need (n0, M) inputs")
    n0, m = pair.x.shape
    if m != arch.positions:
        raise ValueError(f"input has {m} positions, architecture expects {arch.positions}")
    k = arch.filter_half_width
    first = []
    for name, u, v in (("q1(x,x)", pair.x, pair.x), ("q1(x',x')", pair.xp, pair.xp),
                       ("q1(x,x')", pair.x, pair.xp)):
        g = first_layer_cov(params, InputPair(u, v).conv_inner(k), n0 * (2 * k + 1))
        if np.ptp(g) > 1e-9:
            raise AssumptionViolatedError(
                f"first-layer grid {name} varies by {np.ptp(g):.2e} > 1e-9")
        first.append(g[0, 0])
    return dense_layer_arrays(arch, activation, params, *first, L)


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

    # classify's q* is the variance the recursion settles at: its Tanh
    # diagonals and phase's m(q) come from the same order-256 rule
    report = classify(activation, params)
    q = report.q_fixed
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
