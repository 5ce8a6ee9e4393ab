"""Gaussian quadrature and bivariate Gaussian expectations.

All kernel maps in this package reduce to one- and two-dimensional
expectations over standard normals,

    E[g(sqrt(q) Z)],                    Z ~ N(0,1),
    E[g(u1) g(u2)],                     (u1, u2) jointly Gaussian,

with u1 = sqrt(q1) Z1 and u2 = sqrt(q2) (c Z1 + sqrt(1-c^2) Z2), so that
Var(u1)=q1, Var(u2)=q2 and Corr(u1,u2)=c.  Hermite rules integrate against
the standard normal density; Jacobi rules integrate against
(1-t^2)^alpha on [-1,1] and are used by the spherical-spectrum code.

The dual-activation (Mehler) series of the Tanh maps needs the Hermite
coefficients a_k(q) = E[g(sqrt(q) Z) h_k(Z)] in the orthonormal basis
h_k = He_k / sqrt(k!); :func:`hermite_projection` computes them, for k up
to SERIES_DEGREE, with one fixed rule of order PROJECTION_ORDER.

Everything here is plain 64-bit floating point; rules are immutable and
safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# roots_hermitenorm (order <= 150) and roots_jacobi import scipy.linalg
# lazily on their first call (scipy.special._orthogonal's
# gen_roots_and_weights); importing it here keeps that cost in start-up
# instead of the first op that builds a rule.
import scipy.linalg  # noqa: F401
from scipy.special import roots_hermitenorm, roots_jacobi

from .errors import NumericError

#: Default 1D order: the Tanh pairs and diagonals that the series cannot
#: certify (see ``activations``) use it; ``phase`` reads its moments from
#: the PROJECTION_ORDER rule instead.  The 64x64 tensor
#: grid is accurate for small variances only: E[tanh tanh] at c = 0.999
#: differs from order 256 by 6.2e-13 at q = 0.512, 1.7e-5 at q = 3,
#: 2.8e-3 at q = 10, 2.5e-2 at q = 30.
DEFAULT_ORDER = 64

#: Order of the rule behind :func:`hermite_projection`.  Its weights stay
#: normal; ``gauss_hermite(400)`` already fails on underflowing weights.
PROJECTION_ORDER = 256

#: Highest degree k of the projection, half the rule's order.  An n-point
#: rule makes h_0..h_{n-1} discretely orthonormal, so the discrete
#: remainder sum_{k>K} a_k^2 vanishes at K = n - 1 whatever g is; below
#: n/2 the aliasing onto a_k comes from degrees past 3n/2 only.
SERIES_DEGREE = PROJECTION_ORDER // 2

#: grid points per block of :func:`expect2_pairs` (256 KB per temporary)
_BLOCK_POINTS = 2**15

#: Correlations within this distance above 1 in absolute value are clamped.
CORRELATION_SLACK = 1e-12


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a fixed quadrature rule.

    ``kind`` is "hermite" (weight = standard normal density, nodes on the
    real line) or "jacobi" (weight = (1-t^2)^alpha_exponent on [-1, 1]).
    Nodes are strictly increasing and weights strictly positive.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    alpha_exponent: float | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1D of equal length")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise ValueError("weights must be positive")

    @property
    def order(self) -> int:
        return self.nodes.size


def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule for expectations under N(0, 1).

    Uses the probabilists' Hermite rule (weight e^{-z^2/2}) normalized so
    that sum(w_i) = 1 and sum(w_i f(z_i)) ~= E[f(Z)] for Z ~ N(0,1).
    """
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    z, w = roots_hermitenorm(order)
    return QuadratureRule(
        nodes=z, weights=w / np.sqrt(2.0 * np.pi), kind="hermite"
    )


def gauss_jacobi(order: int, alpha_exponent: float) -> QuadratureRule:
    """Gauss-Jacobi rule on [-1, 1] with weight (1-t^2)^alpha_exponent."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    if alpha_exponent <= -1:
        raise ValueError("alpha_exponent must exceed -1")
    t, w = roots_jacobi(order, alpha_exponent, alpha_exponent)
    return QuadratureRule(
        nodes=t, weights=w, kind="jacobi", alpha_exponent=alpha_exponent
    )


def clamp_correlation(c, slack: float = CORRELATION_SLACK):
    """Clamp correlations to [-1, 1], rejecting violations beyond ``slack``.

    Long kernel recursions accumulate floating-point drift that can push a
    correlation marginally past 1; anything worse than ``slack``, and any
    NaN, is a caller bug and raises.
    """
    c_arr = np.asarray(c, dtype=np.float64)
    if not np.all(np.abs(c_arr) <= 1.0 + slack):
        raise ValueError(f"correlation not finite or out of range [-1,1]: {c!r}")
    clipped = np.clip(c_arr, -1.0, 1.0)
    return float(clipped) if np.isscalar(c) or c_arr.ndim == 0 else clipped


def expect1(g, q: float, rule: QuadratureRule) -> float:
    """Quadrature estimate of E[g(sqrt(q) Z)] with Z ~ N(0,1)."""
    if q < 0:
        raise ValueError(f"variance must be nonnegative, got {q}")
    if rule.kind != "hermite":
        raise ValueError("expect1 requires a hermite rule")
    vals = g(np.sqrt(q) * rule.nodes)
    if not np.all(np.isfinite(vals)):
        raise NumericError("integrand evaluated to a non-finite value")
    return float(rule.weights @ vals)


def expect2(g, q1: float, q2: float, c: float, rule: QuadratureRule) -> float:
    """Tensor-product estimate of E[g(u1) g(u2)].

    (u1, u2) is the bivariate Gaussian with variances q1, q2 and
    correlation c, realized as u1 = sqrt(q1) z1,
    u2 = sqrt(q2) (c z1 + sqrt(1-c^2) z2).
    """
    if q1 < 0 or q2 < 0:
        raise ValueError("variances must be nonnegative")
    if rule.kind != "hermite":
        raise ValueError("expect2 requires a hermite rule")
    c = clamp_correlation(c)
    if q2 > q1:  # canonical order makes the estimate exactly symmetric
        q1, q2 = q2, q1
    z = rule.nodes
    w = rule.weights
    u1 = np.sqrt(q1) * z
    u2 = np.sqrt(q2) * (c * z[:, None] + np.sqrt(1.0 - c * c) * z[None, :])
    vals = g(u1)[:, None] * g(u2)
    if not np.all(np.isfinite(vals)):
        raise NumericError("integrand evaluated to a non-finite value")
    return float(w @ vals @ w)


def expect2_pairs(g, q1, q2, c, rule: QuadratureRule) -> np.ndarray:
    """Vectorized :func:`expect2` over arrays of (q1, q2, c) triples.

    Returns an array of the same shape as the broadcast inputs.  Used by the
    kernel recursions, which propagate many input pairs per layer.  The grid
    is laid out as (pair, i, j) and evaluated in blocks of
    max(1, _BLOCK_POINTS // order^2) pairs (8 at order 64), so temporaries
    stay cache-sized at any number of pairs.  Each block is reduced in
    ``einsum``'s own loops, not BLAS, whose results depend on the number of
    rows: a pair gets the same bits whatever the other pairs of its call.
    """
    if rule.kind != "hermite":
        raise ValueError("expect2_pairs requires a hermite rule")
    q1, q2, c = np.broadcast_arrays(
        np.asarray(q1, dtype=np.float64),
        np.asarray(q2, dtype=np.float64),
        np.asarray(c, dtype=np.float64),
    )
    if np.any(q1 < 0) or np.any(q2 < 0):
        raise ValueError("variances must be nonnegative")
    c = clamp_correlation(c)
    q1, q2 = np.maximum(q1, q2), np.minimum(q1, q2)  # canonical order
    shape = q1.shape
    cf = np.atleast_1d(c).ravel()
    s1, s2, sc = np.sqrt(q1.ravel()), np.sqrt(q2.ravel()), np.sqrt(1.0 - cf * cf)
    z = rule.nodes
    w = rule.weights
    out = np.empty(cf.size)
    block = max(1, _BLOCK_POINTS // z.size**2)
    for start in range(0, cf.size, block):
        b = slice(start, start + block)
        u1 = s1[b, None] * z                                        # (B, i)
        mix = cf[b, None, None] * z[:, None] + sc[b, None, None] * z  # (B, i, j)
        vals = g(u1)[:, :, None] * g(s2[b, None, None] * mix)
        if not np.all(np.isfinite(vals)):
            raise NumericError("integrand evaluated to a non-finite value")
        out[b] = np.einsum("bi,i->b", np.einsum("bij,j->bi", vals, w), w)
    return out.reshape(shape)


def _orthonormal_hermite(z: np.ndarray, degree: int) -> np.ndarray:
    """Rows h_k(z) = He_k(z) / sqrt(k!), k = 0..degree, at the points z.

    Uses the three-term recurrence
    h_{k+1} = (z h_k - sqrt(k) h_{k-1}) / sqrt(k+1), which stays in range
    where He_k itself overflows.
    """
    h = np.empty((degree + 1, z.size))
    h[0] = 1.0
    h[1] = z
    for k in range(1, degree):
        h[k + 1] = (z * h[k] - np.sqrt(k) * h[k - 1]) / np.sqrt(k + 1)
    return h


_PROJECTION: tuple[QuadratureRule, np.ndarray] | None = None


def _projection_basis() -> tuple[QuadratureRule, np.ndarray]:
    """The projection rule and its weighted basis w_i h_k(z_i), built on first use.

    scipy's asymptotic rule above order 150 leaves E[tanh^2] 1e-14 off.  One
    Newton step on h_n and the Christoffel weights 1 / sum_{k<n} h_k(z_i)^2
    make h_0..h_{n-1} orthonormal to 3e-15 on the rule, and the moments at
    q <= 0.5 come within 5e-16 of 30-digit values."""
    global _PROJECTION
    if _PROJECTION is None:
        n = PROJECTION_ORDER
        z = gauss_hermite(n).nodes
        h = _orthonormal_hermite(z, n)
        z = z - h[n] / (np.sqrt(n) * h[n - 1])  # h_n' = sqrt(n) h_{n-1}
        h = _orthonormal_hermite(z, n - 1)
        rule = QuadratureRule(z, 1.0 / np.einsum("ki,ki->i", h, h), "hermite")
        basis = np.ascontiguousarray((h[:SERIES_DEGREE + 1] * rule.weights).T)
        basis.setflags(write=False)
        _PROJECTION = rule, basis
    return _PROJECTION


def hermite_projection(g, q) -> tuple[np.ndarray, np.ndarray]:
    """Hermite coefficients and second moments of g(sqrt(q) Z), per variance.

    For a 1D array q of V variances returns ``(a, s)``: a has shape
    (V, SERIES_DEGREE + 1) with a[v, k] = E[g(sqrt(q_v) Z) h_k(Z)], and
    s[v] = E[g(sqrt(q_v) Z)^2], both from the order-PROJECTION_ORDER rule.
    Then E[g(u1) g(u2)] = sum_k a_k(q1) a_k(q2) c^k (Mehler) and
    s - sum_{k<=K} a_k^2 is the Parseval remainder of the first K + 1 terms.
    The sums run in ``einsum``'s own loops, not BLAS, whose results depend
    on the number of rows: a variance gets the same bits in any batch.
    """
    q = np.asarray(q, dtype=np.float64)
    if np.any(q < 0):
        raise ValueError("variances must be nonnegative")
    rule, basis = _projection_basis()
    vals = g(np.sqrt(q)[:, None] * rule.nodes)
    if not np.all(np.isfinite(vals)):
        raise NumericError("integrand evaluated to a non-finite value")
    return (np.einsum("vn,nk->vk", vals, basis),
            np.einsum("vn,n->v", vals * vals, rule.weights))


_DEFAULT_HERMITE: QuadratureRule | None = None


def default_hermite() -> QuadratureRule:
    """Shared order-64 Hermite rule (immutable, so caching is safe)."""
    global _DEFAULT_HERMITE
    if _DEFAULT_HERMITE is None:
        _DEFAULT_HERMITE = gauss_hermite(DEFAULT_ORDER)
    return _DEFAULT_HERMITE
