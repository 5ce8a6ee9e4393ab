"""Variance fixed points, phase classification, and the critical curve.

An initialization (sigma_b, sigma_w) is classified by

    chi = sigma_w^2 E[phi'(sqrt(q) Z)^2],

where q = q(sigma_b, sigma_w) is the limiting layer variance.  chi < 1 is
the ordered phase (correlations collapse to 1 exponentially), chi > 1 the
chaotic phase, and chi = 1 the critical boundary where correlations decay
polynomially and gradients neither vanish nor explode.

ReLU has closed forms: q = sigma_b^2 / (1 - sigma_w^2/2) for sigma_w <
sqrt(2), chi = sigma_w^2 / 2, and the critical set is the single point
(0, sqrt(2)) with input-dependent variance q^1(x) = sigma_w^2 ||x||^2 / d,
which the kernel recursions thread through explicitly instead of a global
fixed point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import ActivationModel, tanh_prime
from .errors import ConvergenceError, DivergenceError, NoSolutionError
from .gaussmath import expect1

#: |chi - 1| tolerance separating the critical set from the two phases.
PHASE_TOL = 1e-8

_SQRT2 = np.sqrt(2.0)

_MAX_FIXED_POINT_ITERS = 100_000
_FIXED_POINT_TOL = 1e-12


@dataclass(frozen=True)
class InitParams:
    """Weight/bias scales of the initialization."""

    sigma_b: float
    sigma_w: float

    def __post_init__(self):
        if self.sigma_b < 0:
            raise ValueError("sigma_b must be nonnegative")
        if self.sigma_w <= 0:
            raise ValueError("sigma_w must be positive")


@dataclass(frozen=True)
class PhaseReport:
    """Classification of one (sigma_b, sigma_w) point."""

    params: InitParams
    q_fixed: float
    chi: float
    phase: str  # "ordered" | "chaotic" | "eoc"
    degenerate: bool = False  # sigma_b = 0 with fixed point q = 0


def variance_fixed_point(activation: ActivationModel, params: InitParams,
                         input_variance: float = 1.0) -> float:
    """Limiting variance of the layer map q -> sigma_b^2 + sigma_w^2 E[phi^2].

    For ReLU with sigma_w > sqrt(2) the variance diverges; on the ReLU
    critical point (0, sqrt(2)) every variance is fixed, so the caller's
    ``input_variance`` is returned.  Tanh with sigma_b = 0 has the
    degenerate fixed point 0 (handled in closed form; the plain iteration
    approaches it only algebraically).
    """
    sb, sw = params.sigma_b, params.sigma_w
    if activation.kind == "relu":
        if sw > _SQRT2 + 1e-12:
            raise DivergenceError(
                f"ReLU variance diverges for sigma_w={sw} > sqrt(2)"
            )
        if abs(sw - _SQRT2) <= 1e-12:
            if sb > 0:
                raise DivergenceError(
                    "ReLU variance grows linearly for sigma_b > 0 at sigma_w = sqrt(2)"
                )
            return float(input_variance)
        if sb == 0.0:
            return 0.0  # q = sigma_b^2 / (1 - sigma_w^2/2) degenerates to 0
    if activation.kind == "tanh" and sb == 0.0 and sw <= 1.0:
        # q = 0 is the stable fixed point (for sigma_w > 1 a positive stable
        # fixed point exists and the iteration below finds it)
        return 0.0

    def vmap(q: float) -> float:
        if activation.kind == "relu":
            return sb * sb + sw * sw * q / 2.0
        return sb * sb + sw * sw * expect1(
            lambda u: np.tanh(u) ** 2, q, activation.quadrature
        )

    q = 1.0
    step = 1.0
    prev_delta = np.inf
    for _ in range(_MAX_FIXED_POINT_ITERS):
        q_new = q + step * (vmap(q) - q)
        delta = abs(q_new - q)
        if delta < _FIXED_POINT_TOL:
            return q_new
        if delta > prev_delta:  # damp on oscillation
            step = max(step / 2.0, 1e-3)
        prev_delta = delta
        q = q_new
    # near-critical maps have slope ~ 1 at the fixed point and the plain
    # iteration stalls; polish the stalled iterate by root bracketing
    from scipy.optimize import brentq

    def h(v):
        return vmap(v) - v

    lo, hi = q * 0.5, q * 2.0 + 1e-6
    if h(lo) * h(hi) < 0:
        return float(brentq(h, lo, hi, xtol=1e-15, rtol=1e-15))
    raise ConvergenceError(
        f"variance fixed point did not converge for {params} ({activation.kind})"
    )


def chi_coefficient(activation: ActivationModel, params: InitParams,
                    q_fixed: float) -> float:
    """chi = sigma_w^2 E[phi'(sqrt(q) Z)^2]; closed form sigma_w^2/2 for ReLU."""
    if activation.kind == "relu":
        # (sigma_w/sqrt(2))^2 rather than sigma_w^2/2: exact 1.0 at criticality
        return float((params.sigma_w / _SQRT2) ** 2)
    if q_fixed == 0.0:
        # limit q -> 0+: phi'(0)^2 = 1
        return params.sigma_w**2
    return params.sigma_w**2 * expect1(
        lambda u: tanh_prime(u) ** 2, q_fixed, activation.quadrature
    )


def classify(activation: ActivationModel, params: InitParams,
             input_variance: float = 1.0) -> PhaseReport:
    """PhaseReport for one initialization point."""
    q = variance_fixed_point(activation, params, input_variance)
    chi = chi_coefficient(activation, params, q)
    if abs(chi - 1.0) <= PHASE_TOL:
        phase = "eoc"
    elif chi < 1.0:
        phase = "ordered"
    else:
        phase = "chaotic"
    degenerate = q == 0.0
    return PhaseReport(params=params, q_fixed=q, chi=chi, phase=phase,
                       degenerate=degenerate)


def eoc_curve(activation: ActivationModel, sigma_b: float,
              chi_target: float = 1.0) -> float:
    """sigma_w with chi(sigma_b, sigma_w) = chi_target, by bisection.

    The default target 1 traces the critical curve.  Other targets are
    useful for placing controlled ordered-phase points (e.g. chi = 0.99).
    Bisects sigma_w in [1e-3, 10] until |chi - target| < 1e-10.
    """
    if sigma_b < 0:
        raise ValueError("sigma_b must be nonnegative")
    if activation.kind == "relu":
        if chi_target == 1.0:
            if sigma_b != 0.0:
                raise NoSolutionError(
                    "ReLU critical set is the single point (0, sqrt(2))"
                )
            return float(_SQRT2)
        return float(np.sqrt(2.0 * chi_target))

    if sigma_b == 0.0:
        # degenerate fixed point q = 0: chi = sigma_w^2 in the q -> 0+ limit,
        # so the phase boundary sits at sigma_w = sqrt(chi_target) exactly
        return float(np.sqrt(chi_target))

    def g(sw: float) -> float:
        report = classify(activation, InitParams(sigma_b, sw))
        return report.chi - chi_target

    # The quadrature chi is only trustworthy while the fixed-point variance
    # stays moderate; scan upward for the smallest valid upper bracket
    # instead of trusting the far end of [1e-3, 10].
    lo = 1e-3
    hi = None
    for cand in (1.5, 2.0, 3.0, 5.0, 10.0):
        if g(cand) > 0:
            hi = cand
            break
    if hi is None or g(lo) > 0:
        raise NoSolutionError(
            f"no critical sigma_w in [{lo}, 10] for sigma_b={sigma_b}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gmid = g(mid)
        if abs(gmid) < 1e-10:
            return mid
        if gmid < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    raise ConvergenceError(f"bisection stalled for sigma_b={sigma_b}")
