"""Depth expansions of correlations and empirical convergence-rate fits.

On the critical initialization the correlation c^l of two inputs approaches
1 polynomially, with exact leading constants:

    ReLU feedforward:    1 - c^l ~ kappa / l^2,      kappa = 9 pi^2 / 2
    Tanh feedforward:    1 - c^l ~ kappa / l,        kappa = 2 / f''(1)
    ReLU residual:       1 - c^l ~ kappa_res / l^2,  kappa_res = (9 pi^2/2)(1 + 2/sigma_w^2)^2
    scaled residual:     1 - c^l ~ zeta / log(l)^2,  zeta = 16 / (s^2 sigma_w^4)

with s = 2 sqrt(2)/(3 pi) the 3/2-order Taylor coefficient of the ReLU
correlation map.  ``depth_law`` holds one law per kind and activation:
``ffnn`` with ReLU or Tanh, and ``resnet_*`` and ``scaled_resnet_*``
(dense or conv) with ReLU.  Each tracks gamma = 1 - c, which stays accurate
long after 1 - c falls below double rounding of c, by the kernel engine's
layer step in deficit form

    gamma' = (skip gamma + b_l D(gamma)) / (skip + b_l),

with skip 1 for residual kinds and 0 for ``ffnn``, b_l 1 for ``ffnn``,
sigma_w^2/2 for ``resnet_*`` and sigma_w^2/(2l) for ``scaled_resnet_*``,
and D ``relu_one_minus_f`` or the Tanh map's ``deficit``, both exact
at gamma = 0: D(0) = 0.

``fit_rate`` estimates decay laws of kernel residuals in their natural
transform domains (log-log for powers, log-linear for exponentials,
log against log log for inverse powers of log L), each by a linear
least-squares fit.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .activations import (
    S_RELU,
    ActivationModel,
    CorrelationMap,
    relu_one_minus_f,
)
from .kernels import _require_relu
from .phase import InitParams, classify

KAPPA_RELU = 9.0 * np.pi**2 / 2.0


class ExpansionConstants:
    """Exact constants of the leading depth expansions."""

    @staticmethod
    def kappa_tanh(cmap: CorrelationMap) -> float:
        """2 / f''(1), the 1/l coefficient for smooth critical maps."""
        return 2.0 / cmap.derivative_at_one(2)

    @staticmethod
    def kappa_resnet(sigma_w: float) -> float:
        """(9 pi^2 / 2)(1 + 2/sigma_w^2)^2."""
        return KAPPA_RELU * (1.0 + 2.0 / sigma_w**2) ** 2

    @staticmethod
    def zeta_scaled(sigma_w: float) -> float:
        """16 / (s^2 sigma_w^4)."""
        return 16.0 / (S_RELU**2 * sigma_w**4)


@dataclass(frozen=True)
class DepthLaw:
    """One deficit recursion and its limit gamma^l ~ constant / rescale(l).

    ``deficit`` is D(gamma) = 1 - f(1 - gamma) of the layer map.
    """

    skip: float
    block: float
    scaled: bool
    deficit: Callable[[float], float]
    constant: float
    rescale: Callable[[float], float]

    def iterate(self, gamma0: float, depth: int) -> float:
        """gamma at ``depth``.

        Depth counts map applications starting from gamma0 at depth 1, i.e.
        the value at depth l is the (l-1)-fold image of gamma0.
        """
        if depth < 2:
            raise ValueError("depth must be >= 2")
        if not 0.0 < gamma0 <= 2.0:
            raise ValueError(f"gamma0 must lie in (0, 2], got {gamma0!r}")
        skip, block, scaled, deficit = self.skip, self.block, self.scaled, self.deficit
        g = float(gamma0)
        for l in range(2, depth + 1):
            b = block / l if scaled else block
            g = (skip * g + b * deficit(g)) / (skip + b)
        return g


def depth_law(architecture_kind: str, activation: ActivationModel,
              params: InitParams) -> DepthLaw:
    """The critical depth law of one architecture kind and activation.

    ``ffnn`` needs the critical initialization; residual kinds need ReLU.
    The Tanh map is built at the variance fixed point.
    """
    sw = params.sigma_w
    # relu_one_minus_f is looked up when the law is built, so a wrapper
    # installed on this module after import is the one the law steps with
    if architecture_kind in ("resnet_dense", "resnet_conv"):
        _require_relu(architecture_kind, activation)
        return DepthLaw(1.0, sw**2 / 2.0, False, relu_one_minus_f,
                        ExpansionConstants.kappa_resnet(sw), lambda l: l**2)
    if architecture_kind in ("scaled_resnet_dense", "scaled_resnet_conv"):
        _require_relu(architecture_kind, activation)
        return DepthLaw(1.0, sw**2 / 2.0, True, relu_one_minus_f,
                        ExpansionConstants.zeta_scaled(sw), lambda l: np.log(l) ** 2)
    if architecture_kind != "ffnn":
        raise ValueError(f"unsupported architecture {architecture_kind!r}")
    report = classify(activation, params)
    if report.phase != "eoc":
        raise ValueError("expansion is critical-initialization only")
    if activation.kind == "relu":
        return DepthLaw(0.0, 1.0, False, relu_one_minus_f, KAPPA_RELU, lambda l: l**2)
    cmap = CorrelationMap(activation, report.q_fixed, params.sigma_b, sw)
    return DepthLaw(0.0, 1.0, False, cmap.deficit,
                    ExpansionConstants.kappa_tanh(cmap), lambda l: l)


def check_expansion(architecture_kind: str, activation: ActivationModel,
                    params: InitParams, depth: int, gamma0: float = 0.5) -> dict:
    """Empirical limit of the rescaled correlation deficit vs its constant.

    Returns the deficit gamma = 1 - c at ``depth``, the rescaled product
    (l^2 gamma, l gamma, or log(l)^2 gamma as appropriate), the exact
    constant, and their relative error.
    """
    law = depth_law(architecture_kind, activation, params)
    gamma = law.iterate(gamma0, depth)
    product = law.rescale(depth) * gamma
    return {
        "depth": depth,
        "gamma": gamma,
        "product": product,
        "constant": law.constant,
        "relative_error": abs(product / law.constant - 1.0),
    }


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    """Least-squares decay-law fit in the model's transform domain.

    ``exponent`` is the signed power p for r = A L^p, the decay rate gamma
    for r = A exp(-gamma L) (positive means decay), and the positive power
    p for r = A / log(L)^p.
    """

    model: str
    exponent: float
    prefactor: float
    r_squared: float


def _linear_fit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2


def fit_rate(depths, residuals, model: str) -> RateFit:
    """Fit residual decay vs depth under one of three laws.

    power:     r = A L^p          (log r vs log L)
    exp:       r = A e^{-gamma L} (log r vs L)
    inv_log:   r = A / log(L)^p   (log r vs log log L)

    Each law is linear in its transform domain, so one linear least-squares
    fit there is the exact solution (for inv_log, log r = log A - p log log L).
    """
    depths = np.asarray(depths, dtype=np.float64)
    residuals = np.asarray(residuals, dtype=np.float64)
    if depths.size < 8:
        raise ValueError("need at least 8 depth samples")
    if np.any(residuals <= 0):
        raise ValueError("residuals must be positive (floor them upstream)")
    logr = np.log(residuals)
    if model == "power":
        slope, intercept, r2 = _linear_fit(np.log(depths), logr)
        return RateFit("power", slope, float(np.exp(intercept)), r2)
    if model == "exp":
        slope, intercept, r2 = _linear_fit(depths, logr)
        return RateFit("exp", -slope, float(np.exp(intercept)), r2)
    if model == "inv_log":
        slope, intercept, r2 = _linear_fit(np.log(np.log(depths)), logr)
        return RateFit("inv_log", -slope, float(np.exp(intercept)), r2)
    raise ValueError(f"unknown model {model!r}")


def default_depth_grid(j_max: int = 8) -> list[int]:
    """Geometric depth grid 32 * 2^j, j = 0..j_max (transients below 32 excluded)."""
    return [32 * 2**j for j in range(j_max + 1)]
