"""Depth expansions of correlations and empirical convergence-rate fits.

``check_expansion`` iterates the critical deficit law of a kind
(``kernels.kind_law``) and compares it with the law's exact constant.

``fit_rate`` estimates decay laws of kernel residuals in their natural
transform domains (log-log for powers, log-linear for exponentials,
log against log log for inverse powers of log L), each by a linear
least-squares fit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import ActivationModel
from .kernels import Architecture, kind_law
from .phase import InitParams


def check_expansion(architecture_kind: str, activation: ActivationModel,
                    params: InitParams, depth: int, gamma0: float = 0.5) -> dict:
    """Empirical limit of the rescaled correlation deficit vs its constant.

    Returns the deficit gamma = 1 - c at ``depth``, the rescaled product
    (l^2 gamma, l gamma, or log(l)^2 gamma as appropriate), the exact
    constant, and their relative error.  A residual conv kind takes its
    dense kind's law; ``cnn`` has none."""
    # the law reads the kind alone: any geometry builds a conv kind
    law = kind_law(Architecture(architecture_kind, positions=1, filter_half_width=0),
                   activation, params)
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
