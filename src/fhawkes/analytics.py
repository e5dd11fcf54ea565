"""Closed-form expected intensity and expected event count of the
self-exciting process with Mittag-Leffler kernel, the Laplace image of the
expected intensity, and its long-time asymptote.

All formulas are written in terms of the scaled complementary error
function or Mittag-Leffler functions of negative argument, so they stay
finite at arbitrarily large times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .laplace import IltConfig, LaplaceImage, ilt_grid
from .special import MLKernelParams, erfcx, ml_one, prabhakar

__all__ = [
    "CurveSample",
    "ModelParams",
    "asymptote",
    "expected_n",
    "expected_n_half",
    "lambda_curve",
    "lambda_exact",
    "lambda_exact_half",
    "lambda_image",
]

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class ModelParams:
    """Parameter quadruple of the process.

    ``lambda0``: baseline event rate (events per unit time), positive.
    ``alpha``: branching ratio in [0, 1); 0 degenerates to a Poisson process.
    ``beta``: kernel tail exponent in (0, 1]; 1 gives the exponential kernel.
    ``gamma``: kernel time scale, positive.
    """

    lambda0: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.lambda0 < math.inf:
            raise DomainError(
                f"lambda0 must be positive and finite, got {self.lambda0}"
            )
        if not 0.0 <= self.alpha < 1.0:
            raise DomainError(f"alpha must be in [0, 1), got {self.alpha}")
        if not 0.0 < self.beta <= 1.0:
            raise DomainError(f"beta must be in (0, 1], got {self.beta}")
        if not 0.0 < self.gamma < math.inf:
            raise DomainError(f"gamma must be positive and finite, got {self.gamma}")

    def kernel(self) -> MLKernelParams:
        return MLKernelParams(self.beta, self.gamma)


@dataclass
class CurveSample:
    """A sampled curve: grid, values, and the method that produced them."""

    t: np.ndarray
    value: np.ndarray
    method: str
    error_estimate: np.ndarray | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.value = np.asarray(self.value, dtype=float)
        if self.method not in ("exact", "ilt", "montecarlo"):
            raise DomainError(f"unknown curve method {self.method!r}")
        if self.t.ndim != 1 or np.any(np.diff(self.t) <= 0.0):
            raise DomainError("curve grid must be strictly increasing")
        if not np.all(np.isfinite(self.value)):
            raise DomainError("curve values must be finite")
        if self.error_estimate is not None:
            self.error_estimate = np.asarray(self.error_estimate, dtype=float)


def lambda_image(p: ModelParams) -> LaplaceImage:
    """Laplace image of the expected intensity:
    ``(lambda0/s) * (gamma + s**beta) / ((1-alpha)*gamma + s**beta)`` with
    the principal branch of ``s**beta``; abscissa 0."""

    lam0, al, be, ga = p.lambda0, p.alpha, p.beta, p.gamma

    def fn(s):
        s = np.asarray(s, dtype=complex)
        sb = s ** be
        return (lam0 / s) * (ga + sb) / ((1.0 - al) * ga + sb)

    return LaplaceImage(fn, sigma0=0.0, note="expected-intensity image")


def asymptote(p: ModelParams) -> float:
    """Long-time limit of the expected intensity, ``lambda0 / (1 - alpha)``."""
    return p.lambda0 / (1.0 - p.alpha)


def lambda_exact_half(t, p: ModelParams):
    """Expected intensity for ``beta = 1/2`` in overflow-free form:
    ``L - (alpha/(1-alpha))*lambda0*erfcx((1-alpha)*gamma*sqrt(t))`` with
    ``L`` the asymptote.

    Raises :class:`DomainError` unless ``p.beta == 0.5`` exactly.
    """
    if p.beta != 0.5:
        raise DomainError("closed form requires beta = 1/2 exactly")
    t_arr = np.asarray(t, dtype=float)
    x = (1.0 - p.alpha) * p.gamma * np.sqrt(t_arr)
    res = asymptote(p) * (1.0 - p.alpha * erfcx(x))
    return float(res) if t_arr.ndim == 0 else res


def lambda_exact(t, p: ModelParams):
    """Expected intensity for any ``beta`` in (0, 1]:
    ``L - (alpha/(1-alpha))*lambda0*E_beta((alpha-1)*gamma*t**beta)``.

    Equals ``lambda0`` at ``t = 0`` and increases strictly toward the
    asymptote for ``alpha > 0``.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise DomainError("expected intensity requires t >= 0")
    z = (p.alpha - 1.0) * p.gamma * t_arr ** p.beta
    res = asymptote(p) * (1.0 - p.alpha * ml_one(p.beta, z))
    return float(res) if t_arr.ndim == 0 else res


def expected_n_half(t, p: ModelParams):
    """Expected number of events by time ``t`` for ``beta = 1/2``:

    ``lambda0*t/(1-alpha) - alpha*lambda0/((1-alpha)^3*gamma^2*sqrt(pi)) *
    (sqrt(pi)*erfcx(x) + 2*x - sqrt(pi))`` with ``x = (1-alpha)*gamma*sqrt(t)``.
    """
    if p.beta != 0.5:
        raise DomainError("closed form requires beta = 1/2 exactly")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise DomainError("expected count requires t >= 0")
    one_m = 1.0 - p.alpha
    x = one_m * p.gamma * np.sqrt(t_arr)
    bracket = _SQRT_PI * (erfcx(x) - 1.0) + 2.0 * x
    res = (
        p.lambda0 * t_arr / one_m
        - p.alpha * p.lambda0 / (one_m ** 3 * p.gamma ** 2 * _SQRT_PI) * bracket
    )
    return float(res) if t_arr.ndim == 0 else res


def expected_n(t, p: ModelParams):
    """Expected number of events by time ``t`` for any ``beta``:

    ``lambda0*t/(1-alpha) - (alpha*lambda0/(1-alpha)) * t *
    E_{beta,2}((alpha-1)*gamma*t**beta)``; nonnegative and nondecreasing.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise DomainError("expected count requires t >= 0")
    z = (p.alpha - 1.0) * p.gamma * t_arr ** p.beta
    e = prabhakar(p.beta, 2.0, 1.0, z)
    res = (p.lambda0 / (1.0 - p.alpha)) * t_arr * (1.0 - p.alpha * e)
    return float(res) if t_arr.ndim == 0 else res


def lambda_curve(
    p: ModelParams, t, method: str = "exact", cfg: IltConfig | None = None
) -> CurveSample:
    """Expected-intensity curve on a grid, by the exact formula or by
    numerical inversion of the Laplace image."""
    t = np.asarray(t, dtype=float)
    if method == "exact":
        return CurveSample(t, lambda_exact(t, p), "exact")
    if method == "ilt":
        values, errors = ilt_grid(lambda_image(p), t, cfg)
        return CurveSample(t, values, "ilt", error_estimate=errors)
    raise DomainError(f"unknown method {method!r}")
