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
from scipy.special import rgamma

from .errors import AccuracyError, DomainError
from .laplace import LaplaceImage
from .special import MLKernelParams, _float_fields, erfcx, ml_one, prabhakar

__all__ = [
    "ModelParams",
    "asymptote",
    "expected_n",
    "expected_n_half",
    "lambda_exact",
    "lambda_exact_half",
    "lambda_image",
]

_SQRT_PI = math.sqrt(math.pi)
_TINY = np.finfo(float).tiny
# Below x = _HALF_SMALL_X, expected_n_half sums (sqrt(pi)*(erfcx(x) - 1) +
# 2*x) / (sqrt(pi)*x**2) = sum_m (-x)**m / Gamma(m/2 + 2), from erfcx's
# Taylor series, to these 12 terms: the first one left out is below 1e-19
_HALF_SMALL_X = 0.05
_HALF_SERIES = rgamma(np.arange(12) / 2.0 + 2.0)


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
        _float_fields(self)
        if not 0.0 < self.lambda0 < math.inf:
            raise DomainError(
                f"lambda0 must be positive and finite, got {self.lambda0}"
            )
        if not 0.0 <= self.alpha < 1.0:
            raise DomainError(f"alpha must be in [0, 1), got {self.alpha}")
        self.kernel()  # the kernel checks beta and gamma

    def kernel(self) -> MLKernelParams:
        return MLKernelParams(self.beta, self.gamma)


def _times(t, quantity):
    """``t`` as a float array; raises DomainError unless every time is
    ``>= 0`` (so NaN is rejected too)."""
    t_arr = np.asarray(t, dtype=float)
    if not (t_arr >= 0.0).all():
        raise DomainError(f"{quantity} requires t >= 0")
    return t_arr


def _finite(res, t_arr, quantity):
    """``res``, a float for a scalar time; raises AccuracyError at the first
    time whose value is past the double range."""
    bad = ~np.isfinite(res)
    if bad.any():
        raise AccuracyError(
            f"{quantity} at t={float(t_arr[bad][0])!r} is past the double range"
        )
    return float(res) if t_arr.ndim == 0 else res


def _principal_power(s, beta):
    """Principal branch of ``s**beta`` for a complex array ``s`` and a real
    ``beta`` in (0, 1], in polar form on real ufuncs, within a few ulps of
    the exact power; ``s`` itself for ``beta = 1``.

    The modulus is ``(x*x + y*y)**(beta/2)``, or ``hypot(x, y)**beta``
    where ``x*x + y*y`` overflows or underflows.  With ``tau =
    tan(beta*arg(s)/2)`` the rotation is ``((1 - tau**2) + 2j*tau) / (1 +
    tau**2)``; ``|tau| <= tan(pi*beta/2)`` is finite for ``beta < 1``.
    """
    if beta == 1.0:
        return s
    # contiguous copies: the ufuncs below are faster on them than on views
    x, y = s.real.copy(), s.imag.copy()
    with np.errstate(over="ignore"):
        r2 = x * x + y * y
    mag = r2 ** (0.5 * beta)
    if not (r2.min(initial=_TINY) >= _TINY and r2.max(initial=0.0) < math.inf):
        # x*x + y*y overflowed or lost bits to underflow: |s| from hypot
        lossy = ~((r2 >= _TINY) & (r2 < math.inf))
        mag = np.where(lossy, np.hypot(x, y) ** beta, mag)
    tau = np.tan((0.5 * beta) * np.arctan2(y, x))
    tau2 = tau * tau
    m = mag / (1.0 + tau2)
    out = np.empty(s.shape, dtype=complex)
    np.multiply(m, 1.0 - tau2, out=out.real)
    np.multiply(m, 2.0 * tau, out=out.imag)
    return out


def lambda_image(*ps: ModelParams) -> LaplaceImage:
    """Laplace image of the expected intensity:
    ``(lambda0/s) * (gamma + s**beta) / ((1-alpha)*gamma + s**beta)`` with
    the principal branch of ``s**beta``, taken in polar form within a few
    ulps of the exact power; abscissa 0.

    One parameter set gives one image.  Several give a family, whose
    values on ``n`` nodes form an ``(m, n)`` array, one row per set in
    order; ``s**beta`` is raised once per distinct ``beta``, and each row
    has the bits of its own image.

    Raises :class:`DomainError` when no parameter set is given.
    """
    if not ps:
        raise DomainError("lambda_image needs at least one parameter set")

    def fn(s):
        s = np.asarray(s, dtype=complex)
        powers = {}
        rows = []
        for p in ps:
            if p.beta not in powers:
                powers[p.beta] = _principal_power(s, p.beta)
            sb = powers[p.beta]
            rows.append(
                (p.lambda0 / s) * (p.gamma + sb) / ((1.0 - p.alpha) * p.gamma + sb)
            )
        return rows[0] if len(ps) == 1 else np.stack(rows)

    return LaplaceImage(fn, sigma0=0.0)


def asymptote(p: ModelParams) -> float:
    """Long-time limit of the expected intensity, ``lambda0 / (1 - alpha)``."""
    return p.lambda0 / (1.0 - p.alpha)


def lambda_exact_half(t, p: ModelParams):
    """Expected intensity for ``beta = 1/2`` in overflow-free form:
    ``L - (alpha/(1-alpha))*lambda0*erfcx((1-alpha)*gamma*sqrt(t))`` with
    ``L`` the asymptote.

    Raises :class:`DomainError` unless ``p.beta == 0.5`` exactly, or if a
    time is not ``>= 0``.
    """
    if p.beta != 0.5:
        raise DomainError("closed form requires beta = 1/2 exactly")
    t_arr = _times(t, "expected intensity")
    with np.errstate(over="ignore"):
        x = (1.0 - p.alpha) * p.gamma * np.sqrt(t_arr)
        res = asymptote(p) * (1.0 - p.alpha * erfcx(x))
    return _finite(res, t_arr, "expected intensity")


def lambda_exact(t, p: ModelParams):
    """Expected intensity for any ``beta`` in (0, 1]:
    ``L - (alpha/(1-alpha))*lambda0*E_beta((alpha-1)*gamma*t**beta)``.

    Equals ``lambda0`` at ``t = 0`` and increases strictly toward the
    asymptote for ``alpha > 0``.  Raises :class:`DomainError` when
    ``|z| > Z_MAX`` and :class:`AccuracyError` when a value is past the
    double range.
    """
    t_arr = _times(t, "expected intensity")
    # an overflowing z meets prabhakar's |z| guard, an overflowing value
    # the finiteness check
    with np.errstate(over="ignore"):
        z = (p.alpha - 1.0) * p.gamma * t_arr ** p.beta
        res = asymptote(p) * (1.0 - p.alpha * ml_one(p.beta, z))
    return _finite(res, t_arr, "expected intensity")


def expected_n_half(t, p: ModelParams):
    """Expected number of events by time ``t`` for ``beta = 1/2``:

    ``lambda0*t/(1-alpha) - alpha*lambda0/((1-alpha)^3*gamma^2*sqrt(pi)) *
    (sqrt(pi)*erfcx(x) + 2*x - sqrt(pi))`` with ``x = (1-alpha)*gamma*sqrt(t)``.
    Below ``x = 0.05``, where the bracket cancels, it is
    ``lambda0*t/(1-alpha) * (1 - alpha*S(x))`` with ``S(x) = sum_m (-x)**m /
    Gamma(m/2 + 2)``, the bracket over ``sqrt(pi)*x**2``.
    Raises AccuracyError if ``gamma**2`` is past the double range.
    """
    if p.beta != 0.5:
        raise DomainError("closed form requires beta = 1/2 exactly")
    t_arr = _times(t, "expected count")
    one_m = 1.0 - p.alpha
    try:
        gamma_sq = p.gamma ** 2
    except OverflowError:
        raise AccuracyError(f"gamma**2 overflows at gamma={p.gamma:g}") from None
    with np.errstate(over="ignore", invalid="ignore"):
        x = one_m * p.gamma * np.sqrt(t_arr)
        small = x < _HALF_SMALL_X
        res = p.lambda0 * t_arr / one_m * (
            1.0 - p.alpha * np.polynomial.polynomial.polyval(-x, _HALF_SERIES)
        )
        # gamma**2 underflows to 0 only where every x is small
        if not small.all():
            bracket = _SQRT_PI * (erfcx(x) - 1.0) + 2.0 * x
            res = np.where(small, res, (
                p.lambda0 * t_arr / one_m
                - p.alpha * p.lambda0 / (one_m ** 3 * gamma_sq * _SQRT_PI) * bracket
            ))
    return _finite(res, t_arr, "expected count")


def expected_n(t, p: ModelParams):
    """Expected number of events by time ``t`` for any ``beta``:

    ``lambda0*t/(1-alpha) - (alpha*lambda0/(1-alpha)) * t *
    E_{beta,2}((alpha-1)*gamma*t**beta)``; nonnegative and nondecreasing.
    Raises as :func:`lambda_exact` does.
    """
    t_arr = _times(t, "expected count")
    with np.errstate(over="ignore"):
        z = (p.alpha - 1.0) * p.gamma * t_arr ** p.beta
        e = prabhakar(p.beta, 2.0, 1.0, z)
        res = (p.lambda0 / (1.0 - p.alpha)) * t_arr * (1.0 - p.alpha * e)
    return _finite(res, t_arr, "expected count")

