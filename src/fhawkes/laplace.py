"""Numerical inversion of Laplace transforms on the real time axis, and
forward transforms by adaptive quadrature (the test instrument).

Inversion discretizes the Bromwich integral with the midpoint rule at
frequencies ``(k - 1/2) * pi / t``, which turns the integral into an
alternating series; the tail is resummed with Euler (binomial) averaging.
The contour offset scales as ``sigma0 + decay/(2t)`` so that the aliasing
error of the periodized integral is ``~exp(-decay)`` while the conditioning
factor ``exp((offset-sigma0)*t)`` stays bounded in ``t``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import comb

from .errors import ContourError, ConvergenceWarning, DomainError, QuadratureError

__all__ = [
    "IltConfig",
    "IltResult",
    "LaplaceImage",
    "forward_lt",
    "ilt",
    "ilt_grid",
]


@dataclass(frozen=True)
class LaplaceImage:
    """A function of the Laplace variable, evaluable on complex arrays.

    ``fn`` must be finite for ``Re(s) > sigma0`` (the convergence abscissa)
    and deterministic.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    sigma0: float = 0.0
    note: str = ""

    def __call__(self, s):
        return self.fn(s)


@dataclass(frozen=True)
class IltConfig:
    """Tuning knobs of the Bromwich midpoint inversion.

    ``contour_offset`` fixes the abscissa explicitly (must lie strictly
    right of ``sigma0``); when ``None`` the offset is derived per evaluation
    time from ``decay``.
    """

    contour_offset: float | None = None
    n_terms: int = 2000
    decay: float = 24.0
    euler_terms: int = 32
    target_tol: float = 1e-6
    low_confidence_t: float = 1e-3

    def __post_init__(self):
        if self.n_terms < 8 or self.n_terms % 2:
            raise DomainError("n_terms must be an even integer >= 8")
        if self.euler_terms < 4:
            raise DomainError("euler_terms must be >= 4")


class IltResult(NamedTuple):
    """Inversion value with a node-doubling error estimate."""

    value: float
    error_estimate: float
    low_confidence: bool

    def __float__(self):
        return self.value


def _euler_sum(terms, n, m):
    """Partial sum of an alternating series with Euler averaging of the last
    ``m`` partial sums ending at index ``n + m``."""
    csum = np.cumsum(terms[: n + m])
    partials = csum[n - 1 : n + m]
    weights = comb(m, np.arange(m + 1)) * 0.5 ** m
    return float(weights @ partials)


def ilt(image: LaplaceImage, t: float, cfg: IltConfig | None = None) -> IltResult:
    """Invert a Laplace image at a single positive time.

    Returns an :class:`IltResult`; the error estimate comes from halving the
    node count, and a :class:`ConvergenceWarning` is emitted when doubling
    moves the value by more than ten times ``cfg.target_tol`` (relative).

    Raises
    ------
    DomainError
        If ``t <= 0``.
    ContourError
        If the image evaluates non-finite on a contour node.
    """
    cfg = cfg or IltConfig()
    if t <= 0.0:
        raise DomainError("inversion requires t > 0")
    if cfg.contour_offset is not None:
        offset = cfg.contour_offset
        if offset <= image.sigma0:
            raise DomainError("contour_offset must exceed the image abscissa")
    else:
        offset = image.sigma0 + cfg.decay / (2.0 * t)

    n, m = cfg.n_terms, cfg.euler_terms
    k = np.arange(1, n + m + 1)
    omega = (k - 0.5) * (math.pi / t)
    vals = np.asarray(image(offset + 1j * omega))
    if not np.all(np.isfinite(vals)):
        raise ContourError(
            f"image evaluated non-finite on the contour at t={t!r}"
        )
    # midpoint nodes make exp(i*omega*t) = i*(-1)^(k-1): alternating series
    terms = np.where(k % 2 == 1, -vals.imag, vals.imag)
    scale = math.exp(offset * t) / t
    full = scale * _euler_sum(terms, n, m)
    half = scale * _euler_sum(terms, n // 2, m)
    est = abs(full - half)
    denom = max(abs(full), 1e-300)
    if est / denom > 10.0 * cfg.target_tol:
        warnings.warn(
            f"node doubling moved ilt(t={t:g}) by {est / denom:.2e} relative",
            ConvergenceWarning,
            stacklevel=2,
        )
    return IltResult(full, est, t < cfg.low_confidence_t)


def ilt_grid(image: LaplaceImage, ts, cfg: IltConfig | None = None):
    """Invert at every grid time; returns ``(values, error_estimates)``."""
    ts = np.asarray(ts, dtype=float)
    values = np.empty(ts.shape)
    errors = np.empty(ts.shape)
    for i, t in enumerate(ts.ravel()):
        res = ilt(image, float(t), cfg)
        values.ravel()[i] = res.value
        errors.ravel()[i] = res.error_estimate
    return values, errors


def forward_lt(
    f: Callable[[float], float],
    s: float,
    *,
    singular_exponent: float | None = None,
    split: float = 1.0,
    epsabs: float = 1e-10,
    limit: int = 200,
) -> float:
    """Laplace transform ``int_0^inf exp(-s*t) f(t) dt`` by quadrature.

    ``singular_exponent=p`` declares an integrable ``t**(p-1)`` singularity
    at the origin, removed by substituting ``t = u**(1/p)`` on ``(0, split)``.

    Raises
    ------
    DomainError
        If ``s <= 0``.
    QuadratureError
        If either adaptive panel fails to meet tolerance in its budget.
    """
    if s <= 0.0:
        raise DomainError("forward transform requires s > 0")

    def _quad(fn, lo, hi):
        out = quad(fn, lo, hi, epsabs=epsabs, epsrel=1e-10,
                   limit=limit, full_output=True)
        if len(out) > 3:
            raise QuadratureError(
                f"quadrature failed on [{lo}, {hi}]: {out[3]}"
            )
        return out[0], out[1]

    if singular_exponent is not None:
        p = singular_exponent
        if not 0.0 < p <= 1.0:
            raise DomainError("singular_exponent must lie in (0, 1]")

        def head_integrand(u):
            t = u ** (1.0 / p)
            return f(t) * math.exp(-s * t) * t ** (1.0 - p) / p

        head, e1 = _quad(head_integrand, 0.0, split ** p)
    else:
        head, e1 = _quad(lambda t: f(t) * math.exp(-s * t), 0.0, split)
    tail, e2 = _quad(lambda t: f(t) * math.exp(-s * t), split, np.inf)
    if e1 + e2 > 1e-8:
        raise QuadratureError(
            f"forward transform error estimate {e1 + e2:.2e} exceeds 1e-8"
        )
    return head + tail
