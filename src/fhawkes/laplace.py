"""Numerical inversion of Laplace transforms on the real time axis, and
forward transforms by adaptive quadrature (the test instrument).

Inversion discretizes the Bromwich integral with the midpoint rule at
frequencies ``(k - 1/2) * pi / t``, which turns the integral into an
alternating series; the tail is resummed with Euler (binomial) averaging.
The contour offset scales as ``sigma0 + 12/t`` so that the aliasing error
of the periodized integral is ``~exp(-24)`` while the conditioning factor
``exp((offset-sigma0)*t)`` stays bounded in ``t``.

The forward transform splits the half line at ``t = 1`` and maps each part
to a finite interval in which a ``t**(p-1)`` head and a ``t**(-1-p)`` tail
are smooth.  Each part goes to an adaptive Gauss-Kronrod (G10/K21) rule
with QUADPACK's global error control, which evaluates the integrand once
per round, as one array, on the nodes of every new panel; so the integrand
must be vectorised.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import comb

from .errors import ContourError, ConvergenceWarning, DomainError, QuadratureError

__all__ = [
    "IltResult",
    "LaplaceImage",
    "forward_lt",
    "ilt",
    "ilt_grid",
]


# Inversion: _N_TERMS midpoint terms plus _EULER_TERMS Euler-averaged ones,
# an aliasing error ~exp(-_DECAY), and a warning when node doubling moves
# the value by more than 10 * _TARGET_TOL, relative.
_N_TERMS, _EULER_TERMS, _DECAY, _TARGET_TOL = 2000, 32, 24.0, 1e-6
_EULER_WEIGHTS = comb(_EULER_TERMS, np.arange(_EULER_TERMS + 1)) * 0.5 ** _EULER_TERMS
# The forward transform: tolerances and panel budget of each part.
_EPSABS, _EPSREL, _LIMIT = 1e-10, 1e-10, 200


@dataclass(frozen=True)
class LaplaceImage:
    """A function of the Laplace variable, evaluable on complex arrays.

    ``fn`` must be finite for ``Re(s) > sigma0`` (the convergence abscissa)
    and deterministic.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    sigma0: float = 0.0

    def __call__(self, s):
        return self.fn(s)


class IltResult(NamedTuple):
    """Inversion value with a node-doubling error estimate."""

    value: float
    error_estimate: float

    def __float__(self):
        return self.value


def _euler_sum(terms, n):
    """Partial sum of an alternating series with Euler averaging of the last
    ``_EULER_TERMS + 1`` partial sums, ending at index ``n + _EULER_TERMS``."""
    csum = np.cumsum(terms[: n + _EULER_TERMS])
    return float(_EULER_WEIGHTS @ csum[n - 1 :])


def ilt(image: LaplaceImage, t: float) -> IltResult:
    """Invert a Laplace image at a single positive time.

    Returns an :class:`IltResult`; the error estimate comes from halving the
    2000-term node count, and a :class:`ConvergenceWarning` is emitted when
    doubling moves the value by more than 1e-5 (relative).

    Raises
    ------
    DomainError
        If ``t`` is not positive and finite (NaN included).
    ContourError
        If the image evaluates non-finite on a contour node.
    """
    if not 0.0 < t < math.inf:
        raise DomainError("inversion requires a finite t > 0")
    offset = image.sigma0 + _DECAY / (2.0 * t)

    k = np.arange(1, _N_TERMS + _EULER_TERMS + 1)
    omega = (k - 0.5) * (math.pi / t)
    vals = np.asarray(image(offset + 1j * omega))
    if not np.all(np.isfinite(vals)):
        raise ContourError(
            f"image evaluated non-finite on the contour at t={t!r}"
        )
    # midpoint nodes make exp(i*omega*t) = i*(-1)^(k-1): alternating series
    terms = np.where(k % 2 == 1, -vals.imag, vals.imag)
    scale = math.exp(offset * t) / t
    full = scale * _euler_sum(terms, _N_TERMS)
    half = scale * _euler_sum(terms, _N_TERMS // 2)
    est = abs(full - half)
    denom = max(abs(full), 1e-300)
    if est / denom > 10.0 * _TARGET_TOL:
        warnings.warn(
            f"node doubling moved ilt(t={t:g}) by {est / denom:.2e} relative",
            ConvergenceWarning,
            stacklevel=2,
        )
    return IltResult(full, est)


def ilt_grid(image: LaplaceImage, ts):
    """Invert at every grid time; returns ``(values, error_estimates)``."""
    ts = np.asarray(ts, dtype=float)
    values = np.empty(ts.shape)
    errors = np.empty(ts.shape)
    for i, t in enumerate(ts.ravel()):
        res = ilt(image, float(t))
        values.ravel()[i] = res.value
        errors.ravel()[i] = res.error_estimate
    return values, errors


# QUADPACK's G10/K21 pair on [-1, 1]: the positive Kronrod nodes, their
# weights (centre node last), and the Gauss weights on the odd nodes
_GK_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_GK_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_GK_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK_NODES = np.concatenate([-_GK_X, [0.0], _GK_X[::-1]])
_GK_KRONROD = np.concatenate([_GK_WK, _GK_WK[-2::-1]])
# Kronrod minus Gauss weights: the rule difference that estimates the error
_GK_DIFF = _GK_KRONROD.copy()
_GK_DIFF[1:10:2] -= _GK_WG
_GK_DIFF[11:20:2] -= _GK_WG[::-1]


def _gk_quad(fn, a, b):
    """Adaptive G10/K21 quadrature of a vectorised integrand on ``[a, b]``.

    Each round calls ``fn`` once, on the nodes of every new panel.  Error
    control is global, as in QUADPACK: stop when the summed ``|Kronrod -
    Gauss|`` is at most ``max(_EPSABS, _EPSREL*|I|)``; otherwise bisect the
    largest-error panels until the others sum to at most half of that.
    Returns ``(value, error_estimate)``.

    Raises
    ------
    QuadratureError
        If the integrand is not finite on a node, or the panel count would
        pass ``_LIMIT``.
    """
    lo = np.array([a], dtype=float)
    hi = np.array([b], dtype=float)
    new = np.array([0])
    vals = np.empty(1)
    errs = np.empty(1)
    while True:
        half = 0.5 * (hi[new] - lo[new])
        nodes = (lo[new] + half)[:, None] + half[:, None] * _GK_NODES
        y = np.asarray(fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
        if not np.isfinite(y).all():
            raise QuadratureError(f"integrand is not finite on [{a:g}, {b:g}]")
        vals[new] = half * (y @ _GK_KRONROD)
        errs[new] = np.abs(half * (y @ _GK_DIFF))
        value, error = float(vals.sum()), float(errs.sum())
        tol = max(_EPSABS, _EPSREL * abs(value))
        if error <= tol:
            return value, error
        order = np.argsort(errs)[::-1]
        rest = error - np.cumsum(errs[order])
        split = order[: int(np.argmax(rest <= 0.5 * tol)) + 1]
        if lo.size + split.size > _LIMIT:
            raise QuadratureError(
                f"quadrature on [{a:g}, {b:g}] needs more than {_LIMIT} panels"
            )
        mid = 0.5 * (lo[split] + hi[split])
        new = np.concatenate([split, np.arange(lo.size, lo.size + split.size)])
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([hi, hi[split]])
        hi[split] = mid
        vals = np.concatenate([vals, np.empty(split.size)])
        errs = np.concatenate([errs, np.empty(split.size)])


def _half_line(f, s, p):
    """``int_0^inf exp(-s*t) f(t) dt`` for ``s >= 0`` as two finite
    integrals in ``u``: the head ``(0, 1)`` through ``t = u**(1/p)`` and
    the tail ``[1, inf)`` through ``t = u**(-1/p)``.

    With ``p`` the exponent of a ``t**(p-1)`` singularity at the origin and
    of a ``t**(-1-p)`` decay, both integrands are smooth and finite in
    ``u``.  Returns ``(value, summed error estimate)``.
    """

    def head(u):
        t = u ** (1.0 / p)
        return f(t) * np.exp(-s * t) * t ** (1.0 - p) / p

    def tail(u):
        t = u ** (-1.0 / p)
        # exp(log) keeps t**(1+p) * exp(-s*t) finite where t**(1+p) overflows
        return f(t) * np.exp((1.0 + p) * np.log(t) - s * t) / p

    v1, e1 = _gk_quad(head, 0.0, 1.0)
    v2, e2 = _gk_quad(tail, 0.0, 1.0)
    return v1 + v2, e1 + e2


def forward_lt(
    f: Callable[[np.ndarray], np.ndarray],
    s: float,
    *,
    singular_exponent: float | None = None,
) -> float:
    """Laplace transform ``int_0^inf exp(-s*t) f(t) dt`` by adaptive
    Gauss-Kronrod quadrature (tolerance 1e-10, absolute and relative).

    ``f`` takes an array of times and returns an array of values.
    ``singular_exponent=p`` declares a ``t**(p-1)`` singularity at the
    origin, removed by substituting ``t = u**(1/p)`` on ``(0, 1)``; the
    tail ``[1, inf)`` is integrated in ``t = u**(-1/p)`` on ``(0, 1]``,
    which maps a ``t**(-1-p)`` decay to a smooth integrand (``p = 1`` when
    no exponent is given).  Each part may use at most 200 panels.

    An endpoint singularity must be declared through ``singular_exponent``:
    the rule has no extrapolation, and the Kronrod-Gauss estimate on the
    panel that touches an undeclared singularity understates its error, so
    the result can miss the 1e-10 tolerance: the kernel density at
    ``beta = 0.3`` without it comes out 1.17e-10 off at ``s = 1``.

    Raises
    ------
    DomainError
        If ``s`` is not positive and finite, or ``singular_exponent`` is
        not in (0, 1].
    QuadratureError
        If the integrand is not finite on a node, either part does not meet
        tolerance within 200 panels, or the summed error estimate exceeds
        1e-8.
    """
    if not 0.0 < s < math.inf:
        raise DomainError("forward transform requires a finite s > 0")
    p = 1.0 if singular_exponent is None else singular_exponent
    if not 0.0 < p <= 1.0:
        raise DomainError("singular_exponent must lie in (0, 1]")
    value, error = _half_line(f, s, p)
    if error > 1e-8:
        raise QuadratureError(
            f"forward transform error estimate {error:.2e} exceeds 1e-8"
        )
    return value
