"""Numerical inversion of Laplace transforms on the real time axis, and
forward transforms by adaptive quadrature (the test instrument).

Inversion discretizes the Bromwich integral with the midpoint rule at
frequencies ``(k - 1/2) * pi / t``, which turns the integral into an
alternating series; the tail is resummed with Euler (binomial) averaging.
The contour offset scales as ``sigma0 + 12/t`` so that the aliasing error
of the periodized integral is ``~exp(-24)`` while the conditioning factor
``exp((offset-sigma0)*t)`` stays bounded in ``t``.  The nodes at a time
depend on ``t`` and the abscissa only, so a family of images with one
abscissa, evaluated as one ``(m, n)`` array, is inverted on one contour per
time: each image gets the same bits it gets alone.

The forward transform splits the half line at ``t = 1`` and maps each part
to a finite interval in which a ``t**(p-1)`` head and a ``t**(-1-p)`` tail
are smooth.  Each part goes to an adaptive Gauss-Kronrod (G10/K21) rule
with QUADPACK's global error control, which evaluates the integrand once
per round, as one array, on the nodes of every new panel; so the integrand
must be vectorised.  Several transform variables ``s`` share one adaptive
mesh: the original is evaluated once per node for all of them, and each
transform is held to its own tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import comb

from .errors import ContourError, ConvergenceWarning, DomainError, QuadratureError

__all__ = [
    "LaplaceImage",
    "forward_lt",
    "ilt_grid",
]


# Inversion: _N_TERMS midpoint terms plus _EULER_TERMS Euler-averaged ones,
# an aliasing error ~exp(-_DECAY), and a warning when node doubling moves
# the value by more than 10 * _TARGET_TOL, relative.  The aliasing term sets
# the error floor (about 1e-10 relative), which 64 Euler-resummed terms
# already reach: more terms cost image evaluations and change nothing.
_N_TERMS, _EULER_TERMS, _DECAY, _TARGET_TOL = 64, 32, 24.0, 1e-6
_EULER_WEIGHTS = comb(_EULER_TERMS, np.arange(_EULER_TERMS + 1)) * 0.5 ** _EULER_TERMS
# the node indices k = 1, 2, ... as midpoints k - 1/2, and the signs (-1)^k
_K_MID = np.arange(1, _N_TERMS + _EULER_TERMS + 1) - 0.5
_SIGN = np.resize([-1.0, 1.0], _K_MID.size)
_HALF = slice(_N_TERMS // 2 - 1, _N_TERMS // 2 + _EULER_TERMS)
# The forward transform: tolerances and panel budget of each part.
_EPSABS, _EPSREL, _LIMIT = 1e-10, 1e-10, 200


@dataclass(frozen=True)
class LaplaceImage:
    """A function of the Laplace variable, evaluable on complex arrays.

    ``fn`` must be finite for ``Re(s) > sigma0`` (the convergence abscissa)
    and deterministic.  On a 1-d array of ``n`` nodes it returns ``n``
    values, or an ``(m, n)`` array for a family of ``m`` images that share
    ``sigma0``, one row per image.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    sigma0: float = 0.0

    def __call__(self, s):
        return self.fn(s)


def _invert(image, t):
    """Values and node-doubling error estimates at one time ``t > 0``, of
    shape ``()`` for one image and ``(m,)`` for a family: the image is
    evaluated once, on the one node set of ``t``."""
    offset = image.sigma0 + _DECAY / (2.0 * t)
    # a finite scale keeps the nodes, which grow like 300/t, finite too
    scale = math.exp(offset * t) / t
    if not math.isfinite(scale):
        raise ContourError(f"contour scale overflows at t={t!r}")
    nodes = np.empty(_K_MID.size, dtype=complex)
    nodes.real = offset
    nodes.imag = _K_MID * (math.pi / t)
    # an overflow or a zero division inside the image shows as a non-finite
    # value, which the check below reports
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals = np.asarray(image(nodes))
    if not np.isfinite(vals).all():
        raise ContourError(
            f"image evaluated non-finite on the contour at t={t!r}"
        )
    # midpoint nodes make exp(i*omega*t) = i*(-1)^(k-1): alternating series
    csum = np.cumsum(vals.imag * _SIGN, axis=-1)
    # Euler averaging of the last _EULER_TERMS + 1 partial sums ending at
    # index n + _EULER_TERMS, for n = _N_TERMS and its half; each row goes
    # through the 1-d dot product, whose bits a stacked (BLAS dgemv)
    # product would not keep
    values, errors = [], []
    for j, row in enumerate(csum.reshape(-1, csum.shape[-1])):
        full = scale * float(_EULER_WEIGHTS @ row[_N_TERMS - 1 :])
        half = scale * float(_EULER_WEIGHTS @ row[_HALF])
        est = abs(full - half)
        if not math.isfinite(est):
            raise ContourError(f"inversion overflows at t={t!r}")
        rel = est / max(abs(full), 1e-300)
        if rel > 10.0 * _TARGET_TOL:
            where = f" in row {j}" if vals.ndim > 1 else ""
            warnings.warn(
                f"node doubling moved ilt(t={t:g}){where} by {rel:.2e} relative",
                ConvergenceWarning,
                stacklevel=3,
            )
        values.append(full)
        errors.append(est)
    lead = vals.shape[:-1]
    return np.reshape(values, lead), np.reshape(errors, lead)


def ilt_grid(image: LaplaceImage, ts):
    """Invert at every time of ``ts``, a scalar or an array; returns
    ``(values, error_estimates)``, of shape ``ts.shape`` for one image and
    ``(m,) + ts.shape`` for a family of ``m`` images.

    Each time builds one contour, on which the image is called once: a
    family shares the nodes, and each of its rows gets the bits that
    inverting that image alone gives.  The error estimate comes from
    halving the 64-term node count, and a :class:`ConvergenceWarning` is
    emitted when doubling moves a value by more than 1e-5 (relative).  An
    empty ``ts`` calls the image once on no nodes, which tells the family
    size.

    Raises
    ------
    DomainError
        If a time is not positive and finite (NaN included), before the
        image is called.
    ContourError
        If the image, any row of a family included, evaluates non-finite
        on a contour node, or the inversion overflows (t below about
        1e-304).
    """
    ts = np.asarray(ts, dtype=float)
    if not ((ts > 0.0) & (ts < math.inf)).all():
        raise DomainError("inversion requires a finite t > 0")
    if ts.size == 0:
        lead = np.shape(image(np.empty(0, dtype=complex)))[:-1]
        return np.empty(lead + ts.shape), np.empty(lead + ts.shape)
    # a plain loop: before Python 3.12 a comprehension is a frame of its own,
    # and the warning's stacklevel would name it instead of the caller
    pairs = []
    for t in ts.ravel().tolist():
        pairs.append(_invert(image, t))
    shape = pairs[0][0].shape + ts.shape
    values = np.stack([v for v, _ in pairs], axis=-1).reshape(shape)
    errors = np.stack([e for _, e in pairs], axis=-1).reshape(shape)
    return values, errors


# not public: the per-layer benchmark (perfbench/layers.py) times one-time
# inversions under this name
ilt = ilt_grid


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
    """Adaptive G10/K21 quadrature of ``m`` integrands on one shared mesh
    of ``[a, b]``.

    ``fn`` maps the nodes of a round, a 1-d array, to an ``(m, n)`` array
    (or to ``n`` values when ``m = 1``); each round calls it once, on the
    nodes of every new panel.  Error control is global, as in QUADPACK, and
    per component: integrand ``j`` is done when its summed ``|Kronrod -
    Gauss|`` is at most ``tol_j = max(_EPSABS, _EPSREL*|I_j|)``, and the
    integration stops when every component is.  Otherwise the panels are
    bisected in descending order of their largest error relative to
    ``tol_j`` until, in every component, the others sum to at most half of
    ``tol_j``.  For ``m = 1`` this is QUADPACK's rule.  Returns
    ``(values, error_estimates)``, two arrays of length ``m``.

    Raises
    ------
    QuadratureError
        If an integrand is not finite on a node, or the panel count would
        pass ``_LIMIT``.
    """
    lo = np.array([a], dtype=float)
    hi = np.array([b], dtype=float)
    new = np.array([0])
    vals = errs = None
    while True:
        half = 0.5 * (hi[new] - lo[new])
        nodes = (lo[new] + half)[:, None] + half[:, None] * _GK_NODES
        y = np.asarray(fn(nodes.ravel()), dtype=float).reshape(-1, _GK_NODES.size)
        if not np.isfinite(y).all():
            raise QuadratureError(f"integrand is not finite on [{a:g}, {b:g}]")
        if vals is None:
            vals = np.empty((y.shape[0] // new.size, 1))
            errs = np.empty_like(vals)
        vals[:, new] = half * (y @ _GK_KRONROD).reshape(-1, new.size)
        errs[:, new] = np.abs(half * (y @ _GK_DIFF).reshape(-1, new.size))
        value, error = vals.sum(axis=1), errs.sum(axis=1)
        tol = np.maximum(_EPSABS, _EPSREL * np.abs(value))
        if (error <= tol).all():
            return value, error
        order = np.argsort((errs / tol[:, None]).max(axis=0))[::-1]
        rest = error[:, None] - np.cumsum(errs[:, order], axis=1)
        done = (rest <= 0.5 * tol[:, None]).all(axis=0)
        split = order[: int(np.argmax(done)) + 1]
        if lo.size + split.size > _LIMIT:
            raise QuadratureError(
                f"quadrature on [{a:g}, {b:g}] needs more than {_LIMIT} panels"
            )
        mid = 0.5 * (lo[split] + hi[split])
        new = np.concatenate([split, np.arange(lo.size, lo.size + split.size)])
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([hi, hi[split]])
        hi[split] = mid
        grow = np.empty((vals.shape[0], split.size))
        vals = np.concatenate([vals, grow], axis=1)
        errs = np.concatenate([errs, grow], axis=1)


def forward_lt(
    f: Callable[[np.ndarray], np.ndarray],
    s,
    *,
    singular_exponent: float | None = None,
):
    """Laplace transform ``int_0^inf exp(-s*t) f(t) dt`` by adaptive
    Gauss-Kronrod quadrature (tolerance 1e-10, absolute and relative).

    ``f`` takes an array of times and returns an array of values.  ``s >=
    0`` is a scalar, which returns a float, or a 1-d array, which returns an
    array of the transforms: all of them come from one shared mesh, on
    which ``f`` is evaluated once per node, and each meets its own
    tolerance.  ``s = 0`` gives ``int_0^inf f``, so ``f`` must then be
    integrable.  ``singular_exponent=p`` declares a ``t**(p-1)``
    singularity at the origin, removed by substituting ``t = u**(1/p)`` on
    the head ``(0, 1)``; the tail ``[1, inf)`` is integrated in ``t =
    u**(-1/p)`` on ``(0, 1]``, which maps a ``t**(-1-p)`` decay to a smooth
    integrand (``p = 1`` when no exponent is given).  Each part may use at
    most 200 panels.

    An endpoint singularity must be declared through ``singular_exponent``:
    the rule has no extrapolation, and the Kronrod-Gauss estimate on the
    panel that touches an undeclared singularity understates its error, so
    the result can miss the 1e-10 tolerance: the kernel density at
    ``beta = 0.3`` without it comes out 1.17e-10 off at ``s = 1``.

    Raises
    ------
    DomainError
        If ``s`` is neither a scalar nor a nonempty 1-d array, an entry of
        ``s`` is negative or not finite, or ``singular_exponent`` is not in
        (0, 1].
    QuadratureError
        If the integrand is not finite on a node, either part does not meet
        tolerance within 200 panels, or the summed error estimate of a
        transform exceeds 1e-8.
    """
    sv = np.asarray(s, dtype=float)
    if sv.ndim > 1 or sv.size == 0 or not ((sv >= 0.0) & (sv < math.inf)).all():
        raise DomainError("forward transform requires a finite s >= 0")
    p = 1.0 if singular_exponent is None else singular_exponent
    if not 0.0 < p <= 1.0:
        raise DomainError("singular_exponent must lie in (0, 1]")
    col = sv.reshape(-1, 1)

    # a substitution that leaves the double range shows as a non-finite
    # integrand, which _gk_quad reports
    @np.errstate(over="ignore", invalid="ignore")
    def head(u):
        t = u ** (1.0 / p)
        return f(t) * np.exp(-col * t) * t ** (1.0 - p) / p

    @np.errstate(over="ignore", invalid="ignore")
    def tail(u):
        t = u ** (-1.0 / p)
        # exp(log) keeps t**(1+p) * exp(-s*t) finite where t**(1+p) overflows
        return f(t) * np.exp((1.0 + p) * np.log(t) - col * t) / p

    v1, e1 = _gk_quad(head, 0.0, 1.0)
    v2, e2 = _gk_quad(tail, 0.0, 1.0)
    values, errors = v1 + v2, e1 + e2
    if errors.max() > 1e-8:
        raise QuadratureError(
            f"forward transform error estimate {errors.max():.2e} exceeds 1e-8"
        )
    return float(values[0]) if sv.ndim == 0 else values
