"""Mittag-Leffler and Prabhakar (three-parameter Mittag-Leffler) functions,
the Mittag-Leffler kernel density with a time scale, its spectral
representation, the scaled complementary error function, and exact
Mittag-Leffler random-variate sampling.

Evaluation of ``E_{a,b}^c(z)`` on the real axis uses three regimes:

* truncated power series with exact accumulation, accepted only when a
  cancellation audit shows the floating-point result keeps ~12 digits.  All
  arguments of a call are summed together, chunk of terms by chunk; a
  provable lower bound on the audit spares the exact sum of arguments it
  already rejects, and each rejected argument falls back to the regimes
  below on its own, without affecting the others;
* positive-integrand spectral quadrature for the two shapes the kernel and
  the expected intensity need, ``(b=1, c=1)`` and ``(b=a, c=1)``;
* a parabolic Bromwich contour, vectorised over the arguments, for every
  other shape, accepted only while its conditioning estimate stays small.

Every argument the series rejects or does not reach goes through the
large-argument regimes in one pass per call, together with each argument
the series accepts on the band where the regimes overlap, which that pass
cross-checks.  The pass evaluates a fixed block of arguments at a time, so
its working memory does not grow with the number of arguments.  A contour evaluation anywhere in that pass whose
conditioning exceeds its budget raises
:class:`~fhawkes.errors.AccuracyError`, and so, after it, does a band
disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import erfcx as _erfcx_impl
from scipy.special import gamma as _gamma_fn
from scipy.special import gammainc, gammaln, hyp1f1, rgamma

from .errors import AccuracyError, DomainError

__all__ = [
    "MLKernelParams",
    "Z_MAX",
    "erfcx",
    "ml_density",
    "ml_one",
    "ml_sample",
    "ml_spectral",
    "prabhakar",
]

# Overflow guard on the argument magnitude accepted by `prabhakar`.
Z_MAX = 1.0e8
_LOG_MAX = math.log(np.finfo(float).max)

# Accept a series evaluation only if the audited round-off, dominated by the
# largest term, stays below this relative level.
_SERIES_RTOL = 1.0e-11
# Regimes active on the same band must agree to this relative tolerance.
_CROSSCHECK_RTOL = 1.0e-8
# Hand-off band between the series and the large-|z| regimes.
_BAND_LO, _BAND_HI = -6.0, -4.0

_EPS = np.finfo(float).eps


def _float_fields(params) -> None:
    """Store every field of a frozen parameter dataclass as a float, so
    integer inputs cannot leak integer arrays into the numerics."""
    for f in fields(params):
        try:
            value = float(getattr(params, f.name))
        except (TypeError, ValueError) as exc:
            raise DomainError(f"{f.name} must be a real number") from exc
        object.__setattr__(params, f.name, value)


@dataclass(frozen=True)
class MLKernelParams:
    """Tail exponent and time scale of the Mittag-Leffler kernel density.

    The density is ``f(t) = gamma * t**(beta-1) * E_{beta,beta}(-gamma*t**beta)``,
    the unique kernel whose Laplace transform is ``gamma / (gamma + s**beta)``.
    ``beta = 1`` degenerates to the exponential density ``gamma*exp(-gamma*t)``.
    """

    beta: float
    gamma: float = 1.0

    def __post_init__(self):
        _float_fields(self)
        if not 0.0 < self.beta <= 1.0:
            raise DomainError(f"beta must be in (0, 1], got {self.beta}")
        if not 0.0 < self.gamma < math.inf:
            raise DomainError(f"gamma must be positive and finite, got {self.gamma}")


def erfcx(x):
    """Scaled complementary error function ``exp(x**2) * erfc(x)``.

    Overflow-free for any representable ``x >= 0``, and 0 at ``+inf``;
    relative accuracy of a few ulps (delegates to the Faddeeva
    implementation in SciPy).  Raises :class:`DomainError` if an ``x`` is
    NaN and :class:`AccuracyError` if a value is past the double range
    (``x`` below about -26.6).
    """
    res = _erfcx_impl(x)
    bad = ~np.isfinite(res)
    if bad.any():
        x_bad = np.asarray(x, dtype=float)[bad]
        if np.isnan(x_bad).any():
            raise DomainError("erfcx is undefined at NaN")
        raise AccuracyError(f"erfcx({float(x_bad[0])!r}) is past the double range")
    return res


# ---------------------------------------------------------------------------
# Prabhakar function: evaluation regimes
# ---------------------------------------------------------------------------

# Term ranges [k0, k1) of the series: 96 terms, then doubling chunks capped
# at 1024, up to _SERIES_KMAX terms.
_SERIES_CHUNKS = (
    (0, 96), (96, 288), (288, 672), (672, 1440), (1440, 2464), (2464, 3488),
    (3488, 4096),
)
_SERIES_KMAX = 4096
_SERIES_K = np.arange(_SERIES_KMAX, dtype=float)
_SERIES_LOG_FACT = gammaln(_SERIES_K + 1.0)
# Sign pattern (-1)^k of the series at negative z; every chunk starts at an
# even k.
_SERIES_ALT = np.where(np.arange(1024) % 2 == 0, 1.0, -1.0)
# Arguments summed together; bounds the term buffer at 64 x 4096 doubles.
_SERIES_ROWS = 64


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _series_sum(a, b, c, z):
    """Truncated power series sum(Gamma(c+k) z^k / (Gamma(c) k! Gamma(ak+b)))
    for a 1-d array of nonzero ``z``.

    Returns ``(values, accepted)``.  Rows, one per argument, go through the
    chunks of terms together, ``_SERIES_ROWS`` at a time; the coefficients
    of a chunk are computed once, and only while some row still needs
    that chunk.  After each chunk one set of array rules decides every
    live row:

    * it is rejected when a term overflowed or, for ``c = 1`` and
      ``b >= a`` at negative z, when its largest term already fails the
      audit against the bound ``1/Gamma(b)`` on the value;
    * it stops when its last three terms do not rise and the last is below
      1e-17 of the chunk's largest term, or of its exact (fsum) partial
      sum where the float sums of the terms and of their magnitudes cannot
      decide that;
    * a stopped row is finished when ``6*eps*sum|t| / (|sum t| +
      K*eps*sum|t|)``, a lower bound on its audit, passes, and accepted
      when its value is finite and nonzero and the audit itself stays below
      ``_SERIES_RTOL``.  The audit charges each term an evaluation error
      proportional to the magnitude of its log, which is what dominates
      after exact accumulation.

    A row that has not stopped within ``_SERIES_KMAX`` terms is rejected.
    A rejected row keeps the value 0, or its exact sum where the audit
    rejects it.  The only per-row work is ``math.fsum``, so each row's value,
    and whether it is accepted, is the same as when it is summed alone.
    """
    lgc = gammaln(c)
    # E_{a,b}(-x) is completely monotone for b >= a (Schneider 1996), so at
    # most 1/Gamma(b), and the audit charges at least 6*eps*(largest term)
    screen = math.inf
    if c == 1.0 and b >= a and rgamma(b) >= np.finfo(float).tiny:
        screen = _SERIES_RTOL * (1.0 + 1e-9) * rgamma(b)
    coefs = []
    values = np.zeros_like(z)
    accepted = np.zeros(z.shape, dtype=bool)
    buf = np.empty((min(z.size, _SERIES_ROWS), _SERIES_KMAX))
    for start in range(0, z.size, _SERIES_ROWS):
        # live rows sit at the top of buf; rows[i] is the index in z of row i
        rows = np.arange(start, min(start + _SERIES_ROWS, z.size))
        # math.log, not np.log: they differ by an ulp on some inputs, and
        # k*log|z| carries that into every term
        logabsz = np.array([[math.log(abs(v))] for v in z[rows].tolist()])
        neg = z[rows] < 0.0
        # float sums of the terms and of their magnitudes so far
        tot = s = 0.0
        for j, (k0, k1) in enumerate(_SERIES_CHUNKS):
            ks = _SERIES_K[k0:k1]
            if j == len(coefs):
                lg = gammaln(c + ks) - _SERIES_LOG_FACT[k0:k1]
                coefs.append(lg - gammaln(a * ks + b) - lgc)
            terms = buf[: rows.size, k0:k1]
            np.multiply(ks, logabsz, out=terms)
            terms += coefs[j]
            np.exp(terms, out=terms)
            peak = np.maximum.reduce(terms, axis=1)
            last = terms[:, -1].copy()
            flat = (terms[:, -2] <= terms[:, -3]) & (last <= terms[:, -2])
            s = s + np.add.reduce(terms, axis=1)
            np.multiply(terms, _SERIES_ALT[: k1 - k0], out=terms, where=neg[:, None])
            tot = tot + np.add.reduce(terms, axis=1)
            t = np.abs(tot)
            reject = (peak == math.inf) | (neg & (6.0 * _EPS * peak * (1.0 - 1e-9) > screen))
            flat &= ~reject
            small = last < 1e-17 * np.maximum(peak, 1e-300)
            # |partial sum| <= hi decides the test without the exact sum,
            # unless a float sum overflowed and left hi NaN.  A row that is
            # not small has last >= 1e-17 * max(peak, 1e-300) already, so
            # neither hi nor the exact sum needs that floor
            hi = (t + k1 * _EPS * s) * (1.0 + 1e-9)
            undecided = flat & ~small & ~(last >= 1e-17 * hi)
            audit_ok = 6.0 * _EPS * s * (1.0 - 1e-9) <= _SERIES_RTOL * (t + k1 * _EPS * s)
            exact = np.full(rows.size, math.nan)
            for i in np.flatnonzero(undecided | flat & small & audit_ok).tolist():
                try:
                    exact[i] = math.fsum(buf[i, :k1].tolist())
                except OverflowError:  # not finite, so never accepted
                    exact[i] = math.inf
            stop = flat & (small | (last < 1e-17 * np.abs(exact)))
            fin = stop & audit_ok
            if fin.any():
                work = np.abs(buf[fin.nonzero()[0], :k1])
                # per-term relative error ~ eps * (|log term| + gamma-log magnitudes)
                lg_mag = np.abs(np.log(np.maximum(work, 1e-300)))
                err = np.add.reduce(work * _EPS * (lg_mag + 6.0), axis=1)
                v = np.abs(exact[fin])
                values[rows[fin]] = exact[fin]
                accepted[rows[fin]] = (0.0 < v) & (v < math.inf) & (err / v <= _SERIES_RTOL)
            keep = ~(reject | stop)
            if not keep.any():
                break
            if not keep.all():
                buf[: np.count_nonzero(keep), :k1] = buf[keep.nonzero()[0], :k1]
                rows, logabsz, neg, tot, s = (x[keep] for x in (rows, logabsz, neg, tot, s))
    return values, accepted


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_XI_LADDER = np.array(
    [1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1, 2, 4, 8, 16, 32, 45.0]
)
_HEAD_M = np.arange(48, dtype=float)
# the largest share of the head's sum its last term may carry
_HEAD_RTOL = 1e-9


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def _spectral(a, x, moment):
    """E_{a,1}(-x) (``moment=0``) or E_{a,a}(-x) (``moment=1``) for x > 0 via
    the completely monotone mixture integral
    ``int_0^inf exp(-xi) * xi**(a-1+moment) / D((xi**a)/x) dxi``, where
    ``D(u) = u**2 + 2*u*cos(a*pi) + 1`` is the reciprocal denominator of the
    mixing density, written in the exponent variable.  The leading behavior,
    1/(x*Gamma(1-a)) or a multiple of x**-2, is factored analytically, so no
    overflow.  A value that still leaves the double range comes back
    non-finite, with no warning.

    The head panel ``[0, xi_1]``, where the fractional power ``xi**a`` inside
    ``D`` defeats polynomial quadrature, is integrated exactly: ``1/D`` is a
    Chebyshev-II generating series in ``u = xi**a / x``, term-wise a lower
    incomplete gamma function, summed to 48 terms.  Term ``m`` is at most
    ``T_m = gamma_lower(a*(m+1)+moment, xi_1) * x**-m / sin(psi)``, and
    ``T_{m+1} <= r*T_m`` with ``r = xi_1**a / x``, a ratio that tends to
    ``1/x`` as ``a -> 0``.  AccuracyError names the first argument whose
    last bound ``T_47`` passes ``_HEAD_RTOL`` = 1e-9 of the head's sum, or
    whose sum is not finite.  The omitted tail is at most ``T_47 * r / (1 -
    r)``, so an accepted head is within 1e-9 of its limit, relative to the
    head, wherever ``r <= 1/2``.  Over about 360,000 arguments that reach
    this rule, at orders 0.1 to 0.9999 in steps of 0.0025 and both shapes,
    ``T_47`` came to 1.5e-10 of the sum at ``a = 0.1`` (``E_{0.1,0.1}``
    near ``x = 1.08``), 1.4e-16 from ``a = 0.15`` and 7.8e-35 from ``a =
    0.3``: the check stops no argument at ``a >= 0.1``.  The remaining octave
    panels are smooth and get fixed Gauss-Legendre rules, with extra knots
    resolving the denominator near-pole (``u`` near 1) that sharpens as
    ``a -> 1``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    psi = (1.0 - a) * math.pi
    cpsi = math.cos(psi)
    spsi = math.sin(psi)
    power = a - 1.0 + moment

    # head: sum_m U_m(cos psi) x^-m * gamma_lower(a*(m+1)+moment, xi_1), the
    # unregularized lower incomplete gamma
    xi1 = _XI_LADDER[0]
    cheb = np.sin((_HEAD_M + 1.0) * psi) / spsi
    svals = a * (_HEAD_M + 1.0) + moment
    glow = gammainc(svals, xi1) * _gamma_fn(svals)
    head = (cheb * glow)[None, :] * x[:, None] ** (-_HEAD_M)[None, :]
    first = np.sum(head, axis=1)
    # the last term's bound, |U_47(cos psi)| <= 1/sin(psi): the term itself
    # vanishes with sin(48*psi), at a = k/48, whatever the series' state
    last = glow[-1] / spsi * x ** -_HEAD_M[-1]
    stalled = np.flatnonzero(~(last <= _HEAD_RTOL * np.abs(first)) | ~np.isfinite(first))
    if stalled.size:
        i = stalled[0]
        raise AccuracyError(
            f"spectral regime: E_{{{a},{1.0 if moment == 0.0 else a}}}({-x[i]}) is past "
            f"its {_HEAD_M.size}-term head series, whose last term {last[i]:.2e} is "
            f"more than {_HEAD_RTOL:g} of its sum {first[i]:.2e}"
        )

    # remaining panels: octave ladder plus mapped near-pole knots, at
    # u = cos(psi) and u = cos(psi) +- 2^k * sin(psi), graded out to the
    # larger of 32 pole widths and a distance of 2
    ks = np.arange(-1.0, math.floor(max(math.log2(2.0 / spsi), 5.0)) + 1.0)
    offsets = np.concatenate([[0.0], 2.0 ** ks, -(2.0 ** ks)])
    spike_u = np.clip(cpsi + spsi * offsets, 0.0, None)
    spike_xi = (spike_u[None, :] * x[:, None]) ** (1.0 / a)
    spike_xi = np.clip(spike_xi, xi1, _XI_LADDER[-1])
    knots = np.concatenate(
        [np.broadcast_to(_XI_LADDER, (x.size, _XI_LADDER.size)), spike_xi], axis=1
    )
    knots = np.sort(knots, axis=1)
    lo, hi = knots[:, :-1], knots[:, 1:]
    half = 0.5 * (hi - lo)
    nodes = lo[..., None] + half[..., None] * (1.0 + _GL_X)[None, None, :]
    weights = half[..., None] * _GL_W[None, None, :]
    u = nodes ** a / x[:, None, None]
    dd = (u - cpsi) ** 2 + spsi * spsi
    vals = np.exp(-nodes) * nodes ** power / dd
    rest = np.sum(weights * vals, axis=(1, 2))
    return spsi / math.pi * (first + rest) / x ** (1.0 + moment)


# Parabolic Bromwich contour tuned once for unit time.  The integrand's
# branch point at the contour vertex limits the usable strip width, so the
# step must stay well under the nominal exp(-2*pi*d/h) balance; truncation
# error is ~exp(_CT_MU*(1-u_top^2)) and the round-off floor ~eps*exp(_CT_MU).
_CT_MU = 5.0
_CT_H = 0.1
_CT_NHALF = 30
_CT_U = (np.arange(_CT_NHALF) + 0.5) * _CT_H
_CT_S = _CT_MU * (1.0 + 1j * _CT_U) ** 2
_CT_W = (_CT_H * _CT_MU / math.pi) * np.exp(_CT_S) * (1.0 + 1j * _CT_U)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _contour_sum(a, b, c, z):
    """E_{a,b}^c(z) for z < 0 by inverting s^(ac-b) / (s^a - z)^c on a
    parabolic contour at unit time.

    Returns ``(values, rel_cond)`` where the conditioning estimate bounds the
    round-off amplification of the oscillatory sum.  An integrand that
    leaves the double range gives a non-finite value, with no warning.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    s = _CT_S[None, :]
    fs = s ** (a * c - b) / (s ** a - z[:, None]) ** c
    contrib = _CT_W[None, :] * fs
    vals = 2.0 * np.sum(contrib.real, axis=1)
    spread = 2.0 * np.sum(np.abs(contrib), axis=1)
    cond = 2.0 * _EPS * spread / np.abs(vals)
    cond = np.where(vals == 0.0, np.inf, cond)
    return vals, cond


@np.errstate(over="ignore", invalid="ignore")
def _closed_form_a1(b, c, z):
    """E_{1,b}^c(z) via the confluent hypergeometric function; a value past
    the double range comes back non-finite, with no warning."""
    if b == 1.0 and c == 1.0:
        return np.exp(z)
    if b == 2.0 and c == 1.0:
        safe = np.where(z == 0.0, 1.0, z)
        return np.where(z == 0.0, 1.0, np.expm1(z) / safe)
    return hyp1f1(c, b, z) * rgamma(b)


# Arguments per call of the large-argument regimes.  A spectral argument
# holds about 21 KB of temporaries and a contour argument about 2 KB, so a
# block bounds the pass's working memory near 1.4 MB whatever the batch size.
_LARGE_BLOCK = 64


def _eval_batch(a, b, c, z):
    """Dispatch a 1-d array of arguments across evaluation regimes: the
    series for every nonzero ``z >= -40``, then one large-argument pass over
    every argument the series rejects or does not reach and each band
    argument it accepts, where the pass cross-checks the series.  The pass
    evaluates ``_LARGE_BLOCK`` arguments of one regime at a time, and each
    value is the same as in any other block.  A contour conditioning error
    in the pass comes before a band disagreement, and its z-range spans the
    contour's band and large arguments together."""
    out = np.full_like(z, rgamma(b))  # the value at z = 0
    series = z >= -40.0
    cand = (series & (z != 0.0)).nonzero()[0]
    zs = z[cand]
    vals, ok = _series_sum(a, b, c, zs)
    out[cand] = vals
    large = ~series
    if not ok.all():
        unconverged = zs[~ok & (zs > 0.0)]
        if unconverged.size:
            raise AccuracyError(
                f"series for E_{{{a},{b}}}^{c}({unconverged[0]}) did not "
                "converge within the term budget or the double range"
            )
        large[cand[~ok]] = True
    band = np.zeros_like(large)
    band[cand[ok & (zs >= _BAND_LO) & (zs <= _BAND_HI)]] = True
    rows = large | band
    if not rows.any():
        return out
    zl = z[rows]
    alt, cond = np.empty_like(zl), np.zeros_like(zl)
    contour = np.ones(zl.shape, dtype=bool)
    if c == 1.0 and b in (1.0, a):
        contour = zl > -0.6
    for sel in (np.flatnonzero(~contour), np.flatnonzero(contour)):
        for lo in range(0, sel.size, _LARGE_BLOCK):
            i = sel[lo : lo + _LARGE_BLOCK]
            if contour[i[0]]:
                alt[i], cond[i] = _contour_sum(a, b, c, zl[i])
            else:
                alt[i] = _spectral(a, -zl[i], 0.0 if b == 1.0 else 1.0)
    if np.any(cond > 1e-9):
        raise AccuracyError(
            f"contour regime conditioning {float(np.max(cond)):.2e} exceeds "
            f"budget for E_{{{a},{b}}}^{c} at z in "
            f"[{zl[contour].min()}, {zl[contour].max()}]"
        )
    check = band[rows]
    zb, val, ref = zl[check], out[rows][check], alt[check]
    denom = np.maximum(np.abs(val), np.abs(ref))
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.abs(val - ref) / denom
    apart = np.flatnonzero((denom > 0.0) & (gap > _CROSSCHECK_RTOL))
    if apart.size:
        i = apart[0]
        raise AccuracyError(
            f"series/large-argument regimes disagree at "
            f"z={zb[i]}: {float(val[i])!r} vs {float(ref[i])!r}"
        )
    out[large] = alt[~check]
    return out


def prabhakar(a, b, c, z):
    """Three-parameter Mittag-Leffler function ``E_{a,b}^c(z)`` for real z.

    Parameters
    ----------
    a, b, c : float
        Positive parameters; the order ``a`` must lie in (0, 1].
    z : float or array_like
        Real argument, ``|z| <= Z_MAX``.  Arbitrary negative arguments are
        supported; positive arguments are limited by the series budget.

    Returns
    -------
    float or ndarray
        ``E_{a,b}^c(z)`` to ~1e-10 relative accuracy: from the audited power
        series where it certifies that, otherwise (z < 0) from the spectral
        quadrature for ``E_a`` and ``E_{a,a}`` and from the parabolic
        contour for every other shape.  The exception is the neighbourhood
        of a zero, which only contour shapes have on the negative axis:
        there the error is below about ``1e-13 * |z|**-c`` in absolute
        terms, and within about 2e-3 of the zero the contour's conditioning
        check raises (``E_{0.7,1.3}^2`` near ``z = -6.1145``).  The
        large-argument regimes evaluate 64 arguments at a time, so their
        working memory, about 1.4 MB, does not grow with the size of ``z``.

    Raises
    ------
    DomainError
        If a parameter is outside its domain, or ``z`` is NaN or has
        ``|z| > Z_MAX``.
    AccuracyError
        If no regime certifies the accuracy target (the spectral rule's
        head series has not converged, at orders below about 0.1 near
        ``z = -1``), two regimes disagree at a hand-off boundary, or a
        value is not finite: past the double range, or lost to overflow
        inside the regime that serves it.
    """
    if not 0.0 < a <= 1.0:
        raise DomainError(f"order a must be in (0, 1], got {a}")
    if not (0.0 < b < math.inf and 0.0 < c < math.inf):
        raise DomainError(
            f"parameters b, c must be positive and finite, got b={b}, c={c}"
        )
    z_arr = np.asarray(z, dtype=float)
    if not (np.abs(z_arr) <= Z_MAX).all():
        raise DomainError(
            f"z must be a number with |z| <= the overflow guard Z_MAX={Z_MAX:g}"
        )
    scalar = z_arr.ndim == 0
    flat = z_arr.reshape(-1)
    if a == 1.0:
        res = _closed_form_a1(b, c, flat)
    else:
        res = _eval_batch(a, b, c, flat)
    bad = ~np.isfinite(res)
    if bad.any():
        raise AccuracyError(
            f"E_{{{a},{b}}}^{c}({flat[bad][0]}) is past the double range: the "
            f"regime serving it returned {res[bad][0]}"
        )
    return float(res[0]) if scalar else res.reshape(z_arr.shape)


def ml_one(beta, z):
    """One-parameter Mittag-Leffler function ``E_beta(z) = E_{beta,1}^1(z)``.

    Strictly decreasing from 1 to 0 along the negative axis for
    ``beta`` in (0, 1].
    """
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"beta must be in (0, 1], got {beta}")
    return prabhakar(beta, 1.0, 1.0, z)


def ml_density(t, k: MLKernelParams):
    """Mittag-Leffler kernel density ``gamma * t**(beta-1) *
    E_{beta,beta}(-gamma*t**beta)``.

    The density whose Laplace transform is ``gamma / (gamma + s**beta)``;
    strictly positive and non-increasing, divergent at ``t -> 0+`` for
    ``beta < 1``.

    Raises
    ------
    DomainError
        If any ``t`` is not > 0 (NaN included), or ``gamma*t**beta`` is
        past ``Z_MAX``.
    AccuracyError
        If ``gamma*t**(beta-1)`` is past the double range (subnormal
        ``t``).
    """
    t_arr = np.asarray(t, dtype=float)
    if not (t_arr > 0.0).all():
        raise DomainError("the kernel density is only defined for t > 0")
    if k.beta == 1.0:
        res = k.gamma * np.exp(-k.gamma * t_arr)
    else:
        # past the double range, gamma*t**beta meets prabhakar's |z| guard
        with np.errstate(over="ignore"):
            head = k.gamma * t_arr ** (k.beta - 1.0)
            z = -k.gamma * t_arr ** k.beta
        if not np.isfinite(head).all():
            raise AccuracyError(
                f"the kernel density at t={float(t_arr.min())!r} is past the "
                "double range"
            )
        res = head * prabhakar(k.beta, k.beta, 1.0, z)
    return float(res) if t_arr.ndim == 0 else res


def ml_spectral(theta, beta):
    """Mixing density of the Mittag-Leffler law over exponential rates.

    ``(1/pi) * theta**(beta-1) * sin(beta*pi) /
    (theta**(2*beta) + 2*theta**beta*cos(beta*pi) + 1)`` for ``beta`` in
    (0, 1); nonnegative and integrating to one.  At ``beta = 1`` the measure
    degenerates to a point mass and is rejected.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(
            f"the spectral density requires beta in (0, 1), got {beta}"
        )
    th = np.asarray(theta, dtype=float)
    if not np.all(th > 0.0):
        raise DomainError("theta must be positive")
    tb = th ** beta
    cpsi = math.cos((1.0 - beta) * math.pi)
    spsi = math.sin((1.0 - beta) * math.pi)
    denom = (tb - cpsi) ** 2 + spsi * spsi
    res = th ** (beta - 1.0) * spsi / (math.pi * denom)
    return float(res) if np.asarray(theta).ndim == 0 else res


def ml_sample(rng, k: MLKernelParams, size=None):
    """Exact Mittag-Leffler variates with survival ``E_beta(-gamma*t**beta)``.

    Uses the exponential-times-mixture representation
    ``T = gamma**(-1/beta) * X * (sin(beta*pi)/tan(beta*pi*U) -
    cos(beta*pi))**(1/beta)`` with ``X`` standard exponential and ``U``
    uniform; the mixture factor is evaluated in the equivalent stable form
    ``sin(beta*pi*(1-U)) / sin(beta*pi*U)``.  Degenerates to
    ``Exponential(gamma)`` at ``beta = 1``.  A variate past the double
    range is ``inf``, a lag past any horizon; a product that would be
    ``inf * 0`` gets its value from logs.

    Raises
    ------
    DomainError
        If ``size`` has a negative entry.
    AccuracyError
        If the scale ``gamma**(-1/beta)`` is past the double range (checked
        in logs, before it is formed).
    """
    if size is not None and not (np.asarray(size) >= 0).all():
        raise DomainError(f"size must be nonnegative, got {size}")
    if not -math.log(k.gamma) / k.beta < _LOG_MAX:
        raise AccuracyError(
            f"the time scale gamma**(-1/beta) is past the double range: "
            f"beta={k.beta}, gamma={k.gamma}"
        )
    u = rng.uniform(np.nextafter(0.0, 1.0), 1.0, size)
    x = rng.standard_exponential(size)
    A = math.pi * k.beta
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mix = np.sin(A * (1.0 - u)) / np.sin(A * u)
        lag = k.gamma ** (-1.0 / k.beta) * x * mix ** (1.0 / k.beta)
        bad = ~np.isfinite(lag)
        if bad.any():
            # a lag past the double range, or an inf * 0 product: the same
            # product in logs, which exp takes to inf or to its finite value
            log_lag = (np.log(mix) - math.log(k.gamma)) / k.beta + np.log(x)
            lag = np.where(bad, np.exp(log_lag), lag)[()]
    return lag
