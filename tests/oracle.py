"""Independent high-precision reference values (mpmath).

Everything here is deliberately decoupled from the library implementation:
the three-parameter Mittag-Leffler series is summed at adaptive precision
high enough to absorb its cancellation, and large-argument values come from
a completely monotone branch-cut integral evaluated with mpmath quadrature.
Used to freeze expected values into tests and to (re)generate the fixture
table in ``tests/fixtures/prabhakar_oracle.csv``.
"""

from __future__ import annotations

import math

import mpmath as mp


def _series_dps(a, b, c, z):
    """Working precision needed so the series cancellation leaves >= 40
    digits: locate the largest term magnitude with float arithmetic."""
    x = abs(z)
    if x == 0:
        return 50
    best = 0.0
    k = 0.0
    step = 1.0
    lg = math.lgamma
    while k < 5e6:
        val = lg(c + k) - lg(k + 1.0) - lg(a * k + b) - lg(c) + k * math.log(x)
        best = max(best, val)
        ratio = math.log(x) + math.log(c + k + 1) - math.log(k + 1) + (
            lg(a * k + b) - lg(a * (k + 1) + b)
        )
        if ratio < 0 and val < best - 80.0:
            break
        k += step
        step = max(1.0, k / 64.0)
    return int(best / math.log(10.0)) + 60


def prabhakar_series(a, b, c, z, extra_dps=0):
    """E_{a,b}^c(z) by direct series summation at adaptive precision."""
    dps = _series_dps(a, b, c, z) + extra_dps
    with mp.workdps(dps):
        a_, b_, c_, z_ = mp.mpf(a), mp.mpf(b), mp.mpf(c), mp.mpf(z)
        total = mp.mpf(0)
        term_scale = mp.mpf(10) ** (-dps + 5)
        k = 0
        quiet = 0
        coef = 1 / mp.gamma(c_)
        while True:
            term = (
                coef
                * mp.gamma(c_ + k)
                / (mp.factorial(k) * mp.gamma(a_ * k + b_))
                * z_ ** k
            )
            total += term
            if abs(term) < term_scale * max(1, abs(total)):
                quiet += 1
                if quiet > 12:
                    break
            else:
                quiet = 0
            k += 1
            if k > 5_000_000:
                raise RuntimeError("oracle series budget exhausted")
        return +total


def _branchcut_integral(a, b, x, dps=50):
    """E_{a,b}(-x), x > 0, via the branch-cut (completely monotone) integral;
    requires b < 1 + a for an integrable endpoint, with callers keeping a
    margin (the quadrature degrades as the endpoint exponent nears -1)."""
    assert 0 < a < 1 and b < 1 + a
    with mp.workdps(dps + 25):
        a_, b_, x_ = mp.mpf(a), mp.mpf(b), +mp.mpf(x)

        def h(r):
            num = r ** (a_ - b_) * (
                r ** a_ * mp.sin(mp.pi * b_) + x_ * mp.sin(mp.pi * (b_ - a_))
            )
            den = r ** (2 * a_) + 2 * x_ * r ** a_ * mp.cos(mp.pi * a_) + x_ ** 2
            return mp.e ** (-r) * num / den / mp.pi

        # as a -> 1 the denominator nearly vanishes at r0 = x**(1/a), in a
        # spike of width ~ r0*pi*(1-a)/a; knots graded around r0 resolve it
        r0 = x_ ** (1 / a_)
        width = r0 * mp.pi * (1 - a_) / a_
        near = [r0 + sign * 2 ** k * width
                for k in range(-2, 12) for sign in (-1, 1)]
        knots = [0, mp.mpf(1) / 10, 1, 5, 15, 40, 80, 160, r0]
        knots = sorted(set(knots + [r for r in near if r > 0])) + [mp.inf]
        return +mp.quad(h, knots, maxdegree=10)


def _two_param_oracle(a, b, z, dps=50):
    """E_{a,b}(z) for z < 0 (float or mpf): branch-cut integral, reducing b
    through the recurrence E_{a,b}(z) = z*E_{a,a+b}(z) + 1/Gamma(b) until it
    sits well below 1 + a."""
    x = -mp.mpf(z)
    steps = 0
    b_red = b
    while b_red >= 1 + a - 0.25:
        b_red -= a
        steps += 1
    with mp.workdps(dps + 15):
        val = _branchcut_integral(a, b_red, x, dps=dps)
        z_ = mp.mpf(z)
        for i in range(steps):
            bb = mp.mpf(b_red) + i * mp.mpf(a)
            # invert E_{a,bb}(z) = z * E_{a,bb+a}(z) + 1/Gamma(bb)
            val = (val - 1 / mp.gamma(bb)) / z_
        return +val


def prabhakar_oracle(a, b, c, z, dps=50, max_series_dps=1500):
    """Reference E_{a,b}^c(z), choosing the affordable route.

    Series summation whenever its adaptive precision stays below
    ``max_series_dps``; otherwise the completely monotone branch-cut
    integral (c == 1), or the derivative identity
    ``E_{a,b}^2(z) = d/dz E_{a,b-a}(z)`` (c == 2).  Raises ``RuntimeError``
    for combinations with no affordable route.
    """
    if a == 1.0:
        with mp.workdps(dps + 10):
            return +(mp.hyp1f1(c, b, mp.mpf(z)) / mp.gamma(b))
    if z >= -30.0 and _series_dps(a, b, c, z) <= max_series_dps:
        return prabhakar_series(a, b, c, z)
    if c == 1.0:
        return _two_param_oracle(a, b, z, dps=dps)
    if c == 2.0:
        # E_{a,b}^2(z) = d/dz E_{a,b-a}(z); central difference with a step
        # far above the branch-cut quadrature noise floor but far below the
        # target accuracy.
        with mp.workdps(dps + 15):
            z_ = mp.mpf(z)
            h = abs(z_) * mp.mpf("1e-18")
            lo = _two_param_oracle(a, b - a, z_ - h, dps=dps)
            hi = _two_param_oracle(a, b - a, z_ + h, dps=dps)
            return +((hi - lo) / (2 * h))
    if _series_dps(a, b, c, z) <= max_series_dps:
        return prabhakar_series(a, b, c, z)
    raise RuntimeError(
        f"no affordable oracle route for E_{{{a},{b}}}^{c}({z})"
    )


def erfcx_oracle(x, dps=50):
    """exp(x^2) erfc(x) at high precision."""
    with mp.workdps(dps + 10):
        return +(mp.exp(mp.mpf(x) ** 2) * mp.erfc(mp.mpf(x)))


def ml_density_oracle(t, beta, gamma_, dps=40):
    """Kernel density gamma*t^(beta-1)*E_{beta,beta}(-gamma*t^beta)."""
    with mp.workdps(dps + 10):
        t_, b_, g_ = mp.mpf(t), mp.mpf(beta), mp.mpf(gamma_)
        z = -(g_ * t_ ** b_)
        e = prabhakar_oracle(beta, beta, 1.0, float(z), dps=dps)
        return +(g_ * t_ ** (b_ - 1) * e)
