"""Reference values computed apart from the code under test.

* Prabhakar values in 30-digit arithmetic with mpmath: the power series for
  ``z >= 0`` (all terms positive, no cancellation), and Talbot inversion of
  the Laplace pair ``t**(b-1) E_{a,b}^c(-x t**a) <-> s**(a*c-b) / (s**a +
  x)**c`` at ``t = 1`` for ``z = -x < 0``.  The library uses neither.
* The beta = 1/2 kernel in erfc form, ``f(u) = gamma * u**-1/2 *
  (1/sqrt(pi) - x*erfcx(x))`` with ``x = gamma*sqrt(u)``.
* An upper bound on ``Var N(t)``: started empty, ``N(t)`` is a compound
  Poisson sum over immigrants of cluster members inside ``[0, t]``, and a
  Poisson(alpha) branching cluster has ``E[size**2] = 1/(1-alpha)**3``, so
  ``Var N(t) <= lambda0 * t / (1-alpha)**3`` for every kernel.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import erfcx

_DPS = 30


def prabhakar_mp(a: float, b: float, c: float, z: float) -> float:
    with mp.workdps(_DPS):
        a, b, c, z = mp.mpf(a), mp.mpf(b), mp.mpf(c), mp.mpf(z)
        if z >= 0:
            total = mp.mpf(0)
            k = 0
            while True:
                term = mp.rf(c, k) * z**k / (mp.factorial(k) * mp.gamma(a * k + b))
                total += term
                if k > 8 and abs(term) < mp.mpf(10) ** (-_DPS) * abs(total):
                    return float(total)
                k += 1
        x = -z
        return float(
            mp.invertlaplace(lambda s: s ** (a * c - b) / (s**a + x) ** c, 1,
                             method="talbot")
        )


def intensity_half(t: float, epochs, lambda0: float, alpha: float, gamma: float):
    """Conditional intensity at beta = 1/2 in erfc form (events before t)."""
    lags = t - np.asarray(epochs, dtype=float)
    lags = lags[lags > 0.0]
    x = gamma * np.sqrt(lags)
    dens = gamma / np.sqrt(lags) * (1.0 / math.sqrt(math.pi) - x * erfcx(x))
    return lambda0 + alpha * float(math.fsum(dens))


def count_variance_bound(t, lambda0: float, alpha: float):
    return lambda0 * np.asarray(t, dtype=float) / (1.0 - alpha) ** 3
