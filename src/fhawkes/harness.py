"""Monte Carlo counting: column means of the count matrix with standard
errors, and count distributions with their Poisson / exponential-kernel
references, as the CLI, the demos and the validation criteria compare them.
The count matrix itself is drawn in :mod:`fhawkes.simulate`;
``harness.count_matrix`` is that same function, re-exported.

Replicas draw from independent streams keyed by ``(seed, engine, replica)``;
aggregation is order-independent, so results are deterministic given the
seed.  Where two engines are compared, the same ``(seed, replica)``
indexing is used on both sides ("paired seeding"); the engine tag still
separates the streams, keeping two-sample tests valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import chdtrc, gammaln, xlogy

from .analytics import ModelParams, lambda_image
from .errors import DomainError
from .laplace import LaplaceImage, ilt_grid
from .simulate import count_matrix

__all__ = [
    "CountDistribution",
    "count_distributions",
    "count_matrix",
    "expected_n_ilt_curve",
    "mean_and_se",
]

_MIN_EXPECTED = 5.0  # smallest expected count of a merged chi-square cell
# binary exponent of lambda0*t**2 below which the count image is scaled
_UNDERFLOW_EXP = -900


def _pearson(obs: np.ndarray, exp: np.ndarray) -> tuple[float, float, int]:
    """Pearson's statistic ``sum((obs - exp)**2 / exp)`` over the cells, its
    upper-tail chi-square p-value and the degrees of freedom, ``cells - 1``;
    ``exp`` must sum to the observed total."""
    dof = obs.size - 1
    stat = np.sum((obs - exp) ** 2 / exp)
    return float(stat), float(chdtrc(dof, stat)), dof


@dataclass
class CountDistribution:
    """Empirical histogram of the event count at a fixed observation time."""

    t: float
    counts: dict[int, int]
    replicas: int

    def __post_init__(self):
        if self.replicas < 1:
            raise DomainError("a count distribution needs replicas >= 1")
        if sum(self.counts.values()) != self.replicas:
            raise DomainError("histogram frequencies must sum to the replica count")

    @classmethod
    def from_counts(cls, col: np.ndarray, t: float):
        """Histogram of one count per replica."""
        ks, freqs = np.unique(col, return_counts=True)
        counts = dict(zip(ks.tolist(), freqs.tolist()))
        return cls(float(t), counts, int(col.size))

    def pmf(self) -> dict[int, float]:
        return {k: v / self.replicas for k, v in self.counts.items()}

    def tv_distance(self, ref: dict[int, float]) -> float:
        """Total-variation distance to the reference pmf (half the l1
        distance, including reference mass outside the empirical support)."""
        p_hat = self.pmf()
        support = set(p_hat) | set(ref)
        l1 = sum(abs(p_hat.get(k, 0.0) - ref.get(k, 0.0)) for k in support)
        l1 += max(0.0, 1.0 - sum(ref.values()))
        return 0.5 * l1

    def chi_square(self, ref: dict[int, float]):
        """Pearson's chi-square goodness of fit against the reference pmf:
        ``(stat, pvalue, dof)`` with ``stat = sum((o - e)**2 / e)`` over the
        cells and ``pvalue = chdtrc(dof, stat)``, the upper tail of the
        chi-square law with ``dof`` = cells - 1.  Adjacent cells merge until
        each expected count reaches ``_MIN_EXPECTED``; the tail beyond the
        empirical support forms the last cell, and the expected counts are
        scaled to the observed total.

        Raises DomainError if fewer than two cells remain."""
        kmax = max(max(self.counts), max(ref, default=0))
        obs = np.array([self.counts.get(k, 0) for k in range(kmax + 1)], dtype=float)
        exp = np.array([ref.get(k, 0.0) for k in range(kmax + 1)]) * self.replicas
        tail = max(0.0, self.replicas - exp.sum())
        obs = np.append(obs, 0.0)
        exp = np.append(exp, tail)
        obs_m, exp_m = [], []
        acc_o = acc_e = 0.0
        for o, e in zip(obs, exp):
            acc_o += o
            acc_e += e
            if acc_e >= _MIN_EXPECTED:
                obs_m.append(acc_o)
                exp_m.append(acc_e)
                acc_o = acc_e = 0.0
        if acc_e > 0 or acc_o > 0:
            if obs_m:
                obs_m[-1] += acc_o
                exp_m[-1] += acc_e
            else:
                obs_m, exp_m = [acc_o], [acc_e]
        if len(obs_m) < 2:
            raise DomainError("chi-square needs at least two merged cells")
        obs_m = np.asarray(obs_m)
        exp_m = np.asarray(exp_m) * obs_m.sum() / np.sum(exp_m)
        return _pearson(obs_m, exp_m)


def expected_n_ilt_curve(p: ModelParams, times):
    """Expected count by numerical inversion of its Laplace image, the
    expected-intensity image divided by ``s``, at each requested time
    (exactly 0 at ``t = 0``).

    The count image is about ``lambda0/s**2`` on the contour of a time
    ``t``, where ``|s| >= 12/t``, so it underflows as ``lambda0*t**2``
    nears the smallest normal float.  Where ``lambda0*t**2`` is below
    ``2**-900``, the image of ``lambda0 * 2**k`` is inverted instead, with
    ``k`` such that ``lambda0 * t * 2**k`` is near 1, and the value is
    scaled back by ``2**-k``: a power of two changes no bit of a value
    that does not underflow.
    """
    times = np.asarray(times, dtype=float)
    out = np.zeros(times.shape)
    later = times != 0.0
    ts = times[later]
    e_lam = math.frexp(p.lambda0)[1]
    # a subnormal time scales as the smallest normal one, which keeps
    # lambda0 * 2**k finite; its contour does not exist (ContourError)
    e_t = np.maximum(np.frexp(ts)[1], -1021)
    k = np.where(e_lam + 2 * e_t < _UNDERFLOW_EXP, -(e_lam + e_t), 0)
    values = np.empty(ts.shape)
    for kk in np.unique(k).tolist():
        lam_img = lambda_image(replace(p, lambda0=math.ldexp(p.lambda0, kk)))
        image = LaplaceImage(lambda s: lam_img(s) / s, lam_img.sigma0)
        sel = k == kk
        values[sel] = np.ldexp(ilt_grid(image, ts[sel])[0], -kk)
    out[later] = values
    return out


def mean_and_se(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means of a (replicas x times) count matrix and their standard
    errors.  Raises DomainError for fewer than two replicas, which leave the
    standard error undefined."""
    replicas = counts.shape[0]
    if replicas < 2:
        raise DomainError("the standard error needs at least 2 replicas")
    return counts.mean(axis=0), counts.std(axis=0, ddof=1) / math.sqrt(replicas)


def poisson_reference_pmf(rate_times_t: float, kmax: int) -> dict[int, float]:
    """Poisson pmf ``exp(k*log(mu) - log(k!) - mu)`` on ``k = 0..kmax``, with
    ``0*log(0) = 0`` so that a zero mean puts all mass at 0 (the tail mass is
    left to the comparison code).  Raises DomainError for a mean that is
    negative or not finite, or for ``kmax < 0``."""
    mu = float(rate_times_t)
    if not (0.0 <= mu < math.inf and kmax >= 0):
        raise DomainError(
            f"Poisson pmf needs a finite mean >= 0 and kmax >= 0, got {mu} and {kmax}"
        )
    ks = np.arange(kmax + 1)
    pmf = np.exp(xlogy(ks, mu) - gammaln(ks + 1) - mu)
    return dict(zip(ks.tolist(), pmf.tolist()))


def count_distributions(
    p: ModelParams, times, replicas: int, seed: int, reference: str | None = None
) -> list[tuple[CountDistribution, dict[int, float] | None]]:
    """Empirical law of N(t) over thinning paths at each time, paired with
    its reference pmf: ``None``; ``"poisson"``, Poisson(lambda0*t) on
    ``k = 0..kmax + 30`` for the largest observed count ``kmax``; or
    ``"exp_hawkes"``, the empirical pmf of the exponential-kernel process at
    matched ``(seed, replica)`` indices.  ``times`` is a scalar or 1-d, as
    for :func:`count_matrix`.

    Raises DomainError for any other reference, and as :func:`count_matrix`
    does.
    """
    if reference not in (None, "poisson", "exp_hawkes"):
        raise DomainError(f"unknown reference {reference!r}")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    counts = count_matrix(p, times, replicas, seed)
    if reference == "exp_hawkes":
        ref_counts = count_matrix(p, times, replicas, seed, "exp_hawkes")
    out = []
    for j, t in enumerate(times):
        dist = CountDistribution.from_counts(counts[:, j], t)
        ref = None
        if reference == "poisson":
            ref = poisson_reference_pmf(p.lambda0 * t, max(dist.counts) + 30)
        elif reference == "exp_hawkes":
            ref = CountDistribution.from_counts(ref_counts[:, j], t).pmf()
        out.append((dist, ref))
    return out
