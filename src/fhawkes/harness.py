"""Monte Carlo experiment runners: expected-count curves, count
distributions with Poisson / exponential-kernel references, and the shared
counting machinery.

Replicas draw from independent streams keyed by ``(seed, engine, replica)``;
aggregation is order-independent, so results are deterministic given the
configuration.  Where two engines are compared, the same ``(seed, replica)``
indexing is used on both sides ("paired seeding"); the engine tag still
separates the streams, keeping two-sample tests valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import chisquare, poisson

from .analytics import ModelParams, expected_n, lambda_image
from .errors import DomainError
from .io import write_curves_csv, write_dist_csv
from .laplace import IltConfig, LaplaceImage, ilt_grid
from .simulate import _sampler

__all__ = [
    "CountDistribution",
    "ExperimentConfig",
    "count_matrix",
    "expected_n_ilt_curve",
    "run_distribution",
    "run_expected_n",
]


@dataclass
class CountDistribution:
    """Empirical histogram of the event count at a fixed observation time."""

    t: float
    counts: dict[int, int]
    replicas: int
    params: ModelParams
    reference: tuple[str, dict[int, float]] | None = None
    engine: str = "thinning"

    def __post_init__(self):
        if sum(self.counts.values()) != self.replicas:
            raise DomainError("histogram frequencies must sum to the replica count")

    @classmethod
    def from_counts(cls, col: np.ndarray, t: float, params: ModelParams, **kw):
        """Histogram of one count per replica."""
        ks, freqs = np.unique(col, return_counts=True)
        counts = dict(zip(ks.tolist(), freqs.tolist()))
        return cls(float(t), counts, int(col.size), params, **kw)

    def pmf(self) -> dict[int, float]:
        return {k: v / self.replicas for k, v in self.counts.items()}

    def tv_distance(self, ref_pmf: dict[int, float] | None = None) -> float:
        """Total-variation distance to the reference (half the l1 distance,
        including reference mass outside the empirical support)."""
        ref = ref_pmf if ref_pmf is not None else self.reference[1]
        p_hat = self.pmf()
        support = set(p_hat) | set(ref)
        l1 = sum(abs(p_hat.get(k, 0.0) - ref.get(k, 0.0)) for k in support)
        l1 += max(0.0, 1.0 - sum(ref.values()))
        return 0.5 * l1

    def chi_square(self, ref_pmf: dict[int, float] | None = None,
                   min_expected: float = 5.0):
        """Goodness-of-fit statistic and p-value against the reference pmf,
        merging adjacent cells until each expected count reaches
        ``min_expected``; the tail beyond the empirical support forms the
        last cell."""
        ref = ref_pmf if ref_pmf is not None else self.reference[1]
        kmax = max(max(self.counts), max(ref))
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
            if acc_e >= min_expected:
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
        stat, pvalue = chisquare(obs_m, exp_m)
        return float(stat), float(pvalue), len(obs_m) - 1


@dataclass
class ExperimentConfig:
    """Declarative description of one Monte Carlo experiment."""

    params: ModelParams
    times: tuple
    replicas: int
    seed: int
    engines: tuple = ("thinning",)
    comparisons: tuple = ()
    output_path: str | None = None

    def __post_init__(self):
        self.times = tuple(float(t) for t in self.times)
        if self.replicas < 1:
            raise DomainError("replicas must be >= 1")
        if list(self.times) != sorted(self.times):
            raise DomainError("times must be sorted")
        for e in self.engines:
            if e not in ("thinning", "cluster"):
                raise DomainError(f"unknown process engine {e!r}")
        for cmp_ in self.comparisons:
            if cmp_ not in ("poisson", "exp-hawkes", "exact", "ilt"):
                raise DomainError(f"unknown comparison {cmp_!r}")


def count_matrix(
    p: ModelParams, times, replicas: int, seed: int, engine: str = "thinning"
) -> np.ndarray:
    """(replicas x len(times)) matrix of counts N(t), one simulated path per
    row, all counted from the same path.  Row ``r`` is the path of replica
    ``r``, as the engine's ``simulate_*`` function draws it; the thinning
    kernel is built and certified once for all rows."""
    times = np.asarray(times, dtype=float)
    draw = _sampler(engine, p, float(times.max()))
    out = np.empty((replicas, times.size), dtype=np.int64)
    for r in range(replicas):
        out[r] = np.searchsorted(draw(seed, r).epochs, times, side="right")
    return out


def expected_n_ilt_curve(p: ModelParams, times, cfg: IltConfig | None = None):
    """Expected count by numerical inversion of its Laplace image, the
    expected-intensity image divided by ``s``, at each requested time
    (exactly 0 at ``t = 0``)."""
    times = np.asarray(times, dtype=float)
    lam_img = lambda_image(p)
    image = LaplaceImage(
        lambda s: lam_img(s) / s, lam_img.sigma0, "expected-count image"
    )
    out = np.zeros(times.shape)
    later = times != 0.0
    out[later], _ = ilt_grid(image, times[later], cfg)
    return out


def run_expected_n(cfg: ExperimentConfig) -> dict:
    """Monte Carlo mean of N(t) with standard errors, the closed-form curve,
    and optionally the numerical inversion of the expected-count image.

    Returns a dict with ``times``, ``mc_mean``, ``mc_se``, ``exact`` and
    (if requested via comparisons) ``ilt`` arrays, and writes the curve
    table when ``output_path`` is set.
    """
    times = np.asarray(cfg.times, dtype=float)
    engine = cfg.engines[0]
    counts = count_matrix(cfg.params, times, cfg.replicas, cfg.seed, engine)
    mc_mean = counts.mean(axis=0)
    mc_se = counts.std(axis=0, ddof=1) / math.sqrt(cfg.replicas)
    out = {
        "times": times,
        "mc_mean": mc_mean,
        "mc_se": mc_se,
        "exact": expected_n(times, cfg.params),
        "engine": engine,
        "replicas": cfg.replicas,
    }
    if "ilt" in cfg.comparisons:
        out["ilt"] = expected_n_ilt_curve(cfg.params, times)
    if cfg.output_path:
        write_curves_csv(
            cfg.output_path,
            {
                "t": times,
                "mc_mean": mc_mean,
                "mc_se": mc_se,
                "exact": out["exact"],
                "ilt": out.get("ilt"),
            },
        )
    return out


def poisson_reference_pmf(rate_times_t: float, kmax: int) -> dict[int, float]:
    """Poisson pmf on 0..kmax (tail mass handled by the comparison code)."""
    ks = np.arange(kmax + 1)
    return dict(zip(ks.tolist(), poisson.pmf(ks, rate_times_t).tolist()))


def empirical_pmf(values: np.ndarray) -> dict[int, float]:
    ks, freqs = np.unique(values, return_counts=True)
    n = values.size
    return {int(k): f / n for k, f in zip(ks, freqs)}


def run_distribution(cfg: ExperimentConfig) -> list[CountDistribution]:
    """Empirical pmf of N(t) at each requested time with the requested
    reference attached (Poisson with mean lambda0*t, or the empirical pmf of
    the exponential-kernel process at matched ``(seed, replica)`` indices)."""
    times = np.asarray(cfg.times, dtype=float)
    engine = cfg.engines[0]
    counts = count_matrix(cfg.params, times, cfg.replicas, cfg.seed, engine)
    ref_counts = None
    if "exp-hawkes" in cfg.comparisons:
        ref_counts = count_matrix(
            cfg.params, times, cfg.replicas, cfg.seed, "exp_hawkes"
        )
    dists = []
    records = []
    for j, t in enumerate(times):
        col = counts[:, j]
        reference = None
        if "poisson" in cfg.comparisons:
            reference = (
                "poisson",
                poisson_reference_pmf(cfg.params.lambda0 * t, int(col.max()) + 10),
            )
        elif "exp-hawkes" in cfg.comparisons:
            reference = ("exp_hawkes_empirical", empirical_pmf(ref_counts[:, j]))
        dist = CountDistribution.from_counts(
            col, t, cfg.params, reference=reference, engine=engine
        )
        dists.append(dist)
        p_hat = dist.pmf()
        ref_pmf = reference[1] if reference else {}
        for k in sorted(set(p_hat) | set(ref_pmf)):
            records.append(
                (
                    t,
                    k,
                    dist.counts.get(k, 0),
                    p_hat.get(k, 0.0),
                    ref_pmf.get(k, math.nan) if reference else math.nan,
                )
            )
    if cfg.output_path:
        write_dist_csv(cfg.output_path, records)
    return dists
