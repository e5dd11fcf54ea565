"""End-to-end validation suite: every quantitative claim the library makes,
executed with pinned tolerances and seeds, emitting a machine-readable
report.  Criterion failures are recorded, never raised.

Seeds are fixed so the Monte Carlo criteria are reproducible; each criterion
uses its own stream family.  ``smoke`` mode shrinks replica counts (and
widens the purely statistical thresholds accordingly) for fast
configuration checks; the report marks the mode.

High-precision reference constants were computed once with a 40+ digit
independent oracle and are frozen below.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .analytics import (
    ModelParams,
    asymptote,
    expected_n,
    expected_n_half,
    lambda_exact,
    lambda_exact_half,
    lambda_image,
)
from .errors import DomainError
from .harness import (
    count_distributions,
    count_matrix,
    expected_n_ilt_curve,
    mean_and_se,
)
from .laplace import forward_lt, ilt_grid
from .special import MLKernelParams, erfcx, ml_density, ml_one, prabhakar

__all__ = ["CRITERIA", "run_validation"]

# erfcx(15.3), scaled by alpha*lambda0/(1-alpha): the exact asymptote gap at
# (lambda0=1, alpha=0.1, beta=1/2, gamma=1.7, t=100)
GAP_ORACLE = 0.0040885414256921205

_GAMMA_GRID = (0.1, 0.8, 1.7)
# observation times of the Monte Carlo mean criteria c06 and c07
_MC_TIMES = np.arange(1.0, 11.0)


@dataclass
class ValidationConfig:
    seed: int = 20240801
    smoke: bool = False
    replicas: int = field(init=False)
    ks_replicas: int = field(init=False)
    tv_scale: float = field(init=False)

    def __post_init__(self):
        self.replicas = 200 if self.smoke else 10_000
        self.ks_replicas = 200 if self.smoke else 5_000
        # purely statistical TV thresholds widen as 1/sqrt(replicas)
        self.tv_scale = math.sqrt(10_000 / self.replicas)


def _result(name, measured, bound, details=None, passed=None):
    """A criterion's record; it passes when ``measured <= bound`` unless the
    criterion gives its own ``passed``."""
    return {
        "name": name,
        "passed": bool(measured <= bound if passed is None else passed),
        "measured": float(measured),
        "bound": float(bound),
        "details": details or {},
    }


def c01_special_identities(cfg: ValidationConfig) -> dict:
    """Mittag-Leffler identity suite at 1e-10 / 1e-12 relative."""
    x = np.linspace(0.0, 100.0, 201)
    rel1 = np.max(np.abs(ml_one(0.5, -x) - erfcx(x)) / erfcx(x))
    worst0 = 0.0
    for a, b, c in ((0.7, 1.3, 2.0), (0.3, 0.6, 1.5), (0.9, 2.0, 1.0), (1.0, 1.0, 1.0)):
        got = prabhakar(a, b, c, 0.0)
        ref = 1.0 / math.gamma(b)
        worst0 = max(worst0, abs(got - ref) / ref)
    z = np.linspace(-30.0, 3.0, 201)
    rel_exp = np.max(np.abs(prabhakar(1.0, 1.0, 1.0, z) - np.exp(z)) / np.exp(z))
    return _result(
        "special-function identities",
        max(rel1, worst0, rel_exp),
        1e-10,
        {"erfcx_identity": rel1, "at_zero": worst0, "exponential": rel_exp},
        rel1 <= 1e-10 and worst0 <= 1e-12 and rel_exp <= 1e-12,
    )


def c02_kernel_transform(cfg: ValidationConfig) -> dict:
    """Kernel normalization within 1e-6 and Laplace transform equal to
    gamma/(gamma+s^beta) within 1e-6 at s = 0.1, 1 and 10.

    Per kernel, the mass (the transform at s = 0) and the three transforms
    come from one ``forward_lt`` call with ``singular_exponent=beta``, which
    makes the kernel's ``t**(beta-1)`` head and ``t**(-1-beta)`` tail
    smooth.  All four integrands share one adaptive mesh per part, so the
    density is evaluated once per node, and each is held to 1e-10 absolute
    and relative tolerance, with a summed error estimate within 1e-8."""
    s = np.array([0.0, 0.1, 1.0, 10.0])
    worst_norm = 0.0
    worst_lt = 0.0
    for beta in (0.3, 0.5, 0.7, 0.9, 0.99):
        for g in (0.1, 1.0, 1.7):
            k = MLKernelParams(beta, g)
            values = forward_lt(lambda t: ml_density(t, k), s, singular_exponent=beta)
            worst_norm = max(worst_norm, float(abs(values[0] - 1.0)))
            ref = g / (g + s[1:] ** beta)
            worst_lt = max(worst_lt, float(np.abs(values[1:] - ref).max()))
    return _result(
        "kernel normalization and transform",
        max(worst_norm, worst_lt),
        1e-6,
        {"normalization": worst_norm, "transform": worst_lt},
    )


def c03_half_beta_consistency(cfg: ValidationConfig) -> dict:
    """The erfcx closed form and the Mittag-Leffler form agree at beta=1/2."""
    t = np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 400)])
    worst = 0.0
    for g in _GAMMA_GRID:
        p = ModelParams(1.0, 0.1, 0.5, g)
        a = lambda_exact_half(t, p)
        b = lambda_exact(t, p)
        worst = max(worst, np.max(np.abs(a - b) / b))
    return _result("beta=1/2 closed form vs general form", worst, 1e-9)


def c04_intensity_vs_inversion(cfg: ValidationConfig) -> dict:
    """Exact expected intensity vs numerical Laplace inversion, 1e-4."""
    t = np.geomspace(0.05, 50.0, 160)
    ps = [ModelParams(1.0, 0.1, beta, g) for beta in (0.5, 0.9) for g in _GAMMA_GRID]
    nums, _ = ilt_grid(lambda_image(*ps), t)
    worst = 0.0
    for p, num in zip(ps, nums):
        exact = lambda_exact(t, p)
        worst = max(worst, np.max(np.abs(num - exact) / exact))
    return _result("expected intensity: exact vs numerical inversion", worst, 1e-4)


def c05_asymptote(cfg: ValidationConfig) -> dict:
    """Initial value, strict growth below the asymptote, the tail gap at
    t=100 against a frozen high-precision value, and the small-s slope of
    the image correction term."""
    details = {}
    ok = True
    t = np.geomspace(1e-3, 100.0, 500)
    for beta in (0.5, 0.9):
        p = ModelParams(1.0, 0.1, beta, 1.7)
        lam = lambda_exact(t, p)
        lim = asymptote(p)
        ok &= lambda_exact(0.0, p) == p.lambda0
        ok &= bool(np.all(np.diff(lam) > 0.0)) and bool(np.all(lam < lim))
    p = ModelParams(1.0, 0.1, 0.5, 1.7)
    gap = asymptote(p) - lambda_exact(100.0, p)
    details["gap"] = gap
    details["gap_oracle"] = GAP_ORACLE
    gap_err = abs(gap - GAP_ORACLE) / GAP_ORACLE
    ok &= gap_err <= 0.2
    slopes = {}
    s = np.geomspace(1e-4, 1e-2, 25)
    for beta in (0.5, 0.9):
        p = ModelParams(1.0, 0.1, beta, 1.7)
        img = lambda_image(p)
        q = np.abs(s * img(s + 0j) * (1 - p.alpha) / p.lambda0 - 1.0)
        slope = np.polyfit(np.log(s), np.log(q), 1)[0]
        slopes[beta] = float(slope)
        ok &= abs(slope - beta) <= 0.05
    details["puiseux_slopes"] = slopes
    return _result("asymptote, tail gap, small-s slope", gap_err, 0.2, details, ok)


def _mc_means(cfg, beta, offset):
    """``(gamma, p, dev)`` for each kernel time scale: the model at ``beta``,
    model ``i`` on seed ``cfg.seed + offset + i``, and ``dev(ref)``, the
    largest distance, in standard errors, of its thinning Monte Carlo mean
    of N(t) on ``_MC_TIMES`` from the curve ``ref``."""
    for i, g in enumerate(_GAMMA_GRID):
        p = ModelParams(1.0, 0.1, beta, g)
        mc, se = mean_and_se(
            count_matrix(p, _MC_TIMES, cfg.replicas, cfg.seed + offset + i)
        )
        yield g, p, lambda ref: float(np.max(np.abs(mc - ref) / se))


def c06_expected_count_half(cfg: ValidationConfig) -> dict:
    """Monte Carlo mean of N(t) within 3 standard errors of the beta=1/2
    closed form on t = 1..10 for each kernel time scale."""
    details = {
        f"gamma={g}": dev(expected_n_half(_MC_TIMES, p))
        for g, p, dev in _mc_means(cfg, 0.5, 60)
    }
    return _result("expected count vs closed form (beta=1/2)",
                   max(details.values()), 3.0, details)


def c07_expected_count_near_exponential(cfg: ValidationConfig) -> dict:
    """At beta=0.99 the Monte Carlo means match both the closed form and the
    numerical inversion of the expected-count image within 3 SE."""
    details = {
        f"gamma={g}": {"exact": dev(expected_n(_MC_TIMES, p)),
                       "ilt": dev(expected_n_ilt_curve(p, _MC_TIMES))}
        for g, p, dev in _mc_means(cfg, 0.99, 70)
    }
    worst = max(max(d.values()) for d in details.values())
    return _result("expected count vs closed form and inversion (beta=0.99)",
                   worst, 3.0, details)


def _ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov test for samples of equal size ``n``.

    Returns ``(D, p)``: ``D = h/n`` is the largest gap between the two
    empirical CDFs over the pooled sample (ties included), and ``p`` is the
    exact two-sided ``P(D_nn >= h/n)`` by Hodges' alternating sum, or 1.0
    where rounding takes that sum past 1.  Raises DomainError if the samples
    are empty or of unequal size.
    """
    a, b = np.sort(a), np.sort(b)
    n = a.size
    if not (n > 0 and b.size == n):
        raise DomainError(
            f"the KS test needs two nonempty samples of equal size, got {n} and {b.size}"
        )
    pooled = np.concatenate([a, b])
    gaps = np.searchsorted(a, pooled, "right") - np.searchsorted(b, pooled, "right")
    h = int(np.abs(gaps).max())
    if h == 0:
        return 0.0, 1.0
    # p = 2 * A0 * (1 - A1 * (1 - A2 * ...)), A_k = prod_j (n-kh-j)/(n+kh+j+1)
    p = 0.0
    for k in range(n // h, -1, -1):
        a_k = 1.0
        for j in range(h):
            a_k = (n - k * h - j) * a_k / (n + k * h + j + 1)
        p = a_k * (1.0 - p)
    return h / n, min(2 * p, 1.0)


def c08_engine_agreement(cfg: ValidationConfig) -> dict:
    """Thinning and branching engines produce the same N(10) law: the
    two-sample Kolmogorov-Smirnov statistic D of the two count samples, and
    its exact two-sided p-value, which must exceed 0.01."""
    p = ModelParams(1.0, 0.5, 0.5, 1.0)
    times = np.array([10.0])
    a = count_matrix(p, times, cfg.ks_replicas, cfg.seed + 80, "thinning")[:, 0]
    b = count_matrix(p, times, cfg.ks_replicas, cfg.seed + 80, "cluster")[:, 0]
    stat, pvalue = _ks_two_sample(a, b)
    return _result(
        "engine cross-validation (KS)",
        pvalue,
        0.01,
        {"ks_statistic": float(stat), "mean_thinning": float(a.mean()),
         "mean_cluster": float(b.mean())},
        pvalue > 0.01,
    )


def _count_cells(cfg, offset, param, models, times, reference):
    """``(key, distribution, reference pmf)`` at each time of each model, as
    :func:`count_distributions` pairs them, model ``i`` on seed ``cfg.seed
    + offset + i``; the key names the model by its parameter ``param``."""
    for i, p in enumerate(models):
        for dist, ref in count_distributions(
            p, times, cfg.replicas, cfg.seed + offset + i, reference
        ):
            yield f"{param}={getattr(p, param)},t={dist.t}", dist, ref


def _tv_limit(cfg, name, offset, param, models, reference):
    """A limit criterion: the largest total-variation distance of the count
    law at t = 1, 5 and 10 from its reference, against 0.05 widened as
    1/sqrt(replicas)."""
    bound = 0.05 * cfg.tv_scale
    details = {
        key: dist.tv_distance(ref)
        for key, dist, ref in _count_cells(
            cfg, offset, param, models, (1.0, 5.0, 10.0), reference
        )
    }
    return _result(name, max(details.values()), bound, details)


def c09_poisson_limit(cfg: ValidationConfig) -> dict:
    """At alpha=0.01 the count distribution is close to Poisson(lambda0*t)
    in total variation."""
    models = [ModelParams(1.0, 0.01, beta, 1.0) for beta in (0.5, 0.9)]
    return _tv_limit(cfg, "Poisson limit at small branching ratio (TV)", 90,
                     "beta", models, "poisson")


def c10_exponential_limit(cfg: ValidationConfig) -> dict:
    """At beta=0.99 the count distribution matches the exponential-kernel
    process in total variation, with paired (seed, replica) indexing."""
    models = [ModelParams(1.0, alpha, 0.99, 1.0) for alpha in (0.1, 0.5)]
    return _tv_limit(cfg, "exponential-kernel limit at beta=0.99 (TV)", 100,
                     "alpha", models, "exp_hawkes")


def c11_poisson_rejected(cfg: ValidationConfig) -> dict:
    """At alpha=0.5 the Poisson reference is rejected (chi-square p < 0.01).
    Each cell records the statistic and its degrees of freedom beside the
    p-value, which underflows to 0 at full replica counts."""
    models = [ModelParams(1.0, 0.5, beta, 1.0) for beta in (0.5, 0.9)]
    details = {}
    for key, dist, ref in _count_cells(cfg, 110, "beta", models, (5.0, 10.0), "poisson"):
        stat, pvalue, dof = dist.chi_square(ref)
        details[key] = {"pvalue": pvalue, "statistic": stat, "dof": dof}
    worst_p = max(cell["pvalue"] for cell in details.values())
    return _result("Poisson approximation rejected at strong excitation",
                   worst_p, 0.01, details, worst_p < 0.01)


def c12_determinism(cfg: ValidationConfig, records: list) -> dict:
    """Two smoke runs with the same seed produce identical numerical
    records (timings excluded).

    In smoke mode ``records``, the c01-c11 records this run already
    computed, serve as the first run; a full run makes one smoke pass for
    it.  Either way one more smoke pass is the second run.
    """
    smoke = ValidationConfig(seed=cfg.seed, smoke=True)
    first = records if cfg.smoke else _records(smoke)
    same = _canonical(first) == _canonical(_records(smoke))
    return _result("seeded determinism of the validation run",
                   0.0 if same else 1.0, 0.0)


CRITERIA = [
    c01_special_identities,
    c02_kernel_transform,
    c03_half_beta_consistency,
    c04_intensity_vs_inversion,
    c05_asymptote,
    c06_expected_count_half,
    c07_expected_count_near_exponential,
    c08_engine_agreement,
    c09_poisson_limit,
    c10_exponential_limit,
    c11_poisson_rejected,
    c12_determinism,
]


def _canonical(report) -> str:
    """Serialization of a report, or of its records, with the volatile
    fields (timings) removed."""
    import json

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in sorted(obj.items()) if k != "seconds"}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    return json.dumps(strip(report), sort_keys=True)


def _report(cfg: ValidationConfig, records: list) -> dict:
    return {
        "mode": "smoke" if cfg.smoke else "full",
        "seed": cfg.seed,
        "replicas": cfg.replicas,
        "criteria": records,
        "all_passed": all(r["passed"] for r in records),
    }


def run_validation(smoke: bool = False, seed: int = 20240801) -> dict:
    """Execute the criteria and return the report dict.

    Never raises on a criterion failure; each record carries name, measured
    value, bound, pass flag and wall time.  c12 checks the c01-c11 records
    against one seeded smoke rerun.

    Raises
    ------
    DomainError
        If ``seed`` is negative, before any criterion runs: the criteria
        key their streams by ``seed`` plus a fixed offset, and stream keys
        must be nonnegative.
    """
    if seed < 0:
        raise DomainError(f"validation seed must be nonnegative, got {seed}")
    cfg = ValidationConfig(seed=seed, smoke=smoke)
    records = _records(cfg)
    records.append(_run(c12_determinism, cfg, records))
    return _report(cfg, records)


def _records(cfg: ValidationConfig) -> list:
    """The c01-c11 records of one pass."""
    return [_run(fn, cfg) for fn in CRITERIA[:-1]]


def _run(criterion, *args) -> dict:
    """One criterion's record with its wall time; a crash counts as a
    failure."""
    t0 = time.perf_counter()
    try:
        rec = criterion(*args)
    except Exception as exc:
        rec = _result(criterion.__name__, math.nan, math.nan,
                      {"error": repr(exc)}, passed=False)
    rec["seconds"] = round(time.perf_counter() - t0, 3)
    return rec
