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
from scipy.integrate import quad
from scipy.stats import ks_2samp

from .analytics import (
    ModelParams,
    asymptote,
    expected_n,
    expected_n_half,
    lambda_exact,
    lambda_exact_half,
    lambda_image,
)
from .harness import (
    CountDistribution,
    count_matrix,
    empirical_pmf,
    expected_n_ilt_curve,
    poisson_reference_pmf,
)
from .laplace import forward_lt, ilt_grid
from .special import MLKernelParams, erfcx, ml_density, ml_one, prabhakar

__all__ = ["CRITERIA", "run_validation"]

# erfcx(15.3), scaled by alpha*lambda0/(1-alpha): the exact asymptote gap at
# (lambda0=1, alpha=0.1, beta=1/2, gamma=1.7, t=100)
GAP_ORACLE = 0.0040885414256921205

_GAMMA_GRID = (0.1, 0.8, 1.7)


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


def _result(name, passed, measured, bound, seconds, details=None):
    return {
        "name": name,
        "passed": bool(passed),
        "measured": float(measured),
        "bound": float(bound),
        "seconds": round(seconds, 3),
        "details": details or {},
    }


def c01_special_identities(cfg: ValidationConfig) -> dict:
    """Mittag-Leffler identity suite at 1e-10 / 1e-12 relative."""
    t0 = time.perf_counter()
    x = np.linspace(0.0, 100.0, 201)
    rel1 = np.max(np.abs(ml_one(0.5, -x) - erfcx(x)) / erfcx(x))
    worst0 = 0.0
    for a, b, c in ((0.7, 1.3, 2.0), (0.3, 0.6, 1.5), (0.9, 2.0, 1.0), (1.0, 1.0, 1.0)):
        got = prabhakar(a, b, c, 0.0)
        ref = 1.0 / math.gamma(b)
        worst0 = max(worst0, abs(got - ref) / ref)
    z = np.linspace(-30.0, 3.0, 201)
    rel_exp = np.max(np.abs(prabhakar(1.0, 1.0, 1.0, z) - np.exp(z)) / np.exp(z))
    passed = rel1 <= 1e-10 and worst0 <= 1e-12 and rel_exp <= 1e-12
    return _result(
        "special-function identities",
        passed,
        max(rel1, worst0, rel_exp),
        1e-10,
        time.perf_counter() - t0,
        {"erfcx_identity": rel1, "at_zero": worst0, "exponential": rel_exp},
    )


def c02_kernel_transform(cfg: ValidationConfig) -> dict:
    """Kernel normalization within 1e-6 and Laplace transform equal to
    gamma/(gamma+s^beta) within 1e-6."""
    t0 = time.perf_counter()
    worst_norm = 0.0
    worst_lt = 0.0
    for beta in (0.3, 0.5, 0.7, 0.9, 0.99):
        for g in (0.1, 1.0, 1.7):
            k = MLKernelParams(beta, g)
            head, _ = quad(
                lambda u: ml_density(u ** (1 / beta), k) * u ** (1 / beta - 1) / beta,
                0.0,
                1.0,
                limit=200,
            )
            tail, _ = quad(lambda t: ml_density(t, k), 1.0, np.inf, limit=400)
            worst_norm = max(worst_norm, abs(head + tail - 1.0))
            for s in (0.1, 1.0, 10.0):
                got = forward_lt(
                    lambda t: ml_density(t, k), s, singular_exponent=beta
                )
                ref = g / (g + s ** beta)
                worst_lt = max(worst_lt, abs(got - ref))
    passed = worst_norm <= 1e-6 and worst_lt <= 1e-6
    return _result(
        "kernel normalization and transform",
        passed,
        max(worst_norm, worst_lt),
        1e-6,
        time.perf_counter() - t0,
        {"normalization": worst_norm, "transform": worst_lt},
    )


def c03_half_beta_consistency(cfg: ValidationConfig) -> dict:
    """The erfcx closed form and the Mittag-Leffler form agree at beta=1/2."""
    t0 = time.perf_counter()
    t = np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 400)])
    worst = 0.0
    for g in _GAMMA_GRID:
        p = ModelParams(1.0, 0.1, 0.5, g)
        a = lambda_exact_half(t, p)
        b = lambda_exact(t, p)
        worst = max(worst, np.max(np.abs(a - b) / b))
    return _result(
        "beta=1/2 closed form vs general form",
        worst <= 1e-9,
        worst,
        1e-9,
        time.perf_counter() - t0,
    )


def c04_intensity_vs_inversion(cfg: ValidationConfig) -> dict:
    """Exact expected intensity vs numerical Laplace inversion, 1e-4."""
    t0 = time.perf_counter()
    t = np.geomspace(0.05, 50.0, 160)
    worst = 0.0
    for beta in (0.5, 0.9):
        for g in _GAMMA_GRID:
            p = ModelParams(1.0, 0.1, beta, g)
            exact = lambda_exact(t, p)
            num, _ = ilt_grid(lambda_image(p), t)
            worst = max(worst, np.max(np.abs(num - exact) / exact))
    return _result(
        "expected intensity: exact vs numerical inversion",
        worst <= 1e-4,
        worst,
        1e-4,
        time.perf_counter() - t0,
    )


def c05_asymptote(cfg: ValidationConfig) -> dict:
    """Initial value, strict growth below the asymptote, the tail gap at
    t=100 against a frozen high-precision value, and the small-s slope of
    the image correction term."""
    t0 = time.perf_counter()
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
    return _result(
        "asymptote, tail gap, small-s slope",
        ok,
        gap_err,
        0.2,
        time.perf_counter() - t0,
        details,
    )


def _mc_vs_curve(p, times, replicas, seed, reference, engine="thinning"):
    counts = count_matrix(p, times, replicas, seed, engine)
    mc = counts.mean(axis=0)
    se = counts.std(axis=0, ddof=1) / math.sqrt(replicas)
    dev = np.abs(mc - reference) / se
    return mc, se, float(np.max(dev))


def c06_expected_count_half(cfg: ValidationConfig) -> dict:
    """Monte Carlo mean of N(t) within 3 standard errors of the beta=1/2
    closed form on t = 1..10 for each kernel time scale."""
    t0 = time.perf_counter()
    times = np.arange(1.0, 11.0)
    worst = 0.0
    details = {}
    for i, g in enumerate(_GAMMA_GRID):
        p = ModelParams(1.0, 0.1, 0.5, g)
        ref = expected_n_half(times, p)
        _, _, dev = _mc_vs_curve(p, times, cfg.replicas, cfg.seed + 60 + i, ref)
        details[f"gamma={g}"] = dev
        worst = max(worst, dev)
    return _result(
        "expected count vs closed form (beta=1/2)",
        worst <= 3.0,
        worst,
        3.0,
        time.perf_counter() - t0,
        details,
    )


def c07_expected_count_near_exponential(cfg: ValidationConfig) -> dict:
    """At beta=0.99 the Monte Carlo means match both the closed form and the
    numerical inversion of the expected-count image within 3 SE."""
    t0 = time.perf_counter()
    times = np.arange(1.0, 11.0)
    worst = 0.0
    details = {}
    for i, g in enumerate(_GAMMA_GRID):
        p = ModelParams(1.0, 0.1, 0.99, g)
        counts = count_matrix(p, times, cfg.replicas, cfg.seed + 70 + i)
        mc = counts.mean(axis=0)
        se = counts.std(axis=0, ddof=1) / math.sqrt(cfg.replicas)
        dev_exact = float(np.max(np.abs(mc - expected_n(times, p)) / se))
        dev_ilt = float(
            np.max(np.abs(mc - expected_n_ilt_curve(p, times)) / se)
        )
        details[f"gamma={g}"] = {"exact": dev_exact, "ilt": dev_ilt}
        worst = max(worst, dev_exact, dev_ilt)
    return _result(
        "expected count vs closed form and inversion (beta=0.99)",
        worst <= 3.0,
        worst,
        3.0,
        time.perf_counter() - t0,
        details,
    )


def c08_engine_agreement(cfg: ValidationConfig) -> dict:
    """Thinning and branching engines produce the same N(10) law
    (two-sample KS p > 0.01)."""
    t0 = time.perf_counter()
    p = ModelParams(1.0, 0.5, 0.5, 1.0)
    times = np.array([10.0])
    a = count_matrix(p, times, cfg.ks_replicas, cfg.seed + 80, "thinning")[:, 0]
    b = count_matrix(p, times, cfg.ks_replicas, cfg.seed + 80, "cluster")[:, 0]
    stat, pvalue = ks_2samp(a, b)
    return _result(
        "engine cross-validation (KS)",
        pvalue > 0.01,
        pvalue,
        0.01,
        time.perf_counter() - t0,
        {"ks_statistic": float(stat), "mean_thinning": float(a.mean()),
         "mean_cluster": float(b.mean())},
    )


def c09_poisson_limit(cfg: ValidationConfig) -> dict:
    """At alpha=0.01 the count distribution is close to Poisson(lambda0*t)
    in total variation."""
    t0 = time.perf_counter()
    bound = 0.05 * cfg.tv_scale
    worst = 0.0
    details = {}
    times = (1.0, 5.0, 10.0)
    for i, beta in enumerate((0.5, 0.9)):
        p = ModelParams(1.0, 0.01, beta, 1.0)
        counts = count_matrix(p, times, cfg.replicas, cfg.seed + 90 + i)
        for j, t in enumerate(times):
            dist = CountDistribution.from_counts(counts[:, j], t, p)
            kmax = max(dist.counts)
            tv = dist.tv_distance(poisson_reference_pmf(p.lambda0 * t, kmax + 30))
            details[f"beta={beta},t={t}"] = tv
            worst = max(worst, tv)
    return _result(
        "Poisson limit at small branching ratio (TV)",
        worst <= bound,
        worst,
        bound,
        time.perf_counter() - t0,
        details,
    )


def c10_exponential_limit(cfg: ValidationConfig) -> dict:
    """At beta=0.99 the count distribution matches the exponential-kernel
    process in total variation, with paired (seed, replica) indexing."""
    t0 = time.perf_counter()
    bound = 0.05 * cfg.tv_scale
    worst = 0.0
    details = {}
    times = (1.0, 5.0, 10.0)
    for i, alpha in enumerate((0.1, 0.5)):
        p = ModelParams(1.0, alpha, 0.99, 1.0)
        counts = count_matrix(p, times, cfg.replicas, cfg.seed + 100 + i)
        ref = count_matrix(p, times, cfg.replicas, cfg.seed + 100 + i, "exp_hawkes")
        for j, t in enumerate(times):
            dist = CountDistribution.from_counts(counts[:, j], t, p)
            tv = dist.tv_distance(empirical_pmf(ref[:, j]))
            details[f"alpha={alpha},t={t}"] = tv
            worst = max(worst, tv)
    return _result(
        "exponential-kernel limit at beta=0.99 (TV)",
        worst <= bound,
        worst,
        bound,
        time.perf_counter() - t0,
        details,
    )


def c11_poisson_rejected(cfg: ValidationConfig) -> dict:
    """At alpha=0.5 the Poisson reference is rejected (chi-square p < 0.01)."""
    t0 = time.perf_counter()
    worst_p = 0.0
    details = {}
    times = (5.0, 10.0)
    for i, beta in enumerate((0.5, 0.9)):
        p = ModelParams(1.0, 0.5, beta, 1.0)
        counts = count_matrix(p, times, cfg.replicas, cfg.seed + 110 + i)
        for j, t in enumerate(times):
            dist = CountDistribution.from_counts(counts[:, j], t, p)
            kmax = max(dist.counts)
            _, pvalue, _ = dist.chi_square(
                poisson_reference_pmf(p.lambda0 * t, kmax + 30)
            )
            details[f"beta={beta},t={t}"] = pvalue
            worst_p = max(worst_p, pvalue)
    return _result(
        "Poisson approximation rejected at strong excitation",
        worst_p < 0.01,
        worst_p,
        0.01,
        time.perf_counter() - t0,
        details,
    )


def c12_determinism(cfg: ValidationConfig, records: list | None = None) -> dict:
    """Two smoke runs with the same seed produce identical numerical
    reports (timings excluded).

    ``records`` are the c01-c11 records this smoke run already computed;
    they serve as the first run, so only one more is needed.
    """
    t0 = time.perf_counter()
    if cfg.smoke and records is not None:
        r1 = _report(cfg, records)
    else:
        r1 = run_validation(smoke=True, seed=cfg.seed, include_determinism=False)
    r2 = run_validation(smoke=True, seed=cfg.seed, include_determinism=False)
    same = _canonical(r1) == _canonical(r2)
    return _result(
        "seeded determinism of the validation run",
        same,
        0.0 if same else 1.0,
        0.0,
        time.perf_counter() - t0,
    )


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


def _canonical(report: dict) -> str:
    """Report serialization with volatile fields (timings) removed."""
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


def run_validation(
    smoke: bool = False, seed: int = 20240801, include_determinism: bool = True
) -> dict:
    """Execute the criteria and return the report dict.

    Never raises on a criterion failure; each record carries name, measured
    value, bound, pass flag and wall time.  c12 compares a smoke run's own
    c01-c11 records against one seeded rerun.
    """
    cfg = ValidationConfig(seed=seed, smoke=smoke)
    records = [_run(fn, cfg) for fn in CRITERIA[:-1]]
    if include_determinism:
        records.append(_run(c12_determinism, cfg, records))
    return _report(cfg, records)


def _run(criterion, *args) -> dict:
    try:
        return criterion(*args)
    except Exception as exc:  # criterion crash counts as failure
        return _result(criterion.__name__, False, math.nan, math.nan, 0.0,
                       {"error": repr(exc)})
