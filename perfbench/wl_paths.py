"""``paths``: simulated paths from both engines at three horizons, the
conditional intensity along some of them, and an events-file round trip.

All the work is in ``simulate`` and ``harness``.  ``special`` is reached
through the thinning kernel-table build and through ``intensity()``; the
cluster engine reaches only ``ml_sample``.  Each round jitters the horizons
by less than 0.1%, so every round builds its kernel tables afresh, as every
``fhawkes simulate`` process does.  An operation is one path, one intensity
query or one file round trip.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass

import numpy as np
from scipy.stats import ks_2samp

from reference import count_variance_bound, intensity_half

from fhawkes import analytics, harness, io, simulate
from fhawkes.analytics import ModelParams

LAMBDA0, ALPHA, GAMMA = 1.0, 0.5, 1.0
BETAS = (0.5, 0.9)
HORIZONS = (10.0, 100.0, 1000.0)
REPLICAS = {10.0: 40, 100.0: 10, 1000.0: 4}  # per engine, beta and round
TIME_FRACTIONS = (0.1, 0.25, 0.5, 1.0)
ENGINES = ("thinning", "cluster")
# intensity() is queried along the first paths at beta = 1/2, H = 100,
# where the erfc form of the kernel gives an independent value
INTENSITY_H, N_INTENSITY_PATHS, N_QUERIES = 100.0, 2, 5

MEAN_SE_BOUND = 5.0  # standard errors, from the variance bound
KS_P_MIN = 1e-6
INTENSITY_RTOL = 1e-9


@dataclass(frozen=True)
class Inputs:
    seed: int
    out_dir: pathlib.Path


@dataclass(frozen=True)
class RoundInputs:
    sim_seed: int
    horizons: dict
    queries: np.ndarray
    events_file: pathlib.Path


def params(beta: float) -> ModelParams:
    return ModelParams(LAMBDA0, ALPHA, beta, GAMMA)


def make_inputs(seed: int, out_dir: pathlib.Path) -> Inputs:
    return Inputs(seed, out_dir)


def round_inputs(inp: Inputs, r: int) -> RoundInputs:
    rng = np.random.default_rng([inp.seed, 2, r])
    horizons = {h: h * (1.0 + 1e-3 * rng.random()) for h in HORIZONS}
    hq = horizons[INTENSITY_H]
    queries = np.sort(rng.uniform(0.05 * hq, hq, (N_INTENSITY_PATHS, N_QUERIES)), axis=1)
    events = inp.out_dir / f"events-{inp.seed}-{os.getpid()}-{r}.csv"
    return RoundInputs(int(rng.integers(2**31)), horizons, queries, events)


def run_round(rin: RoundInputs, tr, tally) -> dict:
    counts = {}
    for beta in BETAS:
        p = params(beta)
        for h in HORIZONS:
            times = rin.horizons[h] * np.asarray(TIME_FRACTIONS)
            for engine in ENGINES:
                counts[beta, h, engine] = tally.attempt(
                    lambda: tr.call("harness.count_matrix", harness.count_matrix,
                                    p, times, REPLICAS[h], rin.sim_seed, engine),
                    weight=REPLICAS[h])
    # paths again, one by one, for intensity queries and the file round trip
    p = params(0.5)
    hq = rin.horizons[INTENSITY_H]
    sims = {"thinning": simulate.simulate_thinning, "cluster": simulate.simulate_cluster}
    paths = {
        engine: [tally.attempt(lambda: tr.call(f"simulate.simulate_{engine}", sims[engine],
                                               p, hq, rin.sim_seed, k))
                 for k in range(N_INTENSITY_PATHS)]
        for engine in ENGINES
    }
    lam = [
        [tally.attempt(lambda: tr.call("simulate.intensity", simulate.intensity,
                                       float(t), path, p))
         if path is not None else tally.attempt(lambda: _missing("path"))
         for t in rin.queries[k]]
        for k, path in enumerate(paths["thinning"])
    ]
    back = {}
    for engine in ENGINES:
        seqs = [s for s in paths[engine] if s is not None]
        back[engine] = tally.attempt(lambda: _roundtrip(rin.events_file, seqs, tr))
    return {"counts": counts, "paths": paths, "intensity": lam, "roundtrip": back}


def _missing(what):
    raise RuntimeError(f"input {what} unavailable: the operation producing it failed")


def _roundtrip(path: pathlib.Path, seqs, tr):
    try:
        tr.call("io.write_events_csv", io.write_events_csv, path, seqs)
        return tr.call("io.read_events_csv", io.read_events_csv, path)
    finally:
        path.unlink(missing_ok=True)


def check(rounds) -> list[str]:
    bad = []
    for beta in BETAS:
        p = params(beta)
        for h in HORIZONS:
            finals = {}
            for engine in ENGINES:
                dev, n, last = 0.0, 0, []
                var = 0.0
                for rin, out in rounds:
                    c = out["counts"][beta, h, engine]
                    if c is None:
                        continue
                    times = rin.horizons[h] * np.asarray(TIME_FRACTIONS)
                    dev = dev + (c - analytics.expected_n(times, p)).sum(axis=0)
                    var = var + c.shape[0] * count_variance_bound(times, LAMBDA0, ALPHA)
                    n += c.shape[0]
                    last.append(c[:, -1])
                if n == 0:
                    continue
                z = np.abs(dev) / np.sqrt(var)
                if not np.all(z <= MEAN_SE_BOUND):
                    bad.append(f"{engine} mean N(t) at beta={beta}, H={h:g} is "
                               f"{z.max():.1f} standard errors from expected_n")
                finals[engine] = np.concatenate(last)
            if len(finals) == 2:
                pvalue = ks_2samp(finals["thinning"], finals["cluster"]).pvalue
                if not pvalue >= KS_P_MIN:
                    bad.append(f"KS thinning vs cluster at beta={beta}, H={h:g}: "
                               f"p={pvalue:.2e}")
    p = params(0.5)
    for rin, out in rounds:
        hq = rin.horizons[INTENSITY_H]
        times = hq * np.asarray(TIME_FRACTIONS)
        for engine in ENGINES:
            rows = out["counts"][0.5, INTENSITY_H, engine]
            for k, seq in enumerate(out["paths"][engine]):
                if seq is None or rows is None:
                    continue
                if not np.array_equal(np.searchsorted(seq.epochs, times, side="right"),
                                      rows[k]):
                    bad.append(f"{engine} path {k} differs from count_matrix row {k}")
            got = out["roundtrip"][engine]
            if got is not None:
                want = {s.replica: s.epochs for s in out["paths"][engine]
                        if s is not None and len(s)}
                if set(got) != set(want) or not all(
                        np.array_equal(got[k], want[k]) for k in want):
                    bad.append(f"events round trip of {engine} paths is not exact")
        for k, seq in enumerate(out["paths"]["thinning"]):
            for t, val in zip(rin.queries[k], out["intensity"][k]):
                if val is None:
                    continue
                ref = intensity_half(t, seq.epochs, LAMBDA0, ALPHA, GAMMA)
                if not (val >= LAMBDA0 and abs(val - ref) <= INTENSITY_RTOL * ref):
                    bad.append(f"intensity at t={t:g}: {val!r} vs erfc form {ref!r}")
    return bad

