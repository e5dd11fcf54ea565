"""Per-layer timings: a fixed set of calls into every module, timed one call
at a time.  The same set runs after the rounds of every traced run, so each
traced run reports every layer metric; only ``validation.*`` comes from a
``validate --smoke`` report, the workload's own where it has one.

Each metric's value is the median of its samples; ``summaries`` also holds
the sample count and, from forty samples on, a tail percentile.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

from core import summarize, timed
from wl_curves import band_z

from fhawkes import analytics, harness, io, laplace, simulate, special
from fhawkes.analytics import ModelParams
from fhawkes.special import MLKernelParams

HORIZON_TAGS = {10.0: "h10", 100.0: "h100", 1000.0: "h1000"}
FIRST_PATHS = {10.0: 3, 100.0: 2, 1000.0: 1}
NEXT_PATHS = {10.0: 20, 100.0: 6, 1000.0: 2}
CLUSTER_PATHS = {10.0: 100, 100.0: 60, 1000.0: 40}


def _prabhakar(rng):
    """Microseconds per argument for each regime; every sample covers all of
    the regime's shapes, so the samples are alike."""
    regimes = {
        "series_band": ([(0.5, 1.0, 1.0), (0.9, 0.9, 1.0), (0.3, 2.0, 1.0), (0.7, 1.3, 2.0)],
                        lambda shape: band_z(rng, 25, shape)),
        "large_neg_spectral": ([(0.5, 1.0, 1.0), (0.5, 0.5, 1.0), (0.9, 1.0, 1.0),
                                (0.9, 0.9, 1.0)], lambda shape: _large(rng, 125)),
        "large_neg_general": ([(0.7, 1.3, 2.0)], lambda shape: _large(rng, 100)),
    }
    out = {regime: [] for regime in regimes}
    for _ in range(8):
        for regime, (shapes, draw) in regimes.items():
            seconds, args = 0.0, 0
            for shape in shapes:
                z = draw(shape)
                seconds += timed(special.prabhakar, *shape, z)[1]
                args += z.size
            out[regime].append(1e6 * seconds / args)
    return out


def _large(rng, n):
    """``n`` arguments log-uniform on [-1e6, -40]."""
    return -np.exp(rng.uniform(np.log(40.0), np.log(1e6), n))


def _image_evals_per_point(p, ts):
    img = analytics.lambda_image(p)
    n_nodes = []

    def counted(s):
        n_nodes.append(np.size(s))
        return img(s)

    laplace.ilt_grid(laplace.LaplaceImage(counted, img.sigma0), ts)
    return sum(n_nodes) / len(ts)


def _simulate(rng, seed):
    p = ModelParams(1.0, 0.5, 0.5, 1.0)
    s = {}
    paths = {}
    for h, tag in HORIZON_TAGS.items():
        first, nxt, clus, events = [], [], [], []
        for _ in range(FIRST_PATHS[h]):
            # a horizon no earlier call used, so the kernel table is built
            hh = h * (1.0 + 1e-3 * (1.0 + rng.random()))
            seq, dt = timed(simulate.simulate_thinning, p, hh, seed, 0)
            first.append(1e3 * dt)
            events.append(len(seq))
        for r in range(1, NEXT_PATHS[h] + 1):
            seq, dt = timed(simulate.simulate_thinning, p, hh, seed, r)
            nxt.append(1e3 * dt)
            events.append(len(seq))
            paths.setdefault(("thinning", h), []).append(seq)
        for r in range(CLUSTER_PATHS[h]):
            seq, dt = timed(simulate.simulate_cluster, p, hh, seed, r)
            clus.append(1e3 * dt)
            events.append(len(seq))
            paths.setdefault(("cluster", h), []).append(seq)
        s[f"simulate.thinning_first_path_ms.{tag}"] = (first, "ms")
        s[f"simulate.thinning_path_ms.{tag}"] = (nxt, "ms")
        s[f"simulate.cluster_path_ms.{tag}"] = (clus, "ms")
        s[f"simulate.events_per_path.{tag}"] = ([float(np.mean(events))], "count")
        if h == 10.0:
            h10 = hh

    along = paths["thinning", 100.0][0]
    calls = []
    for t in np.sort(rng.uniform(0.05, 1.0, 10)) * along.horizon:
        _, dt = timed(simulate.intensity, float(t), along, p)
        calls.append(1e3 * dt)
    s["simulate.intensity_call_ms"] = (calls, "ms")

    for engine, reps in (("thinning", 100), ("cluster", 500)):
        per_1k = []
        for k in range(5):
            _, dt = timed(harness.count_matrix, p, [h10], reps, seed + 1 + k, engine)
            per_1k.append(dt * 1000 / reps)
        s[f"harness.count_matrix_s_per_1k.{engine}"] = (per_1k, "s")

    return s, paths["cluster", 1000.0]


def _roundtrip(seqs, out_dir):
    target = out_dir / "probe-events.csv"
    per_1k = []
    try:
        for k in range(5):
            group = seqs[8 * k: 8 * k + 8]
            n = sum(len(q) for q in group)
            t0 = time.perf_counter()
            io.write_events_csv(target, group)
            io.read_events_csv(target)
            per_1k.append(1e3 * (time.perf_counter() - t0) * 1000 / n)
    finally:
        target.unlink(missing_ok=True)
    return per_1k


def _cli_startup():
    out = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "fhawkes.cli", "--help"],
                       stdout=subprocess.DEVNULL, check=True)
        out.append(time.perf_counter() - t0)
    return out


def measure(seed: int, out_dir, criterion_seconds: dict) -> tuple[dict, dict]:
    """``(metrics, summaries)``: metric name -> (median, unit), and metric
    name -> summary of its samples.  ``criterion_seconds`` maps c01..c12 to
    the seconds read from validation reports."""
    rng = np.random.default_rng([seed, 9])
    samples: dict[str, tuple[list, str]] = {}

    for regime, xs in _prabhakar(rng).items():
        samples[f"special.prabhakar_us_per_arg.{regime}"] = (xs, "us")
    kern = MLKernelParams(0.7, 1.0)
    ts = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), 400))
    samples["special.ml_density_scalar_us"] = (
        [1e6 * timed(special.ml_density, float(t), kern)[1] for t in ts], "us")
    gen = np.random.default_rng([seed, 10])
    samples["special.ml_sample_us_per_1k"] = (
        [1e6 * timed(special.ml_sample, gen, kern, 1000)[1] for _ in range(50)], "us")

    p = ModelParams(1.0, 0.5, 0.7, 0.8)
    img = analytics.lambda_image(p)
    pts = np.exp(rng.uniform(np.log(1e-2), np.log(1e3), 40))
    samples["laplace.ilt_ms_per_point"] = (
        [1e3 * timed(laplace.ilt, img, float(t))[1] for t in pts], "ms")
    samples["laplace.image_evals_per_point"] = ([_image_evals_per_point(p, pts[:4])], "count")

    grid = np.sort(np.exp(rng.uniform(np.log(1e-2), np.log(1e3), 100)))
    sets = [ModelParams(1.0, 0.5, b, g) for b in (0.3, 0.5, 0.7, 0.9, 0.99) for g in (0.8, 1.7)]
    for name in ("lambda_exact", "expected_n"):
        fn = getattr(analytics, name)
        samples[f"analytics.{name}_us_per_point"] = (
            [1e6 * timed(fn, grid, q)[1] / grid.size for q in sets], "us")
    samples["harness.expected_n_ilt_curve_ms"] = (
        [1e3 * timed(harness.expected_n_ilt_curve, q, np.arange(1.0, 11.0))[1]
         for q in sets[::2]], "ms")

    sim, seqs = _simulate(rng, seed)
    samples.update(sim)
    samples["io.events_roundtrip_ms_per_1k"] = (_roundtrip(seqs, out_dir), "ms")
    samples["cli.startup_s"] = (_cli_startup(), "s")
    for key, xs in sorted(criterion_seconds.items()):
        samples[f"validation.{key}_s"] = (xs, "s")

    metrics = {name: (summarize(xs)["median"], unit) for name, (xs, unit) in samples.items()}
    summaries = {name: summarize(xs) for name, (xs, unit) in samples.items()}
    return metrics, summaries
