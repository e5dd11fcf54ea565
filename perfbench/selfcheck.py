#!/usr/bin/env python3
"""Self-check of the benchmark (takes a few minutes):

* the metric names each mode prints match ``BENCHMARK.json``, and every
  end-to-end metric is > 0 on a clean run;
* every correctness check accepts a clean round and rejects a deliberately
  perturbed copy of its output.

    python3 perfbench/selfcheck.py

Exit code 0 when every item holds.
"""

import copy
import json
import subprocess
import sys

import run  # sets the thread pins and the paths

if not run.use_checkout_sources():
    sys.exit(2)

import wl_curves  # noqa: E402
import wl_paths  # noqa: E402
import wl_validate  # noqa: E402
from core import Tally, Tracer  # noqa: E402

SEED = 7
failures = []


def expect(label: str, ok: bool):
    print(f"[{'ok' if ok else 'FAIL'}] {label}", flush=True)
    if not ok:
        failures.append(label)


def one_round(wl, known_faults=lambda out: 0):
    """One round; only the operations ``known_faults`` counts may fail."""
    rin = wl.round_inputs(wl.make_inputs(SEED, run.OUT_DIR), 0)
    tally = Tally()
    out = wl.run_round(rin, Tracer(), tally)
    expect(f"{wl.__name__}: no failed operation beyond the known faults",
           tally.failed == known_faults(out))
    return rin, out


def rejects(wl, rin, out, label, perturb):
    bad = copy.deepcopy(out)
    perturb(bad)
    problems = wl.check([(rin, bad)])
    expect(f"{wl.__name__}: check rejects {label}", bool(problems))


def check_metric_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    runs = [(w["name"], 0) for w in spec["workloads"]] + [("curves", 1)]
    for workload, trace in runs:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        names = list(res["metrics"])
        want = layer if trace else e2e
        expect(f"{workload} --trace {trace}: exit 0 and correct",
               proc.returncode == 0 and res["correct"])
        expect(f"{workload} --trace {trace}: metric names match BENCHMARK.json",
               sorted(names) == sorted(want))
        if not trace:
            expect(f"{workload}: every end-to-end metric > 0",
                   all(res["metrics"][n]["value"] > 0 for n in names))


def check_curves():
    rin, out = one_round(wl_curves, lambda out: int(out["at_root"] is None))
    expect("curves: clean round passes its checks", not wl_curves.check([(rin, out)]))

    def scale(key, factor, pick=lambda recs: recs[0]):
        def f(o):
            rec = pick(o["curves"])
            rec[key] = rec[key] * factor
        return f

    half = lambda recs: next(r for r in recs if r["p"].beta == 0.5)  # noqa: E731
    rejects(wl_curves, rin, out, "ILT values scaled by 1 + 1e-3", scale("lam_ilt", 1 + 1e-3))
    rejects(wl_curves, rin, out, "the E[N] ILT curve scaled by 1 + 2e-2",
            scale("en_ilt", 1 + 2e-2))
    rejects(wl_curves, rin, out, "the erfcx form of lambda scaled by 1 + 1e-8",
            scale("lam_half", 1 + 1e-8, half))
    rejects(wl_curves, rin, out, "the erfcx form of E[N] scaled by 1 + 1e-8",
            scale("en_half", 1 + 1e-8, half))

    def flat_lambda(o):
        lam = o["curves"][3]["lam"]
        lam[10] = lam[9]

    def falling_count(o):
        en = o["curves"][3]["en"]
        en[10] = en[9] * (1 - 1e-12)

    def prabhakar_off(o):
        shape = rin.shapes[0]
        o["prabhakar"][shape][rin.mp_pick[shape][0]] *= 1 + 1e-8

    rejects(wl_curves, rin, out, "lambda not rising strictly", flat_lambda)
    rejects(wl_curves, rin, out, "E[N] decreasing at one point", falling_count)
    rejects(wl_curves, rin, out, "a Prabhakar value off by 1e-8 relative", prabhakar_off)


def check_paths():
    rin, out = one_round(wl_paths)
    expect("paths: clean round passes its checks", not wl_paths.check([(rin, out)]))

    def drop_event_read_back(o):
        arrays = o["roundtrip"]["thinning"]
        arrays[0] = arrays[0][:-1]

    def drop_event_path(o):
        seq = o["paths"]["cluster"][0]
        o["paths"]["cluster"][0] = type(seq)(seq.epochs[1:], seq.horizon, seq.seed,
                                             seq.engine, seq.replica, seq.params)

    def intensity_off(o):
        o["intensity"][0][0] *= 1 + 1e-6

    def shifted_counts(o):
        for key, c in o["counts"].items():
            if key[1] == 10.0 and key[2] == "cluster":
                o["counts"][key] = c + 6

    rejects(wl_paths, rin, out, "a read-back path with one event dropped", drop_event_read_back)
    rejects(wl_paths, rin, out, "a path with one event dropped", drop_event_path)
    rejects(wl_paths, rin, out, "an intensity value off by 1e-6 relative", intensity_off)
    rejects(wl_paths, rin, out, "cluster counts shifted by 6 events", shifted_counts)


def check_validate():
    rin, out = one_round(wl_validate)
    expect("validate-smoke: clean report passes its checks",
           not wl_validate.check([(rin, out)]))

    def flip(o):
        o["report"]["criteria"][4]["passed"] = False

    def exit_code(o):
        o["returncode"] = 3

    def lost(o):
        o["report"] = None

    rejects(wl_validate, rin, out, "a report with one criterion flipped to failed", flip)
    rejects(wl_validate, rin, out, "a nonzero exit code", exit_code)
    rejects(wl_validate, rin, out, "a missing report", lost)


if __name__ == "__main__":
    check_curves()
    check_paths()
    check_validate()
    check_metric_names()
    print(f"selfcheck: {len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
