#!/usr/bin/env python3
"""fhawkes benchmark: one workload, timed from outside the library.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run repeats whole rounds of the
workload's operations until ``--seconds`` have passed, checks every output
against values computed apart from the code under test, and prints one JSON
object as its last line of standard output:

* ``--trace 0``: the end-to-end metrics (tracing off);
* ``--trace 1``: rounds alternate tracing off and on (spans around every
  call the benchmark makes into a module); the run reports the per-layer
  metrics and the tracing overhead, and writes its spans and per-module self
  times to ``.perfbench_out/``.

A human-readable summary goes to standard error.  Exit code 0 means the
run completed; ``correct`` in the JSON says whether the checks passed.
"""

import os

# One thread everywhere, set before numpy loads: the numbers should measure
# the program, not the scheduler.  Child processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from core import Tally, Tracer  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = {"curves": "wl_curves", "paths": "wl_paths", "validate-smoke": "wl_validate"}
SETUP_REPEATS = 3


def use_checkout_sources() -> bool:
    """Import ``fhawkes`` from the checkout's ``src/``, in this process and
    in the processes it starts; False when there are no sources."""
    if not (SRC / "fhawkes" / "__init__.py").is_file():
        print(f"perfbench: no fhawkes sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    OUT_DIR.mkdir(exist_ok=True)
    return True


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, generate inputs, print 'ready' and exit "
                         "(what setup_s times)")
    return ap.parse_args(argv)


def _setup_seconds(args) -> list[float]:
    """Set-up time of fresh processes: start to library imported and inputs
    generated, measured by this process around each child."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        out.append(dt)
    return out


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not use_checkout_sources():
        return 2

    if args.setup_only:
        wl = importlib.import_module(WORKLOADS[args.workload])
        wl.round_inputs(wl.make_inputs(args.seed, OUT_DIR), 0)
        print("ready", flush=True)
        return 0

    setup = _setup_seconds(args)
    wl = importlib.import_module(WORKLOADS[args.workload])
    inputs = wl.make_inputs(args.seed, OUT_DIR)
    tracer = Tracer()
    tally = Tally()
    rounds, walls = [], {False: [], True: []}
    t_start = time.perf_counter()
    timed_s = 0.0
    # whole rounds until the time is up; a traced run alternates untraced
    # and traced rounds and has at least one of each
    while (not rounds or time.perf_counter() - t_start < args.seconds
           or (args.trace and len(rounds) < 2)):
        tracer.enabled = bool(args.trace) and len(rounds) % 2 == 1
        rin = wl.round_inputs(inputs, len(rounds))
        t0 = time.perf_counter()
        with tracer.span("bench.round"):
            out = wl.run_round(rin, tracer, tally)
        dt = time.perf_counter() - t0
        timed_s += dt
        walls[tracer.enabled].append(dt)
        rounds.append((rin, out))
    tracer.enabled = False

    problems = wl.check(rounds)
    for msg in problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    done = tally.attempted - tally.failed
    result = {"correct": not problems, "attempted": tally.attempted, "failed": tally.failed}

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls[False]), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "ops_per_s": (done / timed_s, "1/s"),
        }
    else:
        import layers

        criteria = (wl.criterion_seconds(rounds) if hasattr(wl, "criterion_seconds")
                    else _criterion_seconds_from_gate(args.seed))
        metrics, summaries = layers.measure(args.seed, OUT_DIR, criteria)
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics["trace.overhead_s"] = (overhead, "s")
        _write_trace(args, tracer, walls, summaries)

    print(f"perfbench: {args.workload} seed={args.seed}: {len(rounds)} rounds, "
          f"{timed_s:.2f} s timed, {tally.attempted} operations, "
          f"{tally.failed} failed, checks {'passed' if not problems else 'FAILED'}",
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}", file=sys.stderr)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    print(json.dumps(result), flush=True)
    return 0


def _criterion_seconds_from_gate(seed):
    """Per-criterion seconds from one ``validate --smoke`` run, for
    workloads that do not run the gate themselves."""
    import wl_validate

    inp = wl_validate.make_inputs(seed, OUT_DIR)
    rin = wl_validate.round_inputs(inp, 0)
    out = wl_validate.run_round(rin, Tracer(), Tally())
    return wl_validate.criterion_seconds([(rin, out)])


def _write_trace(args, tracer, walls, summaries):
    self_s = tracer.self_seconds()
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "round_seconds": {"untraced": walls[False], "traced": walls[True]},
        "self_seconds_by_module": self_s,
        "calls_and_seconds_by_span": tracer.totals(),
        "layer_timings": summaries,
        "spans": [[s.ident, s.name, s.start, s.end, s.parent] for s in tracer.spans],
    }
    path.write_text(json.dumps(payload))
    print(f"perfbench: self time by module over {len(walls[True])} traced round(s):",
          file=sys.stderr)
    for module, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {module:12s} {secs:10.4f} s", file=sys.stderr)
    print("perfbench: calls and seconds by span:", file=sys.stderr)
    for name, (calls, secs) in sorted(tracer.totals().items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:36s} {calls:6d} {secs:10.4f} s", file=sys.stderr)
    print(f"perfbench: spans written to {path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
