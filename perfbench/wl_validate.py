"""``validate-smoke``: the acceptance gate ``fhawkes validate --smoke`` as a
separate process, the way every change runs it.

It is the only workload where ``validation`` and ``cli`` do the work.  The
validation seed is the library's pinned one: its statistical criteria are
calibrated to that seed, so the workload seed only names the report file.
An operation is one criterion.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
from dataclasses import dataclass

from fhawkes import io
from fhawkes.validation import CRITERIA

N_CRITERIA = len(CRITERIA)


@dataclass(frozen=True)
class Inputs:
    seed: int
    out_dir: pathlib.Path


@dataclass(frozen=True)
class RoundInputs:
    report: pathlib.Path


def make_inputs(seed: int, out_dir: pathlib.Path) -> Inputs:
    return Inputs(seed, out_dir)


def round_inputs(inp: Inputs, r: int) -> RoundInputs:
    return RoundInputs(inp.out_dir / f"report-{inp.seed}-{os.getpid()}-{r}.json")


def run_validate(report: pathlib.Path) -> int:
    """Run the gate as a subprocess; its return code."""
    proc = subprocess.run(
        [sys.executable, "-m", "fhawkes.cli", "validate", "--smoke", "--out", str(report)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
    return proc.returncode


def run_round(rin: RoundInputs, tr, tally) -> dict:
    code = tr.call("cli.validate", run_validate, rin.report)
    report = None
    try:
        report = tr.call("io.read_report_json", io.read_report_json, rin.report)
    except (OSError, ValueError) as exc:
        print(f"perfbench: no readable report: {exc!r}", file=sys.stderr)
    finally:
        rin.report.unlink(missing_ok=True)
    tally.attempted += N_CRITERIA
    records = report.get("criteria", []) if isinstance(report, dict) else []
    passed = sum(1 for rec in records if rec.get("passed") is True)
    tally.failed += N_CRITERIA - passed
    return {"returncode": code, "report": report}


def check_report(code: int, report) -> list[str]:
    if report is None:
        return ["the validation report is missing or does not parse"]
    bad = []
    if code != 0:
        bad.append(f"fhawkes validate --smoke exited with code {code}")
    records = report.get("criteria", [])
    if len(records) != N_CRITERIA:
        bad.append(f"report has {len(records)} criteria, expected {N_CRITERIA}")
    bad += [f"criterion failed: {rec.get('name')}" for rec in records
            if rec.get("passed") is not True]
    if report.get("mode") != "smoke" or report.get("all_passed") is not True:
        bad.append("report is not a passing smoke report")
    return bad


def check(rounds) -> list[str]:
    bad = []
    for _, out in rounds:
        bad += check_report(out["returncode"], out["report"])
    return bad


def criterion_seconds(rounds) -> dict[str, list[float]]:
    """``seconds`` of each criterion, by position (c01 ... c12)."""
    out: dict[str, list[float]] = {}
    for _, res in rounds:
        if res["report"] is None:
            continue
        for i, rec in enumerate(res["report"].get("criteria", []), start=1):
            out.setdefault(f"c{i:02d}", []).append(float(rec["seconds"]))
    return out
