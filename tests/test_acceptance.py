"""Acceptance gate: each criterion of the validation suite at its stated
tolerance and full replica counts, one test per criterion, printing one
PASS/FAIL line each.

The same implementations back ``fhawkes validate``; seeds are pinned so the
Monte Carlo criteria are reproducible.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from fhawkes import DomainError, ml_density
from fhawkes import validation as v

_CFG = v.ValidationConfig(seed=20240801, smoke=False)

_CASES = [
    ("c01", v.c01_special_identities, 5.0),
    ("c02", v.c02_kernel_transform, 30.0),
    ("c03", v.c03_half_beta_consistency, 5.0),
    ("c04", v.c04_intensity_vs_inversion, 60.0),
    ("c05", v.c05_asymptote, 30.0),
    ("c06", v.c06_expected_count_half, 300.0),
    ("c07", v.c07_expected_count_near_exponential, 300.0),
    ("c08", v.c08_engine_agreement, 300.0),
    ("c09", v.c09_poisson_limit, 300.0),
    ("c10", v.c10_exponential_limit, 300.0),
    ("c11", v.c11_poisson_rejected, 300.0),
]


@pytest.mark.parametrize("tag,criterion,budget", _CASES, ids=[c[0] for c in _CASES])
def test_criterion(tag, criterion, budget):
    rec = v._run(criterion, _CFG)
    status = "PASS" if rec["passed"] else "FAIL"
    print(
        f"\nACCEPTANCE {tag} [{status}] {rec['name']}: "
        f"measured={rec['measured']:.6g} bound={rec['bound']:.6g} "
        f"({rec['seconds']:.1f}s)"
    )
    assert rec["passed"], rec
    assert rec["seconds"] < budget, f"{tag} exceeded its runtime budget"


def test_criterion_c12_determinism(tmp_path):
    """Two seeded CLI validation runs produce identical numerical output."""
    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "fhawkes.cli", "validate", "--smoke",
             "--seed", "31415", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=1200,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        reports.append(json.loads(out.read_text()))

    same = v._canonical(reports[0]) == v._canonical(reports[1])
    print(f"\nACCEPTANCE c12 [{'PASS' if same else 'FAIL'}] seeded determinism")
    assert same


def test_c02_evaluates_each_kernel_on_one_mesh(monkeypatch):
    """c02 integrates the mass and its three transforms on one shared mesh
    per kernel: 165 density calls on 6300 points, where one mesh per
    integrand took 414 calls on 14868 points."""
    calls = []

    def counted(t, k):
        calls.append(np.size(t))
        return ml_density(t, k)

    monkeypatch.setattr(v, "ml_density", counted)
    rec = v.c02_kernel_transform(_CFG)
    assert rec["passed"], rec
    assert len(calls) <= 200 and sum(calls) <= 7000, (len(calls), sum(calls))
    assert all(type(x) is float for x in rec["details"].values())


def test_negative_seed_raises_before_any_criterion(monkeypatch):
    def no_criteria(cfg):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(v, "_records", no_criteria)
    for seed in (-1, -100):
        with pytest.raises(DomainError, match="seed"):
            v.run_validation(smoke=True, seed=seed)
