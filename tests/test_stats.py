"""The statistics behind the validation criteria, checked bit for bit
against ``scipy.stats``, which the library itself does not import."""

import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.stats import chisquare, ks_2samp, poisson

from fhawkes import DomainError
from fhawkes import harness
from fhawkes.harness import CountDistribution, poisson_reference_pmf
from fhawkes.validation import _ks_two_sample


def _ks_cases():
    """Equal-size integer samples with ties: n in [5, 600] plus n = 5000;
    every seventh pair is a permutation of one sample (D = 0); the shifted
    ranges 0..n-1 and h..n+h-1 give D = h/n exactly, for small h."""
    rng = np.random.default_rng(20240801)
    sizes = [int(n) for n in rng.integers(5, 601, 1000)] + [5000] * 3
    for i, n in enumerate(sizes):
        mu = rng.uniform(0.3, 30.0)
        a = rng.poisson(mu, n)
        if i % 7 == 0:
            yield a, rng.permutation(a)
        else:
            yield a, rng.poisson(mu * rng.uniform(0.8, 1.25), n)
    for n in range(5, 121):
        for h in (1, 2, 3):
            yield np.arange(n), np.arange(h, n + h)


def test_ks_matches_scipy_exact():
    fallbacks = zeros = 0
    for a, b in _ks_cases():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ref = ks_2samp(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stat, pvalue = _ks_two_sample(a, b)
        assert stat == ref.statistic
        zeros += stat == 0.0
        if caught:
            # Hodges' sum rounded past 1: scipy warns and falls back to its
            # asymptotic p, which lies within 4e-5 of 1 (worst at n = 7)
            fallbacks += 1
            assert pvalue == 1.0
            assert abs(ref.pvalue - 1.0) <= 5e-5
        else:
            assert pvalue == ref.pvalue
    assert zeros > 0 and fallbacks > 0


@pytest.mark.parametrize("a,b", [([], []), ([1, 2], [1, 2, 3]), ([1], [])])
def test_ks_rejects_empty_or_unequal(a, b):
    with pytest.raises(DomainError, match="KS test"):
        _ks_two_sample(np.array(a), np.array(b))


def test_chi_square_matches_scipy(monkeypatch):
    pearson = harness._pearson
    calls = []

    def checked(obs, exp):
        got = pearson(obs, exp)
        ref = chisquare(obs, exp)
        assert got == (ref.statistic, ref.pvalue, obs.size - 1)
        calls.append(obs.size)
        return got

    monkeypatch.setattr(harness, "_pearson", checked)
    rng = np.random.default_rng(7)
    for _ in range(500):
        mu = rng.uniform(0.5, 40.0)
        draws = rng.poisson(mu * rng.uniform(0.9, 1.1), int(rng.integers(50, 5000)))
        d = CountDistribution.from_counts(draws, 1.0)
        d.chi_square(poisson_reference_pmf(mu, int(draws.max()) + 10))
    assert len(calls) == 500 and min(calls) >= 2


@pytest.mark.parametrize("mean", [0.0, 0.01, 1.0, 10.0, 37.3, 700.0])
def test_poisson_pmf_matches_scipy(mean):
    pmf = poisson_reference_pmf(mean, 1500)
    assert list(pmf) == list(range(1501))
    np.testing.assert_array_equal(
        list(pmf.values()), poisson.pmf(np.arange(1501), mean)
    )


def test_cli_import_leaves_scipy_stats_out():
    code = "import sys, fhawkes.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
