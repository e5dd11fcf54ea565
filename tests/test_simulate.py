"""Simulation engines: intensity evaluation, limit laws, engine agreement,
determinism, and budget behavior."""

import math

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp, poisson

from fhawkes import (
    AccuracyError,
    BudgetError,
    DomainError,
    EventSequence,
    MLKernelParams,
    ModelParams,
    expected_n,
    intensity,
    ml_density,
    ml_one,
    simulate_cluster,
    simulate_exp_hawkes,
    simulate_poisson,
    simulate_thinning,
)
from fhawkes import simulate
from fhawkes.harness import count_matrix
from fhawkes.simulate import _exp_mixture, replica_stream

E_055_M01 = 0.47454388555084361831  # E_{0.5,0.5}(-0.1)

P_WEAK = ModelParams(1.0, 0.1, 0.5, 0.8)
P_STRONG = ModelParams(1.0, 0.5, 0.5, 1.0)


def _counts(engine, n, p, horizon, seed):
    """N(horizon) on replicas 0..n-1 of one engine.  count_matrix draws
    replica r's path as the engine's simulate_* function does (see
    TestStreams), but builds the thinning kernel once for all of them."""
    return count_matrix(p, [horizon], n, seed, engine)[:, 0]


class TestIntensity:
    def test_empty_history(self):
        assert intensity(3.0, np.array([]), P_WEAK) == P_WEAK.lambda0

    def test_exponential_kernel_value(self):
        p = ModelParams(1.0, 0.5, 1.0, 1.0)
        got = intensity(2.0, np.array([1.0]), p)
        assert got == pytest.approx(1.0 + 0.5 * math.exp(-1.0), rel=1e-14)

    def test_short_lag_blowup_finite(self):
        p = ModelParams(1.0, 0.1, 0.5, 1.0)
        got = intensity(0.01, np.array([0.0]), p)
        ref = 1.0 + 0.1 * (1.0 / 0.1) * E_055_M01  # lam0 + a*g*t^(b-1)*E_{b,b}
        assert got == pytest.approx(ref, rel=1e-11)
        assert np.isfinite(got)

    def test_left_limit_excludes_epoch(self):
        p = ModelParams(1.0, 0.1, 0.5, 1.0)
        hist = np.array([0.5, 1.0])
        at_epoch = intensity(1.0, hist, p)
        just_before = intensity(1.0 - 1e-12, hist, p)
        assert np.isfinite(at_epoch)
        assert at_epoch == pytest.approx(just_before, rel=1e-6)

    def test_floor(self):
        p = P_STRONG
        seq = simulate_thinning(p, 10.0, seed=5)
        for t in np.linspace(0.1, 10.0, 23):
            assert intensity(t, seq, p) >= p.lambda0

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            intensity(-1.0, np.array([]), P_WEAK)


class TestEventSequence:
    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            EventSequence(np.array([2.0, 1.0]), 10.0, 0, "thinning")
        with pytest.raises(DomainError):
            EventSequence(np.array([11.0]), 10.0, 0, "thinning")
        with pytest.raises(DomainError):
            EventSequence(np.array([1.0]), 10.0, 0, "mystery")

    def test_count_at(self):
        seq = EventSequence(np.array([1.0, 2.0, 5.0]), 10.0, 0, "poisson")
        assert seq.count_at(0.5) == 0
        assert seq.count_at(2.0) == 2
        assert [seq.count_at(1.5), seq.count_at(10.0)] == [1, 3]

    def test_json_round_trip(self):
        seq = simulate_thinning(P_WEAK, 5.0, seed=3)
        back = EventSequence.from_json(seq.to_json())
        np.testing.assert_array_equal(seq.epochs, back.epochs)
        assert back.engine == "thinning" and back.params == seq.params

    def test_empty_path(self):
        p = ModelParams(1e-6, 0.1, 0.5, 1.0)
        seq = simulate_thinning(p, 0.01, seed=1)
        assert len(seq) == 0
        assert seq.count_at(0.01) == 0
        back = EventSequence.from_json(seq.to_json())
        assert len(back) == 0


class TestPoissonReference:
    def test_counts_distribution(self):
        n = 4000
        counts = np.array(
            [len(simulate_poisson(1.0, 5.0, seed=100, replica=r)) for r in range(n)]
        )
        # exact Poisson(5) law
        ks = np.arange(0, counts.max() + 1)
        pmf = poisson.pmf(ks, 5.0)
        obs = np.bincount(counts, minlength=ks.size)[: ks.size]
        tv = 0.5 * (np.abs(obs / n - pmf).sum() + (1 - pmf.sum()))
        assert tv < 0.05
        assert abs(counts.mean() - 5.0) < 3.0 * counts.std() / math.sqrt(n)
        assert abs(counts.var() - 5.0) < 0.4

    def test_seed_determinism(self):
        a = simulate_poisson(1.0, 10.0, seed=7, replica=2)
        b = simulate_poisson(1.0, 10.0, seed=7, replica=2)
        np.testing.assert_array_equal(a.epochs, b.epochs)


class TestThinning:
    def test_poisson_degenerate_mean(self):
        p = ModelParams(1.0, 0.0, 0.5, 1.0)
        counts = _counts("thinning", 3000, p=p, horizon=10.0, seed=21)
        se = counts.std() / math.sqrt(counts.size)
        assert abs(counts.mean() - 10.0) < 3.0 * se

    def test_poisson_degenerate_interarrivals(self):
        p = ModelParams(1.0, 0.0, 0.5, 1.0)
        gaps = []
        for r in range(300):
            seq = simulate_thinning(p, 20.0, seed=22, replica=r)
            # only the first 10 gaps: all the gaps inside the horizon are
            # shorter than Exp(1) on average, since the one that straddles
            # it is dropped; fewer than 10 events by t = 20 has p = 0.005
            gaps.extend(np.diff(np.concatenate([[0.0], seq.epochs]))[:10])
        stat, pvalue = kstest(np.asarray(gaps), "expon")
        assert pvalue > 0.01

    def test_mean_matches_closed_form(self):
        counts = _counts("thinning", 3000, p=P_WEAK, horizon=10.0, seed=23)
        se = counts.std() / math.sqrt(counts.size)
        assert abs(counts.mean() - expected_n(10.0, P_WEAK)) < 3.0 * se

    def test_determinism(self):
        a = simulate_thinning(P_STRONG, 10.0, seed=7, replica=3)
        b = simulate_thinning(P_STRONG, 10.0, seed=7, replica=3)
        np.testing.assert_array_equal(a.epochs, b.epochs)

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            simulate_thinning(P_STRONG, 200.0, seed=1, max_events=25)

    def test_subcritical_stress(self):
        p = ModelParams(1.0, 0.9, 0.5, 1.0)
        counts = _counts("thinning", 1200, p=p, horizon=10.0, seed=24)
        se = counts.std() / math.sqrt(counts.size)
        assert abs(counts.mean() - expected_n(10.0, p)) < 3.0 * se


class TestCluster:
    def test_alpha_zero_is_poisson(self):
        p = ModelParams(1.0, 0.0, 0.5, 1.0)
        counts = _counts("cluster", 3000, p=p, horizon=10.0, seed=31)
        se = counts.std() / math.sqrt(counts.size)
        assert abs(counts.mean() - 10.0) < 3.0 * se

    def test_total_progeny_mean(self):
        # each immigrant founds a cascade of mean size 1/(1-alpha), so the
        # mean offspring per event is recovered through the totals
        p = ModelParams(1.0, 0.4, 0.5, 4.0)  # fast kernel: few truncated children
        counts = _counts("cluster", 4000, p=p, horizon=40.0, seed=35)
        se = counts.std() / math.sqrt(counts.size)
        assert abs(counts.mean() - expected_n(40.0, p)) < 3.0 * se

    def test_mean_matches_closed_form(self):
        counts = _counts("cluster", 5000, p=P_STRONG, horizon=10.0, seed=32)
        se = counts.std() / math.sqrt(counts.size)
        assert abs(counts.mean() - expected_n(10.0, P_STRONG)) < 3.0 * se

    def test_engines_agree_in_law(self):
        n = 2500
        a = _counts("thinning", n, p=P_STRONG, horizon=10.0, seed=33)
        b = _counts("cluster", n, p=P_STRONG, horizon=10.0, seed=33)
        stat, pvalue = ks_2samp(a, b)
        assert pvalue > 0.01

    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.01, 0.5), (0.01, 0.9), (0.1, 0.99), (0.5, 0.99), (0.5, 0.5), (0.5, 0.9)],
    )
    def test_engine_equivalence_figure_sets(self, alpha, beta):
        # the two constructions must agree in law, and both must be
        # unbiased for the closed-form mean, on every figure parameter set
        p = ModelParams(1.0, alpha, beta, 1.0)
        n = 1200
        a = _counts("thinning", n, p=p, horizon=10.0, seed=34)
        b = _counts("cluster", n, p=p, horizon=10.0, seed=34)
        stat, pvalue = ks_2samp(a, b)
        assert pvalue > 0.01
        ref = expected_n(10.0, p)
        for sample in (a, b):
            se = sample.std() / math.sqrt(n)
            assert abs(sample.mean() - ref) < 3.0 * se

    def test_requires_subcritical(self):
        with pytest.raises(DomainError):
            ModelParams(1.0, 1.0, 0.5, 1.0)


class TestExpHawkes:
    def test_alpha_zero_poisson_counts(self):
        counts = np.array(
            [
                len(simulate_exp_hawkes(1.0, 0.0, 1.0, 10.0, seed=41, replica=r))
                for r in range(3000)
            ]
        )
        se = counts.std() / math.sqrt(counts.size)
        assert abs(counts.mean() - 10.0) < 3.0 * se

    def test_mean_matches_beta_one_formula(self):
        p = ModelParams(1.0, 0.5, 1.0, 1.0)
        counts = np.array(
            [
                len(simulate_exp_hawkes(1.0, 0.5, 1.0, 10.0, seed=42, replica=r))
                for r in range(4000)
            ]
        )
        se = counts.std() / math.sqrt(counts.size)
        assert abs(counts.mean() - expected_n(10.0, p)) < 3.0 * se

    def test_jump_size_at_events(self):
        # kernel value at lag 0+ is gamma, so the intensity jumps by alpha*gamma
        p = ModelParams(1.0, 0.5, 1.0, 2.0)
        seq = simulate_exp_hawkes(1.0, 0.5, 2.0, 20.0, seed=43)
        t1 = seq.epochs[0]
        before = intensity(t1, seq, p)
        after = intensity(t1 + 1e-12, seq, p)
        assert after - before == pytest.approx(0.5 * 2.0, rel=1e-6)


class TestStreams:
    def test_engine_and_replica_separate_streams(self):
        a = replica_stream(1, "thinning", 0).random(4)
        b = replica_stream(1, "cluster", 0).random(4)
        c = replica_stream(1, "thinning", 1).random(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_count_matrix_rows_are_simulated_paths(self):
        times = [2.0, 10.0]
        sims = {
            "thinning": lambda r: simulate_thinning(P_STRONG, 10.0, 11, r),
            "cluster": lambda r: simulate_cluster(P_STRONG, 10.0, 11, r),
            "exp_hawkes": lambda r: simulate_exp_hawkes(1.0, 0.5, 1.0, 10.0, 11, r),
            "poisson": lambda r: simulate_poisson(1.0, 10.0, 11, r),
        }
        for engine, sim in sims.items():
            rows = count_matrix(P_STRONG, times, 4, 11, engine)
            for r in range(4):
                seq = sim(r)
                assert rows[r].tolist() == [seq.count_at(t) for t in times]

    def test_order_insensitive(self):
        late = replica_stream(9, "thinning", 500).random(3)
        again = replica_stream(9, "thinning", 500).random(3)
        np.testing.assert_array_equal(late, again)


class TestKernelMixture:
    def test_matches_ml_density(self):
        # the surrogate against the exact density on the certified lags, and
        # the mass it keeps on [0, H], at the certification budget
        for beta in (0.3, 0.5, 0.7, 0.9, 0.99):
            for gamma in (0.1, 1.0, 1.7):
                k = MLKernelParams(beta, gamma)
                for horizon in (10.0, 1000.0):
                    rates, weights = _exp_mixture(k, horizon)
                    lags = np.geomspace(1e-8, horizon, 300)
                    approx = np.exp(-np.outer(lags, rates)) @ weights
                    exact = ml_density(lags, k)
                    assert np.max(np.abs(approx - exact) / exact) < 1e-6
                    kept = weights / rates @ -np.expm1(-rates * horizon)
                    mass = 1.0 - ml_one(beta, -gamma * horizon**beta)
                    assert abs(kept - mass) < 1e-6

    def test_certification_raises_over_budget(self, monkeypatch):
        monkeypatch.setattr(simulate, "_MIXTURE_RTOL", 1e-12)
        with pytest.raises(AccuracyError):
            _exp_mixture(MLKernelParams(0.5, 1.0), 10.0)

    def test_beta_one_is_the_exponential_kernel(self):
        rates, weights = _exp_mixture(MLKernelParams(1.0, 2.5), 10.0)
        assert rates.tolist() == [2.5] and weights.tolist() == [2.5]


class TestEpochs:
    @pytest.mark.parametrize("beta,horizon", [(0.3, 1000.0), (0.2, 100.0)])
    def test_strictly_increasing(self, beta, horizon):
        # a child delay, or a thinning step, below one ulp of the last epoch
        # must not repeat that epoch; EventSequence rejects repeats
        p = ModelParams(1.0, 0.5, beta, 1.0)
        count_matrix(p, [horizon], 200, 5, "cluster")
        count_matrix(p, [horizon], 40, 5, "thinning")


class TestFiniteInputs:
    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0])
    def test_horizon(self, horizon):
        for call in (
            lambda: simulate_thinning(P_WEAK, horizon, seed=1),
            lambda: simulate_cluster(P_WEAK, horizon, seed=1),
            lambda: simulate_exp_hawkes(1.0, 0.5, 1.0, horizon, seed=1),
            lambda: simulate_poisson(1.0, horizon, seed=1),
        ):
            with pytest.raises(DomainError):
                call()

    def test_params(self):
        with pytest.raises(DomainError):
            ModelParams(math.inf, 0.1, 0.5, 1.0)
        with pytest.raises(DomainError):
            ModelParams(1.0, 0.1, 0.5, math.inf)
        with pytest.raises(DomainError):
            MLKernelParams(0.5, math.inf)
        with pytest.raises(DomainError):
            intensity(math.nan, np.array([1.0]), P_WEAK)
