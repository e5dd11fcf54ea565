"""Experiment harness: emission round trips, SE scaling, distribution
statistics, and runner behavior."""

import math

import numpy as np
import pytest

from fhawkes import ModelParams
from fhawkes.harness import (
    CountDistribution,
    ExperimentConfig,
    count_matrix,
    expected_n_ilt_curve,
    poisson_reference_pmf,
    run_distribution,
    run_expected_n,
)
from fhawkes.errors import DomainError
from fhawkes.io import (
    read_curves_csv,
    read_dist_csv,
    read_events_csv,
    read_report_json,
    write_curves_csv,
    write_dist_csv,
    write_events_csv,
    write_report_json,
)
from fhawkes import expected_n, simulate_thinning

P = ModelParams(1.0, 0.1, 0.5, 0.8)


class TestIo:
    def test_curves_round_trip(self, tmp_path):
        path = tmp_path / "curve.csv"
        table = {
            "t": np.array([0.5, 1.0, 2.0]),
            "mc_mean": np.array([0.4, 1.1, 2.2]),
            "mc_se": np.array([0.01, 0.02, 0.03]),
            "exact": np.array([0.45, 1.05, 2.15]),
        }
        write_curves_csv(path, table)
        back = read_curves_csv(path)
        for key, vals in table.items():
            np.testing.assert_array_equal(back[key], vals)
        assert np.all(np.isnan(back["ilt"]))

    def test_dist_round_trip(self, tmp_path):
        path = tmp_path / "dist.csv"
        records = [(1.0, 0, 37, 0.37, 0.368), (1.0, 1, 63, 0.63, math.nan)]
        write_dist_csv(path, records)
        back = read_dist_csv(path)
        assert back[0] == records[0]
        assert back[1][:4] == records[1][:4] and math.isnan(back[1][4])

    def test_events_round_trip(self, tmp_path):
        path = tmp_path / "events.csv"
        seqs = [simulate_thinning(P, 5.0, seed=1, replica=r) for r in range(3)]
        write_events_csv(path, seqs)
        back = read_events_csv(path)
        for seq in seqs:
            np.testing.assert_array_equal(back[seq.replica], seq.epochs)

    def test_report_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        rep = {"criteria": [{"name": "x", "passed": True, "measured": 0.5}]}
        write_report_json(path, rep)
        assert read_report_json(path) == rep


class TestCountDistribution:
    def test_pmf_normalized(self):
        d = CountDistribution(1.0, {0: 40, 1: 35, 2: 25}, 100, P)
        assert sum(d.pmf().values()) == pytest.approx(1.0)

    def test_frequencies_must_sum(self):
        with pytest.raises(DomainError):
            CountDistribution(1.0, {0: 40}, 100, P)

    def test_tv_distance_identical_is_zero(self):
        d = CountDistribution(1.0, {0: 50, 1: 50}, 100, P)
        assert d.tv_distance({0: 0.5, 1: 0.5}) == pytest.approx(0.0)

    def test_no_reference_is_domain_error(self):
        d = CountDistribution(1.0, {0: 50, 1: 50}, 100, P)
        with pytest.raises(DomainError, match="reference"):
            d.tv_distance()
        with pytest.raises(DomainError, match="reference"):
            d.chi_square()

    def test_tv_distance_disjoint_is_one(self):
        d = CountDistribution(1.0, {0: 100}, 100, P)
        assert d.tv_distance({5: 1.0}) == pytest.approx(1.0)

    def test_tv_counts_reference_tail(self):
        d = CountDistribution(1.0, {0: 100}, 100, P)
        # reference puts half its mass beyond the listed support
        assert d.tv_distance({0: 0.5}) == pytest.approx(0.5)

    def test_no_replicas_is_domain_error(self):
        with pytest.raises(DomainError, match="replicas"):
            CountDistribution(1.0, {}, 0, P)
        with pytest.raises(DomainError, match="replicas"):
            CountDistribution.from_counts(np.array([], dtype=int), 1.0, P)

    def test_chi_square_empty_reference_is_domain_error(self):
        d = CountDistribution(1.0, {0: 50, 1: 50}, 100, P)
        with pytest.raises(DomainError, match="two merged cells"):
            d.chi_square({})

    @pytest.mark.parametrize(
        "mean,kmax", [(-1.0, 5), (math.nan, 5), (math.inf, 5), (1.0, -1)]
    )
    def test_poisson_reference_rejects_bad_input(self, mean, kmax):
        with pytest.raises(DomainError, match="Poisson pmf"):
            poisson_reference_pmf(mean, kmax)

    def test_chi_square_calibration(self):
        # counts actually drawn from the reference law should not be rejected
        rng = np.random.default_rng(5)
        draws = rng.poisson(5.0, 5000)
        ks, freqs = np.unique(draws, return_counts=True)
        d = CountDistribution(
            1.0, {int(k): int(f) for k, f in zip(ks, freqs)}, 5000, P
        )
        _, pvalue, dof = d.chi_square(poisson_reference_pmf(5.0, 40))
        assert pvalue > 0.01
        assert dof >= 2


class TestRunners:
    def test_expected_n_agrees(self, tmp_path):
        cfg = ExperimentConfig(
            params=P,
            times=(1.0, 5.0, 10.0),
            replicas=1500,
            seed=77,
            comparisons=("ilt",),
            output_path=str(tmp_path / "en.csv"),
        )
        res = run_expected_n(cfg)
        dev = np.abs(res["mc_mean"] - res["exact"]) / res["mc_se"]
        assert np.max(dev) < 4.0
        np.testing.assert_allclose(res["ilt"], res["exact"], atol=5e-3)
        back = read_curves_csv(tmp_path / "en.csv")
        np.testing.assert_array_equal(back["mc_mean"], res["mc_mean"])

    def test_se_scales_with_replicas(self):
        cfg_small = ExperimentConfig(params=P, times=(10.0,), replicas=400, seed=88)
        cfg_big = ExperimentConfig(params=P, times=(10.0,), replicas=1600, seed=88)
        se_small = run_expected_n(cfg_small)["mc_se"][0]
        se_big = run_expected_n(cfg_big)["mc_se"][0]
        ratio = se_small / se_big
        assert 2.0 * 0.85 < ratio < 2.0 * 1.15

    def test_distribution_poisson_reference(self, tmp_path):
        p = ModelParams(1.0, 0.01, 0.5, 1.0)
        cfg = ExperimentConfig(
            params=p,
            times=(1.0, 5.0),
            replicas=2000,
            seed=99,
            comparisons=("poisson",),
            output_path=str(tmp_path / "dist.csv"),
        )
        dists = run_distribution(cfg)
        assert [d.t for d in dists] == [1.0, 5.0]
        for d in dists:
            assert d.reference[0] == "poisson"
            assert d.tv_distance() < 0.1
        rows = read_dist_csv(tmp_path / "dist.csv")
        by_t = {}
        for t, k, freq, p_hat, p_ref in rows:
            by_t.setdefault(t, 0)
            by_t[t] += freq
        assert by_t == {1.0: 2000, 5.0: 2000}

    def test_distribution_exp_hawkes_reference(self):
        p = ModelParams(1.0, 0.1, 0.99, 1.0)
        cfg = ExperimentConfig(
            params=p,
            times=(5.0,),
            replicas=1500,
            seed=101,
            comparisons=("exp-hawkes",),
        )
        (dist,) = run_distribution(cfg)
        assert dist.reference[0] == "exp_hawkes_empirical"
        assert dist.tv_distance() < 0.15

    def test_config_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig(params=P, times=(2.0, 1.0), replicas=10, seed=0)
        with pytest.raises(DomainError):
            ExperimentConfig(params=P, times=(1.0,), replicas=0, seed=0)

    def test_count_matrix_deterministic(self):
        a = count_matrix(P, (1.0, 5.0), 50, seed=7)
        b = count_matrix(P, (1.0, 5.0), 50, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_ilt_curve_matches_closed_form(self):
        times = np.array([1.0, 5.0, 10.0])
        got = expected_n_ilt_curve(P, times)
        ref = expected_n(times, P)
        np.testing.assert_allclose(got, ref, atol=3e-3)

    @pytest.mark.parametrize(
        "alpha,beta,gamma", [(0.5, 0.3, 1.7), (0.1, 0.99, 0.1), (0.5, 1.0, 0.8)]
    )
    def test_ilt_curve_inverts_count_image(self, alpha, beta, gamma):
        p = ModelParams(1.0, alpha, beta, gamma)
        times = np.unique(
            np.concatenate([np.geomspace(1e-2, 1e3, 48), np.linspace(1e-2, 1e3, 32)])
        )
        got = expected_n_ilt_curve(p, np.concatenate([[0.0], times]))
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], expected_n(times, p), rtol=1e-8)

    def test_from_counts_pmf(self):
        dist = CountDistribution.from_counts(np.array([1, 1, 2, 4]), 1.0, P)
        assert dist.pmf() == {1: 0.5, 2: 0.25, 4: 0.25}

    def test_count_matrix_rejects_empty_sizes(self):
        with pytest.raises(DomainError):
            count_matrix(P, [], 3, 1)
        with pytest.raises(DomainError):
            count_matrix(P, [1.0], -1, 1)
