"""Simulation engines: intensity evaluation, limit laws, engine agreement,
determinism, and budget behavior."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, ks_2samp

from fhawkes import (
    AccuracyError,
    BudgetError,
    DomainError,
    EventSequence,
    FHawkesError,
    MLKernelParams,
    ModelParams,
    QuadratureError,
    expected_n,
    intensity,
    ml_density,
    ml_one,
    sample_paths,
    simulate_cluster,
    simulate_thinning,
)
from fhawkes import simulate
from fhawkes.harness import count_matrix
from fhawkes.laplace import forward_lt
from fhawkes.simulate import _exp_mixture, _stream, _stream_keys
from fhawkes.special import Z_MAX

E_055_M01 = 0.47454388555084361831  # E_{0.5,0.5}(-0.1)

P_WEAK = ModelParams(1.0, 0.1, 0.5, 0.8)
P_STRONG = ModelParams(1.0, 0.5, 0.5, 1.0)


def _counts(engine, n, p, horizon, seed):
    """N(horizon) on replicas 0..n-1 of one engine.  count_matrix draws
    replica r's path as the engine's sampler does (see TestStreams), but
    builds the thinning kernel once for all of them."""
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -3.0])
    def test_rejects_invalid_epochs(self, bad):
        # a NaN epoch used to drop out of the sum, a negative one to count
        # an event before the process starts
        with pytest.raises(DomainError, match="epochs"):
            intensity(5.0, [1.0, bad], P_WEAK)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_kernel_argument_past_the_double_range(self):
        # gamma*t**beta overflows: prabhakar's |z| guard, with no raw
        # overflow warning first
        with pytest.raises(DomainError, match="Z_MAX"):
            intensity(1e300, [1.0], ModelParams(1.0, 0.5, 0.5, 1e300))


class TestEventSequence:
    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            EventSequence(np.array([2.0, 1.0]), 10.0, 0, "thinning")
        with pytest.raises(DomainError):
            EventSequence(np.array([11.0]), 10.0, 0, "thinning")
        with pytest.raises(DomainError):
            EventSequence(np.array([1.0]), 10.0, 0, "mystery")

    def test_empty_path(self):
        p = ModelParams(1e-6, 0.1, 0.5, 1.0)
        seq = simulate_thinning(p, 0.01, seed=1)
        assert len(seq) == 0


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

    def test_budget_error(self, monkeypatch):
        monkeypatch.setattr(simulate, "DEFAULT_MAX_EVENTS", 25)
        with pytest.raises(BudgetError):
            simulate_thinning(P_STRONG, 200.0, seed=1)

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
    # the exp_hawkes engine thins the kernel gamma*exp(-gamma*t) whatever
    # beta its parameters carry
    def test_alpha_zero_poisson_counts(self):
        counts = _counts("exp_hawkes", 3000, ModelParams(1.0, 0.0, 0.5, 1.0), 10.0, 41)
        se = counts.std() / math.sqrt(counts.size)
        assert abs(counts.mean() - 10.0) < 3.0 * se

    def test_mean_matches_beta_one_formula(self):
        counts = _counts("exp_hawkes", 4000, ModelParams(1.0, 0.5, 0.5, 1.0), 10.0, 42)
        se = counts.std() / math.sqrt(counts.size)
        ref = expected_n(10.0, ModelParams(1.0, 0.5, 1.0, 1.0))
        assert abs(counts.mean() - ref) < 3.0 * se

    def test_jump_size_at_events(self):
        # kernel value at lag 0+ is gamma, so the intensity jumps by alpha*gamma
        p = ModelParams(1.0, 0.5, 1.0, 2.0)
        seq = sample_paths(ModelParams(1.0, 0.5, 0.7, 2.0), 20.0, 43, [0], "exp_hawkes")[0]
        t1 = seq.epochs[0]
        before = intensity(t1, seq, p)
        after = intensity(t1 + 1e-12, seq, p)
        assert after - before == pytest.approx(0.5 * 2.0, rel=1e-6)


class TestStreams:
    def test_engine_and_replica_separate_streams(self):
        a = _stream(_stream_keys(1, "thinning", [0])[0]).random(4)
        b = _stream(_stream_keys(1, "cluster", [0])[0]).random(4)
        c = _stream(_stream_keys(1, "thinning", [1])[0]).random(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_count_matrix_rows_are_simulated_paths(self):
        times = [2.0, 10.0]
        sims = {
            "thinning": lambda r: simulate_thinning(P_STRONG, 10.0, 11, r),
            "cluster": lambda r: simulate_cluster(P_STRONG, 10.0, 11, r),
            "exp_hawkes": lambda r: sample_paths(P_STRONG, 10.0, 11, [r], "exp_hawkes")[0],
        }
        for engine, sim in sims.items():
            rows = count_matrix(P_STRONG, times, 4, 11, engine)
            for r in range(4):
                counts = np.searchsorted(sim(r).epochs, times, side="right")
                assert rows[r].tolist() == counts.tolist()
        # a batch wider than 2K runs in lockstep to its last path; counts at
        # every epoch and at the float below it pin each row's epochs
        # exactly (rows 0, K and the last among them)
        wide = 2 * simulate._LOCKSTEP_MIN + 1
        for engine in ("thinning", "exp_hawkes"):
            paths = {r: sims[engine](r).epochs for r in range(wide)}
            epochs = np.concatenate(list(paths.values()))
            times = np.concatenate([epochs, np.nextafter(epochs, 0.0), [10.0]])
            rows = count_matrix(P_STRONG, times, wide, 11, engine)
            for r, path in paths.items():
                counts = np.searchsorted(path, times, side="right")
                assert rows[r].tolist() == counts.tolist()

    @pytest.mark.parametrize("engine", ["thinning", "exp_hawkes"])
    def test_count_matrix_is_independent_of_width(self, engine, monkeypatch):
        k = simulate._LOCKSTEP_MIN
        full = count_matrix(P_STRONG, (1.0, 5.0, 10.0), 2 * k + 3, 13, engine)
        for r in (1, k - 1, k, k + 1, 2 * k + 1):
            np.testing.assert_array_equal(
                full[:r], count_matrix(P_STRONG, (1.0, 5.0, 10.0), r, 13, engine)
            )
        # blocks of k + 1, k + 1 and 1 replicas: two in lockstep, one scalar
        monkeypatch.setattr(simulate, "_LOCKSTEP_BLOCK", k + 1)
        np.testing.assert_array_equal(
            full, count_matrix(P_STRONG, (1.0, 5.0, 10.0), 2 * k + 3, 13, engine)
        )

    def test_stream_keys_are_pinned(self):
        # the keys of the engines' streams; renumbering one would move every
        # seeded result, the validation report's included
        for engine, key in (("thinning", 0), ("cluster", 1), ("exp_hawkes", 3)):
            bits = np.random.Philox(np.random.SeedSequence((5, key, 2)))
            np.testing.assert_array_equal(
                _stream(_stream_keys(5, engine, [2])[0]).random(8),
                np.random.Generator(bits).random(8),
            )
        with pytest.raises(DomainError):
            sample_paths(P_WEAK, 1.0, 5, [2], "poisson")
        with pytest.raises(DomainError):
            count_matrix(P_WEAK, [1.0], 1, 5, "poisson")

    def test_stream_keys_match_seed_sequence(self):
        # the vectorised hash against NumPy's own, on random triples; values
        # of 2**32 and more take the SeedSequence route
        rng = np.random.default_rng(2024)
        for engine, code in simulate.ENGINES.items():
            for top in (2**32, 2**64):
                seed = int(rng.integers(0, top, dtype=np.uint64))
                reps = rng.integers(0, top, 40, dtype=np.uint64).tolist()
                reps += [0, 2**32 - 1]
                ref = [np.random.SeedSequence((seed, code, r)).generate_state(2, np.uint64)
                       for r in reps]
                keys = simulate._stream_keys(seed, engine, reps)
                assert keys.dtype == np.uint64
                np.testing.assert_array_equal(keys, ref)
        assert simulate._stream_keys(3, "cluster", []).shape == (0, 2)

    @pytest.mark.parametrize(
        "seed, replica", [(5.9, 0), (5, 1.5), (True, 0), (5, False), (-1, 0), (5, -2), ("5", 0)]
    )
    def test_seed_and_replica_must_be_nonnegative_integers(self, seed, replica):
        for engine in ("thinning", "cluster", "exp_hawkes"):
            with pytest.raises(DomainError):
                sample_paths(P_WEAK, 1.0, seed, [replica], engine)

    @pytest.mark.parametrize("replicas", [2.5, 3.0, True, -1, None])
    def test_replica_count_must_be_nonnegative_integer(self, replicas):
        with pytest.raises(DomainError, match="replicas"):
            count_matrix(P_WEAK, [1.0], replicas, 0)

    def test_numpy_integers_are_accepted(self):
        np.testing.assert_array_equal(
            sample_paths(P_WEAK, 5.0, np.int64(5), [np.uint8(2)])[0].epochs,
            sample_paths(P_WEAK, 5.0, 5, [2])[0].epochs,
        )
        np.testing.assert_array_equal(
            count_matrix(P_WEAK, [1.0, 5.0], np.int32(20), np.uint64(7)),
            count_matrix(P_WEAK, [1.0, 5.0], 20, 7),
        )
        # any iterable of indices, each path keyed by its index as an int
        for engine in ("thinning", "cluster"):
            seqs = sample_paths(P_WEAK, 5.0, 7, iter([np.int64(3), 0]), engine)
            assert [s.replica for s in seqs] == [3, 0]
            assert all(type(s.replica) is int for s in seqs)
            for s, r in zip(seqs, (3, 0)):
                np.testing.assert_array_equal(
                    s.epochs, sample_paths(P_WEAK, 5.0, 7, [r], engine)[0].epochs
                )

    def test_order_insensitive(self):
        late = _stream(_stream_keys(9, "thinning", [500])[0]).random(3)
        again = _stream(_stream_keys(9, "thinning", [3, 500])[1]).random(3)
        np.testing.assert_array_equal(late, again)


def _one_path(engine, p, horizon, seed, replica):
    """The engine's path of one replica, drawn alone."""
    if engine == "thinning":
        return simulate_thinning(p, horizon, seed, replica)
    if engine == "cluster":
        return simulate_cluster(p, horizon, seed, replica)
    return sample_paths(p, horizon, seed, [replica], engine)[0]


class TestSamplePaths:
    @pytest.mark.parametrize("engine", ["thinning", "cluster", "exp_hawkes"])
    def test_paths_are_the_one_path_draws(self, engine):
        # width 1 draws in the scalar loop; widths K and 2K + 1 each run as
        # one lockstep block, the narrowest and one over twice as wide
        k = simulate._LOCKSTEP_MIN
        for width in (1, k, 2 * k + 1):
            replicas = range(7, 7 + width)
            paths = sample_paths(P_STRONG, 10.0, 11, replicas, engine)
            assert [s.replica for s in paths] == list(replicas)
            for seq in paths:
                one = _one_path(engine, P_STRONG, 10.0, 11, seq.replica)
                np.testing.assert_array_equal(seq.epochs, one.epochs)
                assert (seq.horizon, seq.seed, seq.engine, seq.params) == (
                    one.horizon, one.seed, one.engine, one.params)

    @pytest.mark.parametrize("engine", ["thinning", "exp_hawkes"])
    def test_kernel_certified_once(self, engine, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _exp_mixture(*args)

        monkeypatch.setattr(simulate, "_exp_mixture", counted)
        paths = sample_paths(P_STRONG, 10.0, 3, range(2 * simulate._LOCKSTEP_MIN + 1), engine)
        assert len(paths) == 2 * simulate._LOCKSTEP_MIN + 1
        assert len(calls) == 1

    def test_paths_own_their_epochs(self):
        # a lockstep block's paths are copies, so keeping one path does not
        # keep the block's epoch array alive
        paths = sample_paths(ModelParams(1.0, 0.5, 0.5, 1.0), 10.0, 1, range(32))
        assert all(seq.epochs.base is None for seq in paths)


# count_matrix(P_STRONG, (1, 5, 10), 33, 11, engine) as the scalar loop
# draws each replica alone, thinning against the last event's envelope
GOLDEN_COUNTS = {
    "thinning": [
        [0, 3, 12], [0, 4, 11], [2, 10, 18], [0, 10, 23], [1, 6, 22], [0, 6, 14],
        [3, 11, 23], [2, 8, 13], [0, 4, 12], [0, 4, 14], [2, 8, 19], [2, 6, 8],
        [1, 5, 11], [1, 7, 13], [2, 11, 28], [0, 3, 14], [0, 3, 12], [0, 7, 18],
        [0, 1, 8], [1, 9, 18], [8, 11, 26], [0, 1, 5], [1, 13, 22], [1, 9, 16],
        [3, 6, 10], [1, 11, 22], [1, 3, 13], [1, 7, 22], [2, 15, 20], [0, 10, 17],
        [3, 11, 31], [2, 3, 7], [0, 10, 17],
    ],
    "exp_hawkes": [
        [0, 13, 30], [0, 3, 16], [2, 6, 14], [0, 7, 21], [0, 7, 17], [0, 5, 19],
        [5, 5, 13], [0, 15, 27], [0, 5, 9], [1, 16, 31], [1, 8, 14], [0, 16, 27],
        [1, 7, 15], [2, 7, 23], [1, 6, 10], [0, 8, 12], [0, 5, 19], [4, 28, 39],
        [1, 13, 20], [1, 3, 11], [1, 8, 14], [2, 5, 13], [1, 3, 9], [0, 14, 29],
        [0, 2, 21], [1, 9, 14], [5, 18, 27], [1, 9, 15], [5, 17, 20], [2, 9, 17],
        [0, 5, 20], [0, 1, 3], [1, 2, 6],
    ],
}


class TestLockstep:
    @pytest.mark.parametrize("engine", ["thinning", "exp_hawkes"])
    def test_golden_counts(self, engine):
        golden = GOLDEN_COUNTS[engine]
        assert len(golden) > 2 * simulate._LOCKSTEP_MIN
        for replicas in (3, len(golden)):
            got = count_matrix(P_STRONG, (1.0, 5.0, 10.0), replicas, 11, engine)
            assert got.tolist() == golden[:replicas]

    @pytest.mark.parametrize("engine", ["thinning", "exp_hawkes"])
    def test_blocks_run_to_their_last_path(self, engine, monkeypatch):
        # a block of 33 draws every proposal in lockstep, those of its last
        # paths included, and gives the scalar loop's counts
        def no_scalar(*args):
            raise AssertionError("a lockstep block handed paths to the scalar loop")

        monkeypatch.setattr(simulate, "_thin", no_scalar)
        got = count_matrix(P_STRONG, (1.0, 5.0, 10.0), 33, 11, engine)
        assert got.tolist() == GOLDEN_COUNTS[engine]

    def test_steps_below_one_ulp(self):
        # every 4th proposal has both of its steps 1e-300: accepted, it
        # would repeat the last epoch unless moved to the next float;
        # lockstep and scalar loop must move it alike
        class TinySteps:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def standard_exponential(self, n):
                steps = self.rng.standard_exponential(n)
                steps[::4] = 1e-300
                return steps

            def random(self, n):
                return self.rng.random(n)

        rates, weights = _exp_mixture(P_STRONG.kernel(), 5.0)
        jumps = P_STRONG.alpha * weights
        envelope = simulate._envelope(rates, jumps, 5.0)
        wide = 2 * simulate._LOCKSTEP_MIN + 1
        draws = [simulate._proposal_draws(TinySteps(r)) for r in range(wide)]
        paths = [simulate._thin(1.0, rates, jumps, envelope, 5.0, d) for d in draws]
        assert all(np.all(np.diff(path) > 0.0) for path in paths)
        assert np.any(np.diff(paths[0]) <= np.spacing(paths[0][1:]))
        got = simulate._thin_lockstep(1.0, rates, jumps, envelope, 5.0,
                                      [TinySteps(r) for r in range(wide)])
        assert len(got) == wide
        for lockstep, scalar in zip(got, paths):
            np.testing.assert_array_equal(lockstep, scalar)

    @pytest.mark.parametrize("engine", ["thinning", "exp_hawkes"])
    def test_budget_error_in_lockstep(self, engine, monkeypatch):
        # lambda0 * H = 20 is far below the up-front threshold for 25
        # events (about 82); the scalar loop is barred, so the error comes
        # from the lockstep phase
        monkeypatch.setattr(simulate, "DEFAULT_MAX_EVENTS", 25)

        def no_scalar(*args):
            raise AssertionError("handed off before the budget was passed")

        monkeypatch.setattr(simulate, "_thin", no_scalar)
        with pytest.raises(BudgetError, match="exceeded 25 events by t="):
            count_matrix(P_STRONG, [20.0], 2 * simulate._LOCKSTEP_MIN + 1, 3, engine)


class TestEnvelope:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.9, 1.0])
    def test_dominates_the_last_kernel(self, beta):
        # gamma * H = 1000: the beta = 1 kernel underflows past lag ~745
        horizon = 1000.0
        rates, weights = _exp_mixture(MLKernelParams(beta, 1.0), horizon)
        jumps = 0.5 * weights
        lags, levels, cum = simulate._envelope(rates, jumps, horizon)
        assert lags[0] == 0.0 and lags[-1] > horizon
        ends = np.append(lags[1:], 2.0 * lags[-1])
        for j, (lo, hi) in enumerate(zip(lags, ends)):
            x = np.append(lo + (hi - lo) * np.arange(9) / 9.0, hi)
            kernel = np.exp(-np.outer(x, rates)) @ jumps
            assert np.all(levels[j] >= kernel), (beta, j)
        np.testing.assert_array_equal(cum[1:], np.cumsum(levels[:-1] * np.diff(lags)))
        # a cell whose level underflows adds nothing to the cumulative
        zero = levels == 0.0
        assert zero.any() == (beta == 1.0)
        assert np.all(np.diff(cum)[zero[:-1]] == 0.0)

    def test_mean_count(self):
        # seed, replicas and bound fixed before the first run
        p = ModelParams(1.0, 0.5, 0.3, 1.7)
        times = np.array([0.1, 0.5, 1.0, 2.0])
        counts = count_matrix(p, times, 4000, 19)
        se = counts.std(axis=0) / math.sqrt(counts.shape[0])
        assert np.all(np.abs(counts.mean(axis=0) - expected_n(times, p)) < 4.0 * se)

    @pytest.mark.parametrize("beta,most", [(0.5, 1.5), (0.9, 1.35)])
    @pytest.mark.parametrize("horizon", [100.0, 1000.0])
    def test_proposals_per_event(self, beta, most, horizon, monkeypatch):
        # draws consumed over 10 seeded paths, the one past the horizon
        # included; the constant bound after each event took 3.6 at
        # beta = 1/2 and 1.87 at beta = 0.9
        consumed = []
        proposal_draws = simulate._proposal_draws

        def counted(*args):
            for draw in proposal_draws(*args):
                consumed.append(draw)
                yield draw

        monkeypatch.setattr(simulate, "_proposal_draws", counted)
        paths = sample_paths(ModelParams(1.0, 0.5, beta, 1.0), horizon, 1, range(10))
        events = sum(len(seq) for seq in paths)
        # each event, and each path's final proposal past the horizon, is a
        # draw counted here, so the count cannot be empty
        assert events + len(paths) <= len(consumed) <= most * events


class TestBudgetUpFront:
    def test_certain_overrun_raises_before_drawing(self):
        # 1e8 expected immigrants against a budget of 1e7 events
        p = ModelParams(1e8, 0.1, 0.5, 1.0)
        for call in (
            lambda: simulate_thinning(p, 1.0, 1),
            lambda: count_matrix(p, [1.0], 3, 1, "exp_hawkes"),
        ):
            start = time.perf_counter()
            with pytest.raises(BudgetError, match="passes 10000000 events"):
                call()
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("engine", ["thinning", "exp_hawkes", "cluster"])
    @pytest.mark.parametrize("lambda0,horizon", [(2e7, 1.0), (1e10, 1e9), (1e300, 1e300)])
    def test_every_engine_raises_before_keying(self, engine, lambda0, horizon, monkeypatch):
        # 2e7 and 1e19 expected immigrants, and a mean that overflows to inf,
        # against a budget of 1e7 events: one rule, before any stream is keyed
        def no_keys(*args):
            raise AssertionError("a stream was keyed")

        monkeypatch.setattr(simulate, "_stream_keys", no_keys)
        with pytest.raises(BudgetError, match="passes 10000000 events"):
            sample_paths(ModelParams(lambda0, 0.1, 0.5, 1.0), horizon, 1, [0], engine)

    def test_threshold(self, monkeypatch):
        # for 100 events the Chernoff bound reaches 1e-12 at a mean of
        # about 194: above it nothing is drawn, below it the path is drawn
        # and overruns in the thinning loop
        monkeypatch.setattr(simulate, "DEFAULT_MAX_EVENTS", 100)
        with pytest.raises(BudgetError, match="passes 100 events"):
            simulate_thinning(ModelParams(200.0, 0.1, 0.5, 1.0), 1.0, 1)
        with pytest.raises(BudgetError, match="exceeded 100 events by t="):
            simulate_thinning(ModelParams(190.0, 0.1, 0.5, 1.0), 1.0, 1)
        assert len(simulate_thinning(ModelParams(50.0, 0.1, 0.5, 1.0), 1.0, 1)) < 100


class TestKernelMixture:
    def test_matches_ml_density(self):
        # the surrogate against the exact density on the certified lags, and
        # the mass it keeps on [0, H], at the certification budget
        for beta in (0.3, 0.5, 0.7, 0.9, 0.99, 0.9999):
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

    def test_size_on_the_grid(self):
        # six nodes per panel certify every setting; a rule that grows the
        # kernel fails here
        sizes = [
            _exp_mixture(MLKernelParams(beta, gamma), horizon)[0].size
            for beta in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)
            for gamma in (0.1, 1.0, 10.0)
            for horizon in (0.01, 10.0, 1000.0)
        ]
        assert len(sizes) == 63
        assert np.median(sizes) <= 193 and max(sizes) <= 289


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestKernelRange:
    """Every beta meets ``gamma * horizon**beta <= Z_MAX`` before the thinning
    kernel is built."""

    @pytest.mark.parametrize("engine", ["thinning", "exp_hawkes"])
    def test_beta_one_past_z_max_raises_up_front(self, engine, monkeypatch):
        # gamma * ulp(epoch) ~ 1: a proposal below half an ulp lands on the
        # last epoch, where the intensity still holds that event's whole jump,
        # so it is accepted, moved one float on, and begets the next
        monkeypatch.setattr(simulate, "DEFAULT_MAX_EVENTS", 10_000)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="Z_MAX"):
            sample_paths(ModelParams(1.0, 0.5, 1.0, 1e16), 10.0, 0, [0], engine)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "beta,horizon", [(0.3, 1000.0), (0.5, 10.0), (0.9, 1e-3), (1.0, 100.0)]
    )
    def test_boundary(self, beta, horizon):
        # the largest gamma on the rule's side certifies; the next float raises
        gamma = Z_MAX / float(np.power(horizon, beta))
        while gamma * float(np.power(horizon, beta)) > Z_MAX:
            gamma = math.nextafter(gamma, 0.0)
        while gamma * float(np.power(horizon, beta)) <= Z_MAX:
            gamma = math.nextafter(gamma, math.inf)
        with pytest.raises(DomainError, match="Z_MAX"):
            _exp_mixture(MLKernelParams(beta, gamma), horizon)
        _exp_mixture(MLKernelParams(beta, math.nextafter(gamma, 0.0)), horizon)

    def test_checked_before_the_rate_scale(self):
        # gamma**(1/beta) would overflow first
        with pytest.raises(DomainError, match="Z_MAX"):
            simulate_thinning(ModelParams(1.0, 0.5, 0.5, 1e300), 10.0, 0)

    def test_rate_scale_past_the_double_range(self):
        # a tiny horizon meets the rule, but gamma**(1/beta) overflows
        with pytest.raises(AccuracyError, match=r"beta=0\.5, gamma=5e\+157"):
            sample_paths(ModelParams(1.0, 0.5, 0.5, 5e157), 1e-300, 0, [0])

    @pytest.mark.parametrize("gamma,horizon", [(1e6, 1e10), (1e6, 1e8), (1e-10, 1.0)])
    def test_tiny_beta_rates_past_the_double_range(self, gamma, horizon):
        # gamma * horizon**beta is within Z_MAX, but s = gamma**(1/beta) is
        # 1e300, where s * horizon or the mixing density at the rule's lowest
        # node overflows, or 1e-500, which underflows
        with pytest.raises(FHawkesError, match="double range"):
            sample_paths(ModelParams(1e-12, 0.5, 0.02, gamma), horizon, 0, [0])

    def test_tiny_beta_within_the_double_range(self):
        paths = sample_paths(ModelParams(1e-12, 0.5, 0.02, 1e6), 1e5, 0, [0])
        assert len(paths) == 1

    @pytest.mark.parametrize(
        "call, error, match",
        [
            # the pole's offset pi*(1/beta - 1) overflows
            (lambda: count_matrix(ModelParams(1.0, 0.5, 5e-324, 1.0), [1.0, 2.0], 3, 1),
             AccuracyError, "double range"),
            # the sampler's scale gamma**(-1/beta) overflows
            (lambda: simulate_cluster(ModelParams(1.0, 0.5, 0.5, 1e-300), 10.0, 0),
             AccuracyError, r"gamma\*\*\(-1/beta\)"),
            # t = u**(-1/p) overflows in the forward transform's tail
            (lambda: forward_lt(lambda t: np.exp(-t), 1.0, singular_exponent=1e-12),
             QuadratureError, "not finite"),
            # the kernel density came out negative at a certification lag,
            # from a spectral head series that had not converged, which now
            # raises first
            (lambda: count_matrix(ModelParams(1.0, 0.5, 1e-12, 1.0), [1.0, 2.0], 3, 1),
             AccuracyError, "spectral regime"),
        ],
        ids=["pole", "sampler-scale", "forward-transform", "negative-reference"],
    )
    def test_corner_raises_its_error(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    @pytest.mark.parametrize("replicas", [3, 20])
    def test_lockstep_proposal_past_the_horizon_is_quiet(self, replicas):
        # lambda0 = 1e-300 sends the first proposal to ~1e300, whose lag
        # times the rates overflows in the lockstep step (20 paths)
        counts = count_matrix(ModelParams(1e-300, 0.5, 0.5, 1.0), [1.0, 2.0], replicas, 1)
        np.testing.assert_array_equal(counts, np.zeros((replicas, 2)))


class TestEpochs:
    @pytest.mark.parametrize("beta,horizon", [(0.3, 1000.0), (0.2, 100.0)])
    def test_strictly_increasing(self, beta, horizon):
        # a child delay, or a thinning step, below one ulp of the last epoch
        # must not repeat that epoch; EventSequence rejects repeats
        p = ModelParams(1.0, 0.5, beta, 1.0)
        count_matrix(p, [horizon], 200, 5, "cluster")
        count_matrix(p, [horizon], 40, 5, "thinning")

    @pytest.mark.parametrize("epochs", [
        # a run of equal epochs, and one with a zero
        [3.0, 1.0, 1.0, 1.0, 2.0, 0.0, 0.0],
        # a run that pushes past the next distinct epochs
        [1.0, 1.0, 1.0, 1.0, math.nextafter(1.0, 2.0), 1.0 + 3 * 2.0**-52, 5.0],
        # a run that crosses the horizon
        [9.0, 10.0 - 2.0**-49, 10.0 - 2.0**-49, 10.0 - 2.0**-49, 10.0 - 2.0**-49],
    ])
    def test_tie_rule_is_the_element_loop(self, epochs):
        class Crafted:
            """The given epochs as the immigrants, with no children."""

            def poisson(self, mean, size=None):
                return len(epochs) if size is None else np.zeros(size, dtype=np.int64)

            def uniform(self, low, high, size):
                return np.array(epochs)

        ref = np.sort(epochs)
        ref = ref[ref > 0.0]
        for i in range(1, ref.size):
            ref[i] = max(ref[i], math.nextafter(ref[i - 1], math.inf))
        ref = ref[ref <= 10.0]
        got = simulate._cluster(ModelParams(1.0, 0.5, 0.5, 1.0), 10.0, Crafted())
        assert got.tobytes() == ref.tobytes()
        assert np.all(np.diff(got) > 0.0)


class TestFiniteInputs:
    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0])
    def test_horizon(self, horizon):
        for call in (
            lambda: simulate_thinning(P_WEAK, horizon, seed=1),
            lambda: simulate_cluster(P_WEAK, horizon, seed=1),
            lambda: count_matrix(P_WEAK, [horizon], 1, 1, "exp_hawkes"),
        ):
            with pytest.raises(DomainError):
                call()

    def test_times_at_most_one_dimensional(self):
        for engine in ("thinning", "cluster", "exp_hawkes"):
            with pytest.raises(DomainError, match="1-d"):
                count_matrix(P_WEAK, [[1.0, 2.0], [3.0, 4.0]], 2, 1, engine)
            np.testing.assert_array_equal(
                count_matrix(P_WEAK, 2.0, 3, 1, engine),
                count_matrix(P_WEAK, [2.0], 3, 1, engine),
            )

    def test_params(self):
        with pytest.raises(DomainError):
            ModelParams(math.inf, 0.1, 0.5, 1.0)
        with pytest.raises(DomainError):
            ModelParams(1.0, 0.1, 0.5, math.inf)
        with pytest.raises(DomainError):
            MLKernelParams(0.5, math.inf)
        with pytest.raises(DomainError):
            intensity(math.nan, np.array([1.0]), P_WEAK)

    def test_integer_parameters_at_beta_one(self):
        p = ModelParams(1, 0.5, 1, 1)
        assert all(type(v) is float for v in (p.lambda0, p.beta, p.gamma))
        assert type(MLKernelParams(1, 2).gamma) is float
        seq = sample_paths(p, 10, 1, [0], "exp_hawkes")[0]
        ref = sample_paths(ModelParams(1.0, 0.5, 1.0, 1.0), 10.0, 1, [0], "exp_hawkes")[0]
        np.testing.assert_array_equal(seq.epochs, ref.epochs)
        path = simulate_thinning(p, 10, 1)
        np.testing.assert_array_equal(
            path.epochs, simulate_thinning(ModelParams(1.0, 0.5, 1.0, 1.0), 10.0, 1).epochs
        )
        counts = count_matrix(p, [1.0, 10.0], 3, 1, "exp_hawkes")
        assert counts.shape == (3, 2)
        with pytest.raises(DomainError):
            ModelParams(1.0, 0.1, "half", 1.0)

    @pytest.mark.parametrize("seed,replica", [(-1, 0), (1, -1)])
    def test_negative_seed_or_replica(self, seed, replica):
        with pytest.raises(DomainError):
            simulate_cluster(P_WEAK, 1.0, seed, replica)
        for engine in ("thinning", "cluster", "exp_hawkes"):
            with pytest.raises(DomainError):
                sample_paths(P_WEAK, 1.0, seed, [0, replica], engine)

    def test_poisson_mean_past_numpy_range(self):
        # a mean past numpy's Poisson range (about 9.2e18) passes the event
        # budget for certain, which raises first
        with pytest.raises(BudgetError, match="passes 10000000 events"):
            simulate_cluster(ModelParams(1e10, 0.1, 0.5, 1.0), 1e10, 1)

    def test_cluster_budget_checked_before_immigrants_drawn(self):
        with pytest.raises(BudgetError):
            simulate_cluster(ModelParams(1e12, 0.1, 0.5, 1.0), 1.0, 1)


# beta stops at 0.9999 (or is exactly 1): above 1 - 1e-10 the kernel density
# raises AccuracyError, see test_kernel_density_just_below_beta_one
PARAMS = st.builds(
    ModelParams,
    lambda0=st.floats(0.1, 5.0),
    alpha=st.floats(0.0, 0.9),
    beta=st.one_of(st.floats(0.1, 0.9999), st.just(1.0)),
    gamma=st.floats(0.1, 5.0),
)


class TestProperties:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        p=PARAMS,
        horizon=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**32 - 1),
        u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    )
    def test_paths_and_intensity(self, p, horizon, seed, u):
        for simulate_path in (simulate_thinning, simulate_cluster):
            seq = simulate_path(p, horizon, seed)
            assert isinstance(seq, EventSequence)
            assert seq.horizon == horizon
            if len(seq):
                assert 0.0 < seq.epochs[0] and seq.epochs[-1] <= horizon
                assert np.all(np.diff(seq.epochs) > 0.0)
            for t in horizon * np.asarray(u):
                assert intensity(t, seq, p) >= p.lambda0

    @pytest.mark.xfail(raises=AccuracyError, strict=True,
                       reason="series and large-argument regimes disagree")
    def test_kernel_density_just_below_beta_one(self):
        # known fault: at beta = 1 - 1e-12 the density is within ~1e-9 of
        # exp(-t) on these lags, but prabhakar raises near z = -4.15
        t = np.geomspace(1e-3, 10.0, 200)
        got = ml_density(t, MLKernelParams(1.0 - 1e-12, 1.0))
        np.testing.assert_allclose(got, np.exp(-t), rtol=1e-8)
