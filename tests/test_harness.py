"""Monte Carlo harness: emission round trips, SE scaling, distribution
statistics, and the count-comparison functions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fhawkes import EventSequence, ModelParams, simulate
from fhawkes.harness import (
    CountDistribution,
    count_distributions,
    count_matrix,
    expected_n_ilt_curve,
    mean_and_se,
    poisson_reference_pmf,
)
from fhawkes.errors import ContourError, DomainError
from fhawkes.io import (
    CURVE_COLUMNS,
    read_events_csv,
    read_report_json,
    write_curves_csv,
    write_dist_csv,
    write_events_csv,
    write_report_json,
)
from fhawkes import expected_n, simulate_thinning

P = ModelParams(1.0, 0.1, 0.5, 0.8)


def _read_table(path, dtype=float):
    """A curves or distribution CSV as a structured array, one field per
    column; blank cells read as NaN."""
    return np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True, dtype=dtype))


# the column types of a distribution CSV: t, k, freq, p_hat, p_ref
DIST_TYPES = (float, int, int, float, float)


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
        back = _read_table(path)
        for key, vals in table.items():
            np.testing.assert_array_equal(back[key], vals)
        assert np.all(np.isnan(back["ilt"]))

    def test_dist_round_trip(self, tmp_path):
        path = tmp_path / "dist.csv"
        records = [(1.0, 0, 37, 0.37, 0.368), (1.0, 1, 63, 0.63, math.nan)]
        write_dist_csv(path, records)
        back = _read_table(path, DIST_TYPES)
        assert back[0].tolist() == records[0]
        assert back[1].tolist()[:4] == records[1][:4] and math.isnan(back[1]["p_ref"])

    def test_events_round_trip(self, tmp_path):
        path = tmp_path / "events.csv"
        seqs = [simulate_thinning(P, 5.0, seed=1, replica=r) for r in range(3)]
        write_events_csv(path, seqs)
        back = read_events_csv(path)
        for seq in seqs:
            np.testing.assert_array_equal(back[seq.replica], seq.epochs)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("replica,k,T_k\n0,1,0.5\n0,2,abc\n", 3),
            ("replica,k,T_k\n0,1\n", 2),
            ("replica,k,T_k\nx,1,0.5\n", 2),
            ("replica,k,T_k\n0,x,0.5\n", 2),
            ("replica,k,T_k\n0,1,0.5\n0,2,nan\n", 3),
            ("replica,k,T_k\n0,1,-1.0\n", 2),
            ("replica,k,T_k\n0,1,0.5,7\n", 2),
            ("replica,k,epoch\n0,1,0.5\n", 1),
            ("", 1),
        ],
        ids=["bad-epoch", "two-fields", "bad-replica", "bad-k", "nan-epoch", "negative-epoch",
             "four-fields", "bad-header", "empty"],
    )
    def test_events_malformed(self, tmp_path, text, line):
        path = tmp_path / "events.csv"
        path.write_text(text)
        with pytest.raises(DomainError, match=f"line {line}:"):
            read_events_csv(path)

    def test_events_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_events_csv(tmp_path / "absent.csv")

    def test_report_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        rep = {"criteria": [{"name": "x", "passed": True, "measured": 0.5}]}
        write_report_json(path, rep)
        assert read_report_json(path) == rep


# every double: NaN, +-inf, -0.0 and subnormals included
_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_INTS = st.integers(0, 2**62)
_EXTREMES = [5e-324, -2.2250738585072014e-308, -0.0, math.inf, -math.inf,
             math.nan, 1.7976931348623157e308]
_SETTINGS = settings(
    max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _bits(x):
    """Bit patterns of a float array, every NaN mapped to the same one."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), math.nan, x).view(np.int64).tolist()


@st.composite
def _curve_tables(draw):
    n = draw(st.integers(0, 6))
    cols = draw(st.lists(st.sampled_from(CURVE_COLUMNS[1:]), unique=True))
    return {c: draw(st.lists(_FLOATS, min_size=n, max_size=n)) for c in ["t", *cols]}


@st.composite
def _event_sequences(draw):
    horizon = draw(st.floats(1e-300, 1e300))
    epochs = st.floats(0.0, horizon, exclude_min=True, allow_subnormal=True)
    replicas = draw(st.lists(st.integers(0, 10**6), unique=True, max_size=5))
    return [
        EventSequence(sorted(draw(st.sets(epochs, max_size=6))), horizon, 0,
                      "thinning", replica=r)
        for r in replicas
    ]


class TestIoExact:
    """Every writer's table reads back to the same doubles, bit for bit;
    NaN cells read back as NaN."""

    @_SETTINGS
    @given(_curve_tables())
    @example({"t": _EXTREMES, "ilt": _EXTREMES[::-1]})
    def test_curves(self, tmp_path, table):
        path = tmp_path / "curves.csv"
        write_curves_csv(path, table)
        back = _read_table(path)
        n = len(table["t"])
        for c in CURVE_COLUMNS:
            assert _bits(back[c]) == _bits(table.get(c, [math.nan] * n))

    @_SETTINGS
    @given(st.lists(st.tuples(_FLOATS, _INTS, _INTS, _FLOATS, _FLOATS), max_size=6))
    @example([(x, 3, 7, x, -x) for x in _EXTREMES])
    def test_dist(self, tmp_path, records):
        path = tmp_path / "dist.csv"
        write_dist_csv(path, records)
        back = _read_table(path, DIST_TYPES)
        for col, name in enumerate(back.dtype.names):
            if col in (1, 2):
                assert back[name].tolist() == [r[col] for r in records]
            else:
                assert _bits(back[name]) == _bits([r[col] for r in records])

    @_SETTINGS
    @given(_event_sequences())
    @example([EventSequence([5e-324, 1e-310, 1.0], 1.0, 0, "thinning", replica=4),
              EventSequence([], 1.0, 0, "thinning", replica=2)])
    def test_events(self, tmp_path, seqs):
        path = tmp_path / "events.csv"
        write_events_csv(path, seqs)
        back = read_events_csv(path)
        # a replica with no events writes no row, so it does not read back
        assert sorted(back) == sorted(s.replica for s in seqs if len(s))
        for seq in seqs:
            if len(seq):
                assert _bits(back[seq.replica]) == _bits(seq.epochs)


class TestCountDistribution:
    def test_pmf_normalized(self):
        d = CountDistribution(1.0, {0: 40, 1: 35, 2: 25}, 100)
        assert sum(d.pmf().values()) == pytest.approx(1.0)

    def test_frequencies_must_sum(self):
        with pytest.raises(DomainError):
            CountDistribution(1.0, {0: 40}, 100)

    def test_tv_distance_identical_is_zero(self):
        d = CountDistribution(1.0, {0: 50, 1: 50}, 100)
        assert d.tv_distance({0: 0.5, 1: 0.5}) == pytest.approx(0.0)

    def test_tv_distance_disjoint_is_one(self):
        d = CountDistribution(1.0, {0: 100}, 100)
        assert d.tv_distance({5: 1.0}) == pytest.approx(1.0)

    def test_tv_counts_reference_tail(self):
        d = CountDistribution(1.0, {0: 100}, 100)
        # reference puts half its mass beyond the listed support
        assert d.tv_distance({0: 0.5}) == pytest.approx(0.5)

    def test_no_replicas_is_domain_error(self):
        with pytest.raises(DomainError, match="replicas"):
            CountDistribution(1.0, {}, 0)
        with pytest.raises(DomainError, match="replicas"):
            CountDistribution.from_counts(np.array([], dtype=int), 1.0)

    def test_chi_square_empty_reference_is_domain_error(self):
        d = CountDistribution(1.0, {0: 50, 1: 50}, 100)
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
            1.0, {int(k): int(f) for k, f in zip(ks, freqs)}, 5000
        )
        _, pvalue, dof = d.chi_square(poisson_reference_pmf(5.0, 40))
        assert pvalue > 0.01
        assert dof >= 2


class TestRunners:
    def test_expected_n_agrees(self):
        times = np.array([1.0, 5.0, 10.0])
        mc, se = mean_and_se(count_matrix(P, times, 1500, 77))
        exact = expected_n(times, P)
        assert np.max(np.abs(mc - exact) / se) < 4.0
        np.testing.assert_allclose(expected_n_ilt_curve(P, times), exact, atol=5e-3)

    def test_se_scales_with_replicas(self):
        _, se_small = mean_and_se(count_matrix(P, (10.0,), 400, 88))
        _, se_big = mean_and_se(count_matrix(P, (10.0,), 1600, 88))
        ratio = se_small[0] / se_big[0]
        assert 2.0 * 0.85 < ratio < 2.0 * 1.15

    @pytest.mark.parametrize("replicas", [0, 1])
    def test_mean_and_se_needs_two_replicas(self, replicas):
        with pytest.raises(DomainError, match="at least 2 replicas"):
            mean_and_se(count_matrix(P, (1.0, 2.0), replicas, 3))

    def test_distribution_poisson_reference(self):
        p = ModelParams(1.0, 0.01, 0.5, 1.0)
        pairs = count_distributions(p, (1.0, 5.0), 2000, 99, "poisson")
        assert [d.t for d, _ in pairs] == [1.0, 5.0]
        for d, ref in pairs:
            assert d.replicas == sum(d.counts.values()) == 2000
            assert list(ref) == list(range(max(d.counts) + 31))
            assert ref == poisson_reference_pmf(d.t, max(d.counts) + 30)
            assert d.tv_distance(ref) < 0.1

    def test_distribution_exp_hawkes_reference(self):
        p = ModelParams(1.0, 0.1, 0.99, 1.0)
        ((dist, ref),) = count_distributions(p, (5.0,), 1500, 101, "exp_hawkes")
        paired = count_matrix(p, (5.0,), 1500, 101, "exp_hawkes")[:, 0]
        assert ref == CountDistribution.from_counts(paired, 5.0).pmf()
        assert dist.tv_distance(ref) < 0.15

    def test_distribution_without_reference(self):
        pairs = count_distributions(P, (1.0, 2.0), 50, 5)
        counts = count_matrix(P, (1.0, 2.0), 50, 5)
        for j, (dist, ref) in enumerate(pairs):
            assert ref is None
            assert dist == CountDistribution.from_counts(counts[:, j], dist.t)

    @pytest.mark.parametrize("reference", ["exp-hawkes", "exact", "ilt"])
    def test_unknown_reference_is_domain_error(self, reference):
        with pytest.raises(DomainError, match="unknown reference"):
            count_distributions(P, (1.0,), 10, 0, reference)

    def test_count_matrix_is_drawn_in_simulate(self):
        assert count_matrix is simulate.count_matrix

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

    @pytest.mark.parametrize("t", [1e-150, 1e-153, 1e-155, 1e-160])
    def test_ilt_curve_keeps_tiny_times_in_range(self, t):
        # unscaled, the count image ~ 1/s**2 underflows on these contours;
        # E N(t) = t to 1e-75 here, and a linear original sits on the
        # inversion's aliasing floor, 3*exp(-24) = 1.13e-10 relative
        p = ModelParams(1.0, 0.5, 0.5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expected_n_ilt_curve(p, [t])
        np.testing.assert_allclose(got, expected_n(np.array([t]), p), rtol=1.2e-10, atol=0)

    @pytest.mark.parametrize("beta", [0.3, 0.99, 1.0])
    def test_ilt_curve_scaling_keeps_bits(self, beta):
        # at lambda0 = 2**-1000 every time below inverts a count image
        # scaled by a power of two, which changes no bit of the values
        ts = np.geomspace(1e-3, 1.0, 30)
        tiny = expected_n_ilt_curve(ModelParams(2.0 ** -1000, 0.5, beta, 1.7), ts)
        unit = expected_n_ilt_curve(ModelParams(1.0, 0.5, beta, 1.7), ts)
        assert np.array_equal(tiny, np.ldexp(unit, -1000))

    @pytest.mark.parametrize("t", [1e200, 1e300])
    def test_ilt_curve_overflow_is_a_contour_error(self, t):
        # the count image lambda_image(p)(s)/s overflows at these |s|
        p = ModelParams(1.0, 0.5, 0.5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContourError):
                expected_n_ilt_curve(p, [t])

    def test_from_counts_pmf(self):
        dist = CountDistribution.from_counts(np.array([1, 1, 2, 4]), 1.0)
        assert dist.pmf() == {1: 0.5, 2: 0.25, 4: 0.25}

    def test_count_matrix_rejects_empty_sizes(self):
        with pytest.raises(DomainError):
            count_matrix(P, [], 3, 1)
        with pytest.raises(DomainError):
            count_matrix(P, [1.0], -1, 1)

    @pytest.mark.parametrize("times", [[-1.0, 2.0], [2.0, -0.0, -1e-300]])
    def test_count_matrix_rejects_negative_times(self, times):
        with pytest.raises(DomainError, match="times >= 0"):
            count_matrix(P, times, 3, 0)
