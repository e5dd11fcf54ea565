"""Special-function layer: Prabhakar/Mittag-Leffler evaluation, kernel
density, spectral density, erfcx, and exact sampling.

Frozen reference values were computed with the independent high-precision
oracle in ``tests/oracle.py`` (adaptive-precision series plus branch-cut
quadrature); regenerate the tables with ``python3 tests/gen_fixtures.py``.
The checks near ``beta = 1`` read their own table, and the oracle's
branch-cut route is checked live against its series.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from fhawkes import (
    AccuracyError,
    DomainError,
    MLKernelParams,
    ModelParams,
    erfcx,
    ml_density,
    ml_one,
    ml_sample,
    ml_spectral,
    prabhakar,
)
from fhawkes import special
from fhawkes.simulate import _stream, _stream_keys, intensity, simulate_cluster
from oracle import prabhakar_oracle, prabhakar_series

# oracle values, 20 significant digits
ERFCX_1 = 0.42758357615580700441
ERFCX_4 = 0.13699945762506138989
ERFCX_50 = 0.0112815362653237725
E_09_M072 = 0.48799513802606450449  # E_{0.9}(-0.72)
E_055_M01 = 0.47454388555084361831  # E_{0.5,0.5}(-0.1)
F_05_AT_2 = 0.062738277955091459258  # kernel density, beta=0.5, gamma=1, t=2


class TestPrabhakar:
    def test_at_zero_is_reciprocal_gamma(self):
        assert prabhakar(0.7, 1.3, 2.0, 0.0) == pytest.approx(
            1.0 / math.gamma(1.3), rel=1e-14
        )

    def test_exponential_special_case(self):
        assert prabhakar(1.0, 1.0, 1.0, -2.0) == pytest.approx(
            math.exp(-2.0), rel=1e-13
        )

    def test_half_beta_is_scaled_erfc(self):
        assert prabhakar(0.5, 1.0, 1.0, -1.0) == pytest.approx(ERFCX_1, rel=1e-11)

    def test_against_oracle_table(self, prabhakar_table):
        for row in prabhakar_table:
            got = prabhakar(row["a"], row["b"], row["c"], row["z"])
            # near sign changes of the general-parameter function the
            # relative scale is the leading envelope, not the tiny value
            scale = abs(row["value"])
            if row["z"] < -1.0:
                scale = max(scale, 1e-3 * abs(row["z"]) ** -row["c"])
            assert got == pytest.approx(row["value"], abs=1e-10 * max(scale, 1e-300)), row

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            prabhakar(0.0, 1.0, 1.0, -1.0)
        with pytest.raises(DomainError):
            prabhakar(0.5, -1.0, 1.0, -1.0)
        with pytest.raises(DomainError):
            prabhakar(0.5, 1.0, 0.0, -1.0)
        with pytest.raises(DomainError):
            prabhakar(0.5, 1.0, 1.0, -1e9)
        for a, b, c, z in [
            (math.nan, 1.0, 1.0, -1.0),
            (0.5, math.nan, 1.0, -50.0),
            (0.5, 1.0, math.nan, -1.0),
            (0.5, 1.0, 1.0, math.nan),
            (0.5, 1.0, 1.0, np.array([-1.0, math.nan])),
        ]:
            with pytest.raises(DomainError):
                prabhakar(a, b, c, z)

    def test_series_overflow_is_accuracy_error(self):
        # E_{1/2}(z) ~ 2*exp(z**2) passes the double range just above 26.6;
        # the exact sum of the series terms overflows there
        assert np.isfinite(prabhakar(0.5, 1.0, 1.0, 26.5))
        for z in (26.65, np.array([1.0, 26.65])):
            with pytest.raises(AccuracyError):
                prabhakar(0.5, 1.0, 1.0, z)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_order_one_overflow_is_accuracy_error(self):
        # the closed forms at a = 1 pass the double range as the series does
        # at a < 1, and name the argument
        calls = [(prabhakar, (1.0, 1.0, 1.0, 1000.0)),
                 (prabhakar, (1.0, 1.3, 2.0, np.array([1.0, 1000.0]))),
                 (ml_one, (1.0, 800.0))]
        for fn, args in calls:
            with pytest.raises(AccuracyError, match=r"\((1000|800)\.0\) is past"):
                fn(*args)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_value_is_accuracy_error(self):
        # the contour's integrand overflows at large c, and the spectral
        # rule breaks down at a subnormal order; neither returns NaN
        calls = [(prabhakar, (0.5, 1.0, 1000.0, -1.0)),
                 (prabhakar, (0.5, 1.0, 250.0, np.array([-1.0, -45.0]))),
                 (prabhakar, (0.9, 2.0, 300.0, -100.0)),
                 (ml_one, (5e-324, -1.0))]
        for fn, args in calls:
            with pytest.raises(AccuracyError, match=r"\((-1|-45|-100)\.0\) is past"):
                fn(*args)

    @pytest.mark.xfail(raises=AccuracyError, strict=True,
                       reason="the spectral head series fails at small order")
    def test_small_order(self):
        # known fault: _spectral's 48-term head series converges like
        # ((1/64)**a / x)**m, a ratio that tends to 1/x as a -> 0, and
        # raises AccuracyError where it has not converged.  The references
        # are E_a(-x) = sin(a*pi)/(a*pi) * int_0^inf exp(-w**(1/a)) * x /
        # (w**2 + 2*x*w*cos(a*pi) + x**2) dw at 30 digits, E_{a,a}(-x) =
        # -a * d/dx E_a(-x), and E_a(-1) -> 1/2 as a -> 0; the same formula
        # matches the library to 1e-14 at (a, x) = (0.3, 1.1), (0.5, 3) and
        # (0.9, 1.05)
        cases = [((0.001, 1.0, 1.0, -1.0), 0.4998556960785243),
                 ((0.05, 1.0, 1.0, -1.1), 0.46897149368359997),
                 ((0.05, 0.05, 1.0, -1.05), 0.011899051119729366),  # kernel shape
                 ((1e-300, 1.0, 1.0, -1.0), 0.5)]
        got = [prabhakar(*args) for args, _ in cases]
        assert got == pytest.approx([ref for _, ref in cases], rel=1e-10)

    @pytest.mark.parametrize("args", [(0.001, 1.0, 1.0, -1.0), (0.05, 1.0, 1.0, -1.1),
                                      (0.05, 0.05, 1.0, -1.05), (1e-300, 1.0, 1.0, -1.0),
                                      (1 / 48, 1.0, 1.0, -1.1)])
    def test_small_order_head_series_raises(self, args):
        # test_small_order's inputs: the 48-term head series of the spectral
        # rule has not converged there, which raises rather than return a
        # wrong value.  At a = 1/48 the last term vanishes with sin(48*psi),
        # yet the value was 1.7e-6 off
        a, b, _, z = args
        with pytest.raises(AccuracyError, match=rf"spectral regime: E_\{{{a},{b}\}}\({z}\)"):
            prabhakar(*args)

    def test_vectorized_matches_scalar(self):
        z = np.array([-0.5, -8.0, -300.0, 0.0, 1.5])
        vec = prabhakar(0.7, 1.0, 1.0, z)
        for zi, vi in zip(z, vec):
            assert vi == prabhakar(0.7, 1.0, 1.0, float(zi))

    @pytest.mark.parametrize("beta", [0.99, 0.999])
    def test_expected_count_shape_vs_oracle(self, beta):
        # E_{beta,2} where the series is rejected and the contour serves
        for z in (-27.0, -25.5, -24.0, -23.0):
            ref = float(prabhakar_oracle(beta, 2.0, 1.0, z))
            assert prabhakar(beta, 2.0, 1.0, z) == pytest.approx(
                ref, rel=1e-12, abs=0.0
            ), z

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.9])
    def test_two_parameter_recurrence(self, a):
        z = -np.geomspace(1e-2, 100.0, 50)
        lhs = prabhakar(a, 1.0, 1.0, z)
        rhs = z * prabhakar(a, 1.0 + a, 1.0, z) + 1.0
        assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 1e-10


# E_{a,a}(-x) at a = 0.9999, beyond the oracle's series range (z < -30): its
# branch-cut integrand spikes at r = x**(1/a), relative width pi*(1-a)/a
class TestOracleNearOrderOne:
    def test_branch_cut_matches_series(self):
        ref = prabhakar_series(0.9999, 0.9999, 1.0, -33.0)
        got = prabhakar_oracle(0.9999, 0.9999, 1.0, -33.0)
        assert abs(got - ref) <= 1e-40 * abs(ref)

    @pytest.mark.parametrize("z", [-33.0, -37.17])
    def test_library_matches_oracle(self, z, near_one_table):
        ref = near_one_table["prabhakar", 0.9999, z]
        assert prabhakar(0.9999, 0.9999, 1.0, z) == pytest.approx(
            ref, rel=1e-12, abs=0.0
        )


# One batch per shape mixes z = 0, positive z, the series/large-argument
# band [-6, -4], arguments the series rejects in [-40, -6] (cancellation or
# overflow), and z < -40.
_MIXED_Z = np.array(
    [0.0, 0.3, 2.5, -0.7, -2.0, -4.0, -4.9, -6.0, -9.5, -17.0, -33.0, -40.0,
     -41.0, -3.0e3, -7.0e5]
)
_SERIES_REJECTED = (-9.5, -17.0, -33.0)
_SHAPES = [(0.5, 1.0, 1.0), (0.5, 0.5, 1.0), (0.9, 2.0, 1.0), (0.3, 1.0, 1.0),
           (0.7, 1.3, 2.0)]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


# (shape, z, value, accepted) of `_series_sum`, one argument per way a row
# leaves the series; a rejected row keeps 0.0 unless its exact sum was taken
_SERIES_BRANCHES = [
    ((0.5, 1.0, 1.0), -36.1457874785369, 0.0, False),  # screened out, chunk 0
    ((0.5, 1.0, 1.0), 3.0320264676244335, 19659.631771999168, True),  # stops, chunk 0
    # float sums undecided; stops in chunk 1
    ((0.5, 1.0, 1.0), 3.8057123644885706, 3900415.8942601685, True),
    ((0.5, 1.0, 1.0), 3.1624686967730256, 44106.02050054745, True),  # exact sum in loop
    ((0.5, 1.0, 1.0), -2.569614289028456, 0.20574893697218924, False),  # audit rejects
    ((0.5, 1.0, 1.0), -2.655090657655947, 0.0, False),  # audit's lower bound rejects
    ((0.5, 1.0, 1.0), 40.64139279062883, 0.0, False),  # a term overflows
    ((0.05, 1.0, 1.0), 1.4329871577202198, 0.0, False),  # term budget spent
    ((0.05, 1.0, 1.0), 1.262134852369094, 9.983267518727994e46, True),  # exact sum, chunk 6
]


@np.errstate(over="ignore", invalid="ignore")
def _series_row(a, b, c, z):
    """Reference for `_series_sum`: ``(value, accepted)`` at one nonzero
    ``z``, summed alone with the same float operations, each rule decided
    on Python scalars after each chunk."""
    eps, rtol = special._EPS, special._SERIES_RTOL
    screen = math.inf
    if c == 1.0 and b >= a and special.rgamma(b) >= np.finfo(float).tiny:
        screen = rtol * (1.0 + 1e-9) * special.rgamma(b)
    terms = np.empty(special._SERIES_KMAX)
    tot = s = 0.0
    for k0, k1 in special._SERIES_CHUNKS:
        ks = special._SERIES_K[k0:k1]
        chunk = terms[k0:k1]
        np.multiply(ks, math.log(abs(z)), out=chunk)
        chunk += (special.gammaln(c + ks) - special._SERIES_LOG_FACT[k0:k1]
                  - special.gammaln(a * ks + b) - special.gammaln(c))
        np.exp(chunk, out=chunk)
        peak, (t3, t2, t1) = float(chunk.max()), chunk[-3:].tolist()
        s += float(np.add.reduce(chunk))
        if z < 0.0:
            chunk *= special._SERIES_ALT[: k1 - k0]
        tot += float(np.add.reduce(chunk))
        if peak == math.inf or (z < 0.0 and 6.0 * eps * peak * (1.0 - 1e-9) > screen):
            return 0.0, False
        if not (t2 <= t3 and t1 <= t2):
            continue
        scale, t, v = max(peak, 1e-300), abs(tot), None
        if not t1 < 1e-17 * scale:
            hi = (t + k1 * eps * s) * (1.0 + 1e-9)
            if not math.isnan(hi) and t1 >= 1e-17 * max(hi, scale):
                continue
            try:
                v = math.fsum(terms[:k1].tolist())
            except OverflowError:
                v = math.inf
            if not t1 < 1e-17 * max(abs(v), scale):
                continue
        if not 6.0 * eps * s * (1.0 - 1e-9) <= rtol * (t + k1 * eps * s):
            return 0.0, False
        work = np.abs(terms[:k1])
        lg_mag = np.abs(np.log(np.maximum(work, 1e-300)))
        err = float(np.add.reduce(work * eps * (lg_mag + 6.0)))
        if v is None:
            try:
                v = math.fsum(terms[:k1].tolist())
            except OverflowError:
                v = math.inf
        return v, 0.0 < abs(v) < math.inf and err / abs(v) <= rtol
    return 0.0, False


class TestBatchedSeries:
    @pytest.mark.parametrize("shape, z, value, accepted", _SERIES_BRANCHES)
    def test_series_branch_bits(self, shape, z, value, accepted):
        got, ok = special._series_sum(*shape, np.array([z]))
        ref, ref_ok = _series_row(*shape, z)
        assert (_bits(got[0]), ok[0]) == (_bits(value), accepted) == (_bits(ref), ref_ok)

    @pytest.mark.parametrize("shape", _SHAPES + [(0.05, 1.0, 1.0), (0.05, 0.05, 1.0),
                                                 (0.99, 1.0, 1.0), (0.4, 2.5, 4.0)])
    def test_series_matches_row_reference(self, shape):
        # 180 rows: three blocks of _SERIES_ROWS, summed together
        rng = np.random.default_rng(11)
        z = np.concatenate([rng.uniform(-40.0, 60.0, 150), -np.geomspace(1e-6, 40.0, 15),
                            np.geomspace(1e-6, 60.0, 15)])
        got, ok = special._series_sum(*shape, z)
        ref = [_series_row(*shape, float(zi)) for zi in z]
        np.testing.assert_array_equal(_bits(got), _bits([v for v, _ in ref]))
        np.testing.assert_array_equal(ok, [acc for _, acc in ref])

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_batch_is_elementwise(self, shape):
        batch = prabhakar(*shape, _MIXED_Z)
        for i, zi in enumerate(_MIXED_Z):
            assert _bits(batch[i]) == _bits(prabhakar(*shape, float(zi)))
            one = prabhakar(*shape, _MIXED_Z[i : i + 1])
            assert _bits(batch[i]) == _bits(one[0])

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_rejected_row_leaves_others_alone(self, shape):
        series_z = _MIXED_Z[(_MIXED_Z != 0.0) & (_MIXED_Z >= -40.0)]
        _, accepted = special._series_sum(*shape, series_z)
        assert not np.any(accepted[np.isin(series_z, _SERIES_REJECTED)])
        full = prabhakar(*shape, _MIXED_Z)
        for z_rej in _SERIES_REJECTED:
            keep = _MIXED_Z != z_rej
            np.testing.assert_array_equal(
                _bits(prabhakar(*shape, _MIXED_Z[keep])), _bits(full[keep])
            )

    def test_one_large_argument_pass(self, monkeypatch):
        # the series accepts -4.5 on the hand-off band, so its cross-check
        # shares the one contour call with the large argument -50
        calls = []

        def counted(*args):
            calls.append(args)
            return contour(*args)

        contour = special._contour_sum
        monkeypatch.setattr(special, "_contour_sum", counted)
        prabhakar(0.9, 2.0, 1.0, np.array([-4.5, -50.0]))
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0][3], [-4.5, -50.0])

    def test_blocked_pass_is_elementwise(self):
        # more than one block of large arguments in each regime (spectral
        # E_beta and E_{beta,beta}, contour), band arguments among them
        n = special._LARGE_BLOCK
        z = np.concatenate([
            -np.geomspace(41.0, 1e6, 2 * n + 5), np.linspace(-6.0, -4.0, 9),
            [-0.3, -2.0, 0.0, 1.0],
        ])
        z = np.random.default_rng(7).permutation(z)
        for shape in ((0.5, 1.0, 1.0), (0.5, 0.5, 1.0), (0.9, 2.0, 1.0)):
            alone = [prabhakar(*shape, float(zi)) for zi in z]
            np.testing.assert_array_equal(_bits(prabhakar(*shape, z)), _bits(alone))

    def test_conditioning_error_spans_every_block(self):
        # the worst conditioning and the z-range over all contour arguments
        z = np.concatenate([-np.geomspace(41.0, 1e4, 150), [-6.1145, -4.5, -5.5]])
        with pytest.raises(AccuracyError) as exc:
            prabhakar(0.7, 1.3, 2.0, z)
        assert str(exc.value) == (
            "contour regime conditioning 2.81e-08 exceeds budget for "
            "E_{0.7,1.3}^2.0 at z in [-10000.0, -4.5]"
        )

    @pytest.mark.parametrize("shape", [(0.5, 1.0, 1.0), (0.5, 2.0, 1.0)])
    def test_large_argument_memory_is_bounded(self, shape):
        # the pass holds one block of temporaries at a time; over all 20000
        # arguments at once it traces 414 MB (E_{1/2}) and 24 MB (E_{1/2,2})
        z = -np.geomspace(50.0, 1e6, 20000)
        tracemalloc.start()
        try:
            prabhakar(*shape, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_intensity_on_long_path_matches_erfcx_form(self):
        p = ModelParams(1.0, 0.5, 0.5, 1.0)
        path = simulate_cluster(p, 1000.0, seed=3)
        assert len(path) >= 1500
        lags = 1000.0 - path.epochs
        x = p.gamma * np.sqrt(lags)
        dens = p.gamma / np.sqrt(lags) * (1.0 / math.sqrt(math.pi) - x * erfcx(x))
        ref = p.lambda0 + p.alpha * math.fsum(dens)
        assert intensity(1000.0, path, p) == pytest.approx(ref, rel=1e-9)


_args = st.tuples(
    st.floats(0.2, 1.0), st.floats(0.1, 3.0), st.floats(0.2, 3.0),
    st.lists(st.floats(-1.0e4, 2.0), min_size=1, max_size=12),
)


class TestPrabhakarProperties:
    @settings(max_examples=60, deadline=None)
    @given(_args)
    def test_batch_equals_elementwise(self, args):
        a, b, c, zs = args
        elems = []
        for zi in zs:
            try:
                elems.append(prabhakar(a, b, c, zi))
            except AccuracyError:
                elems.append(None)
        if None in elems:
            with pytest.raises(AccuracyError):
                prabhakar(a, b, c, np.array(zs))
        else:
            np.testing.assert_array_equal(
                _bits(prabhakar(a, b, c, np.array(zs))), _bits(elems)
            )

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 1.0),
           st.lists(st.floats(0.0, 1.0e4), min_size=2, max_size=16, unique=True))
    def test_ml_one_decreases_on_negative_axis(self, beta, xs):
        # regimes agree to ~1e-11, so neighbours closer than that may tie
        v = ml_one(beta, -np.sort(xs))
        assert np.all(v[1:] <= v[:-1] * (1.0 + 1e-10))


class TestMlOne:
    def test_at_zero(self):
        assert ml_one(0.9, 0.0) == 1.0

    def test_beta_one_is_exponential(self):
        assert ml_one(1.0, -3.0) == pytest.approx(math.exp(-3.0), rel=1e-13)

    def test_half_beta_value(self):
        assert ml_one(0.5, -4.0) == pytest.approx(ERFCX_4, rel=1e-11)

    def test_range_and_monotonicity(self):
        x = np.geomspace(1e-6, 1e6, 4000)
        for beta in (0.3, 0.5, 0.7, 0.9, 0.99):
            v = ml_one(beta, -x)
            assert np.all((v > 0.0) & (v <= 1.0))
            assert np.all(np.diff(v) < 0.0)

    def test_complete_monotonicity_spot(self):
        # finite differences of orders 1..3 alternate in sign
        x = np.linspace(0.5, 20.0, 200)
        v = ml_one(0.7, -x)
        d1 = np.diff(v)
        d2 = np.diff(d1)
        d3 = np.diff(d2)
        assert np.all(d1 < 0) and np.all(d2 > 0) and np.all(d3 < 0)

    def test_rejects_bad_beta(self):
        with pytest.raises(DomainError):
            ml_one(1.2, -1.0)


class TestMlDensity:
    def test_exponential_limit(self):
        k = MLKernelParams(1.0, 2.0)
        assert ml_density(1.0, k) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)

    def test_point_value_vs_oracle(self):
        k = MLKernelParams(0.5, 1.0)
        assert ml_density(2.0, k) == pytest.approx(F_05_AT_2, rel=1e-11)

    def test_short_time_shape(self):
        # t^(beta-1) blow-up with the E_{b,b} factor at small argument
        k = MLKernelParams(0.5, 1.0)
        got = ml_density(0.01, k)
        assert got == pytest.approx(10.0 * E_055_M01, rel=1e-11)

    def test_rejects_nonpositive_time(self):
        for t in (0.0, math.nan):
            for beta in (0.5, 1.0):
                with pytest.raises(DomainError):
                    ml_density(t, MLKernelParams(beta, 1.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_at_subnormal_time(self):
        # t**(beta - 1) passes the double range at the smallest subnormal
        with pytest.raises(AccuracyError, match="t=5e-324"):
            ml_density(5e-324, MLKernelParams(0.001, 1.0))
        with pytest.raises(AccuracyError, match="t=5e-324"):
            ml_density([1.0, 5e-324], MLKernelParams(0.001, 1.0))

    @pytest.mark.parametrize("beta", [0.999, 0.9999])
    def test_near_exponential_vs_oracle(self, beta, near_one_table):
        # the spectral quadrature resolves the mixing density's pole, whose
        # width sin((1-beta)*pi) shrinks as beta -> 1
        k = MLKernelParams(beta, 1.0)
        for t in (0.05, 0.5, 2.0, 4.5, 8.0, 20.0, 100.0, 1e3, 1e4):
            ref = near_one_table["ml_density", beta, t]
            assert ml_density(t, k) == pytest.approx(ref, rel=1e-12, abs=0.0), t

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7, 0.9, 0.99])
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 1.7])
    def test_normalization(self, beta, gamma):
        k = MLKernelParams(beta, gamma)
        head, _ = quad(
            lambda u: ml_density(u ** (1 / beta), k) * u ** (1 / beta - 1) / beta,
            0.0,
            1.0,
            limit=200,
        )
        tail, _ = quad(lambda t: ml_density(t, k), 1.0, np.inf, limit=400)
        assert head + tail == pytest.approx(1.0, abs=1e-6)

    def test_matches_spectral_quadrature(self):
        # independent route: f(t) = int theta exp(-theta t) K(theta) dtheta,
        # with theta = u^2 flattening the endpoint singularity
        k = MLKernelParams(0.5, 1.0)
        for t in (0.01, 0.5, 2.0, 10.0, 100.0):
            ref, err = quad(
                lambda u, t=t: 2.0 * u ** 3 * math.exp(-u * u * t)
                * ml_spectral(u * u, 0.5),
                0.0,
                np.inf,
                limit=500,
                epsabs=0.0,
                epsrel=1e-11,
            )
            assert ml_density(t, k) == pytest.approx(ref, rel=1e-8)

    def test_scaling_in_gamma(self):
        # gamma enters only through the time scale gamma^(-1/beta)
        t = np.array([0.3, 1.0, 4.0])
        a = ml_density(t, MLKernelParams(0.5, 1.7))
        c = 1.7 ** (1 / 0.5)
        b = c * ml_density(c * t, MLKernelParams(0.5, 1.0))
        np.testing.assert_allclose(a, b, rtol=1e-11)


class TestSpectral:
    def test_known_point(self):
        assert ml_spectral(1.0, 0.5) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7, 0.9])
    def test_normalization(self, beta):
        # substitute theta = u^(1/beta) to handle both tails
        val, _ = quad(
            lambda u: ml_spectral(u ** (1 / beta), beta) * u ** (1 / beta - 1) / beta,
            0.0,
            np.inf,
            limit=400,
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_rejects_beta_one(self):
        with pytest.raises(DomainError):
            ml_spectral(1.0, 1.0)

    def test_rejects_theta_outside_domain(self):
        for theta in (0.0, math.nan):
            with pytest.raises(DomainError):
                ml_spectral(theta, 0.5)

    def test_left_tail_integrable(self):
        # theta^(beta-1) divergence at 0 is integrable
        val, _ = quad(
            lambda u: ml_spectral(u ** (1 / 0.7), 0.7) * u ** (1 / 0.7 - 1) / 0.7,
            0.0,
            1e-3,
            limit=200,
        )
        assert 0.0 < val < 1.0


class TestErfcx:
    def test_at_zero(self):
        assert erfcx(0.0) == 1.0

    def test_reference_values(self):
        assert erfcx(1.0) == pytest.approx(ERFCX_1, rel=1e-12)
        assert erfcx(50.0) == pytest.approx(ERFCX_50, rel=1e-12)

    def test_no_overflow(self):
        assert np.isfinite(erfcx(1e150))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_outside_its_domain_and_range(self):
        # exp(x**2) * erfc(x) ~ 2*exp(x**2) passes the double range just
        # below x = -26.6; +inf gives the limit 0
        assert np.isfinite(erfcx(-26.6))
        assert erfcx(math.inf) == 0.0
        for x in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(DomainError, match="NaN"):
                erfcx(x)
        for x in (-26.7, np.array([1.0, -30.0]), -math.inf):
            with pytest.raises(AccuracyError, match="past the double range"):
                erfcx(x)

    def test_identity_with_ml(self):
        x = np.linspace(0.0, 100.0, 201)
        rel = np.abs(ml_one(0.5, -x) - erfcx(x)) / erfcx(x)
        assert np.max(rel) < 1e-10


class TestSampling:
    def test_exponential_case_mean(self):
        rng = _stream(_stream_keys(11, "cluster", [0])[0])
        draws = ml_sample(rng, MLKernelParams(1.0, 2.0), 100_000)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) < 3.0 * se

    def test_survival_matches_ml(self):
        rng = _stream(_stream_keys(12, "cluster", [0])[0])
        draws = ml_sample(rng, MLKernelParams(0.5, 1.0), 100_000)
        surv = np.mean(draws > 1.0)
        ref = ml_one(0.5, -1.0)
        se = math.sqrt(ref * (1 - ref) / draws.size)
        assert abs(surv - ref) < 3.0 * se

    def test_ks_against_cdf(self):
        rng = _stream(_stream_keys(13, "cluster", [0])[0])
        beta = 0.6
        draws = ml_sample(rng, MLKernelParams(beta, 1.0), 10_000)
        stat, pvalue = kstest(draws, lambda t: 1.0 - ml_one(beta, -(t ** beta)))
        assert pvalue > 0.01

    def test_positive(self):
        rng = _stream(_stream_keys(14, "cluster", [0])[0])
        draws = ml_sample(rng, MLKernelParams(0.3, 0.5), 10_000)
        assert np.all(draws > 0.0)

    def test_sizes(self):
        rng = _stream(_stream_keys(15, "cluster", [0])[0])
        k = MLKernelParams(0.5, 1.0)
        assert ml_sample(rng, k, 0).shape == (0,)
        assert ml_sample(rng, k, (2, 3)).shape == (2, 3)
        for size in (-1, (2, -3)):
            with pytest.raises(DomainError):
                ml_sample(rng, k, size)

    @pytest.mark.parametrize(
        "beta, gamma", [(0.01, 1.0), (0.5, 1e-150), (0.01, 2000.0)]
    )
    def test_variates_past_the_double_range(self, beta, gamma):
        # (0.01, 1) and (0.5, 1e-150) draw lags past the double range, which
        # come out inf; at (0.01, 2000) the scale underflows to 0 where the
        # mixture factor overflows, an inf * 0 product that has a finite value
        keys = _stream_keys(16, "cluster", [0])[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            draws = ml_sample(_stream(keys), MLKernelParams(beta, gamma), 100_000)
        assert not np.isnan(draws).any() and (draws >= 0.0).all()
        assert np.isinf(draws).any() == (gamma != 2000.0)
        # every finite product keeps its bits
        rng = _stream(keys)
        u = rng.uniform(np.nextafter(0.0, 1.0), 1.0, draws.size)
        x = rng.standard_exponential(draws.size)
        with np.errstate(over="ignore", invalid="ignore"):
            mix = np.sin(math.pi * beta * (1.0 - u)) / np.sin(math.pi * beta * u)
            plain = gamma ** (-1.0 / beta) * x * mix ** (1.0 / beta)
        finite = np.isfinite(plain)
        assert not finite.all()
        assert np.array_equal(draws[finite], plain[finite])
        assert np.isfinite(draws[np.isnan(plain)]).all()

    def test_cluster_path_at_small_order(self):
        # about 1330 children at beta = 0.01, a few of them with a lag past
        # the double range: dropped as past the horizon, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ev = simulate_cluster(ModelParams(1.0, 0.5, 0.01, 1.0), 1000.0, 0)
        assert 0 < ev.epochs.size < 2000 and np.isfinite(ev.epochs).all()
