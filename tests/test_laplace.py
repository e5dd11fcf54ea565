"""Laplace layer: transform-pair suite for the Bromwich midpoint inversion,
round trips, linearity, warnings/errors, and the forward transform."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from fhawkes import (
    ContourError,
    ConvergenceWarning,
    DomainError,
    LaplaceImage,
    MLKernelParams,
    ModelParams,
    QuadratureError,
    expected_n,
    forward_lt,
    ilt_grid,
    lambda_exact,
    lambda_image,
    ml_density,
)
from fhawkes.harness import expected_n_ilt_curve
from fhawkes.laplace import _EPSABS, _EPSREL, _EULER_TERMS, _N_TERMS, _gk_quad

PAIRS = [
    # image, original, sigma0
    (lambda s: 1.0 / s, lambda t: np.ones_like(t), 0.0),
    (lambda s: 1.0 / s ** 2, lambda t: t, 0.0),
    (lambda s: 1.0 / (s + 1.0), lambda t: np.exp(-t), -1.0),
    (lambda s: 1.0 / (s ** 2 + 1.0), lambda t: np.sin(t), 0.0),
]

# forward_lt(ml_density, s, singular_exponent=beta) as (beta, gamma, s,
# value), printed by the per-s integrator that preceded the shared mesh: a
# scalar s must still give these bits
SCALAR_GOLDEN = [
    (0.5, 1.0, 1.0, "0x1.0000000000000p-1"),
    (0.9, 1.7, 2.0, "0x1.e8282fd3b7694p-2"),
    (0.3, 0.1, 0.1, "0x1.54a8c577a2d2ap-3"),
    (0.3, 0.1, 10.0, "0x1.86fa303f9660ap-5"),
    (0.3, 1.7, 0.1, "0x1.8b6c47f4ff7a5p-1"),
    (0.3, 1.7, 10.0, "0x1.d716f64e72559p-2"),
    (0.99, 0.1, 0.1, "0x1.fa1b0b64827a5p-2"),
    (0.99, 0.1, 10.0, "0x1.4bea8a4cf7b0dp-7"),
    (0.99, 1.7, 0.1, "0x1.e2ee3ce5a5e97p-1"),
    (0.99, 1.7, 10.0, "0x1.2f7a1661e5e23p-3"),
]

# ilt_grid at ILT_GOLDEN_TIMES, each time alone and all together, as
# (value, error estimate) pairs printed at 64 midpoint terms plus 32 Euler
# terms.  Each value lies on the exp(-24) aliasing floor of its exact
# inverse: within 1e-10 of lambda_exact, and 1.13e-10 from t for the ramp
# 1/s**2.  These bits must not move.
ILT_GOLDEN_TIMES = (0.05, 1.0, 7.3, 50.0)
ILT_GOLDEN = {
    "ramp": [
        ("0x1.99999998d2422p-5", "0x1.6000000000000p-54"),
        ("0x1.ffffffff06cd9p-1", "0x1.4000000000000p-51"),
        ("0x1.d33333324fd35p+2", "0x1.0000000000000p-47"),
        ("0x1.8fffffff3e134p+5", "0x1.0000000000000p-47"),
    ],
    # lambda_image(ModelParams(1, 0.1, beta, gamma)) at two c04 settings
    (0.5, 0.1): [
        ("0x1.00a273714201ap+0", "0x1.8f00000000000p-44"),
        ("0x1.02ac4764d88ddp+0", "0x1.f180000000000p-43"),
        ("0x1.06631ab761cd2p+0", "0x1.ca80000000000p-42"),
        ("0x1.0cbecaed24dd9p+0", "0x1.4d40000000000p-41"),
    ],
    (0.9, 1.7): [
        ("0x1.02e116dbcda07p+0", "0x1.24c0000000000p-42"),
        ("0x1.15b33b02226efp+0", "0x1.4d00000000000p-42"),
        ("0x1.1c09713b52945p+0", "0x1.9d60000000000p-41"),
        ("0x1.1c627c6407ef2p+0", "0x1.8800000000000p-46"),
    ],
}

# the six (beta, gamma) sets of criterion c04 and its time grid
C04_SETS = [ModelParams(1.0, 0.1, b, g) for b in (0.5, 0.9) for g in (0.1, 0.8, 1.7)]
C04_TIMES = np.geomspace(0.05, 50.0, 160)

# image with a pole right of zero: the original grows, the abscissa moves
GROWING_PAIR = (lambda s: 1.0 / (s - 1.0), lambda t: np.exp(t), 1.0)


# (ilt_grid value, estimate, expected_n_ilt_curve) at t = 1e-300 and 1e-303,
# for ModelParams(1, 0.5, 0.5, 1): the smallest times whose contour scale
# exp(offset*t)/t = e**12/t is finite
TINY_TIME_BITS = {
    1e-300: ("0x1.ffffffffb4656p-1", "0x1.2180000000000p-42", "0x1.56e1fc2ee85b1p-997"),
    1e-303: ("0x1.ffffffffa788ep-1", "0x1.2ad0000000000p-41", "0x1.5f1ca81fa6bf9p-1007"),
}


class TestIlt:
    def test_constant(self):
        value, _ = ilt_grid(LaplaceImage(lambda s: 1.0 / s), 3.7)
        assert float(value) == pytest.approx(1.0, abs=1e-6)

    def test_exponential(self):
        value, _ = ilt_grid(LaplaceImage(lambda s: 1.0 / (s + 1.0), sigma0=-1.0), 2.0)
        assert float(value) == pytest.approx(math.exp(-2.0), abs=1e-6)

    def test_ramp(self):
        value, _ = ilt_grid(LaplaceImage(lambda s: 1.0 / s ** 2), 5.0)
        assert float(value) == pytest.approx(5.0, abs=1e-5 * 5.0)

    def test_transform_pair_suite(self):
        ts = np.geomspace(0.1, 20.0, 40)
        for image, original, sigma0 in PAIRS:
            vals, _ = ilt_grid(LaplaceImage(image, sigma0=sigma0), ts)
            ref = original(ts)
            scale = np.maximum(np.abs(ref), 1e-2)
            assert np.max(np.abs(vals - ref) / scale) < 1e-5

    def test_growing_original(self):
        image, original, sigma0 = GROWING_PAIR
        ts = np.geomspace(0.1, 5.0, 15)
        vals, _ = ilt_grid(LaplaceImage(image, sigma0=sigma0), ts)
        ref = original(ts)
        assert np.max(np.abs(vals - ref) / ref) < 1e-5

    def test_linearity(self):
        img_a = lambda s: 1.0 / s
        img_b = lambda s: 1.0 / (s + 1.0)
        combo = LaplaceImage(lambda s: 2.0 * img_a(s) + 3.0 * img_b(s))
        t = 1.5
        lhs = float(ilt_grid(combo, t)[0])
        rhs = 2.0 * float(ilt_grid(LaplaceImage(img_a), t)[0]) + 3.0 * float(
            ilt_grid(LaplaceImage(img_b), t)[0]
        )
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_error_estimate_reported(self):
        _, est = ilt_grid(LaplaceImage(lambda s: 1.0 / s), 2.0)
        assert est.shape == () and est >= 0.0

    def test_rejects_nonpositive_time(self):
        for image in (LaplaceImage(lambda s: 1.0 / s), _decay_family((0.0, 1.0))):
            for t in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(DomainError):
                    ilt_grid(image, t)
                with pytest.raises(DomainError):
                    ilt_grid(image, [1.0, t])

    def test_contour_error_on_nonfinite_image(self):
        def bad_fn(s):
            with np.errstate(divide="ignore", invalid="ignore"):
                return 1.0 / (s - s)

        with pytest.raises(ContourError):
            ilt_grid(LaplaceImage(bad_fn), 1.0)

    def test_overflowing_sums_are_contour_errors(self):
        # a finite image whose alternating partial sums pass the double
        # range, and a contour scale exp(sigma0*t) past it: ContourError,
        # and no RuntimeWarning or OverflowError on the way
        wild = LaplaceImage(lambda s: 1e308j * np.resize([-1.0, 1.0], s.size))
        growing = LaplaceImage(GROWING_PAIR[0], GROWING_PAIR[2])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ContourError, match=r"inversion overflows at t=1\.0"):
                ilt_grid(wild, 1.0)
            with pytest.raises(ContourError, match=r"contour scale overflows at t=1000\.0"):
                ilt_grid(growing, [1.0, 1000.0])

    def test_memory_per_time_is_the_output(self):
        # the two outputs take 16 bytes per time; everything else is one
        # contour's worth, whatever the number of times
        image = lambda_image(ModelParams(1.0, 0.1, 0.5, 0.8))
        ts = np.linspace(0.2, 1e5, 5000)
        ilt_grid(image, ts[:2])
        tracemalloc.start()
        try:
            ilt_grid(image, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * ts.size

    @pytest.mark.parametrize("t", [1e-300, 1e-303, 1e-305, 1e-307])
    def test_tiny_times(self, t):
        # below about 1e-304 the contour scale overflows: ContourError, and
        # no RuntimeWarning on the way
        p = ModelParams(1.0, 0.5, 0.5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if t not in TINY_TIME_BITS:
                for ts in (t, [t]):
                    with pytest.raises(ContourError):
                        ilt_grid(lambda_image(p), ts)
                with pytest.raises(ContourError):
                    expected_n_ilt_curve(p, [t])
                return
            value, est, count = (float.fromhex(h) for h in TINY_TIME_BITS[t])
            vals, errs = ilt_grid(lambda_image(p), t)
            assert (vals.tolist(), errs.tolist()) == (value, est)
            vals, errs = ilt_grid(lambda_image(p), [t])
            assert (vals.tolist(), errs.tolist()) == ([value], [est])
            assert expected_n_ilt_curve(p, [t]).tolist() == [count]

    def test_convergence_warning_on_hard_image(self):
        # a delayed step, whose image does not decay along the contour,
        # moves under node doubling by 2.1e-2 relative at t = 1
        rough = LaplaceImage(lambda s: np.exp(-s) / s)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            with pytest.raises(ConvergenceWarning):
                ilt_grid(rough, 1.0)

    def test_convergence_warning_names_the_caller(self):
        rough = LaplaceImage(lambda s: np.exp(-s) / s)
        with pytest.warns(ConvergenceWarning) as record:
            ilt_grid(rough, 1.0)
        assert record[0].filename == __file__

    def test_round_trip_through_forward(self):
        # smooth bounded original: numerical forward transform, numerically
        # inverted; oscillatory frequencies handled by weighted quadrature
        f = lambda t: 1.0 / (1.0 + t)

        def image(s):
            return np.array([_complex_forward(f, complex(si)) for si in np.atleast_1d(s)])

        ts = np.linspace(0.5, 10.0, 5)
        # node doubling moves each value by under 1e-9 relative, so this
        # does not warn; the 1e-3 bound allows for the forward quadrature
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            vals, _ = ilt_grid(LaplaceImage(image), ts)
        ref = f(ts)
        assert np.max(np.abs(vals - ref) / ref) < 1e-3


def _golden_image(key):
    if key == "ramp":
        return LaplaceImage(lambda s: 1.0 / s ** 2)
    return lambda_image(ModelParams(1.0, 0.1, *key))


def _decay_family(rates):
    """Family of images ``1/(s + a_i)``, whose inverses are ``exp(-a_i t)``."""
    a = np.asarray(rates, dtype=float)[:, None]
    return LaplaceImage(lambda s: 1.0 / (s + a), sigma0=-float(a.min()))


class TestIltBits:
    @pytest.mark.parametrize("key", list(ILT_GOLDEN), ids=str)
    def test_golden_bits(self, key):
        image = _golden_image(key)
        golden = [(float.fromhex(v), float.fromhex(e)) for v, e in ILT_GOLDEN[key]]
        for t, pair in zip(ILT_GOLDEN_TIMES, golden):
            value, est = ilt_grid(image, t)
            assert value.shape == est.shape == ()
            assert (value.tolist(), est.tolist()) == pair
        vals, errs = ilt_grid(image, ILT_GOLDEN_TIMES)
        assert list(zip(vals.tolist(), errs.tolist())) == golden
        if key == "ramp":
            ts = np.array(ILT_GOLDEN_TIMES)
            assert np.all(np.abs(vals - ts) <= 1.2e-10 * ts)
        else:
            exact = lambda_exact(ILT_GOLDEN_TIMES, ModelParams(1.0, 0.1, *key))
            np.testing.assert_allclose(vals, exact, rtol=1e-10, atol=0)

    def test_c04_family_rows_equal_single_images(self):
        vals, errs = ilt_grid(lambda_image(*C04_SETS), C04_TIMES)
        assert vals.shape == errs.shape == (6, 160)
        for p, row_v, row_e in zip(C04_SETS, vals, errs):
            single_v, single_e = ilt_grid(lambda_image(p), C04_TIMES)
            assert np.array_equal(row_v, single_v)
            assert np.array_equal(row_e, single_e)

    def test_sweep_stays_on_the_aliasing_floor(self):
        # 64 + 32 nodes reach the exp(-24) aliasing floor: the worst errors
        # over this sweep, 7.45e-11 and 2.07e-10, read the same at 2000 terms
        ts = np.geomspace(1e-3, 1e3, 121)
        sets = itertools.product((0.1, 0.5, 0.9), (0.3, 0.5, 0.7, 0.9, 0.99), (0.1, 1.7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha, beta, gamma in sets:
                p = ModelParams(1.0, alpha, beta, gamma)
                vals, _ = ilt_grid(lambda_image(p), ts)
                np.testing.assert_allclose(vals, lambda_exact(ts, p), rtol=1e-10, atol=0)
                np.testing.assert_allclose(
                    expected_n_ilt_curve(p, ts), expected_n(ts, p), rtol=2.5e-10, atol=0
                )

    def test_lambda_image_needs_a_parameter_set(self):
        with pytest.raises(DomainError):
            lambda_image()


class TestIltFamily:
    RATES = (0.0, 0.5, 2.0)

    def test_grid_shapes_and_values(self):
        ts = np.geomspace(0.1, 5.0, 12)
        vals, errs = ilt_grid(_decay_family(self.RATES), ts)
        assert vals.shape == errs.shape == (3, 12)
        ref = np.exp(-np.outer(self.RATES, ts))
        assert np.max(np.abs(vals - ref)) < 1e-8
        assert np.all(errs >= 0.0)

    def test_two_dimensional_times(self):
        ts = np.geomspace(0.1, 5.0, 6).reshape(2, 3)
        vals, errs = ilt_grid(_decay_family(self.RATES), ts)
        assert vals.shape == errs.shape == (3, 2, 3)
        flat, _ = ilt_grid(_decay_family(self.RATES), ts.ravel())
        assert np.array_equal(vals.reshape(3, 6), flat)

    def test_zero_dimensional_times(self):
        vals, errs = ilt_grid(_decay_family(self.RATES), 1.5)
        assert vals.shape == errs.shape == (3,)
        one, _ = ilt_grid(LaplaceImage(lambda s: 1.0 / (s + 0.5)), 1.5)
        assert one.shape == ()
        assert vals[1] == one

    def test_empty_times(self):
        vals, errs = ilt_grid(_decay_family(self.RATES), [])
        assert vals.shape == errs.shape == (3, 0)
        vals, errs = ilt_grid(LaplaceImage(lambda s: 1.0 / s), np.empty((0, 4)))
        assert vals.shape == errs.shape == (0, 4)

    def test_ilt_returns_arrays_for_a_family(self):
        vals, errs = ilt_grid(_decay_family(self.RATES), 2.0)
        assert vals.shape == errs.shape == (3,)
        np.testing.assert_allclose(vals, np.exp(-2.0 * np.array(self.RATES)),
                                   rtol=0, atol=1e-8)

    def test_warning_names_the_row(self):
        # exp(-20) at t = 10 is small against the contour's absolute error
        with pytest.warns(ConvergenceWarning, match=r"ilt\(t=10\) in row 1 by"):
            ilt_grid(_decay_family((0.0, 2.0)), [10.0])

    def test_family_is_called_once_per_time(self):
        calls = []
        family = _decay_family(self.RATES)

        def counted(s):
            calls.append(s.shape)
            return family(s)

        ilt_grid(LaplaceImage(counted, family.sigma0), [0.5, 1.0, 2.0])
        assert calls == [(_N_TERMS + _EULER_TERMS,)] * 3

    def test_one_nonfinite_row_fails_the_call(self):
        def fn(s):
            rows = 1.0 / (s + np.array([[0.5], [1.0]]))
            rows[1, 7] = np.nan
            return rows

        with pytest.raises(ContourError):
            ilt_grid(LaplaceImage(fn), [1.0, 2.0])
        with pytest.raises(ContourError):
            ilt_grid(LaplaceImage(fn), 1.0)


def _complex_forward(f, s):
    cut = 50.0 / max(s.real, 0.5)
    re, _ = quad(lambda t: f(t) * math.exp(-s.real * t), 0, cut,
                 weight="cos", wvar=s.imag, limit=300)
    im, _ = quad(lambda t: f(t) * math.exp(-s.real * t), 0, cut,
                 weight="sin", wvar=s.imag, limit=300)
    return re - 1j * im


class TestForwardLt:
    def test_exponential(self):
        assert forward_lt(lambda t: np.exp(-t), 1.0) == pytest.approx(0.5, abs=1e-9)

    def test_kernel_density_transform(self):
        k = MLKernelParams(0.5, 1.0)
        got = forward_lt(lambda t: ml_density(t, k), 1.0, singular_exponent=0.5)
        assert got == pytest.approx(0.5, abs=1e-6)

    def test_scaled_kernel_transform(self):
        k = MLKernelParams(0.9, 1.7)
        got = forward_lt(lambda t: ml_density(t, k), 2.0, singular_exponent=0.9)
        ref = 1.7 / (1.7 + 2.0 ** 0.9)
        assert got == pytest.approx(ref, abs=1e-6)

    @pytest.mark.parametrize("beta", [0.3, 0.99])
    @pytest.mark.parametrize("gamma", [0.1, 1.7])
    @pytest.mark.parametrize("s", [0.1, 10.0])
    def test_kernel_transform_vs_quadpack(self, beta, gamma, s):
        # scalar QUADPACK reference in the same head/tail split
        k = MLKernelParams(beta, gamma)
        head, _ = quad(
            lambda u: ml_density(u ** (1 / beta), k) * math.exp(-s * u ** (1 / beta))
            * u ** (1 / beta - 1) / beta,
            0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=400,
        )
        tail, _ = quad(
            lambda t: ml_density(t, k) * math.exp(-s * t),
            1.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400,
        )
        got = forward_lt(lambda t: ml_density(t, k), s, singular_exponent=beta)
        assert got == pytest.approx(head + tail, rel=0, abs=1e-9)

    def test_zero_s_is_the_integral(self):
        assert forward_lt(lambda t: np.exp(-t), 0.0) == pytest.approx(1.0, abs=1e-10)
        got = forward_lt(lambda t: np.exp(-t), [0.0, 1.0])
        np.testing.assert_allclose(got, [1.0, 0.5], rtol=0, atol=1e-10)
        k = MLKernelParams(0.3, 1.0)
        mass = forward_lt(lambda t: ml_density(t, k), 0.0, singular_exponent=0.3)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_zero_s_needs_an_integrable_f(self):
        with pytest.raises(QuadratureError, match="panels"):
            forward_lt(lambda t: 1.0 / (1.0 + t), 0.0)

    def test_rejects_nonpositive_s(self):
        for s in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                forward_lt(lambda t: np.ones_like(t), s)
            with pytest.raises(DomainError):
                forward_lt(lambda t: np.ones_like(t), [1.0, s, 2.0])
        for s in ([[1.0, 2.0]], []):
            with pytest.raises(DomainError):
                forward_lt(lambda t: np.ones_like(t), s)
        for p in (0.0, math.nan, 1.5):
            with pytest.raises(DomainError):
                forward_lt(np.exp, 1.0, singular_exponent=p)

    def test_quadrature_error_surfaces(self):
        with pytest.raises(QuadratureError, match="panels"):
            forward_lt(lambda t: np.sin(np.exp(t * 12.0)) * 1e6, 1e-4)

    def test_nonfinite_integrand_raises_at_once(self):
        calls = []

        def f(t):
            calls.append(t.size)
            return np.where(t > 0.5, np.nan, 1.0)

        with pytest.raises(QuadratureError, match="not finite"):
            forward_lt(f, 1.0)
        assert calls == [21]

    @pytest.mark.parametrize("beta,gamma,s,golden", SCALAR_GOLDEN)
    def test_scalar_s_bits_unchanged(self, beta, gamma, s, golden):
        k = MLKernelParams(beta, gamma)
        got = forward_lt(lambda t: ml_density(t, k), s, singular_exponent=beta)
        assert type(got) is float
        assert got == float.fromhex(golden)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7, 0.9, 0.99])
    def test_array_s_matches_per_s_calls(self, beta):
        # the shared mesh differs from each per-s mesh, so the values agree
        # to the quadrature's own accuracy (tolerance 1e-10): the gap peaks
        # at 1.3e-12, at beta = 0.99
        k = MLKernelParams(beta, 1.0)
        f = lambda t: ml_density(t, k)
        s = np.array([0.1, 1.0, 10.0])
        got = forward_lt(f, s, singular_exponent=beta)
        per = [forward_lt(f, si, singular_exponent=beta) for si in s]
        assert got.shape == (3,)
        np.testing.assert_allclose(got, per, rtol=0, atol=2e-12)
        np.testing.assert_allclose(got, 1.0 / (1.0 + s ** beta), rtol=0, atol=1e-9)

    def test_each_component_meets_its_tolerance(self):
        # integrands of very different sizes on one mesh: each one's error
        # is held to its own tolerance, not to the largest one's
        scale = np.array([[1e-3], [1.0], [1e4]])
        freq = np.array([[40.0], [5.0], [0.0]])
        fn = lambda u: scale * np.sqrt(u) * np.cos(freq * u)

        values, errors = _gk_quad(fn, 0.0, 1.0)
        assert np.all(errors <= np.maximum(_EPSABS, _EPSREL * np.abs(values)))
        for j in range(3):
            ref, _ = quad(lambda u: scale[j, 0] * math.sqrt(u) * math.cos(freq[j, 0] * u),
                          0.0, 1.0, epsabs=1e-16, epsrel=1e-13, limit=200)
            assert abs(values[j] - ref) <= max(_EPSABS, _EPSREL * abs(ref))

    def test_overflowing_integrand_raises_unwarned(self):
        # exp(1e3 / u) overflows near u = 0: the quadrature's own guard
        # turns that into its error, with no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(QuadratureError, match="not finite"):
                _gk_quad(lambda u: np.exp(1e3 / u), 0.0, 1.0)

    def test_nonfinite_integrand_raises_at_once_for_array_s(self):
        calls = []

        def f(t):
            calls.append(t.size)
            return np.where(t > 0.5, np.nan, 1.0)

        with pytest.raises(QuadratureError, match="not finite"):
            forward_lt(f, [0.5, 1.0, 2.0])
        assert calls == [21]

    def test_panel_limit_for_array_s(self):
        with pytest.raises(QuadratureError, match="panels"):
            forward_lt(lambda t: np.sin(np.exp(t * 12.0)) * 1e6, [1e-4, 1.0])
