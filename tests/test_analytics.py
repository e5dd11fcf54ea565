"""Closed-form expected intensity / expected count formulas: reference values,
mutual consistency, the Laplace image, and asymptotics."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from fhawkes import (
    AccuracyError,
    DomainError,
    ModelParams,
    asymptote,
    expected_n,
    expected_n_half,
    forward_lt,
    ilt_grid,
    lambda_exact,
    lambda_exact_half,
    lambda_image,
)
from fhawkes.analytics import _principal_power
from fhawkes.laplace import _DECAY, _K_MID

# frozen oracle values
LAMBDA_HALF_T1 = 1.0104412671634487  # lambda0=1, alpha=0.1, gamma=0.1, t=1
E_09_M072 = 0.48799513802606450449  # E_{0.9}(-0.72)
E_12_M15 = 0.51791322656771344738  # E_{1,2}(-1.5)

PARAM_GRID = [
    ModelParams(1.0, 0.1, beta, g) for beta in (0.5, 0.9) for g in (0.1, 0.8, 1.7)
]


class TestModelParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            ModelParams(0.0, 0.1, 0.5, 1.0)
        with pytest.raises(DomainError):
            ModelParams(1.0, 1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            ModelParams(1.0, 0.1, 1.5, 1.0)
        with pytest.raises(DomainError):
            ModelParams(1.0, 0.1, 0.5, 0.0)

    def test_poisson_degenerate_allowed(self):
        assert ModelParams(1.0, 0.0, 0.5, 1.0).alpha == 0.0


class TestLambdaImage:
    def test_poisson_case_collapses(self):
        p = ModelParams(2.0, 0.0, 0.5, 1.0)
        img = lambda_image(p)
        s = np.array([0.3 + 0.4j, 2.0 + 0j])
        np.testing.assert_allclose(img(s), 2.0 / s, rtol=1e-14)

    def test_point_value(self):
        p = ModelParams(1.0, 0.1, 0.5, 0.8)
        got = lambda_image(p)(np.array([1.0 + 0j]))[0]
        assert got.real == pytest.approx(1.8 / 1.72, rel=1e-14)
        assert got.imag == 0.0

    def test_small_s_limit(self):
        p = ModelParams(1.0, 0.1, 0.7, 0.8)
        s = np.array([1e-9 + 0j])
        assert (s * lambda_image(p)(s))[0].real == pytest.approx(
            1.0 / 0.9, rel=1e-5
        )


def _mp_power(s, beta):
    """Principal ``s**beta`` at 40 digits, rounded to complex."""
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        return np.array(
            [complex(mpmath.power(mpmath.mpc(z.real, z.imag), b)) for z in s]
        )


@pytest.mark.filterwarnings("error")
class TestPrincipalPower:
    BETAS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)

    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
    def test_contour_nodes_against_mpmath(self, t):
        s = _DECAY / (2.0 * t) + 1j * _K_MID * (math.pi / t)
        for beta in self.BETAS:
            ref = _mp_power(s, beta)
            rel = np.abs(_principal_power(s, beta) - ref) / np.abs(ref)
            assert rel.max() <= 2e-15, beta

    def test_all_quadrants_and_extreme_moduli(self):
        rng = np.random.default_rng(15)
        r = 10.0 ** rng.uniform(-300.0, 300.0, 400)
        s = r * np.exp(1j * rng.uniform(-math.pi, math.pi, r.size))
        s = np.concatenate([s, [1e-300j, -1e300 + 0j, 1e300 - 1e300j, -3e-300 - 0j]])
        for beta in self.BETAS:
            ref = _mp_power(s, beta)
            rel = np.abs(_principal_power(s, beta) - ref) / np.abs(ref)
            assert rel.max() <= 2e-13, beta

    def test_zero_gives_zero(self):
        for s in (np.zeros(3, dtype=complex), np.array(0j)):
            got = _principal_power(s, 0.5)
            assert got.shape == s.shape
            assert np.all(got == 0.0)

    def test_beta_one_returns_s(self):
        s = np.array([0.5 + 2.0j, -1e300 + 1e-300j, 1e-200 - 3.0j])
        assert _principal_power(s, 1.0) is s

    @pytest.mark.parametrize("t", [1e-300, 1e-160, 1e300])
    def test_inversion_at_extreme_times(self, t):
        # |s| on the contour passes sqrt(max float) for t <= 1e-154 and
        # falls below sqrt(tiny) for t >= 1e155
        p = ModelParams(1.0, 0.5, 0.99, 1.0)
        limit = p.lambda0 if t < 1.0 else asymptote(p)
        assert float(ilt_grid(lambda_image(p), t)[0]) == pytest.approx(limit, rel=1e-9)


class TestLambdaExact:
    def test_initial_value(self):
        for p in PARAM_GRID:
            assert lambda_exact(0.0, p) == p.lambda0

    def test_beta_one_closed_form(self):
        p = ModelParams(1.0, 0.5, 1.0, 1.0)
        got = lambda_exact(2.0, p)
        assert got == pytest.approx(2.0 - math.exp(-1.0), rel=1e-13)

    def test_high_beta_point_value(self):
        p = ModelParams(1.0, 0.1, 0.9, 0.8)
        ref = (1.0 - 0.1 * E_09_M072) / 0.9
        assert lambda_exact(1.0, p) == pytest.approx(ref, rel=1e-11)

    def test_half_beta_example(self):
        p = ModelParams(1.0, 0.1, 0.5, 0.1)
        assert lambda_exact_half(1.0, p) == pytest.approx(LAMBDA_HALF_T1, rel=1e-12)

    def test_half_beta_requires_half(self):
        with pytest.raises(DomainError):
            lambda_exact_half(1.0, ModelParams(1.0, 0.1, 0.9, 1.0))

    @pytest.mark.parametrize(
        "curve", [lambda_exact, lambda_exact_half, expected_n, expected_n_half]
    )
    @pytest.mark.parametrize("t", [-1.0, math.nan, np.array([1.0, math.nan])])
    def test_rejects_time_outside_domain(self, curve, t):
        with pytest.raises(DomainError):
            curve(t, ModelParams(1.0, 0.1, 0.5, 1.0))

    def test_half_forms_agree(self):
        t = np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 300)])
        for g in (0.1, 0.8, 1.7):
            p = ModelParams(1.0, 0.1, 0.5, g)
            a = lambda_exact_half(t, p)
            b = lambda_exact(t, p)
            assert np.max(np.abs(a - b) / b) < 1e-9

    def test_range_and_monotonicity(self):
        t = np.geomspace(1e-3, 200.0, 400)
        for p in PARAM_GRID:
            lam = lambda_exact(t, p)
            assert np.all(lam >= p.lambda0)
            assert np.all(lam < asymptote(p))
            assert np.all(np.diff(lam) > 0.0)

    def test_matches_inversion(self):
        t = np.geomspace(0.05, 50.0, 60)
        for p in PARAM_GRID:
            exact = lambda_exact(t, p)
            num, _ = ilt_grid(lambda_image(p), t)
            assert np.max(np.abs(num - exact) / exact) < 1e-4

    def test_forward_transform_closure(self):
        p = ModelParams(1.0, 0.1, 0.5, 0.8)
        img = lambda_image(p)
        for s in (0.5, 1.0, 2.0):
            got = forward_lt(lambda t: lambda_exact(t, p), s)
            ref = img(np.array([s + 0j]))[0].real
            assert got == pytest.approx(ref, abs=1e-5)


class TestAsymptote:
    def test_values(self):
        assert asymptote(ModelParams(1.0, 0.1, 0.5, 1.0)) == pytest.approx(1 / 0.9)
        assert asymptote(ModelParams(1.0, 0.0, 0.5, 1.0)) == 1.0
        assert asymptote(ModelParams(2.0, 0.5, 0.5, 1.0)) == 4.0


class TestExpectedN:
    def test_zero_time(self):
        for p in PARAM_GRID:
            assert expected_n(0.0, p) == 0.0
        p5 = ModelParams(1.0, 0.1, 0.5, 0.8)
        assert expected_n_half(0.0, p5) == 0.0

    def test_poisson_case(self):
        p = ModelParams(1.3, 0.0, 0.5, 1.0)
        t = np.linspace(0.0, 10.0, 11)
        np.testing.assert_allclose(expected_n_half(t, p), 1.3 * t, rtol=1e-13)
        np.testing.assert_allclose(expected_n(t, p), 1.3 * t, rtol=1e-12)

    def test_beta_one_closed_form(self):
        p = ModelParams(1.0, 0.5, 1.0, 1.0)
        ref = 6.0 - 3.0 * E_12_M15
        assert expected_n(3.0, p) == pytest.approx(ref, rel=1e-13)

    def test_half_forms_agree(self):
        t = np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 200)])
        for g in (0.1, 0.8, 1.7):
            p = ModelParams(1.0, 0.1, 0.5, g)
            a = expected_n_half(t, p)
            b = expected_n(t, p)
            scale = np.maximum(np.abs(a), 1e-12)
            assert np.max(np.abs(a - b) / scale) < 1e-9

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_half_form_at_small_x(self, alpha):
        # the erfcx bracket cancels as x = (1-alpha)*gamma*sqrt(t) goes to 0,
        # and gamma**2 underflows to 0 below gamma ~ 1e-162
        x = np.geomspace(1e-9, 1e-2, 15)
        for g in (1.0, 1e-6):
            p = ModelParams(1.0, alpha, 0.5, g)
            t = (x / ((1.0 - alpha) * g)) ** 2
            np.testing.assert_allclose(
                expected_n_half(t, p), expected_n(t, p), rtol=1e-12, atol=0.0
            )
        p = ModelParams(1.0, alpha, 0.5, 1e-200)
        t = np.array([1e-3, 3.0, 1e300])
        np.testing.assert_allclose(
            expected_n_half(t, p), expected_n(t, p), rtol=1e-12, atol=0.0
        )

    @pytest.mark.parametrize("beta", [0.5, 0.9])
    @pytest.mark.parametrize("gamma", [0.1, 0.8, 1.7])
    def test_integral_of_intensity(self, beta, gamma):
        p = ModelParams(1.0, 0.1, beta, gamma)
        for t in (0.5, 3.0, 10.0):
            ref, err = quad(lambda u: lambda_exact(u, p), 0.0, t, limit=300)
            assert expected_n(t, p) == pytest.approx(ref, abs=max(2e-6, 3 * err))

    def test_rate_approaches_asymptote(self):
        p = ModelParams(1.0, 0.3, 0.7, 1.0)
        t = np.geomspace(0.1, 1e4, 50)
        rate = expected_n(t, p) / t
        assert np.all(np.diff(rate) > 0.0)
        assert rate[-1] < asymptote(p)
        assert rate[-1] == pytest.approx(asymptote(p), rel=0.02)

    def test_nonnegative_nondecreasing(self):
        p = ModelParams(1.0, 0.5, 0.5, 1.0)
        t = np.linspace(0.0, 50.0, 300)
        v = expected_n(t, p)
        assert np.all(v >= 0.0)
        assert np.all(np.diff(v) > 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDoubleRange:
    """Past the double range each closed form raises its FHawkesError, with
    no raw overflow warning first."""

    FAST = ModelParams(1.0, 0.5, 0.5, 1e300)  # gamma*t**beta overflows at 1e300

    def test_expected_count_overflows(self):
        with pytest.raises(AccuracyError, match=r"expected count at t=100000000\.0"):
            expected_n(1e8, ModelParams(1e300, 0.5, 0.5, 1.0))
        with pytest.raises(AccuracyError, match=r"expected count at t=100000000\.0"):
            expected_n_half([1.0, 1e8], ModelParams(1e300, 0.5, 0.5, 1.0))

    def test_expected_intensity_overflows(self):
        with pytest.raises(AccuracyError, match=r"expected intensity at t=1\.0"):
            lambda_exact([1.0, 2.0], ModelParams(1e308, 0.9, 0.5, 1.0))

    def test_argument_past_z_max(self):
        with pytest.raises(DomainError, match="Z_MAX"):
            lambda_exact(1e300, self.FAST)
        # erfcx of the overflowed argument is 0: the value is the asymptote
        assert lambda_exact_half(1e300, self.FAST) == asymptote(self.FAST)

    def test_half_form_gamma_square_overflows(self):
        # gamma**2 overflows at gamma = 1e155; the general form's argument is
        # past Z_MAX there
        p = ModelParams(1.0, 0.5, 0.5, 1e155)
        with pytest.raises(AccuracyError, match=r"gamma\*\*2 overflows at gamma=1e\+155"):
            expected_n_half(1.0, p)
        with pytest.raises(DomainError, match="Z_MAX"):
            expected_n(1.0, p)
