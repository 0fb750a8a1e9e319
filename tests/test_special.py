import numpy as np
import pytest
from scipy.integrate import quad

from fbeq import exp_integral_e1


def quadrature_e1(x: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral."""
    value, _ = quad(lambda t: np.exp(-t) / t, x, np.inf,
                    epsabs=0.0, epsrel=1e-12, limit=400)
    return value


class TestExpIntegralE1:
    def test_value_at_one(self):
        # Golden constant from a 50-digit evaluation of the integral.
        assert exp_integral_e1(1.0) == pytest.approx(0.21938393439552027, rel=1e-13)
        assert exp_integral_e1(1.0) == pytest.approx(quadrature_e1(1.0), abs=1e-6)

    def test_series_end_of_range(self):
        assert exp_integral_e1(1e-3) == pytest.approx(6.331539364136149, rel=1e-13)

    def test_monotonically_decreasing(self):
        xs = np.sort(np.random.default_rng(7).uniform(1e-3, 50.0, size=200))
        values = exp_integral_e1(xs)
        assert np.all(np.diff(values) < 0)

    def test_asymptotic_tail(self):
        # Asymptotic expansion oracle: E1(x) ~ (e^-x / x) * (1 - 1/x + ...).
        expansion = np.exp(-50.0) / 50.0 * (1.0 - 1.0 / 50.0)
        assert exp_integral_e1(50.0) == pytest.approx(expansion, rel=0.01)
        assert exp_integral_e1(50.0) == pytest.approx(3.783264029550459e-24,
                                                      rel=1e-13)

    def test_quadrature_sweep(self):
        xs = np.geomspace(1e-3, 50.0, 120)
        values = exp_integral_e1(xs)
        for x, value in zip(xs, values):
            ref = quadrature_e1(float(x))
            assert abs(value - ref) / ref <= 1e-7

    def test_continuous_across_branch_switch(self):
        below = exp_integral_e1(1.0 - 1e-12)
        above = exp_integral_e1(1.0 + 1e-12)
        assert abs(below - above) <= 1e-11 * below

    def test_rejects_nonpositive(self):
        for x in (0.0, -3.0, np.array([1.0, -1.0]), -0.0, np.array([1.0, -0.0]),
                  np.array(-0.0)):
            with pytest.raises(ValueError, match="x > 0"):
                exp_integral_e1(x)

    def test_infinity_gives_zero(self):
        assert exp_integral_e1(np.inf) == 0.0
        assert np.array_equal(exp_integral_e1(np.array([1.0, np.inf]))[1:], [0.0])

    def test_rejects_minus_infinity(self):
        for x in (-np.inf, np.array([1.0, -np.inf])):
            with pytest.raises(ValueError, match="x > 0"):
                exp_integral_e1(x)

    def test_smallest_subnormal_is_finite(self):
        """E1 is finite for every x > 0, largest at the smallest double:
        there ``E1(x) = -gamma - ln x`` to rounding."""
        tiny = np.nextafter(0.0, 1.0)
        expected = -np.euler_gamma - np.log(tiny)
        assert exp_integral_e1(tiny) == pytest.approx(743.86285625648, rel=1e-12)
        assert exp_integral_e1(tiny) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("x", [float("nan"), np.array([1.0, np.nan]),
                                   np.array([[np.nan, 2.0], [3.0, 4.0]]),
                                   np.append(np.full(256, 2.0), np.nan)],
                             ids=["scalar", "array", "2d-array", "last-of-257"])
    def test_rejects_nan(self, x):
        with pytest.raises(ValueError, match="x > 0"):
            exp_integral_e1(x)

    def test_zero_d_input_gives_a_float(self):
        value = exp_integral_e1(np.array(1.0))
        assert isinstance(value, float)
        assert value == exp_integral_e1(1.0)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_input_passes(self, shape):
        out = exp_integral_e1(np.empty(shape))
        assert out.shape == shape

    def test_array_matches_scalar(self):
        xs = np.array([1e-3, 0.3, 1.0, 2.5, 9.0, 42.0])
        batch = exp_integral_e1(xs)
        singles = np.array([exp_integral_e1(float(x)) for x in xs])
        np.testing.assert_array_equal(batch, singles)
        assert isinstance(exp_integral_e1(2.0), float)
        assert batch.shape == xs.shape

    def test_2d_array_shape(self):
        xs = np.array([[0.5, 1.5], [3.0, 20.0]])
        out = exp_integral_e1(xs)
        assert out.shape == (2, 2)
        assert out[0, 0] == exp_integral_e1(0.5)
