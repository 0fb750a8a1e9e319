import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1

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


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def shuffled_arguments(seed: int) -> np.ndarray:
    """A 257-vector log-uniform over 1e-3 ... 1e3 with 1.0 and its two
    neighbours (the series / continued-fraction switch), shuffled."""
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(-3.0, 3.0, 257)
    x[:3] = np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)
    return rng.permutation(x)


class TestOrderedEvaluation:
    """Arrays are evaluated in ascending order and scattered back: every
    value keeps the bits of scipy's exp1 at its own argument."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           x=st.lists(st.floats(min_value=5e-324, max_value=1e300,
                                allow_nan=False),
                      min_size=1, max_size=300))
    def test_permutation_commutes(self, data, x):
        x = np.array(x)
        p = np.array(data.draw(st.permutations(range(len(x)))))
        assert np.array_equal(bits(exp_integral_e1(x)[p]),
                              bits(exp_integral_e1(x[p])))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_elementwise_exp1(self, seed):
        x = shuffled_arguments(seed)
        values = exp_integral_e1(x)
        assert np.array_equal(bits(values), bits(exp1(x)))
        assert np.array_equal(bits(values), bits([exp1(v) for v in x]))

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -0.0, -2.5, -np.inf],
                             ids=["nan", "zero", "minus-zero", "negative",
                                  "minus-inf"])
    @pytest.mark.parametrize("where", [0, 128, 256], ids=["first", "middle", "last"])
    def test_rejects_bad_argument_anywhere(self, bad, where):
        x = shuffled_arguments(7)
        x[where] = bad
        with pytest.raises(ValueError, match="x > 0"):
            exp_integral_e1(x)

    @pytest.mark.parametrize("where", [0, 128, 256])
    def test_infinity_anywhere_gives_zero(self, where):
        x = shuffled_arguments(8)
        x[where] = np.inf
        values = exp_integral_e1(x)
        assert bits(values[where]) == bits(0.0)
        assert np.array_equal(bits(values), bits(exp1(x)))

    @pytest.mark.parametrize("shape", [(16, 257), (3, 1), (1,), (0,), (2, 0)])
    def test_shape_is_kept(self, shape):
        x = 10.0 ** np.random.default_rng(9).uniform(-3.0, 3.0, shape)
        values = exp_integral_e1(x)
        assert values.shape == shape
        assert np.array_equal(bits(values), bits(exp1(x)))

    def test_out_receives_the_values(self):
        x = shuffled_arguments(10)
        expected = bits(exp1(x))
        out = np.empty(x.shape)
        assert exp_integral_e1(x, out=out) is out
        assert np.array_equal(bits(out), expected)
        assert exp_integral_e1(x, out=x) is x  # in place
        assert np.array_equal(bits(x), expected)

    def test_out_in_fortran_order(self):
        x = 10.0 ** np.random.default_rng(11).uniform(-3.0, 3.0, (5, 7))
        out = np.empty(x.shape, order="F")
        exp_integral_e1(x, out=out)
        assert np.array_equal(bits(out), bits(exp1(x)))

    @pytest.mark.parametrize("out", [
        np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.float32), np.zeros(4),
        np.zeros((3, 1)), np.zeros(3, dtype=">f8"), [0.0, 0.0, 0.0],
    ], ids=["int64", "float32", "longer", "3x1", "big-endian", "list"])
    def test_out_of_another_shape_or_dtype_rejected(self, out):
        x = np.array([0.5, 1.0, 2.0])
        before = np.array(out, copy=True)
        with pytest.raises(ValueError, match=r"float64 array of shape \(3,\)"):
            exp_integral_e1(x, out=out)
        assert np.array_equal(np.asarray(out), before)  # left as it was

    def test_out_for_zero_d_input(self):
        out = np.empty(())
        assert exp_integral_e1(np.float64(0.5), out=out) is out
        assert bits(out) == bits(exp1(0.5))
        with pytest.raises(ValueError, match=r"float64 array of shape \(\)"):
            exp_integral_e1(0.5, out=np.empty(1))
