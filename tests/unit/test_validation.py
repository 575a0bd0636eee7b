"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_int,
    check_matrix_2d,
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_probability,
    check_vector_1d,
)


class TestCheckProbability:
    def test_accepts_bounds_inclusive(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0

    def test_rejects_bounds_exclusive(self):
        with pytest.raises(ValueError):
            check_probability(0.0, "p", inclusive=False)
        with pytest.raises(ValueError):
            check_probability(1.0, "p", inclusive=False)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="p must be"):
            check_probability(1.5, "p")
        with pytest.raises(ValueError):
            check_probability(-0.1, "p")

    def test_returns_float(self):
        assert isinstance(check_probability(1, "p"), float)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(3, "n") == 3

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            check_positive(0, "n")
        with pytest.raises(ValueError):
            check_positive(-1, "n")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0, "n") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative(-0.5, "n")
        with pytest.raises(ValueError):
            check_non_negative(float("nan"), "n")


class TestArrayChecks:
    def test_matrix_2d_accepts(self):
        out = check_matrix_2d([[1, 2], [3, 4]], "m")
        assert out.shape == (2, 2)
        assert out.dtype == np.float64

    def test_matrix_2d_rejects_1d(self):
        with pytest.raises(ValueError):
            check_matrix_2d([1, 2, 3], "m")

    def test_vector_1d_accepts(self):
        out = check_vector_1d([1, 2, 3], "v")
        assert out.shape == (3,)

    def test_vector_1d_rejects_2d(self):
        with pytest.raises(ValueError):
            check_vector_1d([[1, 2]], "v")


class TestIntChecks:
    def test_check_int_accepts_python_and_numpy_ints(self):
        assert check_int(3, "n") == 3
        assert check_int(np.int64(3), "n") == 3
        assert isinstance(check_int(np.int64(3), "n"), int)

    def test_check_int_rejects_floats_even_integral(self):
        with pytest.raises(TypeError):
            check_int(3.0, "n")
        with pytest.raises(TypeError):
            check_int(np.float64(3.0), "n")

    def test_check_int_rejects_bool(self):
        # bool is an int subclass but never a sensible count/budget.
        with pytest.raises(TypeError):
            check_int(True, "n")

    def test_check_positive_int(self):
        assert check_positive_int(1, "n") == 1
        with pytest.raises(ValueError):
            check_positive_int(0, "n")
        with pytest.raises(TypeError):
            check_positive_int(1.5, "n")

    def test_check_non_negative_int(self):
        assert check_non_negative_int(0, "n") == 0
        with pytest.raises(ValueError):
            check_non_negative_int(-1, "n")
        with pytest.raises(TypeError):
            check_non_negative_int(0.0, "n")
