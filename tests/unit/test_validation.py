"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_int,
    check_non_negative,
    check_non_negative_int,
    check_peer_ids,
    check_positive,
    check_positive_int,
    check_probability,
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


class TestCheckPeerIds:
    def test_accepts_python_and_numpy_ids(self):
        peers = check_peer_ids(np.array([4, 0, 4]), 5, "quarantine")
        assert peers == [4, 0, 4]
        assert all(type(peer) is int for peer in peers)
        assert check_peer_ids(iter(()), 5, "quarantine") == []

    @pytest.mark.parametrize("peer", [-1, 5])
    def test_rejects_out_of_range(self, peer):
        with pytest.raises(ValueError, match=rf"quarantine peer {peer} out of range \[0, 5\)"):
            check_peer_ids([0, peer], 5, "quarantine")
