"""Tests for ASCII/CSV reporting."""

import csv

import pytest

from repro.simulation.metrics import AccuracyGrid
from repro.simulation.reporting import (
    format_accuracy_grid,
    format_rows,
    format_table,
    sparkline,
    write_csv,
)


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["name", "value"], [["a", 1], ["longer", 22]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "----" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        out = format_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        out = format_table(["v"], [[0.123456]])
        assert "0.12" in out

    def test_nan_rendered_as_dash(self):
        out = format_table(["v"], [[float("nan")]])
        assert "-" in out.splitlines()[-1]


class TestFormatRows:
    def test_dict_rows(self):
        out = format_rows([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        assert "a" in out and "b" in out
        assert "3" in out

    def test_empty_rows(self):
        assert format_rows([], title="empty") == "empty"


class TestFormatAccuracyGrid:
    def test_one_row_per_alpha(self):
        grid = AccuracyGrid((0.1, 0.5), 3)
        grid.record(0.1, 0, True)
        out = format_accuracy_grid(grid)
        lines = out.splitlines()
        assert len(lines) == 4  # header + separator + 2 alphas
        assert "a=0.1" in out and "a=0.5" in out


class TestSparkline:
    def test_length_matches(self):
        assert len(sparkline([0.0, 0.5, 1.0])) == 3

    def test_monotone_heights(self):
        blocks = sparkline([0.0, 1.0])
        assert blocks[0] < blocks[1]

    def test_nan_is_space(self):
        assert sparkline([float("nan")]) == " "

    def test_clamps_out_of_range(self):
        assert len(sparkline([-1.0, 2.0])) == 2


class TestWriters:
    def test_write_csv_roundtrip(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        path = tmp_path / "out.csv"
        write_csv(path, rows)
        with open(path) as handle:
            loaded = list(csv.DictReader(handle))
        assert loaded[0]["a"] == "1"
        assert loaded[1]["b"] == "y"

    def test_write_csv_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, [])
        assert path.read_text() == ""
