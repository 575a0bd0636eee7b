"""The schema check of the committed end-to-end trajectory (``BENCH_e2e.json``).

Only ``benchmarks/record_e2e.py --check`` runs here: recording runs the
benchmark, and tests never write the trajectory.
"""

import importlib.util
import json
from pathlib import Path

import pytest

RECORDER = Path(__file__).resolve().parents[2] / "benchmarks" / "record_e2e.py"


@pytest.fixture(scope="module")
def recorder():
    spec = importlib.util.spec_from_file_location("record_e2e", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row(recorder):
    return {
        "commit": "0" * 40,
        "dirty": False,
        "pr": 3,
        "workload": "churn_serve",
        "seed": 1,
        "correct": True,
        "attempted": 1248,
        "failed": 0,
        "metrics": {
            name: {"value": 1.5, "unit": unit} for name, unit in recorder.GATED.items()
        },
        "loadavg": [1.0, 0.5, 0.25],
    }


def test_committed_trajectory_is_well_formed(recorder):
    assert recorder.check() == []


def test_well_formed_row_passes(recorder, tmp_path):
    path = tmp_path / "trajectory.json"
    path.write_text(json.dumps([row(recorder)]))
    assert recorder.check(path) == []


@pytest.mark.parametrize(
    "key, value",
    [
        ("commit", "abc123"),
        ("pr", True),
        ("seed", 1.0),
        ("workload", "serve_everything"),
        ("correct", 1),
        ("loadavg", [1.0, 2.0]),
        ("metrics", {"setup_s": {"value": 1.0, "unit": "s"}}),
    ],
    ids=["short-commit", "bool-pr", "float-seed", "workload", "int-correct",
         "loadavg", "metrics"],
)
def test_malformed_field_rejected(recorder, tmp_path, key, value):
    bad = row(recorder)
    bad[key] = value
    path = tmp_path / "trajectory.json"
    path.write_text(json.dumps([row(recorder), bad]))
    errors = recorder.check(path)
    assert errors and all(error.startswith("row 1:") for error in errors)


def test_metric_unit_and_missing_key_rejected(recorder, tmp_path):
    bad = row(recorder)
    bad["metrics"]["peak_rss_mb"]["unit"] = "GB"
    missing = row(recorder)
    del missing["failed"]
    path = tmp_path / "trajectory.json"
    path.write_text(json.dumps([bad, missing]))
    errors = recorder.check(path)
    assert any("peak_rss_mb" in error for error in errors)
    assert any(error.startswith("row 1: keys") for error in errors)


@pytest.mark.parametrize(
    "text", ["", "{}", "[]", "[1, 2"], ids=["empty", "object", "no-rows", "truncated"]
)
def test_unreadable_or_empty_file_rejected(recorder, tmp_path, text):
    path = tmp_path / "trajectory.json"
    path.write_text(text)
    assert recorder.check(path)
