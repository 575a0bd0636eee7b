"""Shared benchmark fixtures: the scaled experiment environment."""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Mapping

import pytest

from repro.experiments.common import full_requested, get_environment

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def env():
    """The experiment environment (scaled unless REPRO_FULL=1)."""
    return get_environment(full_requested())


@pytest.fixture(scope="session")
def bench_iterations():
    """Per-bench iteration budget (paper-scale only with REPRO_FULL=1)."""
    return None if full_requested() else 25


def emit_report(
    name: str, text: str, data: Mapping[str, Any] | None = None
) -> None:
    """Print a result table so it survives pytest's output capture.

    Writes to the real stdout (visible in ``pytest benchmarks/`` output even
    under capture) and persists a copy under ``benchmarks/results/``.  When
    ``data`` is given, a machine-readable sibling ``results/<name>.json`` is
    written alongside the text table (timings, sizes, speedups …) so the
    perf trajectory stays diffable and plottable across PRs.
    """
    banner = f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}\n"
    sys.__stdout__.write(banner)
    sys.__stdout__.flush()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if data is not None:
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(data, indent=2, sort_keys=True, default=float) + "\n"
        )


def measure_peak_memory(fn: Callable[[], Any]) -> tuple[Any, int]:
    """Run ``fn`` under tracemalloc; returns ``(result, peak_bytes)``.

    tracemalloc tracks numpy/scipy buffers too (they allocate through the
    tracked allocator domains), so the peak covers the arrays that dominate
    diffusion memory.  Tracing adds a few percent of runtime overhead —
    measure wall-clock in a separate untraced run when the same benchmark
    reports both.
    """
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, int(peak)
