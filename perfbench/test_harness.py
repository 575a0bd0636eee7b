"""Self-tests for the harness arithmetic; they run no workload and write nothing."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench.stats import batches_beyond, hit_rate, relative_latencies, self_times
from perfbench.tracer import PARENT, Tracer


def test_tail_is_counted_in_batches_not_queries():
    # Three batches of four queries; queries of a batch resolve together.
    latencies = [1.0] * 4 + [5.0, 5.0, 5.0, 5.1] + [9.0, 9.0, 9.2, 9.4]
    batch_of = ["a"] * 4 + ["b"] * 4 + ["c"] * 4
    p90 = np.percentile(latencies, 90)
    # Eight queries lie above 4.0, but they are only two batches.
    assert sum(v > 4.0 for v in latencies) == 8
    assert batches_beyond(latencies, batch_of, 4.0) == 2
    assert batches_beyond(latencies, batch_of, p90) == 1
    with pytest.raises(ValueError):
        batches_beyond([1.0], ["a", "b"], 0.0)


def test_hit_rate_counts_rejections_as_misses():
    # Five submissions: three hits, one answered miss, one rejection.
    assert hit_rate(3, 5) == pytest.approx(0.6)
    assert hit_rate(0, 1) == 0.0
    with pytest.raises(ValueError):
        hit_rate(1, 0)
    with pytest.raises(ValueError):
        hit_rate(6, 5)


def test_relative_latency_cancels_host_speed():
    # The host halves its speed from batch 3 on: latencies and probe runs
    # both double, so every relative latency stays at 10.
    probe = [2.0, 2.0, 2.0, 4.0, 4.0, 4.0, 4.0]
    latencies = [20.0, 20.0, 40.0, 40.0]
    batch_of = [0, 1, 5, 6]
    assert relative_latencies(latencies, batch_of, probe) == [10.0, 10.0, 10.0, 10.0]
    # One probe run hit by an interrupt is outvoted by its neighbours.
    spiked = [2.0, 2.0, 9.0, 2.0, 2.0]
    assert relative_latencies([20.0], [2], spiked) == [10.0]
    with pytest.raises(ValueError):
        relative_latencies([1.0], [0, 1], probe)


def test_self_time_subtracts_nested_children():
    spans = [
        (0, 100, -1),  # root
        (10, 40, 0),  # child of root
        (20, 30, 1),  # grandchild: subtracted from its parent only
        (50, 70, 0),  # second child of root
        (200, 210, -1),  # unrelated root
    ]
    assert self_times(spans) == [50, 20, 10, 20, 10]


def test_tracer_records_parents_and_restores_patches():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    original = Layer.inner
    tracer.patch(Layer, "outer", "a/outer")
    tracer.patch(Layer, "inner", "b/inner")
    assert Layer().outer() == 2
    tracer.restore()
    assert Layer.inner is original
    assert [s[0] for s in tracer.spans] == ["a/outer", "b/inner"]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0]
    outer_self, inner_self = tracer.self_ns()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert outer_self + inner_self == total


def test_benchmark_json_lists_every_reported_metric():
    import json
    from pathlib import Path

    from perfbench.layers import PER_LAYER
    from perfbench.run import END_TO_END

    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in PER_LAYER.items()
    ]
