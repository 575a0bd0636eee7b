"""Tests for ``benchmarks/trace_top_spans.py``: ranking a trace dump's spans."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "trace_top_spans.py"
_spec = importlib.util.spec_from_file_location("trace_top_spans", SCRIPT)
trace_top_spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_top_spans)
main, top_spans = trace_top_spans.main, trace_top_spans.top_spans

FIELDS = ["name", "start_ns", "end_ns", "parent", "id", "phase"]


def make_dump():
    spans = [
        ["setup/build", 0, 5_000, -1, None, "setup"],
        ["serving/submit", 10_000, 20_000, -1, 0, "serve"],
        ["engine/run", 11_000, 19_000, 1, 0, "serve"],
        ["runtime/alive", 12_000, 18_000, 2, 0, "serve"],
        ["serving/submit", 30_000, 31_000, -1, 1, "serve"],
    ]
    return {"fields": FIELDS, "counters": {}, "spans": spans}


class TestTopSpans:
    def test_ranks_serve_spans_by_summed_self_time(self):
        rows, total = top_spans(make_dump())
        # submit: (10 000 − 8 000) + 1 000; run: 8 000 − 6 000; alive: 6 000.
        # The set-up span lies outside the measured phase.
        assert rows == [
            ("runtime/alive", 1, 6_000),
            ("serving/submit", 2, 3_000),
            ("engine/run", 1, 2_000),
        ]
        assert total == 11_000

    def test_cli_prints_table(self, tmp_path, capsys):
        path = tmp_path / "trace-w-seed1.json"
        path.write_text(json.dumps(make_dump()))
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        for name in ("runtime/alive", "serving/submit", "engine/run"):
            assert name in out
        assert "setup/build" not in out
