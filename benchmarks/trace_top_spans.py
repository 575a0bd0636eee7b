"""Print the spans with the most self time from a perfbench trace dump.

``python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 1``
writes every span of its traced pass to
``.perfbench/trace-W-seedS.json``.  The per-layer report sums a few spans
per layer and leaves the rest unattributed; this script ranks every span
name by its summed self time (its duration minus its children's), so a
hot call that no layer metric covers still shows up::

    python3 benchmarks/trace_top_spans.py .perfbench/trace-serve_faulted-seed1.json

It prints the ``TOP`` names; only spans of the measured phase (``serve``)
are counted.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.stats import self_times  # noqa: E402

PHASE = "serve"
TOP = 10


def top_spans(dump: dict) -> tuple[list[tuple[str, int, int]], int]:
    """``(name, calls, self_ns)`` of the ``TOP`` names by self time, and the total."""
    fields = dump["fields"]
    name_at, start_at, end_at, parent_at, phase_at = (
        fields.index(key) for key in ("name", "start_ns", "end_ns", "parent", "phase")
    )
    spans = dump["spans"]
    own = self_times([(s[start_at], s[end_at], s[parent_at]) for s in spans])
    calls: defaultdict[str, int] = defaultdict(int)
    self_ns: defaultdict[str, int] = defaultdict(int)
    for span, ns in zip(spans, own):
        if span[phase_at] == PHASE:
            calls[span[name_at]] += 1
            self_ns[span[name_at]] += ns
    ranked = sorted(self_ns, key=self_ns.__getitem__, reverse=True)[:TOP]
    return [(name, calls[name], self_ns[name]) for name in ranked], sum(self_ns.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dump", type=Path, help="a trace-*.json file")
    path = parser.parse_args(argv).dump
    rows, total = top_spans(json.loads(path.read_text()))
    print(f"{path.name}: top {len(rows)} spans by self time "
          f"({PHASE} phase, {total / 1e6:.1f} ms in all)")
    print(f"  {'span':<36} {'calls':>8} {'self ms':>10} {'share':>7} {'us/call':>9}")
    for name, calls, ns in rows:
        share = ns / total if total else 0.0
        print(f"  {name:<36} {calls:>8} {ns / 1e6:>10.1f} {share:>7.1%} "
              f"{ns / 1e3 / calls:>9.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
