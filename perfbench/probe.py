"""A fixed reference workload timed beside the program, to factor out host speed.

The benchmark runs on a shared host whose speed drifts by up to about two
times from one minute to the next (CPU steal, busy sibling threads, clock
frequency).  A wall-clock latency measured alone follows that drift, so the
gated latency figures are ratios instead: the program's wall time for a
round over the wall time of this probe, run in the same process right after
that round.  The probe is the same work on every run and every commit, made
of the things a serving round is made of -- Python loops, dict and set
operations, small numpy calls, row gathers from a table larger than the
core's private caches -- so a slower host stretches both by about the same
factor, and the ratio moves only when the program does.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

TABLE_ROWS = 16_384  # 16 384 x 64 float64 = 8 MiB
DIM = 64
STEPS = 240
GATHER = 64
WARMUP_RUNS = 3


class Probe:
    """Runs the reference workload and times each run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)  # the same probe on every run
        self.table = rng.standard_normal((TABLE_ROWS, DIM))
        self.rows = rng.integers(0, TABLE_ROWS, size=(STEPS, GATHER))
        self.query = rng.standard_normal(DIM)
        self.weights = {i: float(i % 97) for i in range(4096)}
        self.checksum = 0.0
        for _ in range(WARMUP_RUNS):
            self.run()

    def run(self) -> int:
        """One probe run; returns its wall time in nanoseconds."""
        started = perf_counter_ns()
        total = 0.0
        seen: set[int] = set()
        for rows in self.rows:
            scores = self.table[rows] @ self.query
            top = np.argpartition(scores, -8)[-8:]
            for index in top.tolist():
                node = int(rows[index])
                if node not in seen:
                    seen.add(node)
                    total += self.weights[node & 4095]
            total += float(scores[top].sum())
        elapsed = perf_counter_ns() - started
        self.checksum = total
        return elapsed
