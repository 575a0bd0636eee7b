"""Check the blocked gold-set scan against the per-word loop at paper scale.

Builds the paper-scale vocabulary of ``get_environment(True)``
(``FULL_EMBEDDINGS``, seed ``SETUP_SEED + 1``) and its workload
(``FULL_QUERIES`` queries, threshold ``GOLD_THRESHOLD``, seed
``SETUP_SEED + 2``) twice: with ``build_workload``'s blocked scan and with
``reference_build_workload`` from ``tests/scalar_reference.py``, one
full-vocabulary ``neighbors_above`` pass per candidate.  Prints both build
times, the rows the blocks examined and how many of them the rounding guard
sent through ``neighbors_above``, and exits 1 unless the two workloads have
the same queries, gold lists (order included) and pool.  Nothing is
written::

    python benchmarks/workload_scan.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro.embeddings.synthetic import synthetic_word_embeddings  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    FULL_EMBEDDINGS,
    FULL_QUERIES,
    GOLD_THRESHOLD,
    SETUP_SEED,
)
from repro.simulation.workload import RetrievalWorkload, build_workload  # noqa: E402
from tests.scalar_reference import reference_build_workload  # noqa: E402


def differences(got: RetrievalWorkload, want: RetrievalWorkload) -> list[str]:
    """Which parts of the blocked workload differ from the reference."""
    return [
        name
        for name, a, b in (
            ("queries", got.queries, want.queries),
            ("gold lists", list(got.gold_of.items()), list(want.gold_of.items())),
            ("pool", got.irrelevant_pool, want.irrelevant_pool),
        )
        if a != b
    ]


def main() -> int:
    model = synthetic_word_embeddings(FULL_EMBEDDINGS, seed=SETUP_SEED + 1)
    kwargs = dict(n_queries=FULL_QUERIES, threshold=GOLD_THRESHOLD, seed=SETUP_SEED + 2)
    print(
        f"paper-scale vocabulary: {len(model):,} words, {model.dim}-d, "
        f"{FULL_QUERIES:,} queries, cosine > {GOLD_THRESHOLD}"
    )

    # Count the blocks' rows and the rows the guard sends through
    # neighbors_above, on this instance and for the blocked build only.
    examined, guarded = [0], [0]
    block_call, per_word_call = model.neighbor_words_above, model.neighbors_above

    def counted_block(rows, threshold):
        examined[0] += len(rows)
        return block_call(rows, threshold)

    def counted_per_word(word, threshold, **options):
        guarded[0] += 1
        return per_word_call(word, threshold, **options)

    model.neighbor_words_above, model.neighbors_above = counted_block, counted_per_word
    start = time.perf_counter()
    got = build_workload(model, **kwargs)  # also fills the model's unit-row cache
    blocked_s = time.perf_counter() - start
    del model.neighbor_words_above, model.neighbors_above

    start = time.perf_counter()
    want = reference_build_workload(model, **kwargs)
    reference_s = time.perf_counter() - start

    print(f"per-word scan (reference_build_workload): {reference_s:6.2f} s")
    print(
        f"blocked scan (build_workload):            {blocked_s:6.2f} s, "
        f"{guarded[0]} of {examined[0]:,} examined rows guarded"
    )
    mismatched = differences(got, want)
    if mismatched:
        print(f"workloads differ in: {', '.join(mismatched)}", file=sys.stderr)
        return 1
    print(
        f"identical: {got.n_queries:,} queries, "
        f"{sum(map(len, got.gold_of.values())):,} gold documents, "
        f"{len(got.irrelevant_pool):,} pool words"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
