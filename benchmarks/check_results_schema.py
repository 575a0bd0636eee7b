"""Schema gate for benchmark result JSONs (run by CI after the bench smokes).

Every machine-readable result a CI bench step emits must carry the two
fields downstream tooling keys on:

* ``criterion`` — what the headline number *is* (wall clock vs edge
  operations vs simulated clock ...), so cross-PR comparisons never mix
  measurement regimes silently;
* ``peak_memory_bytes`` — the tracemalloc peak of the measured run, so
  memory regressions surface alongside timing ones;
* ``seed`` — the RNG seed (or the primary one, when a bench uses several)
  that drove the measured run, so any headline number can be regenerated
  bit-for-bit instead of argued about.

All are accepted anywhere in the document (top level or nested — e.g. the
sparse-scale bench stores ``sparse_at_scale.peak_memory_bytes``).
Extra required dotted paths can be added per file with ``--require``.

Usage::

    python benchmarks/check_results_schema.py results/a.json results/b.json
    python benchmarks/check_results_schema.py results/serving_reduced.json \
        --require faults.goodput saturation_sweep
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

BASE_REQUIRED_KEYS = ("criterion", "peak_memory_bytes", "seed")


def contains_key(obj: Any, key: str) -> bool:
    """Recursive presence of ``key`` anywhere in a JSON document."""
    if isinstance(obj, dict):
        if key in obj:
            return True
        return any(contains_key(value, key) for value in obj.values())
    if isinstance(obj, list):
        return any(contains_key(item, key) for item in obj)
    return False


def resolve_path(obj: Any, dotted: str) -> bool:
    """True when the dotted path exists from the document root."""
    node = obj
    for part in dotted.split("."):
        if isinstance(node, list):
            try:
                node = node[int(part)]
                continue
            except (ValueError, IndexError):
                return False
        if not isinstance(node, dict) or part not in node:
            return False
        node = node[part]
    return True


def check_file(path: Path, extra_paths: list[str]) -> list[str]:
    """Returns a list of problems (empty when the file conforms)."""
    problems: list[str] = []
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]
    for key in BASE_REQUIRED_KEYS:
        if not contains_key(document, key):
            problems.append(f"{path}: missing required field {key!r}")
    for dotted in extra_paths:
        if not resolve_path(document, dotted):
            problems.append(f"{path}: missing required path {dotted!r}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="DOTTED.PATH",
        help="additional dotted path that must exist from the document root",
    )
    args = parser.parse_args(argv)
    problems: list[str] = []
    for path in args.files:
        problems.extend(check_file(path, args.require))
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"schema OK: {len(args.files)} file(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
