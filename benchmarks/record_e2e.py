"""Record the end-to-end benchmark trajectory in the committed ``BENCH_e2e.json``.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0``
for the four workloads of ``BENCHMARK.json`` at seeds 1-3 and appends one row
per run: the commit (``git rev-parse HEAD``) and whether a tracked file other
than the trajectory had uncommitted changes, the PR number given with
``--pr``, workload and seed, ``correct``/``attempted``/``failed``, the six
gated metrics with their units, and ``os.getloadavg()`` after the run.  About
three minutes on a 2-core host.
``--check`` validates the file's schema and runs nothing; tests and CI only
ever check, so the trajectory grows only when someone records it::

    python3 benchmarks/record_e2e.py --pr N
    python3 benchmarks/record_e2e.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_e2e.json"
WORKLOADS = ("serve_steady", "serve_faulted", "churn_serve", "paper_fig3")
SEEDS = (1, 2, 3)
SECONDS = 10

#: The end-to-end metrics ``BENCHMARK.json`` gates, with their units.
GATED = {
    "setup_s": "s",
    "query_p50_probes": "probes",
    "query_p90_probes": "probes",
    "hit_rate": "share",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

#: Every row's keys and the type of each value.
FIELDS = {
    "commit": str,
    "dirty": bool,
    "pr": int,
    "workload": str,
    "seed": int,
    "correct": bool,
    "attempted": int,
    "failed": int,
    "metrics": dict,
    "loadavg": list,
}


def row_errors(row: object) -> list[str]:
    """What is wrong with one trajectory row (empty when it is well formed)."""
    if not isinstance(row, dict):
        return [f"row is a {type(row).__name__}, not an object"]
    errors = [f"keys {sorted(row)} != {sorted(FIELDS)}"] if set(row) != set(FIELDS) else []
    for key, kind in FIELDS.items():
        value = row.get(key)
        # bool is an int subclass: only a real bool passes as one.
        if key in row and (not isinstance(value, kind) or (kind is int and isinstance(value, bool))):
            errors.append(f"{key} is {value!r}, not {kind.__name__}")
    if errors:
        return errors
    if len(row["commit"]) != 40:
        errors.append(f"commit {row['commit']!r} is not a full hash")
    if row["workload"] not in WORKLOADS:
        errors.append(f"unknown workload {row['workload']!r}")
    if set(row["metrics"]) != set(GATED):
        errors.append(f"metrics {sorted(row['metrics'])} != {sorted(GATED)}")
    for name, unit in GATED.items():
        metric = row["metrics"].get(name)
        if metric is not None and (
            not isinstance(metric, dict)
            or metric.get("unit") != unit
            or not isinstance(metric.get("value"), (int, float))
            or isinstance(metric.get("value"), bool)
        ):
            errors.append(f"metric {name} is {metric!r}, not {{value, unit={unit!r}}}")
    if len(row["loadavg"]) != 3 or not all(
        isinstance(x, (int, float)) for x in row["loadavg"]
    ):
        errors.append(f"loadavg {row['loadavg']!r} is not three numbers")
    return errors


def check(path: Path = TRAJECTORY) -> list[str]:
    """Schema errors of the trajectory file, one string per problem."""
    try:
        rows = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        return [f"{path.name}: {error}"]
    if not isinstance(rows, list) or not rows:
        return [f"{path.name}: not a non-empty list of rows"]
    return [f"row {i}: {e}" for i, row in enumerate(rows) for e in row_errors(row)]


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def record(pr: int) -> list[dict]:
    """Run every (workload, seed) once and return the rows."""
    commit = git("rev-parse", "HEAD").strip()
    changed = [
        line[3:]
        for line in git("status", "--porcelain", "--untracked-files=no").splitlines()
        if line[3:] != TRAJECTORY.name
    ]
    rows = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            run = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                cwd=ROOT, check=True, capture_output=True, text=True,
            )
            result = json.loads(run.stdout.strip().splitlines()[-1])
            rows.append({
                "commit": commit,
                "dirty": bool(changed),
                "pr": pr,
                "workload": workload,
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: result["metrics"][name] for name in GATED},
                "loadavg": list(os.getloadavg()),
            })
            print(workload, seed, json.dumps(rows[-1]["metrics"]), flush=True)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--pr", type=int, help="record rows for this PR number")
    action.add_argument("--check", action="store_true", help="validate the file only")
    args = parser.parse_args(argv)
    if args.check:
        errors = check()
        print("\n".join(errors) or f"{TRAJECTORY.name}: ok")
        return 1 if errors else 0
    rows = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    rows += record(args.pr)
    TRAJECTORY.write_text(json.dumps(rows, indent=1) + "\n")
    errors = check()
    print("\n".join(errors) or f"{TRAJECTORY.name}: {len(rows)} rows")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
