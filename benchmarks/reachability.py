"""List the ``src/`` functions that no pipeline of this repository enters.

Runs every pipeline in its own subprocess under a ``sys.setprofile`` hook
that records each code object entered, then compares the record with every
function defined under ``src/repro`` (found with :mod:`ast`).  The
pipelines are:

- every script under ``examples/``;
- the five experiment-driver commands of the CI smoke job;
- ``pytest benchmarks -q --benchmark-disable`` in reduced mode
  (pytest-benchmark turns the profiler off inside ``benchmark(...)``
  calls unless benchmarking is disabled);
- ``push_table.py --check``, ``workload_scan.py``,
  ``full_diffusion_scan.py`` and ``churn_patch_scan.py``;
- all four ``perfbench/run.py`` workloads at ``--seed 1 --seconds 1``,
  traced and untraced.

Tests are not pipelines: a function only they reach shows up here.  The
report lists the unreached functions by module, each with its line count
from ``def`` to its last line, and a total.  A function nested inside an
unreached function is counted with its parent, not again on its own.

Children run with ``PYTHONHASHSEED=0`` and single-threaded BLAS, the
settings ``perfbench/run.py`` would otherwise re-execute itself to get (the
re-executed process would run without the hook).  Nothing under the
repository is written except git-ignored outputs (reduced benchmark
results, ``.perfbench/`` traces).  Takes several minutes on a 2-core host,
so it is not a CI step::

    python benchmarks/reachability.py

Exits 1 if a pipeline fails, since its unreached functions would then be
over-reported.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

DRIVERS = (
    ("repro.experiments.staleness", "--refresh", "--iterations", "3", "--documents", "150"),
    ("repro.experiments.staleness", "--iterations", "3", "--documents", "150"),
    ("repro.experiments.fig3_accuracy", "--iterations", "2"),
    ("repro.experiments.table1_hops", "--iterations", "2"),
    ("repro.experiments.ablations", "--which", "all", "--iterations", "2"),
)
SCANS = (
    ("benchmarks/push_table.py", "--check"),
    ("benchmarks/workload_scan.py",),
    ("benchmarks/full_diffusion_scan.py",),
    ("benchmarks/churn_patch_scan.py",),
)
WORKLOADS = ("serve_steady", "serve_faulted", "churn_serve", "paper_fig3")

# Runs one pipeline under the hook, then writes the (file, first line) of
# every code object entered to the JSON file named by argv[1].
BOOTSTRAP = """
import json, os, runpy, sys, threading
out, kind, target, *args = sys.argv[1:]
seen = set()
def hook(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)
sys.setprofile(hook)
threading.setprofile(hook)
sys.argv = [target, *args]
try:
    if kind == "module":
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    else:
        sys.path.insert(0, os.path.dirname(os.path.abspath(target)))
        runpy.run_path(target, run_name="__main__")
finally:
    sys.setprofile(None)
    threading.setprofile(None)
    with open(out, "w") as handle:
        json.dump(sorted({(c.co_filename, c.co_firstlineno) for c in seen}), handle)
"""


def pipelines() -> list[tuple[str, str, tuple[str, ...]]]:
    """Every pipeline as ``(kind, target, args)``, in the order they run."""
    runs = [
        ("script", str(path.relative_to(ROOT)), ())
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    runs += [("module", module, tuple(args)) for module, *args in DRIVERS]
    runs.append(("module", "pytest", ("benchmarks", "-q", "--benchmark-disable")))
    runs += [("script", script, tuple(args)) for script, *args in SCANS]
    runs += [
        (
            "script",
            "perfbench/run.py",
            ("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace),
        )
        for workload in WORKLOADS
        for trace in ("0", "1")
    ]
    return runs


def child_environment() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
        ),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def entered(outdir: Path) -> tuple[set[tuple[str, int]], list[str]]:
    """Run every pipeline; returns the entered code objects and the failures."""
    seen: set[tuple[str, int]] = set()
    failures: list[str] = []
    env = child_environment()
    for index, (kind, target, args) in enumerate(pipelines()):
        label = " ".join((target, *args))
        out = outdir / f"entered-{index}.json"
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, "-c", BOOTSTRAP, str(out), kind, target, *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        elapsed = time.perf_counter() - started
        print(f"[{elapsed:6.1f} s] exit {completed.returncode}  {label}", file=sys.stderr)
        if completed.returncode != 0 or not out.exists():
            failures.append(label)
            print(completed.stderr[-2000:], file=sys.stderr)
            continue
        for filename, line in json.loads(out.read_text()):
            seen.add((os.path.realpath(filename), line))
    return seen, failures


def functions(path: Path) -> list[tuple[str, int, int, int, str | None]]:
    """``(name, first line, def line, last line, parent)`` of every function.

    The first line is the first decorator's (a code object's
    ``co_firstlineno``); ``parent`` is the qualified name of the enclosing
    function, if any.
    """
    found = []

    def visit(node: ast.AST, prefix: str, parent: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((name, first, child.lineno, child.end_lineno, parent))
                visit(child, name + ".", name)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", parent)
            else:
                visit(child, prefix, parent)

    visit(ast.parse(path.read_text(), str(path)), "", None)
    return found


def report(seen: set[tuple[str, int]]) -> None:
    """Print the unreached functions by module, with a total."""
    total_functions = total_lines = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        real = os.path.realpath(path)
        unreached: dict[str, tuple[int, int]] = {}
        covered: set[str] = set()  # unreached, or inside an unreached one
        for name, first, line, last, parent in functions(path):
            if parent in covered:
                covered.add(name)
            elif (real, first) not in seen:
                covered.add(name)
                unreached[name] = (line, last - line + 1)
        if not unreached:
            continue
        lines = sum(count for _, count in unreached.values())
        total_functions += len(unreached)
        total_lines += lines
        module = path.relative_to(SRC).as_posix()
        print(f"{module}: {len(unreached)} functions, {lines} lines")
        for name, (line, count) in unreached.items():
            print(f"  {line:5d}  {name}  ({count} lines)")
    print(f"total: {total_functions} unreached functions, {total_lines} lines")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reachability-") as outdir:
        seen, failures = entered(Path(outdir))
    report(seen)
    if failures:
        print("failed pipelines (their reach is missing):", *failures, sep="\n  ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
