"""End-to-end benchmark of the decentralized diffusion search system.

Run from the repository root::

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric (set-up time, throughput,
query latency percentiles, hit rate, answered share, peak memory) with its
unit and sample counts.  The gated latencies are relative: each query's
wall time over the wall time of a fixed reference probe run beside its
batch (``perfbench/probe.py``), so they follow the program and not the
shared host's speed.  Throughput and the wall-clock percentiles are printed
but left out of the JSON result (see ``REPORTED_ONLY``).  ``--seconds`` is
the least measured time: a run also measures at least 102 batches so that
ten lie beyond p90, which takes longer than that on serve_faulted and
churn_serve.
``--trace 1`` runs the workload once untraced and once with timing shims on
every layer boundary, checks that both produce the same outcomes, and
prints the per-layer metrics plus the tracing overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and
the full report are also written under ``.perfbench/`` in the repository
root.  The exit code is 0 when the run completed; ``correct`` says whether
every output check and the determinism gate passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("serve_steady", "serve_faulted", "churn_serve", "paper_fig3")

# The end-to-end metrics BENCHMARK.json gates, with their units.  A latency
# in ``probes`` is a query's wall time over the probe's wall time beside it.
END_TO_END = {
    "setup_s": "s",
    "query_p50_probes": "probes",
    "query_p90_probes": "probes",
    "hit_rate": "share",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}
# Printed with the gated ones but not gated: on a shared host these follow
# the host's speed, which moved them by up to two times between runs.
REPORTED_ONLY = {"throughput_qps": "1/s", "query_p50_ms": "ms", "query_p90_ms": "ms"}
# Libraries that would start a thread per core; the closed loop and the
# probe are single-threaded, and a second busy thread would measure the
# host's scheduler rather than the program.
SINGLE_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def pin_environment() -> None:
    """Re-execute under a fixed string-hash seed and single-threaded BLAS.

    Set iteration order over strings follows the per-process hash seed, so
    without this two processes given the same workload seed could diverge.
    """
    wanted = {"PYTHONHASHSEED": "0", **dict.fromkeys(SINGLE_THREAD_ENV, "1")}
    if any(os.environ.get(name) != value for name, value in wanted.items()):
        os.environ.update(wanted)
        os.execv(sys.executable, [sys.executable, *sys.argv])


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def openblas_threads() -> str:
    """OpenBLAS thread count as reported by the library numpy loaded."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def provenance(args: argparse.Namespace) -> dict:
    import numpy as np
    import scipy

    from repro.kernels import kernel_info

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernels": kernel_info(),
        "openblas_threads": openblas_threads(),
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_ticks() -> tuple[int, int] | None:
    """(busy, steal) clock ticks of all CPUs from ``/proc/stat``, if present."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return None
    idle = fields[3] + fields[4]
    return sum(fields[:8]) - idle, fields[7]


# ------------------------------------------------------------------ passes


def run_passes(args: argparse.Namespace) -> dict:
    """Run the workload's passes; returns the pieces of the report."""
    from perfbench import workloads as w
    from perfbench.layers import install, layer_metrics
    from perfbench.probe import Probe
    from perfbench.tracer import Tracer

    probe = Probe()
    serving = w.SERVING.get(args.workload)
    if serving is not None:
        measured = w.measured_rounds(args.seconds, serving.nominal_round_s)
    else:
        measured = w.measured_rounds(args.seconds, w.FIG3_NOMINAL_ITERATION_S)
    n_rounds = w.WARMUP_ROUNDS + measured

    if serving is not None:
        corpus = w.make_corpus(args.seed)
        n_streams = 1 if args.trace else w.PASSES
        streams = [
            w.make_stream(
                corpus, args.seed, s, n_rounds, faults=serving.faults, churn=serving.churn
            )
            for s in range(n_streams)
        ]

        def one_pass(stream, tracer=None, rounds=None):
            gc.collect()
            return w.pruned_mass_is_error(
                lambda: w.serving_pass(
                    serving, corpus, stream, probe, n_rounds=rounds, tracer=tracer
                )
            )
    else:
        seeds = [w.panel_seed(args.seed, s) for s in range(w.PASSES)]

        def one_pass(seed, tracer=None):
            gc.collect()
            return w.pruned_mass_is_error(
                lambda: w.fig3_pass(seed, n_rounds, probe, tracer=tracer)
            )

    if args.trace:
        first = streams[0] if serving else seeds[0]
        untraced = one_pass(first)
        tracer = Tracer()
        install(tracer)
        try:
            traced = one_pass(first, tracer=tracer)
        finally:
            tracer.restore()
        gate = (untraced.checkpoints, traced.checkpoints)
        per_layer = layer_metrics(
            tracer,
            traced.context,
            serve_s=traced.phase_ns / 1e9,
            untraced_serve_s=untraced.phase_ns / 1e9,
        )
        return {
            "passes": [untraced, traced],
            "gate": gate,
            "gate_label": "traced pass vs untraced pass",
            "per_layer": per_layer,
            "tracer": tracer,
        }

    def untraced_pass(source, **kwargs):
        result = one_pass(source, **kwargs)
        result.context = {}  # only the traced pass reports from it
        return result

    if serving is not None:
        passes = [untraced_pass(stream) for stream in streams]
        replay = untraced_pass(streams[0], rounds=w.REPLAY_ROUNDS)
        gate = (passes[0].checkpoints[: w.REPLAY_ROUNDS], replay.checkpoints)
        label = f"replay of stream 0's first {w.REPLAY_ROUNDS} rounds"
    else:
        passes = [untraced_pass(seed) for seed in seeds]
        replay = untraced_pass(seeds[0])
        gate = (passes[0].checkpoints, replay.checkpoints)
        label = "replay of stream 0's panel"
    setups = [p.setup_s for p in passes] + [replay.setup_s]
    passes[0].errors.extend(replay.errors)
    return {"passes": passes, "gate": gate, "gate_label": label, "setups": setups}


# ------------------------------------------------------------------ report


def gate_verdict(expected: list, observed: list) -> str | None:
    """``None`` when the checkpoints agree, else where they first differ."""
    if len(expected) != len(observed):
        return f"{len(observed)} checkpoints, expected {len(expected)}"
    for index, (want, got) in enumerate(zip(expected, observed)):
        if want[1] != got[1]:
            return f"round {index}: counts {dict(got[1])} vs {dict(want[1])}"
        if want[0] != got[0]:
            return f"round {index}: same counts, different responses"
    return None


def end_to_end(parts: dict) -> tuple[dict[str, float], dict[str, int]]:
    import numpy as np

    from perfbench.stats import batches_beyond, hit_rate, relative_latencies

    passes = parts["passes"]
    latencies = [v for p in passes for v in p.latencies_ns]
    relative = [
        v for p in passes for v in relative_latencies(p.latencies_ns, p.batch_of, p.probe_ns)
    ]
    batch_of = [(i, b) for i, p in enumerate(passes) for b in p.batch_of]
    submitted = sum(p.submitted for p in passes)
    p90 = float(np.percentile(latencies, 90))
    relative_p90 = float(np.percentile(relative, 90))
    metrics = {
        "setup_s": statistics.median(parts["setups"]),
        "query_p50_probes": float(np.percentile(relative, 50)),
        "query_p90_probes": relative_p90,
        "throughput_qps": sum(p.answered_measured for p in passes)
        / (sum(p.phase_ns for p in passes) / 1e9),
        "query_p50_ms": float(np.percentile(latencies, 50)) / 1e6,
        "query_p90_ms": p90 / 1e6,
        "hit_rate": hit_rate(sum(p.hits for p in passes), submitted),
        "ok_share": sum(p.ok for p in passes) / submitted,
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {
        "setups": len(parts["setups"]),
        "queries": submitted,
        "timed_queries": len(latencies),
        "batches": sum(p.batches for p in passes),
        "timed_batches": len(set(batch_of)),
        "batches_beyond_p90": batches_beyond(latencies, batch_of, p90),
        "batches_beyond_p90_probes": batches_beyond(relative, batch_of, relative_p90),
        "probe_runs": sum(len(p.probe_ns) for p in passes),
        "probe_median_ms": statistics.median(v for p in passes for v in p.probe_ns) / 1e6,
        "writes": sum(p.writes for p in passes),
    }
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pin_environment()
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    import numpy as np

    header = provenance(args)
    ticks_before = cpu_ticks()
    parts = run_passes(args)
    ticks_after = cpu_ticks()
    passes = parts["passes"]
    errors = [e for p in passes for e in p.errors]
    expected, observed = parts["gate"]
    verdict = gate_verdict(expected, observed)
    if verdict is not None:
        errors.append(f"determinism gate failed: {parts['gate_label']} differs at {verdict}")
    attempted = sum(p.submitted + p.writes for p in passes)
    failed = sum(p.rejected for p in passes)

    print("perfbench provenance: " + json.dumps(header, sort_keys=True))
    covered = dict(expected[-1][1]) if expected else {}
    print(f"determinism gate ({parts['gate_label']}): "
          f"{'identical' if verdict is None else 'DIFFERENT'}; covers {covered}")
    if args.trace:
        metrics = parts["per_layer"]
        from perfbench.layers import PER_LAYER

        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        parts["tracer"].dump(
            OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", {"provenance": header}
        )
    else:
        metrics, samples = end_to_end(parts)
        units = {**END_TO_END, **REPORTED_ONLY}
        print("samples: " + json.dumps(samples, sort_keys=True))
        for key in ("batches_beyond_p90", "batches_beyond_p90_probes"):
            if samples[key] < 10:
                errors.append(f"only {samples[key]} {key}; the run is too short to support it")
        write_us = [v / 1e3 for p in passes for v in p.write_ns]
        if write_us:
            print(
                f"writes: {len(write_us)} timed apply_churn_event calls, "
                f"p50 {np.percentile(write_us, 50):.1f} us, p99 {np.percentile(write_us, 99):.1f} us"
            )
        for p in passes:
            if p.decisions:
                print(f"refresh decisions (one pass): {json.dumps(p.decisions, sort_keys=True)}")
    if ticks_before and ticks_after:
        busy, steal = (after - before for before, after in zip(ticks_before, ticks_after))
        print(f"host: CPU steal {steal / busy if busy else 0.0:.1%} of busy time during the run")
    for name, value in metrics.items():
        note = " (not gated)" if name in REPORTED_ONLY else ""
        print(f"  {name:<40} {value:>14.6g} {units[name]}{note}")
    for message in errors[:20]:
        print(f"ERROR: {message}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
            if name not in REPORTED_ONLY
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": header, "errors": errors, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
