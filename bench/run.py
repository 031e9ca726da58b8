"""asifkit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--size K] [--spans PATH]

Run from a checkout holding ``src/asifkit``; nothing needs installing. The
load is one process and one caller in a closed loop: each operation starts
after the previous one returns. A run builds the workload's inputs from the
seed, then repeats whole passes over them until ``--seconds`` of timed work
have elapsed (at least one pass), and checks every pass's outputs outside the
timed part. ``--size`` changes the number of inputs per pass, for tiny runs.
Operation times are scaled to a reference speed measured alongside them,
because the box's speed drifts (see calibrate.py); the raw ones are in the
details. Set-up time is not scaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it holds the run's details: machine facts, passes, status mix,
row counts and deterministic outcomes. ``--trace 1`` runs untraced for half
the time and traced for the other half, and ``--spans`` writes the recorded
spans as JSON lines. See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("corpus_adversarial", "nn_nominal_batch", "filter_multirow", "trace_roundtrip")
SETUP_SAMPLES = 5  # this process's set-up plus four set-up-only child processes
CHILD_TIMEOUT_S = 120


def import_asifkit():
    """Import asifkit from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "asifkit" / "__init__.py").is_file():
        raise SystemExit(f"bench: no asifkit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import asifkit

    if Path(asifkit.__file__).resolve().parent != (src / "asifkit").resolve():
        raise SystemExit(f"bench: asifkit imported from {asifkit.__file__}, not from {src}")
    return asifkit


def machine_facts() -> dict:
    import numpy as np

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def measure(workload, seconds, tracer=None):
    """Run whole passes until `seconds` of timed work have elapsed (at least
    one). Each pass's outputs are checked after it, untimed; a later pass
    whose outputs differ from the first pass's fails those operations.
    Before each operation, untimed, the calibrator may time its reference
    chunk; every operation's time is also kept scaled to the reference
    speed (see calibrate.py)."""
    import numpy as np
    from calibrate import Calibrator

    calibrator = Calibrator()
    if tracer:
        def begin_op():
            calibrator.tick()
            tracer.begin_op()
    else:
        begin_op = calibrator.tick
    elapsed = 0.0
    latencies = []  # per pass, one entry per operation
    first = None
    passes = attempted = failed = 0
    while True:
        if tracer:
            tracer.active = True
        start = time.perf_counter()
        pass_latencies, outcomes = workload.run_pass(begin_op)
        elapsed += time.perf_counter() - start
        if tracer:
            tracer.active = False
        checked = workload.check(outcomes, first is None)
        if first is None:
            first = checked
        else:
            checked.failed += sum(a != b for a, b in zip(checked.digests, first.digests))
        passes += 1
        attempted += len(outcomes)
        failed += checked.failed
        # packed, so the samples add little to the peak memory a run reports
        latencies.append(np.asarray(pass_latencies, dtype=np.int64))
        if elapsed >= seconds:
            break
    scales = calibrator.scales().reshape(len(latencies), -1)
    return {
        "passes": passes,
        "elapsed_s": elapsed,
        "unit_ops": first.unit_ops,
        "attempted": attempted,
        "failed": failed,
        "latencies_ns": latencies,
        "scaled_ns": [lat * scale for lat, scale in zip(latencies, scales)],
        "chunk_s": calibrator.samples,
        "summary": first.summary,
        "solve_times": first.solve_times,
    }


def throughput_and_latency(run, key="scaled_ns"):
    """(ops per second, per-op latency percentiles in us), from the times
    scaled to the reference speed or, with key="latencies_ns", the raw ones.
    Each operation's time is its median over the passes, which discards
    interference that hits one pass; an operation's latency is that time per
    work item it did (per step, filter call or trace row), and percentiles
    run over the workload's distinct operations."""
    import numpy as np

    op_ns = np.median(np.stack(run[key]), axis=0)
    work = np.asarray(run["unit_ops"], dtype=float)
    per_item_us = op_ns[work > 0] / work[work > 0] / 1e3
    return work.sum() / (op_ns.sum() / 1e9), {q: float(np.percentile(per_item_us, q)) for q in (50, 99)}


def _safety(summary):
    steps = summary["steps"]
    return {
        "worst_h": summary["worst_h"],
        "violation_frac": summary["violation_steps"] / steps if steps else 0.0,
    }


def _details(name, seed, size, traced, run):
    import numpy as np
    from calibrate import REFERENCE_CHUNK_S

    summary = run["summary"]
    steps = summary["steps"]
    raw_ops_per_s, raw_latency_us = throughput_and_latency(run, "latencies_ns")
    chunk_ms = np.asarray(run["chunk_s"]) * 1e3
    return {
        "workload": name,
        "seed": seed,
        "size": size,
        "traced": traced,
        "machine": machine_facts(),
        "passes": run["passes"],
        "timed_s": run["elapsed_s"],
        "operations_per_pass": len(run["unit_ops"]),
        "work_items_per_pass": sum(run["unit_ops"]),
        "raw": {"ops_per_s": raw_ops_per_s, "op_p50_us": raw_latency_us[50], "op_p99_us": raw_latency_us[99]},
        "calibration": {
            "reference_chunk_ms": REFERENCE_CHUNK_S * 1e3,
            "chunks": int(chunk_ms.size),
            "chunk_ms_min_median_max": [float(chunk_ms.min()), float(np.median(chunk_ms)), float(chunk_ms.max())],
        },
        "status_mix": {k: (v / steps if steps else 0.0) for k, v in summary["status_counts"].items()},
        "summary": summary,
        **_safety(summary),
    }


def run_workload(name, seed, seconds, trace, size=None, workdir=None, spans_path=None, setup_start=None):
    """Set up and measure one workload; returns (result, details). The
    result's metrics are end-to-end untraced, per-layer when `trace`."""
    if setup_start is None:
        setup_start = time.perf_counter()
    import_asifkit()
    import bench_workloads

    own_workdir = workdir is None
    if own_workdir:
        workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        workload = bench_workloads.WORKLOADS[name](seed, workdir, size)
        setup_s = time.perf_counter() - setup_start
        if trace:
            return _traced_run(name, seed, seconds, size, workload, spans_path)
        run = measure(workload, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = _result(run["attempted"], run["failed"], _end_to_end(run, setup_s, peak_rss_mb))
        details = _details(name, seed, size, False, run)
        details["setup_samples_s"] = [setup_s]
        return result, details
    finally:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)


def _result(attempted, failed, metrics):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _end_to_end(run, setup_s, peak_rss_mb):
    summary = run["summary"]
    ops_per_s, latency_us = throughput_and_latency(run)
    return {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "op_p50_us": {"value": latency_us[50], "unit": "us"},
        "op_p99_us": {"value": latency_us[99], "unit": "us"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "safe_step_frac": {"value": 1.0 - summary["violation_steps"] / summary["steps"], "unit": "ratio"},
    }


PER_LAYER_UNITS = {
    "calls": "count",
    "constructions": "count",
    "spans": "count",
    "aborts": "count",
    "busy_us": "us",
    "self_us": "us",
    "p50_us": "us",
    "p99_us": "us",
    "passthrough_ratio": "ratio",
    "mean_deviation": "u",
    "solve_time_p50_us": "us",
    "solve_time_p99_us": "us",
    "overhead_frac": "ratio",
    "worst_h": "h",
    "violation_frac": "ratio",
}


def _unit(metric):
    return PER_LAYER_UNITS[metric.rsplit(".", 1)[1]]


def _traced_run(name, seed, seconds, size, workload, spans_path):
    import numpy as np
    from bench_trace import Tracer, layer_metrics

    untraced = measure(workload, seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workload, seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    values = layer_metrics(tracer, traced["passes"])
    solve_us = np.asarray(untraced["solve_times"], dtype=float) * 1e6
    summary = traced["summary"]
    values.update(
        {
            "asif.solve_time_p50_us": float(np.percentile(solve_us, 50)) if solve_us.size else 0.0,
            "asif.solve_time_p99_us": float(np.percentile(solve_us, 99)) if solve_us.size else 0.0,
            "harness.run_episode.aborts": summary["aborted_episodes"],
            "safety.worst_h": summary["worst_h"],
            "safety.violation_frac": _safety(summary)["violation_frac"],
            "tracing.overhead_frac": throughput_and_latency(untraced)[0] / throughput_and_latency(traced)[0] - 1.0,
        }
    )
    if spans_path:
        tracer.write_spans(spans_path)
    failed = untraced["failed"] + traced["failed"]
    if traced["summary"] != untraced["summary"]:
        failed += 1  # tracing must not change what the program computes
    metrics = {k: {"value": float(v), "unit": _unit(k)} for k, v in values.items()}
    result = _result(untraced["attempted"] + traced["attempted"], failed, metrics)
    details = _details(name, seed, size, True, traced)
    details["untraced_passes"] = untraced["passes"]
    return result, details


def _setup_child(args) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    if args.size:
        argv += ["--size", str(args.size)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description="asifkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", type=int, default=None, help="inputs per pass: episodes per cell, batch calls, filter calls or traces (default: the workload's)")
    parser.add_argument("--spans", default=None, help="with --trace 1, write the spans here as JSON lines")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0 or (args.size is not None and args.size < 1):
        parser.error("--seconds must be >= 0 and --size >= 1")
    return args


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so work directories are removed


def main(argv=None) -> int:
    setup_start = time.perf_counter()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = parse_args(argv)
    if args.setup_only:
        import_asifkit()
        import bench_workloads

        workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
        try:
            bench_workloads.WORKLOADS[args.workload](args.seed, workdir, args.size)
            print(time.perf_counter() - setup_start)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    result, details = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size,
        spans_path=args.spans, setup_start=setup_start,
    )
    if not args.trace:
        details["setup_samples_s"] += [_setup_child(args) for _ in range(SETUP_SAMPLES - 1)]
        result["metrics"]["setup_s"]["value"] = statistics.median(details["setup_samples_s"])
    print(json.dumps({"details": details}, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
