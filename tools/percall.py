"""Per-call timing of filter_control, run_episode or trace I/O in this tree
against a git revision.

    python tools/percall.py --against REF [--op filter|episode|trace]
                            [--workload NAME] [--seed N] [--size K]
                            [--rounds R]

Loads REF's asifkit with tools/differential.py's load_revision, which
extracts ``git archive REF`` into a temporary directory and imports it under
the package name asifkit_ref beside this tree's asifkit, in one process.
The calls of a benchmark workload are built once by this tree's workload
code and then rebuilt on each side by differential.py's builders, with that
side's public constructors, so both trees see the same inputs in their own
types. --size and --rounds must be at least 1.

--op filter (the default) times filter_control calls. Workloads:
  filter_multirow     the benchmark's direct filter_control calls (no dt)
  corpus_adversarial  the filter_control calls of the benchmark's episodes,
                      recorded from a run of this tree (with the period dt)

--op episode times whole run_episode calls, each on a ScenarioConfig that
side built once with its from_dict (differential.scenario). Workloads:
  corpus_adversarial  the benchmark's episode configs
  nn_nominal_batch    the configs of every batch call's episodes (seeds
                      seed_base + i), their networks written by the workload

--op trace times the trace path of the trace_roundtrip workload: per
trace, write_trace to a file, read_trace of it, and the `asifkit metrics`
dispatch on it (which reads it again), each side on the traces its own
run_episode gives for the workload's configs and on files of its own.

Each round times every call once on each side, the side that goes first
alternating from round to round, with the cyclic garbage collector off; a
call's time is its least over the rounds (21 rounds by default for filter
calls, 9 for episodes and traces). One JSON line is printed per side, this
tree's first. For filter calls: the number of calls, p50, p99 and the sum
of those per-call times in microseconds, and the call count and median per
status, per plant kind and per number of active rows, each side's calls
grouped by the status that side returned and by the number of active row
indices that side's solve_qp returns on the assembled problem (computed
once, untimed; a call's active_row_ids names a constraint with two rows in
the problem once, so it cannot tell a vertex of two rows from a
projection). For episodes: the number of episodes and steps, steps per
second over the sum of the per-episode times, and microseconds per step
for each plant kind and for the disturbed and the undisturbed episodes.
For traces: the number of traces and rows, microseconds per row of
write_trace, read_trace and the metrics dispatch, each summed over the
traces, and rows per second of the workload's whole operation, write_trace
then the metrics dispatch.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "filter": ("filter_multirow", "corpus_adversarial"),
    "episode": ("corpus_adversarial", "nn_nominal_batch"),
    "trace": ("trace_roundtrip",),
}
ROUNDS = {"filter": 21, "episode": 9, "trace": 9}


def workload_calls(workload: str, seed: int, size, workdir) -> list[tuple]:
    """The workload's filter_control calls as (constraints, model, state,
    u_des, dt) tuples of this tree's objects."""
    import bench_workloads
    from asifkit import harness

    if workload == "filter_multirow":
        bench = bench_workloads.FilterMultirow(seed, workdir, size)
        return [(constraints, bench.model, state, u_des, None) for constraints, state, u_des in bench.inputs]
    calls = []
    filter_control = harness.filter_control

    def recording(*args):
        calls.append(args)
        return filter_control(*args)

    harness.filter_control = recording
    try:
        for cfg in bench_workloads.CorpusAdversarial(seed, workdir, size).configs:
            harness.run_episode(harness.ScenarioConfig.from_dict(cfg))
    finally:
        harness.filter_control = filter_control
    return calls


def episode_configs(workload: str, seed: int, size, workdir) -> list[dict]:
    """The workload's episodes as scenario-config mappings."""
    import bench_workloads

    if workload == "corpus_adversarial":
        return list(bench_workloads.CorpusAdversarial(seed, workdir, size).configs)
    bench = bench_workloads.NnNominalBatch(seed, workdir, size)
    return [dict(cfg, seed=seed_base + i) for _argv, _out, cfg, seed_base in bench.jobs for i in range(bench.episodes)]


def time_calls(sides, rounds: int) -> list[list[int]]:
    """Each side's least time per call over the rounds, in ns. sides is a
    list of (function, calls), each call a tuple of the function's
    arguments, with calls of equal length."""
    n = len(sides[0][1])
    best = [[sys.maxsize] * n for _ in sides]
    clock = time.perf_counter_ns
    gc.collect()
    gc.disable()
    try:
        for r in range(rounds):
            order = list(enumerate(sides))
            if r % 2:
                order.reverse()
            for i in range(n):
                for s, (function, calls) in order:
                    args = calls[i]
                    start = clock()
                    function(*args)
                    elapsed = clock() - start
                    if elapsed < best[s][i]:
                        best[s][i] = elapsed
    finally:
        gc.enable()
    return best


def _groups(us, keys) -> dict:
    """The count and median of the times us for each key, keys naming each
    time's group."""
    groups = {}
    for key in sorted(set(keys)):
        picked = us[[k == key for k in keys]]
        groups[key] = {"calls": int(picked.size), "p50_us": round(float(np.median(picked)), 3)}
    return groups


def summary(label: str, times_ns, statuses, kinds, active) -> dict:
    """p50, p99 and sum of the per-call times, and the counts and medians
    per status, per plant kind (kinds names each call's) and per number of
    active rows (active gives each call's), in microseconds."""
    us = np.array(times_ns, dtype=float) / 1e3
    return {
        "side": label,
        "calls": int(us.size),
        "p50_us": round(float(np.percentile(us, 50)), 3),
        "p99_us": round(float(np.percentile(us, 99)), 3),
        "sum_us": round(float(us.sum()), 1),
        "status": _groups(us, statuses),
        "plant": _groups(us, kinds),
        "active_rows": _groups(us, [str(n) for n in active]),
    }


def _us_per_step(times_ns, steps, keys) -> dict:
    """Microseconds per step over the episodes of each key, keys naming
    each episode's group."""
    out = {}
    for key in sorted(set(keys)):
        ns = sum(t for t, k in zip(times_ns, keys) if k == key)
        n = sum(m for m, k in zip(steps, keys) if k == key)
        out[key] = round(ns / 1e3 / n, 3)
    return out


def episode_summary(label: str, times_ns, steps, kinds, disturbed) -> dict:
    """Episodes, steps, steps per second over the summed per-episode times,
    and microseconds per step for each plant kind and, apart, for the
    episodes with a disturbance (disturbed flags each) and without."""
    return {
        "side": label,
        "episodes": len(times_ns),
        "steps": int(sum(steps)),
        "steps_per_s": round(sum(steps) / (sum(times_ns) / 1e9), 1),
        "us_per_step": _us_per_step(times_ns, steps, kinds),
        "us_per_step_by_disturbance": _us_per_step(times_ns, steps, ["disturbed" if d else "undisturbed" for d in disturbed]),
    }


def trace_summary(label: str, times_ns: dict, rows) -> dict:
    """Traces, rows, microseconds per row of each timed call summed over
    the traces, and rows per second of write_trace then the metrics
    dispatch. times_ns maps each call's name to its per-trace times."""
    n = sum(rows)
    whole_s = (sum(times_ns["write_trace"]) + sum(times_ns["metrics"])) / 1e9
    return {
        "side": label,
        "traces": len(rows),
        "rows": int(n),
        "us_per_row": {name: round(sum(times) / 1e3 / n, 3) for name, times in times_ns.items()},
        "rows_per_s": round(n / whole_s, 1),
    }


def time_traces(packages, labels, seed: int, size, rounds: int, workdir) -> list[dict]:
    """Time write_trace, read_trace and the metrics dispatch of each side
    on the trace_roundtrip workload's episodes."""
    import bench_workloads
    from differential import scenario

    configs = [trace.config.raw for trace, _csv, _metrics in bench_workloads.TraceRoundtrip(seed, workdir, size).items]
    ops = {"write_trace": [], "read_trace": [], "metrics": []}
    rows = []
    for s, package in enumerate(packages):
        harness = package.harness
        traces = [harness.run_episode(scenario(package, cfg)) for cfg in configs]
        paths = [str(Path(workdir) / f"side{s}_trace_{i}.csv") for i in range(len(traces))]
        ops["write_trace"].append((harness.write_trace, list(zip(traces, paths))))
        ops["read_trace"].append((harness.read_trace, [(path,) for path in paths]))
        argvs = [(["metrics", "--trace", path, "--out", path + ".metrics.json"],) for path in paths]
        ops["metrics"].append((importlib.import_module(package.__name__ + ".cli").dispatch, argvs))
        rows.append([trace.n_steps for trace in traces])
    times = {name: time_calls(sides, rounds) for name, sides in ops.items()}
    return [
        trace_summary(label, {name: best[s] for name, best in times.items()}, rows[s])
        for s, label in enumerate(labels)
    ]


def run(ref: str, workload: str, seed: int, size, rounds: int, op: str = "filter") -> list[dict]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tools")]
    import asifkit
    from differential import load_revision, rebuild, scenario

    with tempfile.TemporaryDirectory(prefix="percall-") as tmp:
        packages = (asifkit, load_revision(ref, Path(tmp) / "ref"))
        labels = ("this tree", ref)
        if op == "trace":
            return time_traces(packages, labels, seed, size, rounds, tmp)
        if op == "episode":
            configs = episode_configs(workload, seed, size, tmp)
            sides = [
                (package.harness.run_episode, [(scenario(package, cfg),) for cfg in configs])
                for package in packages
            ]
            traces = [[run_episode(*args) for args in calls] for run_episode, calls in sides]
            best = time_calls(sides, rounds)
            return [
                episode_summary(
                    label,
                    times,
                    [trace.t.shape[0] for trace in side],
                    [trace.config.model.kind for trace in side],
                    [trace.config.model.disturbance_bound > 0.0 for trace in side],
                )
                for label, times, side in zip(labels, best, traces)
            ]
        calls = workload_calls(workload, seed, size, tmp)
        sides = [(package.filter_control, rebuild(package, calls)) for package in packages]
        statuses = [[filter_control(*args).status for args in side_calls] for filter_control, side_calls in sides]
        active = [
            [len(package.solve_qp(package.assemble_qp(*args))[1]) for args in side_calls]
            for package, (_, side_calls) in zip(packages, sides)
        ]
        best = time_calls(sides, rounds)
    kinds = [model.kind for _constraints, model, *_ in calls]
    return [
        summary(label, times, status, kinds, counts)
        for label, times, status, counts in zip(labels, best, statuses, active)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REF", required=True, help="git revision to compare this tree with")
    parser.add_argument("--op", choices=tuple(WORKLOADS), default="filter", help="the call timed (default filter)")
    parser.add_argument("--workload", default=None, help="the benchmark workload (default: the op's first)")
    parser.add_argument("--seed", type=int, default=1, help="the workload's seed (default 1)")
    parser.add_argument("--size", type=int, default=None, help="the workload's size argument (default: its own)")
    parser.add_argument("--rounds", type=int, default=None, help="timed rounds over the calls (default 21, or 9 for episodes and traces)")
    args = parser.parse_args(argv)
    workload = args.workload or WORKLOADS[args.op][0]
    if workload not in WORKLOADS[args.op]:
        parser.error(f"--op {args.op} runs on {list(WORKLOADS[args.op])}, not {workload!r}")
    rounds = ROUNDS[args.op] if args.rounds is None else args.rounds
    if rounds < 1 or (args.size is not None and args.size < 1):
        parser.error("--rounds and --size must be at least 1")
    for line in run(args.against, workload, args.seed, args.size, rounds, args.op):
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
