"""Per-call timing of filter_control in this tree against a git revision.

    python tools/percall.py --against REF [--workload filter_multirow]
                            [--seed N] [--size K] [--rounds R]

Extracts ``git archive REF`` into a temporary directory, as
tools/differential.py does, and imports its asifkit under the package name
asifkit_ref beside this tree's asifkit, in one process. The filter_control
calls of a benchmark workload are built once by this tree's workload code
and then rebuilt on each side with that side's public constructors, so both
trees see the same inputs in their own types.

Workloads:
  filter_multirow     the benchmark's direct filter_control calls (no dt)
  corpus_adversarial  the filter_control calls of the benchmark's episodes,
                      recorded from a run of this tree (with the period dt)

Each round times every call once on each side, the side that goes first
alternating from round to round, with the cyclic garbage collector off; a
call's time is its least over the rounds. One JSON line is printed per side,
this tree's first: the number of calls, p50, p99 and the sum of those
per-call times in microseconds, and the call count and median per status,
each side's calls grouped by the status that side returned.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("filter_multirow", "corpus_adversarial")


def load_tree(src: Path, name: str):
    """Import the asifkit package under src as the top-level package name."""
    spec = importlib.util.spec_from_file_location(
        name, src / "asifkit" / "__init__.py", submodule_search_locations=[str(src / "asifkit")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


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


def rebuild(package, calls) -> list[tuple]:
    """The calls with every argument rebuilt by package's public
    constructors; constraint lists and models shared between calls stay
    shared."""
    lists, models = {}, {}
    out = []
    for constraints, model, state, u_des, dt in calls:
        if id(model) not in models:
            models[id(model)] = package.PlantModel(model.kind, np.array(model.control_bounds), model.disturbance_bound)
        if id(constraints) not in lists:
            lists[id(constraints)] = [
                package.BarrierConstraint(c.id, c.kind, dict(c.params), c.gamma, c.hazard_id) for c in constraints
            ]
        out.append(
            (
                lists[id(constraints)],
                models[id(model)],
                package.PlantState(np.array(state.xs), state.t),
                package.ControlInput(np.array(u_des.us), model.control_bounds),
                dt,
            )
        )
    return out


def time_calls(sides, rounds: int) -> list[list[int]]:
    """Each side's least time per call over the rounds, in ns. sides is a
    list of (filter_control, calls) with calls of equal length."""
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
                for s, (filter_control, calls) in order:
                    args = calls[i]
                    start = clock()
                    filter_control(*args)
                    elapsed = clock() - start
                    if elapsed < best[s][i]:
                        best[s][i] = elapsed
    finally:
        gc.enable()
    return best


def summary(label: str, times_ns, statuses) -> dict:
    """p50, p99 and sum of the per-call times, and per-status counts and
    medians, in microseconds."""
    us = np.array(times_ns, dtype=float) / 1e3
    by_status = {}
    for status in sorted(set(statuses)):
        picked = us[[s == status for s in statuses]]
        by_status[status] = {"calls": int(picked.size), "p50_us": round(float(np.median(picked)), 3)}
    return {
        "side": label,
        "calls": int(us.size),
        "p50_us": round(float(np.percentile(us, 50)), 3),
        "p99_us": round(float(np.percentile(us, 99)), 3),
        "sum_us": round(float(us.sum()), 1),
        "status": by_status,
    }


def run(ref: str, workload: str, seed: int, size, rounds: int) -> list[dict]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tools")]
    import asifkit
    from differential import extract

    with tempfile.TemporaryDirectory(prefix="percall-") as tmp:
        ref_tree = Path(tmp) / "ref"
        extract(ref, ref_tree)
        ref_package = load_tree(ref_tree / "src", "asifkit_ref")
        calls = workload_calls(workload, seed, size, tmp)
        sides = [(package.filter_control, rebuild(package, calls)) for package in (asifkit, ref_package)]
        statuses = [[filter_control(*args).status for args in side_calls] for filter_control, side_calls in sides]
        best = time_calls(sides, rounds)
    return [summary(label, times, status) for label, times, status in zip(("this tree", ref), best, statuses)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REF", required=True, help="git revision to compare this tree with")
    parser.add_argument("--workload", choices=WORKLOADS, default="filter_multirow")
    parser.add_argument("--seed", type=int, default=1, help="the workload's seed (default 1)")
    parser.add_argument("--size", type=int, default=None, help="the workload's size argument (default: its own)")
    parser.add_argument("--rounds", type=int, default=21, help="timed rounds over the calls (default 21)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for line in run(args.against, args.workload, args.seed, args.size, args.rounds):
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
