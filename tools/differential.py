"""Differential run of this tree against a git revision.

    python tools/differential.py --against REF [--sets NAME,...]
                                 [--size K] [--random N]

Extracts ``git archive REF`` into a temporary directory, then digests the
same inputs with this tree's asifkit and with REF's, each in its own
subprocess, and prints one JSON line per set: how many items are equal, how
many differ, and the largest difference of a command entry between the two
(null where the commands have different shapes). The inputs are built by
this tree's benchmark workloads and tests, so both sides see the same ones.

Sets:
  scenarios          the shipped scenarios/*.json traces as written by
                     write_trace, solve_time dropped
  corpus_adversarial the benchmark workload's episodes, seeds 1-3
  filter_multirow    status, command, active rows and deviation of every
                     benchmark filter_control call, seeds 1-3
  nn_nominal_batch   each batch call's metrics (solve time dropped) and its
                     episodes' traces, seed 1
  trace_roundtrip    read_trace(write_trace(trace)) of the benchmark
                     workload's traces, seed 1: every EpisodeTrace field
                     but solve_time, and `asifkit metrics`'s JSON on the
                     file, max_solve_time dropped
  random_1d          solve_qp on random_problem(default_rng(s), 1), s < N
  random_2d          the same on two axes

--size K shrinks each workload to K items per seed (its benchmark size
argument); --random N sets the number of random problems per axis count.
The exit status is 0 whether or not the trees differ.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {
    "corpus_adversarial": (1, 2, 3),
    "filter_multirow": (1, 2, 3),
    "nn_nominal_batch": (1,),
    "trace_roundtrip": (1,),
}
SETS = (
    "scenarios",
    "corpus_adversarial",
    "filter_multirow",
    "nn_nominal_batch",
    "trace_roundtrip",
    "random_1d",
    "random_2d",
)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


# ------------------------------------------------------------------ worker


def _trace_item(trace, digest):
    return digest, trace.u_out.ravel().tolist()


def _scenarios(workdir, size, random_count):
    from asifkit import harness

    items = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        trace = harness.run_episode(harness.load_scenario(path))
        out = os.path.join(workdir, path.stem + ".csv")
        harness.write_trace(trace, out)
        with open(out, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        text = "\n".join(line if line.startswith("#") else line.rsplit(",", 1)[0] for line in lines)
        items.append(_trace_item(trace, _digest(text)))
    return items


def _corpus_adversarial(workdir, size, random_count):
    import bench_workloads
    from asifkit import harness

    items = []
    for seed in SEEDS["corpus_adversarial"]:
        for cfg in bench_workloads.CorpusAdversarial(seed, workdir, size).configs:
            trace = harness.run_episode(harness.ScenarioConfig.from_dict(cfg))
            items.append(_trace_item(trace, bench_workloads._trace_digest(trace)))
    return items


def _filter_multirow(workdir, size, random_count):
    import bench_workloads
    from asifkit import asif

    items = []
    for seed in SEEDS["filter_multirow"]:
        workload = bench_workloads.FilterMultirow(seed, workdir, size)
        for constraints, state, u_des in workload.inputs:
            result = asif.filter_control(constraints, workload.model, state, u_des)
            u = result.u_out.u
            items.append((_digest(result.status, u.tobytes(), result.active_row_ids, result.deviation), u.tolist()))
    return items


def _nn_nominal_batch(workdir, size, random_count):
    import bench_workloads
    from asifkit import cli, harness

    items = []
    for seed in SEEDS["nn_nominal_batch"]:
        workload = bench_workloads.NnNominalBatch(seed, workdir, size)
        for argv, out_path, cfg, seed_base in workload.jobs:
            cli.dispatch(argv)
            with open(out_path, "r", encoding="utf-8") as fh:
                episodes = json.load(fh)["per_episode"]
            for episode in episodes:
                if episode["metrics"]:
                    episode["metrics"].pop("max_solve_time")
            traces = [
                harness.run_episode(harness.ScenarioConfig.from_dict(dict(cfg, seed=seed_base + i)))
                for i in range(workload.episodes)
            ]
            digest = _digest(episodes, *map(bench_workloads._trace_digest, traces))
            items.append((digest, [v for trace in traces for v in trace.u_out.ravel().tolist()]))
    return items


def _trace_roundtrip(workdir, size, random_count):
    import bench_workloads
    from asifkit import cli, harness

    items = []
    for seed in SEEDS["trace_roundtrip"]:
        for trace, csv_path, metrics_path in bench_workloads.TraceRoundtrip(seed, workdir, size).items:
            harness.write_trace(trace, csv_path)
            back = harness.read_trace(csv_path)
            if cli.dispatch(["metrics", "--trace", csv_path, "--out", metrics_path]) != 0:
                raise SystemExit(f"differential: asifkit metrics failed on {csv_path}")
            with open(metrics_path, "r", encoding="utf-8") as fh:
                metrics = json.load(fh)
            metrics.pop("max_solve_time")
            parts = [metrics, back.config.raw, back.config_hash, back.constraint_ids]
            parts += [back.final_t, back.aborted, back.abort_reason]
            for name in ("t", "states", "u_des", "u_out", "h", "intervened", "status", "deviation", "final_state"):
                value = getattr(back, name)
                parts += [name, value.dtype.str, value.shape, value.tobytes()]
            items.append(_trace_item(back, _digest(*parts)))
    return items


def _random(d):
    def digest_set(workdir, size, random_count):
        import numpy as np

        from asifkit import solve_qp
        from tests.test_least_max_violation import random_problem

        items = []
        for seed in range(random_count):
            u, active, status = solve_qp(random_problem(np.random.default_rng(seed), d))
            items.append((_digest(status, np.array(u, dtype=float).tobytes(), active), list(u)))
        return items

    return digest_set


DIGESTS = {
    "scenarios": _scenarios,
    "corpus_adversarial": _corpus_adversarial,
    "filter_multirow": _filter_multirow,
    "nn_nominal_batch": _nn_nominal_batch,
    "trace_roundtrip": _trace_roundtrip,
    "random_1d": _random(1),
    "random_2d": _random(2),
}


def work(tree: Path, sets, size, random_count) -> None:
    """Digest the sets with the asifkit under tree; print them as JSON."""
    sys.path[:0] = [str(tree / "src"), str(ROOT), str(ROOT / "bench")]
    import asifkit

    if Path(asifkit.__file__).resolve().parent != (tree / "src" / "asifkit").resolve():
        raise SystemExit(f"differential: asifkit imported from {asifkit.__file__}, not from {tree}")
    with tempfile.TemporaryDirectory(prefix="differential-") as workdir:
        out = {name: DIGESTS[name](workdir, size, random_count) for name in sets}
    json.dump(out, sys.stdout)


# ------------------------------------------------------------------ driver


def extract(ref: str, dest: Path) -> None:
    """Write the tree of the git revision ref into dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref], check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def compare(ours, theirs) -> dict:
    """Counts of equal and different items and the largest command difference."""
    equal = sum(a[0] == b[0] for a, b in zip(ours, theirs))
    largest = 0.0
    for (_, u), (_, v) in zip(ours, theirs):
        if len(u) != len(v):
            largest = None
            break
        largest = max([largest, *(abs(x - y) for x, y in zip(u, v))])
    return {"equal": equal, "different": max(len(ours), len(theirs)) - equal, "max_u_diff": largest}


def run(ref: str, sets, size, random_count) -> list[dict]:
    args = ["--sets", ",".join(sets), "--random", str(random_count)] + ([] if size is None else ["--size", str(size)])
    with tempfile.TemporaryDirectory(prefix="differential-ref-") as tmp:
        ref_tree = Path(tmp)
        extract(ref, ref_tree)
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)  # each worker puts its own tree first
        procs = [
            subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), *args],
                stdout=subprocess.PIPE,
                env=env,
                cwd=tmp,
            )
            for tree in (ROOT, ref_tree)
        ]
        outputs = [proc.communicate()[0] for proc in procs]
    for proc in procs:
        if proc.returncode:
            raise SystemExit(f"differential: a digest process exited with {proc.returncode}")
    ours, theirs = (json.loads(out) for out in outputs)
    return [{"set": name, **compare(ours[name], theirs[name])} for name in sets]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REF", help="git revision to compare this tree with")
    parser.add_argument("--sets", default=",".join(SETS), help="comma-separated sets (default: all)")
    parser.add_argument("--size", type=int, default=None, help="items per seed of each workload set")
    parser.add_argument("--random", type=int, default=20000, help="random problems per axis count")
    parser.add_argument("--worker", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sets = [name for name in args.sets.split(",") if name]
    unknown = sorted(set(sets) - set(SETS))
    if unknown:
        parser.error(f"unknown sets {unknown}; choose from {list(SETS)}")
    if args.worker:
        work(Path(args.worker), sets, args.size, args.random)
        return 0
    if not args.against:
        parser.error("--against REF is required")
    for line in run(args.against, sets, args.size, args.random):
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
