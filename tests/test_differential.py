"""tools/differential.py: the comparison and a run on tiny sets."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "differential.py"


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


def _tool():
    spec = importlib.util.spec_from_file_location("differential", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_counts_digests_and_the_largest_command_difference():
    compare = _tool().compare
    ours = [("a", [0.0, 1.0], 0), ("b", [0.5], 1), ("c", [2.0], 3)]
    assert compare(ours, ours) == {"equal": 3, "different": 0, "max_u_diff": 0.0, "fallbacks": [4, 4]}
    theirs = [("a", [0.0, 1.0], 0), ("x", [0.25], 0), ("c", [2.0], 3)]
    assert compare(ours, theirs) == {"equal": 2, "different": 1, "max_u_diff": 0.25, "fallbacks": [4, 3]}
    # commands of another shape (an episode that aborted earlier) have no difference
    assert compare(ours, [("a", [0.0], 0), *theirs[1:]])["max_u_diff"] is None
    assert compare(ours, ours[:2]) == {"equal": 2, "different": 1, "max_u_diff": 0.0, "fallbacks": [4, 1]}


@pytest.mark.skipif(_git("rev-parse", "--verify", "HEAD").returncode != 0, reason="needs a git checkout")
def test_runs_against_head_on_tiny_sets():
    """One JSON line per set, counting every item and each side's
    fallbacks, which the random, margin, degenerate and nonfinite sets and
    filter_multirow have. Where this tree's sources are HEAD's, every item
    and count is equal."""
    sets = {
        "scenarios": 4,
        "filter_multirow": 12,
        "trace_roundtrip": 4,
        "random_1d": 30,
        "random_2d": 30,
        "margin_2d": 30,
        "degenerate_2d": 30,
        "nonfinite": 60,  # 30 problems on each axis count
        "barrier": 120,  # 30 cases of each of four constraint kinds
        "plant": 90,  # 30 cases of each of three functions
    }
    argv = [sys.executable, str(TOOL), "--against", "HEAD", "--sets", ",".join(sets), "--size", "4", "--random", "30"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=600)
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    assert [line["set"] for line in lines] == list(sets)
    for line in lines:
        assert line["equal"] + line["different"] == sets[line["set"]], line
        assert len(line["fallbacks"]) == 2 and all(count >= 0 for count in line["fallbacks"]), line
        if line["set"] in ("filter_multirow", "random_1d", "random_2d", "margin_2d", "degenerate_2d", "nonfinite"):
            assert all(0 < count <= sets[line["set"]] for count in line["fallbacks"]), line
    if not _git("status", "--porcelain", "--", "src", "scenarios").stdout:
        assert all(line["different"] == 0 and line["max_u_diff"] == 0.0 for line in lines), lines
        assert all(line["fallbacks"][0] == line["fallbacks"][1] for line in lines), lines
