"""tools/differential.py: the comparison and a run on tiny sets."""

import importlib.util
import json
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import asifkit
from asifkit import ParseError, QpProblem, ScenarioConfig, read_trace, run_episode, solve_qp, write_trace
from tests.conftest import scenario_1d

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
    assert compare(ours, ours) == {"equal": 3, "different": 0, "max_u_diff": 0.0, "shape_mismatches": 0, "fallbacks": [4, 4]}
    theirs = [("a", [0.0, 1.0], 0), ("x", [0.25], 0), ("c", [2.0], 3)]
    assert compare(ours, theirs) == {"equal": 2, "different": 1, "max_u_diff": 0.25, "shape_mismatches": 0, "fallbacks": [4, 3]}
    assert compare(ours, ours[:2]) == {"equal": 2, "different": 1, "max_u_diff": 0.0, "shape_mismatches": 0, "fallbacks": [4, 1]}


def test_compare_counts_shape_mismatches_apart_from_the_largest_difference():
    """Items whose commands differ in shape (an episode that aborted at
    another step, a solve that raised on one side) are counted apart; the
    largest command difference is taken over the other items, and is null
    only when no item's commands have the same shape."""
    compare = _tool().compare
    ours = [("a", [0.0, 1.0], 0), ("b", [0.5], 1), ("c", [2.0], 3)]
    theirs = [("x", [0.0], 0), ("y", [0.25], 0), ("c", [2.0], 3)]
    assert compare(ours, theirs) == {"equal": 1, "different": 2, "max_u_diff": 0.25, "shape_mismatches": 1, "fallbacks": [4, 3]}
    assert compare(ours[:1], theirs[:1]) == {"equal": 0, "different": 1, "max_u_diff": None, "shape_mismatches": 1, "fallbacks": [0, 0]}


def test_a_solve_set_digests_an_error_raised_on_one_side():
    """A solve set's item whose problem raises is digested by the error's
    type and message, with no command, so the run goes on. Against a side
    where that problem solves, the item counts as different and as a shape
    mismatch, the largest command difference is taken over the other item,
    and only the solving side counts its fallback."""
    tool = _tool()
    box = ((-1.0, 1.0), (-1.0, 1.0))
    solved = QpProblem((0.0, 0.0), ((1.0, 0.0, 0.5),), ("r0",), box)
    raising = QpProblem((0.0, 0.0), ((float("nan"), 0.0, 0.0), (1.0, 0.0, 0.5)), ("r0", "r1"), box)
    ours = tool._solve_items(asifkit, [solved, raising])
    message = "row 0 (nan, 0.0, 0.0) of constraint 'r0' is not finite"
    assert ours[1] == (tool._digest("NonFiniteRow", message), [], 0)
    u, active, status = solve_qp(solved)
    assert ours[0] == (tool._digest(status, struct.pack("=2d", *u), active), [0.5, 0.0], 0)
    # the other side, where the second problem ends in the fallback
    theirs = [ours[0], (tool._digest("infeasible_fallback", struct.pack("=2d", 1.0, 0.0), (1,)), [1.0, 0.0], 1)]
    assert tool.compare(ours, theirs) == {"equal": 1, "different": 1, "max_u_diff": 0.0, "shape_mismatches": 1, "fallbacks": [0, 1]}


def test_trace_edits_give_the_outcomes_they_name(tmp_path):
    """On a 1-D trace of 20 rows (header on line 3, data rows from line 4),
    each trace_errors edit reads back or raises the ParseError its name
    says, on the line of the first bad row."""
    path = tmp_path / "t.csv"
    write_trace(run_episode(ScenarioConfig.from_dict(scenario_1d(duration=0.2))), path)
    texts = _tool().edited_traces(path.read_text().splitlines())
    row_5 = "line 9: "
    errors = {
        "short_row": row_5 + "expected 9 cells, got 8",
        "long_row": row_5 + "expected 9 cells, got 10",
        "bad_float": row_5 + "bad cell value: could not convert string to float: 'x'",
        "empty_float": row_5 + "bad cell value: could not convert string to float: ''",
        "bad_solve_time": row_5 + "bad cell value: could not convert string to float: 'fast'",
        "bad_flag": row_5 + "bad cell value: '2'",
        "float_flag": row_5 + "bad cell value: '1.0'",
        "unknown_status": row_5 + "bad cell value: 'paused'",
        "padded_status": row_5 + "bad cell value: ' passthrough'",
        "disagreement": row_5 + "intervened 1 disagrees with status passthrough",
        "disagreement_then_short_row": "line 7: intervened 1 disagrees with status passthrough",
        "short_row_then_bad_float": "line 7: expected 9 cells, got 8",
        "bad_status_then_disagreement": "line 7: bad cell value: '?'",
        "comment_and_blank_before_bad_float": "line 12: bad cell value: could not convert string to float: 'x'",
        "wrong_hash": "line 1: config_hash 0000",
        "missing_column": "line 3: missing column 'status'",
        "reordered_columns": "line 3: header mismatch",
    }
    assert set(errors) < set(texts)
    for name, text in texts.items():
        path.write_bytes(text.encode())
        if name in errors:
            with pytest.raises(ParseError) as err:
                read_trace(path)
            assert str(err.value).startswith(errors[name]), name
        else:
            back = read_trace(path)
            assert back.n_steps == (0 if name == "no_rows" else 20) and back.aborted == (name == "abort_after_rows"), name


@pytest.mark.skipif(_git("rev-parse", "--verify", "HEAD").returncode != 0, reason="needs a git checkout")
def test_runs_against_head_on_tiny_sets():
    """One JSON line per set, counting every item and each side's
    fallbacks, which the random, margin, degenerate, near-vertex and
    nonfinite sets and filter_multirow have. Where this tree's sources are
    HEAD's, every item and count is equal."""
    sets = {
        "scenarios": 4,
        "filter_multirow": 12,
        "trace_roundtrip": 4,
        "trace_errors": 4 * 26,  # 25 edits and CRLF line ends of each trace
        "random_1d": 30,
        "random_2d": 30,
        "margin_2d": 30,
        "degenerate_2d": 30,
        "near_vertex_2d": 30,
        "nonfinite": 60,  # 30 problems on each axis count
        "barrier": 120,  # 30 cases of each of four constraint kinds
        "plant": 90,  # 30 cases of each of three functions
        "cli": 14,  # ledger init, 10 commands on the template, 3 on a cyclic argument
    }
    argv = [sys.executable, str(TOOL), "--against", "HEAD", "--sets", ",".join(sets), "--size", "4", "--random", "30"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=600)
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    assert [line["set"] for line in lines] == list(sets)
    for line in lines:
        assert line["equal"] + line["different"] == sets[line["set"]], line
        assert len(line["fallbacks"]) == 2 and all(count >= 0 for count in line["fallbacks"]), line
        if line["set"] in ("filter_multirow", "random_1d", "random_2d", "margin_2d", "degenerate_2d", "near_vertex_2d", "nonfinite"):
            assert all(0 < count <= sets[line["set"]] for count in line["fallbacks"]), line
    if not _git("status", "--porcelain", "--", "src", "scenarios").stdout:
        assert all(line["different"] == 0 and line["max_u_diff"] == 0.0 and line["shape_mismatches"] == 0 for line in lines), lines
        assert all(line["fallbacks"][0] == line["fallbacks"][1] for line in lines), lines


def test_a_second_load_of_this_tree_digests_every_set_as_this_tree_does(tmp_path, monkeypatch):
    """This tree's sources, loaded a second time under another package name
    by the tools' loader, give every item of a slice of each set as this
    tree does, with equal fallback counts. The second package raises its
    own NonFiniteRow on a nonfinite problem, and the digest catches it by
    that package's classes."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tool = _tool()
    twin = tool.load_tree(ROOT / "src", "asifkit_twin")
    assert twin.NonFiniteRow is not asifkit.NonFiniteRow and twin.harness.__name__ == "asifkit_twin.harness"
    nonfinite = tool.DIGESTS["nonfinite"][0](tmp_path, None, 12)
    assert any(u == [] for _, u, _ in tool._solve_items(twin, nonfinite))
    lines = tool.digest_sets((asifkit, twin), tool.SETS, 1, 12, tmp_path / "work")
    counts = {line.pop("set"): line for line in lines}
    sizes = {
        "scenarios": 4,
        "corpus_adversarial": 36,  # 12 cells on each of 3 seeds
        "filter_multirow": 3,
        "nn_nominal_batch": 1,
        "trace_roundtrip": 1,
        "trace_errors": 26,
        "random_1d": 12,
        "random_2d": 12,
        "margin_2d": 12,
        "degenerate_2d": 12,
        "near_vertex_2d": 12,
        "nonfinite": 24,
        "barrier": 48,
        "plant": 36,
        "cli": 14,
    }
    assert list(counts) == list(sizes)
    for name, line in counts.items():
        assert line["equal"] == sizes[name] and line["different"] == line["shape_mismatches"] == 0, (name, line)
        assert line["fallbacks"][0] == line["fallbacks"][1], (name, line)
    assert counts["random_1d"]["fallbacks"][0] > 0 and counts["corpus_adversarial"]["fallbacks"][0] > 0


@pytest.mark.parametrize("argv", [["--random", "-3"], ["--random", "0"], ["--size", "0"]])
def test_rejects_a_count_below_1(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        _tool().main(["--against", "HEAD", *argv])
    assert stop.value.code == 2 and "must be at least 1" in capsys.readouterr().err
