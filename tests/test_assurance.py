import importlib
import importlib.util
import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asifkit import InvalidConfig, InvalidLedger, ParseError
from asifkit.assurance import (
    EVIDENCE_TYPES,
    LEDGER_DISCREPANCY_NOTE,
    build_ledger_template,
    default_schema,
    evidence_report,
    load_ledger,
    parse_argument,
    render_report,
    save_ledger,
    serialize_argument,
    template_text,
    unknown_solution_items,
    validate_argument,
)
from asifkit.assurance.gsn import path_to, solutions_under
from asifkit.assurance.ledger import EXPECTED_TYPE_COUNTS, EvidenceItem, etype_for_solution, type_counts
from asifkit.assurance.report import ComplianceSchema


@pytest.fixture(scope="module")
def template():
    nodes, root = parse_argument(template_text())
    return nodes, root


# ---- parser ----


def test_parse_minimal_document():
    text = 'goal G1: "Plant stays safe"\nsolution E1: "Test report"\nG1 -> E1\n'
    nodes, root = parse_argument(text)
    assert root == "G1"
    assert len(nodes) == 2
    assert nodes["G1"].children == ["E1"]


def test_parse_rejects_duplicate_id():
    text = 'goal G1: "a"\ngoal G1: "b"\n'
    with pytest.raises(ParseError) as err:
        parse_argument(text)
    assert err.value.line == 2


def test_parse_rejects_unknown_reference():
    text = 'goal G1: "a"\nG1 -> E9\n'
    with pytest.raises(ParseError, match="E9"):
        parse_argument(text)


def test_parse_rejects_an_edge_from_an_undeclared_id():
    with pytest.raises(ParseError, match="^line 2: edge references undeclared id 'S9'$"):
        parse_argument('goal G1: "a"\nS9 -> G1\n')


def test_parse_rejects_kind_violating_edge():
    text = 'goal G1: "a"\nsolution E1: "e"\nstrategy S1: "s"\nG1 -> S1\nS1 -> G1\n'
    # strategy -> solution is illegal
    bad = text + "S1 -> E1\n"
    with pytest.raises(ParseError, match="may not be supported"):
        parse_argument(bad)
    # leaves may not have children
    bad = text + "E1 -> G1\n"
    with pytest.raises(ParseError, match="leaf"):
        parse_argument(bad)


def test_parse_rejects_multiple_roots():
    text = 'goal G1: "a"\ngoal G2: "b"\n'
    with pytest.raises(ParseError, match="multiple root goals"):
        parse_argument(text)


def test_parse_rejects_zero_roots():
    text = 'goal G1: "a"\ngoal G2: "b"\nG1 -> G2\nG2 -> G1\n'
    with pytest.raises(ParseError, match="no root goal"):
        parse_argument(text)


def test_parse_reports_unrecognized_statement_line():
    text = 'goal G1: "a"\nwibble\n'
    with pytest.raises(ParseError) as err:
        parse_argument(text)
    assert err.value.line == 2


def test_round_trip_parse_serialize_parse(template):
    nodes, root = template
    text2 = serialize_argument(nodes, root)
    nodes2, root2 = parse_argument(text2)
    assert root2 == root
    assert set(nodes2) == set(nodes)
    for nid in nodes:
        assert nodes2[nid].kind == nodes[nid].kind
        assert nodes2[nid].text == nodes[nid].text
        assert nodes2[nid].children == nodes[nid].children


# ---- validator ----


def test_validate_unsupported_strategy():
    text = 'goal G1: "a"\nstrategy S1: "s"\nG1 -> S1\n'
    nodes, root = parse_argument(text)
    findings = validate_argument(nodes, root)
    codes = {(f.code, f.node_id) for f in findings}
    assert ("unsupported_strategy", "S1") in codes


def test_validate_undeveloped_goal():
    text = 'goal G1: "a"\ngoal G2: "b"\nG1 -> G2\n'
    nodes, root = parse_argument(text)
    findings = validate_argument(nodes, root)
    assert {"G1", "G2"} <= {f.node_id for f in findings if f.code == "undeveloped_goal"}


def test_validate_cycle_is_error():
    text = 'goal G0: "root"\ngoal G1: "a"\ngoal G2: "b"\nG0 -> G1\nG1 -> G2\nG2 -> G1\n'
    nodes, root = parse_argument(text)
    findings = validate_argument(nodes, root)
    assert any(f.code == "cycle" and f.severity == "error" for f in findings)


def test_validate_unreachable_warning():
    text = 'goal G1: "a"\nsolution E1: "e"\nsolution E2: "stray"\nG1 -> E1\n'
    nodes, root = parse_argument(text)
    findings = validate_argument(nodes, root)
    assert any(f.code == "unreachable" and f.node_id == "E2" for f in findings)


# ---- shipped template ----


def test_template_parses_clean(template):
    nodes, root = template
    assert validate_argument(nodes, root) == []


def test_template_of_a_copy_loaded_under_another_name(tmp_path):
    """template_text reads its own package's template: a copy of the
    sources with an edited template, loaded under another package name by
    the tools' loader, gives the edited text, and this tree's is unchanged.
    The copy replaces this tree's sources loaded under that name first."""
    root = Path(__file__).resolve().parent.parent
    shutil.copytree(root / "src" / "asifkit", tmp_path / "asifkit", ignore=shutil.ignore_patterns("__pycache__"))
    data = tmp_path / "asifkit" / "assurance" / "data" / "functional_safety.gsn"
    edited = data.read_text(encoding="utf-8").replace("Functional Safety", "Edited Safety")
    data.write_text(edited, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("differential", root / "tools" / "differential.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    first = tool.load_tree(root / "src", "asifkit_template_copy")
    copy = tool.load_tree(tmp_path, "asifkit_template_copy")
    assert copy.harness is not first.harness
    assert importlib.import_module("asifkit_template_copy.assurance").template_text() == edited != template_text()


def test_template_root_text(template):
    nodes, root = template
    assert nodes[root].text.startswith("Functional Safety of the NNCS-RTA")


def test_template_structural_claims_verbatim(template):
    nodes, _ = template
    texts = [n.text for n in nodes.values()]
    assert any("all control input from the NNCS is filtered through the ASIF RTA" in t for t in texts)
    assert any("timely and reliable algorithm" in t for t in texts)
    assert any("valid and verified explicit control barrier functions" in t for t in texts)
    assert any(
        "only applicable to hazards negated by asif-enforced safety constraints" in t.lower()
        for t in texts
    )


def test_template_marks_reconstructed_regions(template):
    nodes, _ = template
    recon = [n for n in nodes.values() if n.kind == "context" and "econstructed" in n.text]
    assert recon


# ---- ledger ----


def test_ledger_counts_exact():
    items = build_ledger_template()
    assert len(items) == 55
    counts = type_counts(items)
    assert counts == EXPECTED_TYPE_COUNTS
    assert tuple(counts[t] for t in EVIDENCE_TYPES) == (11, 8, 8, 6, 5, 3, 3, 2, 3, 2, 1, 1, 1, 1)


def test_ledger_all_missing_and_annotated():
    items = build_ledger_template()
    assert all(item.status == "missing" for item in items)
    annotated = [item for item in items if LEDGER_DISCREPANCY_NOTE in item.notes]
    assert len(annotated) == 1 and annotated[0].etype == "implementer_goal"
    assert "51" in LEDGER_DISCREPANCY_NOTE and "55" in LEDGER_DISCREPANCY_NOTE


def test_ledger_conservation_under_updates():
    items = build_ledger_template()
    updated = [
        item.with_status("provided") if i % 3 == 0 else item for i, item in enumerate(items)
    ]
    assert sum(type_counts(updated).values()) == len(updated) == 55


def test_ledger_waived_requires_notes():
    items = build_ledger_template()
    with pytest.raises(InvalidLedger):
        items[0].with_status("waived", notes="")
    ok = items[0].with_status("waived", notes="covered by vendor audit")
    assert ok.status == "waived"


@pytest.mark.parametrize(
    "etype, status, message",
    [("hearsay", "missing", "item 'E1': unknown evidence type 'hearsay'"), ("sim_results", "done", "item 'E1': unknown status 'done'")],
)
def test_ledger_item_errors_name_their_cause(etype, status, message):
    with pytest.raises(InvalidLedger, match=f"^{message}$"):
        EvidenceItem("E1", "E_SR_x", etype, status)


def test_a_solution_id_without_a_type_prefix_is_refused():
    with pytest.raises(InvalidLedger, match="^solution id 'E_XX_1' has no evidence-type prefix$"):
        etype_for_solution("E_XX_1")


@pytest.mark.parametrize(
    "doc, error, message",
    [
        ({"id": "E1"}, ParseError, "line 1: {path}: expected a JSON array of evidence items"),
        ([{"id": "E1", "etype": "sim_results"}], InvalidLedger, "item 0: missing field 'solution_id'"),
    ],
    ids=["not-an-array", "missing-field"],
)
def test_ledger_file_errors_name_their_cause(doc, error, message, tmp_path):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(error, match=f"^{re.escape(message.format(path=path))}$"):
        load_ledger(path)


def test_ledger_save_load_round_trip(tmp_path):
    items = build_ledger_template()
    path = tmp_path / "ledger.json"
    save_ledger(items, path)
    back = load_ledger(path)
    assert back == items


def test_ledger_slots_bind_to_template_solutions(template):
    nodes, _ = template
    for item in build_ledger_template():
        assert nodes[item.solution_id].kind == "solution"


# ---- compliance report ----


def _statuses(nodes, root, ledger):
    report = evidence_report(nodes, root, default_schema(), ledger)
    return {row["id"]: row["status"] for row in report.criteria}


def test_fresh_ledger_both_unsupported(template):
    nodes, root = template
    assert _statuses(nodes, root, build_ledger_template()) == {
        "14.3.3": "unsupported",
        "15.2.3": "unsupported",
    }


def test_all_provided_both_supported(template):
    nodes, root = template
    ledger = [item.with_status("provided") for item in build_ledger_template()]
    assert _statuses(nodes, root, ledger) == {
        "14.3.3": "supported",
        "15.2.3": "supported",
    }


def test_hazard_subtree_only_partial_split(template):
    nodes, root = template
    hazard_solutions = set(solutions_under(nodes, "G_hazard"))
    ledger = [
        item.with_status("provided") if item.solution_id in hazard_solutions else item
        for item in build_ledger_template()
    ]
    statuses = _statuses(nodes, root, ledger)
    assert statuses["14.3.3"] == "supported"
    assert statuses["15.2.3"] == "partially-supported"


def test_waived_counts_as_settled(template):
    nodes, root = template
    ledger = [item.with_status("waived", notes="external audit") for item in build_ledger_template()]
    assert _statuses(nodes, root, ledger)["15.2.3"] == "supported"


def test_unknown_solution_rejected(template):
    nodes, root = template
    items = build_ledger_template()
    bad = items[0].__class__(
        id="ghost", solution_id="E_nope", etype="proof_math", status="missing"
    )
    with pytest.raises(InvalidLedger, match="ledger item 'ghost' references unknown solution 'E_nope'"):
        evidence_report(nodes, root, default_schema(), items + [bad])
    goal = EvidenceItem("goal", "G_root", "proof_math")
    assert unknown_solution_items(nodes, [goal] + items + [bad]) == [goal, bad]
    with pytest.raises(InvalidLedger, match="ledger item 'goal' references unknown solution 'G_root'"):
        evidence_report(nodes, root, default_schema(), items + [goal, bad])


# G_root -> A -> B -> A, with the solution E_SR_x under A and E_SR_y under
# nothing
CYCLIC = (
    'goal G_root: "r"\ngoal A: "a"\ngoal B: "b"\nsolution E_SR_x: "x"\nsolution E_SR_y: "y"\n'
    "G_root -> A\nA -> B\nB -> A\nA -> E_SR_x\n"
)


def test_path_to_the_root_is_the_root(template):
    nodes, root = template
    assert path_to(nodes, root, root) == [root]


@pytest.mark.parametrize(
    "criterion_map, message",
    [({"c": ()}, "criterion c maps to no goals"), ({"c": ("G_root", "G_ghost")}, "criterion c maps to unknown goal 'G_ghost'")],
)
def test_a_schema_mapping_a_criterion_to_no_or_unknown_goals_is_refused(criterion_map, message, template):
    nodes, _root = template
    with pytest.raises(InvalidConfig, match=f"^{message}$"):
        ComplianceSchema(criteria=(("c", "t"),), criterion_map=criterion_map).validate(nodes)


def test_path_to_walks_a_cycle_once():
    nodes, root = parse_argument(CYCLIC)
    assert path_to(nodes, root, "E_SR_x") == ["G_root", "A", "E_SR_x"]
    assert path_to(nodes, root, "E_SR_y") == ["E_SR_y"]


def test_path_to_is_the_first_reach_path():
    """On a DAG where E_SR_x lies under A -> B and under C, path_to gives
    the path along which the breadth-first walk first reaches it, through
    C, not the longer one a depth-first walk would find first."""
    nodes, root = parse_argument(
        'goal G_root: "r"\ngoal A: "a"\ngoal B: "b"\ngoal C: "c"\nsolution E_SR_x: "x"\n'
        "G_root -> A\nG_root -> C\nA -> B\nB -> E_SR_x\nC -> E_SR_x\n"
    )
    assert validate_argument(nodes, root) == []
    assert path_to(nodes, root, "E_SR_x") == ["G_root", "C", "E_SR_x"]


def test_evidence_report_on_a_cyclic_argument():
    """evidence_report does not check the argument for cycles; on one with
    a missing slot it still returns, the slot's path walked once round."""
    nodes, root = parse_argument(CYCLIC)
    schema = ComplianceSchema(criteria=(("c", "t"),), criterion_map={"c": ("G_root",)})
    ledger = [EvidenceItem("E_SR_x", "E_SR_x", "sim_results"), EvidenceItem("E_SR_y", "E_SR_y", "sim_results", "provided")]
    report = evidence_report(nodes, root, schema, ledger)
    assert report.criteria == ({"id": "c", "title": "t", "status": "unsupported", "provided": 0, "total": 1},)
    assert report.missing == ({"item_id": "E_SR_x", "etype": "sim_results", "path": "G_root > A > E_SR_x"},)


def goal_chain(n, leaf="solution"):
    """An argument of n goals in one chain, G0 -> G1 -> ..., the last
    supported by one leaf E of the given kind: deeper than Python's default
    recursion limit for n = 1,200."""
    lines = [f'goal G{i}: "g"' for i in range(n)] + [f'{leaf} E: "e"']
    lines += [f"G{i} -> G{i + 1}" for i in range(n - 1)] + [f"G{n - 1} -> E"]
    return "\n".join(lines) + "\n"


def test_a_deep_chain_is_walked_without_recursion():
    """validate_argument and path_to walk without recursion: on a chain of
    1,200 goals they give the findings and the path, not RecursionError."""
    nodes, root = parse_argument(goal_chain(1200))
    assert validate_argument(nodes, root) == []
    assert path_to(nodes, root, "E") == [f"G{i}" for i in range(1200)] + ["E"]
    nodes, root = parse_argument(goal_chain(1200, leaf="context"))
    findings = validate_argument(nodes, root)
    assert [(f.code, f.node_id) for f in findings] == [("undeveloped_goal", nid) for nid in sorted(f"G{i}" for i in range(1200))]


_RANK = {"unsupported": 0, "partially-supported": 1, "supported": 2}


@settings(max_examples=30, deadline=None)
@given(order=st.permutations(range(12)), data=st.data())
def test_monotonicity_under_upgrades(order, data):
    """Providing items one at a time, in any order, never demotes a
    criterion's status."""
    nodes, root = parse_argument(template_text())
    items = build_ledger_template()
    chosen = data.draw(st.sets(st.integers(0, len(items) - 1), min_size=12, max_size=12))
    chosen = sorted(chosen)
    schema = default_schema()
    prev = {cid: 0 for cid, _ in schema.criteria}
    ledger = list(items)
    for idx in order:
        ledger[chosen[idx]] = ledger[chosen[idx]].with_status("provided")
        report = evidence_report(nodes, root, schema, ledger)
        for row in report.criteria:
            rank = _RANK[row["status"]]
            assert rank >= prev[row["id"]]
            prev[row["id"]] = rank


# ---- rendering ----


def test_render_fresh_ledger_lines(template):
    nodes, root = template
    report = evidence_report(nodes, root, default_schema(), build_ledger_template())
    text = render_report(report)
    assert "14.3.3: UNSUPPORTED" in text
    assert "15.2.3: UNSUPPORTED" in text
    assert "| proof_math | 0 | 0 | 11 | 11 |" in text


def test_render_supported_line(template):
    nodes, root = template
    ledger = [item.with_status("provided") for item in build_ledger_template()]
    report = evidence_report(nodes, root, default_schema(), ledger)
    text = render_report(report)
    assert "15.2.3: SUPPORTED (to argument strength)" in text
    assert "14.3.3: SUPPORTED (to argument strength)" in text


def test_render_deterministic_bytes(template):
    nodes, root = template
    report = evidence_report(nodes, root, default_schema(), build_ledger_template())
    assert render_report(report).encode() == render_report(report).encode()


def test_missing_items_have_claim_paths(template):
    nodes, root = template
    report = evidence_report(nodes, root, default_schema(), build_ledger_template())
    assert len(report.missing) == 55
    for row in report.missing:
        assert row["path"].startswith("G_root")
