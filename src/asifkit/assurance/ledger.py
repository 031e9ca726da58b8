"""Typed evidence ledger bound to the shipped argument template.

Every solution node in the template owns one ledger slot. The slot's type is
carried by the solution id prefix (E_PM_* is proof/math, and so on), which
keeps the ledger and the argument from drifting apart. Per-type slot counts
are fixed by the table of the fourteen types below, 55 slots total.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from ..errors import InvalidLedger, ParseError
from .gsn import parse_argument
from .template import template_text

# One row per evidence type, in report order: the solution-id prefix that
# carries the type, the type, and its slot count in the shipped template.
_EVIDENCE_TABLE = (
    ("E_PM", "proof_math", 11),
    ("E_RA", "requirements_ag", 8),
    ("E_SI", "sim_input_analysis", 8),
    ("E_PR", "peer_expert_review", 6),
    ("E_SR", "sim_results", 5),
    ("E_SA", "static_analysis", 3),
    ("E_DO", "documentation", 3),
    ("E_TV", "tool_validation", 2),
    ("E_MS", "model_sufficiency", 3),
    ("E_ST", "stability_analysis", 2),
    ("E_SP", "stpa_tables", 1),
    ("E_CC", "computational_cost", 1),
    ("E_PT", "performance_testing", 1),
    ("E_IG", "implementer_goal", 1),
)
EVIDENCE_TYPES = tuple(etype for _prefix, etype, _count in _EVIDENCE_TABLE)
EXPECTED_TYPE_COUNTS = {etype: count for _prefix, etype, count in _EVIDENCE_TABLE}
_PREFIX_TO_TYPE = {prefix: etype for prefix, etype, _count in _EVIDENCE_TABLE}

STATUSES = ("provided", "missing", "waived")

# The type table tracks 55 slots while the originating compliance method
# counts 51 evidence items: some table rows are user-answered goals rather
# than evidence, and which four are goals is not identified there. All 55
# slots are therefore tracked, with the discrepancy annotated instead of
# resolved by guessing.
LEDGER_DISCREPANCY_NOTE = (
    "Slot count discrepancy: the evidence-type table tracks 55 slots while the "
    "originating compliance method counts 51 pieces of evidence, the remainder "
    "being user-answered goal types. Which four rows are goals rather than "
    "evidence is not identified, so all 55 slots are tracked and the "
    "discrepancy is annotated here instead of resolved by guessing."
)


@dataclass(frozen=True)
class EvidenceItem:
    id: str
    solution_id: str
    etype: str
    status: str = "missing"
    artifact: str = ""
    notes: str = ""

    def __post_init__(self):
        if self.etype not in EVIDENCE_TYPES:
            raise InvalidLedger(f"item '{self.id}': unknown evidence type '{self.etype}'")
        if self.status not in STATUSES:
            raise InvalidLedger(f"item '{self.id}': unknown status '{self.status}'")
        if self.status == "waived" and not self.notes.strip():
            raise InvalidLedger(f"item '{self.id}': waived status requires non-empty notes")

    def with_status(self, status: str, notes: str | None = None) -> "EvidenceItem":
        return replace(self, status=status, notes=self.notes if notes is None else notes)


def etype_for_solution(solution_id: str) -> str:
    prefix = "_".join(solution_id.split("_")[:2])
    try:
        return _PREFIX_TO_TYPE[prefix]
    except KeyError:
        raise InvalidLedger(f"solution id '{solution_id}' has no evidence-type prefix") from None


def build_ledger_template() -> list[EvidenceItem]:
    """One slot per template solution, in document order, all missing."""
    nodes, _root = parse_argument(template_text())
    items = []
    for node in nodes.values():  # dict preserves declaration order
        if node.kind != "solution":
            continue
        etype = etype_for_solution(node.id)
        notes = LEDGER_DISCREPANCY_NOTE if etype == "implementer_goal" else ""
        items.append(
            EvidenceItem(
                id=node.id,
                solution_id=node.id,
                etype=etype,
                status="missing",
                notes=notes,
            )
        )
    return items


def type_counts(items: list[EvidenceItem]) -> dict[str, int]:
    counts = {etype: 0 for etype in EVIDENCE_TYPES}
    for item in items:
        counts[item.etype] += 1
    return counts


def save_ledger(items: list[EvidenceItem], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([asdict(item) for item in items], fh, indent=2)
        fh.write("\n")


def load_ledger(path) -> list[EvidenceItem]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, list):
        raise ParseError(f"{path}: expected a JSON array of evidence items", line=1)
    items = []
    for i, entry in enumerate(doc):
        try:
            items.append(
                EvidenceItem(
                    id=str(entry["id"]),
                    solution_id=str(entry["solution_id"]),
                    etype=str(entry["etype"]),
                    status=str(entry.get("status", "missing")),
                    artifact=str(entry.get("artifact", "") or ""),
                    notes=str(entry.get("notes", "") or ""),
                )
            )
        except KeyError as exc:
            raise InvalidLedger(f"item {i}: missing field {exc}") from exc
    return items
