"""Compliance reporting over the argument and its evidence ledger.

Two airworthiness criteria ship with the default schema. A criterion is
supported when every ledger slot under every goal mapped to it is provided or
waived, partially supported when some are, unsupported when none are. Slot
upgrades can only raise a criterion's status, never lower it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidConfig, InvalidLedger
from .gsn import ArgumentNode, path_to, solutions_under
from .ledger import EVIDENCE_TYPES, EvidenceItem

CRITERIA = (
    ("14.3.3", "Evaluation of software for elimination of hazardous events"),
    ("15.2.3", "Integration Methodology"),
)

SUPPORTED = "supported"
PARTIALLY = "partially-supported"
UNSUPPORTED = "unsupported"

_STATUS_RENDER = {
    SUPPORTED: "SUPPORTED (to argument strength)",
    PARTIALLY: "PARTIALLY-SUPPORTED",
    UNSUPPORTED: "UNSUPPORTED",
}


@dataclass(frozen=True)
class ComplianceSchema:
    """Criteria, claim groups (controller / RTA / vehicle property sets), and
    the goals whose evidence each criterion rides on."""

    criteria: tuple[tuple[str, str], ...]
    claim_groups: dict[str, tuple[str, ...]]
    criterion_map: dict[str, tuple[str, ...]]

    def validate(self, nodes: dict[str, ArgumentNode]) -> None:
        for cid, _title in self.criteria:
            goals = self.criterion_map.get(cid, ())
            if not goals:
                raise InvalidConfig(f"criterion {cid} maps to no goals")
            for gid in goals:
                if gid not in nodes:
                    raise InvalidConfig(f"criterion {cid} maps to unknown goal '{gid}'")
        for group, goals in self.claim_groups.items():
            for gid in goals:
                if gid not in nodes:
                    raise InvalidConfig(f"claim group '{group}' names unknown goal '{gid}'")


def default_schema() -> ComplianceSchema:
    """Schema for the shipped template: hazard-elimination evidence rides on
    the hazard-negation branch; integration methodology rides on the whole
    argument."""
    return ComplianceSchema(
        criteria=CRITERIA,
        claim_groups={
            "controller_properties": ("G_filtered",),
            "rta_properties": ("G_rta_safe",),
            "vehicle_properties": ("G_direct",),
        },
        criterion_map={
            "14.3.3": ("G_hazard",),
            "15.2.3": ("G_root",),
        },
    )


@dataclass(frozen=True)
class ComplianceReport:
    criteria: tuple[dict, ...]  # id, title, status, provided, total
    type_counts: dict[str, dict]  # etype -> provided / waived / missing / total
    missing: tuple[dict, ...]  # item_id, etype, path
    note: str


def unknown_solution_items(nodes: dict[str, ArgumentNode], ledger: list[EvidenceItem]) -> list[EvidenceItem]:
    """The ledger items, in order, whose solution_id names no solution node."""
    return [item for item in ledger if item.solution_id not in nodes or nodes[item.solution_id].kind != "solution"]


def evidence_report(
    nodes: dict[str, ArgumentNode],
    root: str,
    schema: ComplianceSchema,
    ledger: list[EvidenceItem],
) -> ComplianceReport:
    schema.validate(nodes)
    unknown = unknown_solution_items(nodes, ledger)
    if unknown:
        raise InvalidLedger(f"ledger item '{unknown[0].id}' references unknown solution '{unknown[0].solution_id}'")
    by_solution: dict[str, list[EvidenceItem]] = {}
    for item in ledger:
        by_solution.setdefault(item.solution_id, []).append(item)

    def settled(item: EvidenceItem) -> bool:
        return item.status in ("provided", "waived")

    criteria_rows = []
    for cid, title in schema.criteria:
        solution_ids: list[str] = []
        seen = set()
        for gid in schema.criterion_map[cid]:
            for sid in solutions_under(nodes, gid):
                if sid not in seen:
                    seen.add(sid)
                    solution_ids.append(sid)
        items = [item for sid in solution_ids for item in by_solution.get(sid, [])]
        total = len(items)
        provided = sum(1 for item in items if settled(item))
        if total and provided == total:
            status = SUPPORTED
        elif provided > 0:
            status = PARTIALLY
        else:
            status = UNSUPPORTED
        criteria_rows.append(
            {"id": cid, "title": title, "status": status, "provided": provided, "total": total}
        )

    counts = {
        etype: {"provided": 0, "waived": 0, "missing": 0, "total": 0}
        for etype in EVIDENCE_TYPES
    }
    for item in ledger:
        counts[item.etype][item.status] += 1
        counts[item.etype]["total"] += 1

    missing_rows = []
    for item in ledger:
        if item.status == "missing":
            path = path_to(nodes, root, item.solution_id)
            missing_rows.append(
                {"item_id": item.id, "etype": item.etype, "path": " > ".join(path)}
            )

    note = (
        "Criterion statuses are bounded by argument strength: supported means every "
        "required slot is provided or waived, to the extent that the arguments are "
        "strong. Evidence quality review is a human judgment outside this tool."
    )
    return ComplianceReport(
        criteria=tuple(criteria_rows),
        type_counts=counts,
        missing=tuple(missing_rows),
        note=note,
    )


def render_report(report: ComplianceReport) -> str:
    """Deterministic markdown rendering; identical input gives identical bytes."""
    lines = ["# Compliance Report", ""]
    lines.append("## Criteria")
    lines.append("")
    for row in report.criteria:
        lines.append(
            f"{row['id']}: {_STATUS_RENDER[row['status']]} "
            f"[{row['provided']}/{row['total']} slots settled] - {row['title']}"
        )
    lines.append("")
    lines.append("## Evidence slots by type")
    lines.append("")
    lines.append("| type | provided | waived | missing | total |")
    lines.append("|------|----------|--------|---------|-------|")
    for etype in EVIDENCE_TYPES:
        c = report.type_counts[etype]
        lines.append(
            f"| {etype} | {c['provided']} | {c['waived']} | {c['missing']} | {c['total']} |"
        )
    lines.append("")
    if report.missing:
        lines.append("## Missing items")
        lines.append("")
        for row in report.missing:
            lines.append(f"- {row['item_id']} ({row['etype']}): {row['path']}")
        lines.append("")
    lines.append(f"Note: {report.note}")
    lines.append("")
    return "\n".join(lines)
