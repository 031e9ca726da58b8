"""Assurance-case tooling: GSN-lite argument parsing and validation, the
typed evidence ledger, and compliance reporting."""

from .gsn import ArgumentNode, Finding, parse_argument, serialize_argument, validate_argument
from .ledger import (
    EVIDENCE_TYPES,
    LEDGER_DISCREPANCY_NOTE,
    EvidenceItem,
    build_ledger_template,
    load_ledger,
    save_ledger,
)
from .report import (
    ComplianceReport,
    ComplianceSchema,
    default_schema,
    evidence_report,
    render_report,
    unknown_solution_items,
)
from .template import template_text

__all__ = [
    "ArgumentNode",
    "Finding",
    "parse_argument",
    "serialize_argument",
    "validate_argument",
    "EvidenceItem",
    "EVIDENCE_TYPES",
    "LEDGER_DISCREPANCY_NOTE",
    "build_ledger_template",
    "load_ledger",
    "save_ledger",
    "ComplianceSchema",
    "ComplianceReport",
    "default_schema",
    "evidence_report",
    "render_report",
    "unknown_solution_items",
    "template_text",
]
