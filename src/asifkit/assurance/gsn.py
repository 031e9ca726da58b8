"""Goal-structuring argument model and its line-oriented text format.

Grammar (one statement per line):

    <kind> <ID>: "<text>"     node declaration, kind in {goal, strategy,
                              solution, context, assumption}
    <ID> -> <ID>              edge from parent to child
    # ...                     comment
                              blank lines ignored

IDs match [A-Za-z][A-Za-z0-9_]*. Goals may be supported by any node kind;
strategies only by goals, context, and assumptions; solutions, context, and
assumptions are leaves. The root is the unique goal no other node references.
Sharing a child between parents is allowed (context markers typically are).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import ParseError

KINDS = ("goal", "strategy", "solution", "context", "assumption")
_LEAF_KINDS = {"solution", "context", "assumption"}
_ALLOWED_CHILDREN = {
    "goal": {"strategy", "goal", "solution", "context", "assumption"},
    "strategy": {"goal", "context", "assumption"},
}

_NODE_RE = re.compile(rf"^({'|'.join(KINDS)})\s+([A-Za-z][A-Za-z0-9_]*):\s*\"([^\"]*)\"\s*$")
_EDGE_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)\s*->\s*([A-Za-z][A-Za-z0-9_]*)\s*$")


@dataclass
class ArgumentNode:
    id: str
    kind: str
    text: str
    children: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" | "warning"
    code: str
    node_id: str
    message: str


def parse_argument(text: str) -> tuple[dict[str, ArgumentNode], str]:
    """Parse a document into a validated node map and the root goal id."""
    nodes: dict[str, ArgumentNode] = {}
    decl_line: dict[str, int] = {}
    edges: list[tuple[int, str, str]] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _NODE_RE.match(stripped)
        if m:
            kind, node_id, node_text = m.groups()
            if node_id in nodes:
                raise ParseError(
                    f"duplicate id '{node_id}' (first declared on line {decl_line[node_id]})",
                    line=lineno,
                )
            nodes[node_id] = ArgumentNode(id=node_id, kind=kind, text=node_text)
            decl_line[node_id] = lineno
            continue
        m = _EDGE_RE.match(stripped)
        if m:
            edges.append((lineno, m.group(1), m.group(2)))
            continue
        raise ParseError(f"unrecognized statement: {stripped!r}", line=lineno)

    referenced: set[str] = set()
    for lineno, parent_id, child_id in edges:
        if parent_id not in nodes:
            raise ParseError(f"edge references undeclared id '{parent_id}'", line=lineno)
        if child_id not in nodes:
            raise ParseError(f"edge references undeclared id '{child_id}'", line=lineno)
        parent = nodes[parent_id]
        child = nodes[child_id]
        if parent.kind in _LEAF_KINDS:
            raise ParseError(
                f"{parent.kind} '{parent_id}' is a leaf kind and may not have children",
                line=lineno,
            )
        if child.kind not in _ALLOWED_CHILDREN[parent.kind]:
            raise ParseError(
                f"{parent.kind} '{parent_id}' may not be supported by "
                f"{child.kind} '{child_id}'",
                line=lineno,
            )
        parent.children.append(child_id)
        referenced.add(child_id)

    root_candidates = [
        nid for nid, node in nodes.items() if node.kind == "goal" and nid not in referenced
    ]
    if not root_candidates:
        raise ParseError("no root goal: every goal is referenced by some edge", line=len(text.splitlines()) or 1)
    if len(root_candidates) > 1:
        ordered = sorted(root_candidates, key=lambda nid: decl_line[nid])
        raise ParseError(
            f"multiple root goals: {ordered}", line=decl_line[ordered[1]]
        )
    return nodes, root_candidates[0]


def serialize_argument(nodes: dict[str, ArgumentNode], root: str) -> str:
    """Deterministic text form: declarations in sorted-id order, then edges in
    parent-sorted, child-declaration order. Re-parsing yields an equal node
    set and the same root."""
    lines = []
    for nid in sorted(nodes):
        node = nodes[nid]
        lines.append(f'{node.kind} {node.id}: "{node.text}"')
    for nid in sorted(nodes):
        for child in nodes[nid].children:
            lines.append(f"{nid} -> {child}")
    return "\n".join(lines) + "\n"


def validate_argument(nodes: dict[str, ArgumentNode], root: str) -> list[Finding]:
    """Structural findings; an empty list means the argument is sound.

    errors:   cycles
    warnings: undeveloped goals (no strategy or solution descendant),
              strategies without goal children, nodes unreachable from root
    """
    findings: list[Finding] = []

    # cycle detection, three-color DFS over every node; a node finishing
    # records whether it is developed (some strategy or solution in its
    # descendant set), since in an acyclic graph its children have finished
    # (a cyclic argument returns before the record is read)
    color: dict[str, int] = {nid: 0 for nid in nodes}
    cycle_nodes: set[str] = set()
    developed: dict[str, bool] = {}

    def dfs_cycle(start: str) -> None:
        stack: list[tuple[str, int]] = [(start, 0)]
        color[start] = 1
        while stack:
            nid, idx = stack[-1]
            children = nodes[nid].children
            if idx < len(children):
                stack[-1] = (nid, idx + 1)
                child = children[idx]
                if color[child] == 0:
                    color[child] = 1
                    stack.append((child, 0))
                elif color[child] == 1:
                    cycle_nodes.add(child)
            else:
                color[nid] = 2
                developed[nid] = any(nodes[c].kind in ("strategy", "solution") or developed.get(c) for c in children)
                stack.pop()

    for nid in nodes:
        if color[nid] == 0:
            dfs_cycle(nid)
    for nid in sorted(cycle_nodes):
        findings.append(
            Finding("error", "cycle", nid, f"cycle through node '{nid}'")
        )
    if cycle_nodes:
        return findings  # descendant analysis below assumes acyclicity

    for nid in sorted(set(nodes).difference(_reach(nodes, root))):
        findings.append(
            Finding("warning", "unreachable", nid, f"node '{nid}' unreachable from root '{root}'")
        )

    # undeveloped goals and strategies without goal children
    for nid in sorted(nodes):
        node = nodes[nid]
        if node.kind == "goal" and not developed[nid]:
            findings.append(
                Finding("warning", "undeveloped_goal", nid, f"undeveloped goal '{nid}'")
            )
        if node.kind == "strategy" and not any(
            nodes[c].kind == "goal" for c in node.children
        ):
            findings.append(
                Finding("warning", "unsupported_strategy", nid, f"unsupported strategy '{nid}'")
            )
    return findings


def _reach(nodes: dict[str, ArgumentNode], start: str) -> dict[str, str | None]:
    """The ids reachable from start, start included, breadth-first in order
    of first reach, children in their order (deterministic), each mapped to
    the id it was first reached from (start to None)."""
    parent: dict[str, str | None] = {start: None}
    order = [start]
    for nid in order:  # order grows as the walk reaches new ids
        for child in nodes[nid].children:
            if child not in parent:
                parent[child] = nid
                order.append(child)
    return parent


def solutions_under(nodes: dict[str, ArgumentNode], goal_id: str) -> list[str]:
    """Solution ids in the transitive support of a goal, in document order of
    first reach (deterministic)."""
    return [nid for nid in _reach(nodes, goal_id) if nodes[nid].kind == "solution"]


def path_to(nodes: dict[str, ArgumentNode], root: str, target: str) -> list[str]:
    """The id path from root to target along which the breadth-first walk
    from root first reaches target: each id on it is reached from the one
    before it, children in their order, so the path is one of the shortest
    and deterministic. A cycle does not send the walk round it. An
    unreachable target gives [target]."""
    parent = _reach(nodes, root)
    if target not in parent:
        return [target]
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]
