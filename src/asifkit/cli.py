"""Command-line entry point.

Exit codes: 0 success, 1 validation findings of error severity (or failed
check, or aborted episode), 2 usage error, 3 IO or parse error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys

import numpy as np

from .assurance import (
    Finding,
    build_ledger_template,
    default_schema,
    evidence_report,
    load_ledger,
    parse_argument,
    render_report,
    save_ledger,
    unknown_solution_items,
    validate_argument,
)
from .barrier import GEOFENCE_1D, GEOFENCE_2D_CIRCLE, SPEED_LIMIT, BarrierConstraint, eval_grad_h, eval_h
from .dynamics import PlantState
from .errors import AsifKitError, ParseError
from .harness import compute_metrics, load_scenario, read_trace, run_batch, run_episode, write_trace

USAGE_ERROR = 2
IO_ERROR = 3
FINDINGS_ERROR = 1


def _int_at_least(text: str, minimum: int) -> int:
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _check_out_dirs(*paths) -> None:
    """Raise the OSError that writing each given path would for a missing
    directory, before any episode runs to produce what it would hold."""
    for path in paths:
        if path is not None:
            directory = os.path.dirname(path) or "."
            if not os.path.isdir(directory):
                raise FileNotFoundError(errno.ENOENT, "no such directory", directory)


def _write_out(text: str, path) -> None:
    """Write text to the file path, or to stdout when path is None."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asifkit",
        description="Safety-filtered closed-loop simulation and assurance-case tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one episode; write trace and metrics")
    p.add_argument("--config", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument(
        "--metrics", default=None,
        help="metrics path (default: <trace>.metrics.json); not written for a trace with no steps",
    )

    p = sub.add_parser("batch", help="run seeded episodes; write aggregate metrics")
    p.add_argument("--config", required=True)
    p.add_argument("--episodes", type=_non_negative_int, required=True)
    p.add_argument("--seed-base", type=_non_negative_int, required=True)
    p.add_argument("--out", default=None, help="aggregate metrics path (default: stdout)")

    p = sub.add_parser("metrics", help="compute metrics from a trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("check-gradients", help="finite-difference check of barrier gradients")
    p.add_argument("--states", type=_positive_int, default=100, help="states per constraint (at least 1)")
    p.add_argument("--seed", type=_non_negative_int, default=0)

    p = sub.add_parser("check-case", help="parse and validate an argument document")
    p.add_argument("--argument", required=True)
    p.add_argument("--ledger", default=None)

    p = sub.add_parser("ledger", help="evidence ledger operations")
    ledger_sub = p.add_subparsers(dest="ledger_command", required=True)
    p_init = ledger_sub.add_parser("init", help="write the evidence ledger template")
    p_init.add_argument("--out", required=True)

    p = sub.add_parser("report", help="compliance report from argument plus ledger")
    p.add_argument("--argument", required=True)
    p.add_argument("--ledger", required=True)
    p.add_argument("--out", default=None)

    return parser


def _cmd_simulate(args) -> int:
    config = load_scenario(args.config)
    metrics_path = args.metrics or f"{args.trace}.metrics.json"
    _check_out_dirs(args.trace, metrics_path)
    trace = run_episode(config)
    write_trace(trace, args.trace)
    if trace.n_steps:
        _write_out(json.dumps(compute_metrics(trace).to_dict(), indent=2) + "\n", metrics_path)
    if trace.aborted:
        print(f"episode aborted: {trace.abort_reason}", file=sys.stderr)
        return FINDINGS_ERROR
    return 0


def _cmd_batch(args) -> int:
    config = load_scenario(args.config)
    _check_out_dirs(args.out)
    result = run_batch(config, args.episodes, args.seed_base)
    _write_out(json.dumps(result, indent=2) + "\n", args.out)
    return 0


def _cmd_metrics(args) -> int:
    trace = read_trace(args.trace)
    metrics = compute_metrics(trace)
    _write_out(json.dumps(metrics.to_dict(), indent=2) + "\n", args.out)
    return 0


def _gradient_check_states(rng, kind):
    if kind != GEOFENCE_2D_CIRCLE:
        return PlantState(rng.uniform(-2.0, 2.0, size=2))
    while True:
        x = rng.uniform(-2.0, 2.0, size=4)
        if float(np.hypot(x[0], x[1])) > 1e-3:
            return PlantState(x)


def _cmd_check_gradients(args) -> int:
    constraints = [
        BarrierConstraint("fence", GEOFENCE_1D, {"p_limit": 1.0, "u_max": 1.0}),
        BarrierConstraint("circle", GEOFENCE_2D_CIRCLE, {"center": (0.0, 0.0), "radius": 1.0, "u_max": 1.0}),
        BarrierConstraint("speed", SPEED_LIMIT, {"v_max": 2.0}),
    ]
    rng = np.random.default_rng(args.seed)
    step = 1e-6
    worst = 0.0
    for constraint in constraints:
        for _ in range(args.states):
            state = _gradient_check_states(rng, constraint.kind)
            grad = np.array(eval_grad_h(constraint, state))
            fd = np.empty_like(grad)
            for i in range(grad.shape[0]):
                hi = state.x.copy(); hi[i] += step
                lo = state.x.copy(); lo[i] -= step
                fd[i] = (eval_h(constraint, PlantState(hi)) - eval_h(constraint, PlantState(lo))) / (2 * step)
            scale = max(1.0, float(np.linalg.norm(grad)))
            worst = max(worst, float(np.linalg.norm(grad - fd)) / scale)
    print(f"max gradient relative error: {worst:.3e}")
    return 0 if worst <= 1e-6 else FINDINGS_ERROR


def _check_case(argument_path: str, ledger_path):
    """The one case check of check-case and report. It parses and validates
    the argument; when no finding is an error and a ledger path is given,
    it loads the ledger and adds an error finding for each item whose
    solution is unknown. Every finding is printed on stderr. Returns the
    nodes, the root, the ledger (None when not loaded), the findings and
    the exit code, FINDINGS_ERROR when a finding is an error."""
    with open(argument_path, "r", encoding="utf-8") as fh:
        nodes, root = parse_argument(fh.read())
    findings = validate_argument(nodes, root)
    ledger = None
    if ledger_path and all(f.severity != "error" for f in findings):
        ledger = load_ledger(ledger_path)
        findings += [
            Finding("error", "ledger", item.solution_id, f"item '{item.id}' references an unknown solution")
            for item in unknown_solution_items(nodes, ledger)
        ]
    for finding in findings:
        print(f"{finding.severity}: {finding.code}: {finding.message}", file=sys.stderr)
    code = FINDINGS_ERROR if any(f.severity == "error" for f in findings) else 0
    return nodes, root, ledger, findings, code


def _cmd_check_case(args) -> int:
    nodes, root, _ledger, findings, code = _check_case(args.argument, args.ledger)
    if not findings:
        print(f"ok: {len(nodes)} nodes, root {root}")
    return code


def _cmd_ledger(args) -> int:
    items = build_ledger_template()  # init is the only ledger subcommand
    save_ledger(items, args.out)
    print(f"wrote {len(items)} evidence slots to {args.out}")
    return 0


def _cmd_report(args) -> int:
    nodes, root, ledger, _findings, code = _check_case(args.argument, args.ledger)
    if not code:
        _write_out(render_report(evidence_report(nodes, root, default_schema(), ledger)), args.out)
    return code


_HANDLERS = {
    "simulate": _cmd_simulate,
    "batch": _cmd_batch,
    "metrics": _cmd_metrics,
    "check-gradients": _cmd_check_gradients,
    "check-case": _cmd_check_case,
    "ledger": _cmd_ledger,
    "report": _cmd_report,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use rather than at import."""
    return build_parser()


def dispatch(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return IO_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return IO_ERROR
    except AsifKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
