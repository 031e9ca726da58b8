"""Span tracing from outside the program.

The tracer swaps module attributes that asifkit's own code looks up at call
time (for example ``asifkit.harness.filter_control``) for wrappers that record
one span per call: name, start and end in ns, parent span, the benchmark
operation the call belongs to, and an optional tag taken from the return
value. Validating constructors are counted, not spanned, because they run
about once per microsecond. Spans stay in memory; the caller aggregates them
into per-layer numbers and may write them out when the run ends.

Nothing is patched until ``install`` and everything is restored by
``uninstall``, so an untraced run executes the unmodified program.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

import asifkit.asif
import asifkit.cli
import asifkit.controllers
import asifkit.harness
from asifkit.dynamics import ControlInput, PlantState
from asifkit.harness import ScenarioConfig


def _solve_status(out):
    return out[2]


def _filter_outcome(out):
    return (out.status, out.deviation)


# (owner, attribute, span name, tag function). Where two modules bind the
# same function, both bindings are wrapped under one name.
SPAN_POINTS = (
    (asifkit.harness, "desired_control", "controllers.desired_control", None),
    (asifkit.controllers, "load_controller", "controllers.load_controller", None),
    (asifkit.asif, "cbf_row", "barrier.cbf_row", None),
    (asifkit.asif, "assemble_qp", "asif.assemble_qp", None),
    (asifkit.asif, "solve_qp", "asif.solve_qp", _solve_status),
    (asifkit.asif, "filter_control", "asif.filter_control", _filter_outcome),
    (asifkit.harness, "filter_control", "asif.filter_control", _filter_outcome),
    (asifkit.harness, "step_rk4", "dynamics.step_rk4", None),
    (asifkit.harness, "sample_disturbance", "dynamics.sample_disturbance", None),
    (asifkit.harness, "run_episode", "harness.run_episode", None),
    (ScenarioConfig, "from_dict", "harness.ScenarioConfig.from_dict", None),
    (asifkit.harness, "run_batch", "harness.run_batch", None),
    (asifkit.cli, "run_batch", "harness.run_batch", None),
    (asifkit.harness, "compute_metrics", "harness.compute_metrics", None),
    (asifkit.cli, "compute_metrics", "harness.compute_metrics", None),
    (asifkit.harness, "write_trace", "harness.write_trace", None),
    (asifkit.harness, "read_trace", "harness.read_trace", None),
    (asifkit.cli, "read_trace", "harness.read_trace", None),
    (asifkit.cli, "dispatch", "cli.dispatch", None),
)

# (owner, attribute, counter name). A count is keyed by the name of the
# innermost open span, so callers can be told apart: eval_h called from
# run_episode's body is the recorder, from from_dict it is the config check.
COUNT_POINTS = (
    (PlantState, "__post_init__", "dynamics.PlantState.constructions"),
    (ControlInput, "__post_init__", "dynamics.ControlInput.constructions"),
    (asifkit.harness, "eval_h", "barrier.eval_h"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id, tag]
        self.counts = Counter()  # (counter name, enclosing span name) -> calls
        self.op = 0
        self.active = False
        self._stack = []
        self._saved = []

    def begin_op(self):
        self.op += 1

    def install(self):
        for owner, attr, name, tag in SPAN_POINTS:
            self._patch(owner, attr, lambda fn, name=name, tag=tag: self._span_wrapper(name, fn, tag))
        for owner, attr, name in COUNT_POINTS:
            self._patch(owner, attr, lambda fn, name=name: self._count_wrapper(name, fn))

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _patch(self, owner, attr, make):
        raw = inspect.getattr_static(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def _span_wrapper(self, name, fn, tag):
        spans = self.spans
        stack = self._stack
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = now()
                stack.pop()
            if tag is not None:
                rec[5] = tag(out)
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        spans = self.spans
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[(name, spans[stack[-1]][0] if stack else "")] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_spans(self, path):
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, tag in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op, "tag": tag}
                    )
                    + "\n"
                )


def _pct_us(durations_ns, q):
    return float(np.percentile(np.asarray(durations_ns, dtype=float), q)) / 1e3 if durations_ns else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer numbers from the recorded spans. Counts and busy times are
    per pass over the workload's input set; percentiles pool every span.
    busy_us is inclusive time; self_us subtracts the time of child spans,
    which on one thread never overlap."""
    dur = defaultdict(list)
    child_ns = [0] * len(tracer.spans)
    for name, start, end, parent, _op, _tag in tracer.spans:
        dur[name].append(end - start)
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = Counter()
    for i, (name, start, end, *_rest) in enumerate(tracer.spans):
        self_ns[name] += end - start - child_ns[i]

    def calls(name):
        return len(dur[name]) / passes

    def busy_us(name):
        return sum(dur[name]) / 1e3 / passes

    by_status = defaultdict(list)
    for name, start, end, _parent, _op, tag in tracer.spans:
        if name == "asif.solve_qp":
            by_status[tag].append(end - start)
    # a filter call that raised (and aborted its episode) has no outcome
    outcomes = [s[5] for s in tracer.spans if s[0] == "asif.filter_control" and s[5] is not None]
    n_filter = len(outcomes)

    def count(name, parent=None):
        return sum(n for (c, p), n in tracer.counts.items() if c == name and (parent is None or p == parent)) / passes

    m = {
        "controllers.desired_control.calls": calls("controllers.desired_control"),
        "controllers.desired_control.busy_us": busy_us("controllers.desired_control"),
        "controllers.desired_control.p50_us": _pct_us(dur["controllers.desired_control"], 50),
        "controllers.load_controller.calls": calls("controllers.load_controller"),
        "controllers.load_controller.busy_us": busy_us("controllers.load_controller"),
        "barrier.cbf_row.calls": calls("barrier.cbf_row"),
        "barrier.cbf_row.busy_us": busy_us("barrier.cbf_row"),
        "asif.assemble_qp.busy_us": busy_us("asif.assemble_qp"),
        "asif.filter_control.calls": calls("asif.filter_control"),
        "asif.filter_control.busy_us": busy_us("asif.filter_control"),
        "asif.solve_qp.calls": calls("asif.solve_qp"),
        "asif.solve_qp.busy_us": busy_us("asif.solve_qp"),
        "asif.solve_qp.p50_us": _pct_us(dur["asif.solve_qp"], 50),
        "asif.solve_qp.p99_us": _pct_us(dur["asif.solve_qp"], 99),
    }
    for status in ("passthrough", "modified", "infeasible_fallback"):
        m[f"asif.solve_qp.{status}.calls"] = len(by_status[status]) / passes
        m[f"asif.solve_qp.{status}.p50_us"] = _pct_us(by_status[status], 50)
    m.update(
        {
            "asif.passthrough_ratio": (
                sum(1 for status, _ in outcomes if status == "passthrough") / n_filter if n_filter else 0.0
            ),
            "asif.mean_deviation": sum(dev for _, dev in outcomes) / n_filter if n_filter else 0.0,
            "dynamics.step_rk4.calls": calls("dynamics.step_rk4"),
            "dynamics.step_rk4.busy_us": busy_us("dynamics.step_rk4"),
            "dynamics.sample_disturbance.busy_us": busy_us("dynamics.sample_disturbance"),
            "dynamics.PlantState.constructions": count("dynamics.PlantState.constructions"),
            "dynamics.ControlInput.constructions": count("dynamics.ControlInput.constructions"),
            "harness.run_episode.calls": calls("harness.run_episode"),
            "harness.run_episode.self_us": self_ns["harness.run_episode"] / 1e3 / passes,
            "harness.recorder_eval_h.calls": count("barrier.eval_h", parent="harness.run_episode"),
            "harness.ScenarioConfig.from_dict.calls": calls("harness.ScenarioConfig.from_dict"),
            "harness.ScenarioConfig.from_dict.busy_us": busy_us("harness.ScenarioConfig.from_dict"),
            "harness.write_trace.busy_us": busy_us("harness.write_trace"),
            "harness.read_trace.busy_us": busy_us("harness.read_trace"),
            "harness.compute_metrics.busy_us": busy_us("harness.compute_metrics"),
            "cli.dispatch.calls": calls("cli.dispatch"),
            "cli.dispatch.self_us": self_ns["cli.dispatch"] / 1e3 / passes,
            "tracing.spans": len(tracer.spans) / passes,
        }
    )
    return m
