"""Per-layer tracing installed from outside the program.

``install(hc, tracer)`` replaces the package's functions at the module
attributes their callers look up (``hetcycle.orbits.left_flow``,
``hetcycle.planar.planar_matrix_exp``, ``hetcycle.hybrid.rk45``,
``hetcycle.cli.certify``, ...) with wrappers that record into a
``Tracer``; no file under ``src/`` changes.  Three wrapper kinds:

* span: records (op, name, parent, start, end, child time) in memory;
  its self time is its duration minus the time of spans and timed leaves
  called inside it;
* timed leaf (the closed-form flows, called thousands of times per op):
  adds its duration to its caller's child time and to a per-op total but
  keeps no record of its own;
* counter (planar flow kernels, zone-field evaluations): counts only.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import collections
import functools
import os
import statistics
import time

_now = time.perf_counter_ns


class Tracer:
    """Spans and per-op counters of one traced run."""

    def __init__(self):
        self.spans = []      # (op, name, parent index, start, end, child)
        self.stack = []      # open spans: [name, start, child, index]
        self.op = -1
        self.ops = []        # per-op (incl ns, self ns, counts)
        self._incl = collections.Counter()
        self._self = collections.Counter()
        self.counts = collections.Counter()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._incl = collections.Counter()
        self._self = collections.Counter()
        self.counts = collections.Counter()

    def end_op(self) -> None:
        self.ops.append((self._incl, self._self, self.counts))

    def span(self, name, fn, after=None, on_error=None):
        """Wrap ``fn`` as a span; ``after(args, result)`` and
        ``on_error(args, exc)`` may add counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][3] if stack else -1
            rec = [name, _now(), 0, len(tracer.spans)]
            tracer.spans.append(None)  # reserve the index for children
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(args, exc)
                raise
            finally:
                end = _now()
                stack.pop()
                dur = end - rec[1]
                if stack:
                    stack[-1][2] += dur
                tracer.spans[rec[3]] = (tracer.op, name, parent, rec[1], end,
                                        rec[2])
                tracer._incl[name] += dur
                tracer._self[name] += dur - rec[2]
                tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def leaf(self, name, caller, fn):
        """Wrap a hot function: time and count it, record no span."""
        tracer = self
        calls = f"{name}.calls"
        by_caller = f"{name}.calls.{caller}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _now() - start
                if tracer.stack:
                    tracer.stack[-1][2] += dur
                tracer._incl["flows"] += dur
                tracer.counts[calls] += 1
                tracer.counts[by_caller] += 1

        return wrapper

    def counter(self, name, fn):
        """Wrap a function so that each call adds one to ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_spans(self, path) -> None:
        """Write every recorded span as CSV (times in ns)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,name,parent,start_ns,end_ns,child_ns\n")
            for s in self.spans:
                if s is not None:
                    fh.write(",".join(str(v) for v in s) + "\n")


def install(hc, tracer: Tracer) -> None:
    """Wrap every traced function at the names its callers look up."""
    cli, model, verifier, planar = hc.cli, hc.model, hc.verifier, hc.planar
    orbits, hybrid = hc.orbits, hc.hybrid
    t = tracer

    def count(name, value=1):
        t.counts[name] += value

    def on_certify(args, verdict):
        count("verifier.certified", int(verdict.certified))

    def on_assemble(args, certs):
        seen = {id(s): s for c in certs for s in c.orbit_segments}
        count("orbits.samples_kept", sum(len(s.ts) for s in seen.values()))

    def on_csv(args, result):
        count("orbits.csv_bytes", os.path.getsize(args[1]))

    def on_rk45(args, res):
        count("integrate.steps_accepted", len(res.ts) - 1)

    def on_hybrid(args, traj):
        d = args[0].d
        count("hybrid.events", len(traj.events))
        worst = max((abs(e.x[0] + e.x[2] - d) for e in traj.events),
                    default=0.0)
        t.counts["hybrid.max_event_residual"] = max(
            t.counts["hybrid.max_event_residual"], worst)

    def on_refused(args, exc):
        if isinstance(exc, (hc.errors.SlidingDetected, hc.errors.EventStorm)):
            count("hybrid.refused")

    def on_oracle(args, rep):
        t.counts["hybrid.oracle_max_error"] = max(
            t.counts["hybrid.oracle_max_error"], rep.max_error)

    def field(factory):
        @functools.wraps(factory)
        def make(params):
            return t.counter("integrate.field_evals", factory(params))
        return make

    def wrap(mod, attr, name, **hooks):
        setattr(mod, attr, t.span(name, getattr(mod, attr), **hooks))

    wrap(cli, "main", "cli.main")
    wrap(cli, "make_parser", "cli.make_parser")
    for mod in (cli, verifier, model):
        wrap(mod, "validate_hypotheses", "model.validate_hypotheses")
    wrap(verifier, "derive_geometry", "model.derive_geometry")
    for mod in (cli, verifier):
        wrap(mod, "certify", "verifier.certify", after=on_certify)
    wrap(verifier, "analyze_vdp_line", "planar.analyze_vdp_line")
    wrap(verifier, "focus_stay_window", "planar.focus_stay_window")
    for attr in ("planar_left_flow", "planar_matrix_exp"):
        setattr(planar, attr, t.counter("planar.flow_calls",
                                        getattr(planar, attr)))
    wrap(orbits, "assemble_cycle", "orbits.assemble_cycle", after=on_assemble)
    wrap(orbits, "build_gamma1", "orbits.build_gamma1")
    wrap(orbits, "build_gamma_up", "orbits.build_gamma_up")
    wrap(orbits, "write_segments_csv", "orbits.write_segments_csv",
         after=on_csv)
    for mod, caller in ((orbits, "orbits"), (hybrid, "hybrid")):
        for attr in ("left_flow", "right_flow"):
            setattr(mod, attr, t.leaf(f"flows.{attr}", caller,
                                      getattr(mod, attr)))
    wrap(cli, "integrate_hybrid", "hybrid.integrate_hybrid", after=on_hybrid,
         on_error=on_refused)
    wrap(cli, "crosscheck_closed_forms", "hybrid.crosscheck_closed_forms",
         after=on_oracle)
    wrap(cli, "write_trajectory_csv", "hybrid.write_csv")
    wrap(cli, "write_events_csv", "hybrid.write_csv")
    wrap(hybrid, "rk45", "integrate.rk45", after=on_rk45)
    hybrid.left_field = field(hybrid.left_field)
    hybrid.right_field = field(hybrid.right_field)


#: Span names reported as ``<name>.ms`` (inclusive) and/or ``.self_ms``.
INCLUSIVE = ("verifier.certify", "orbits.assemble_cycle",
             "orbits.write_segments_csv", "hybrid.integrate_hybrid",
             "hybrid.crosscheck_closed_forms", "hybrid.write_csv",
             "cli.make_parser")
SELF = ("model.validate_hypotheses", "model.derive_geometry",
        "planar.analyze_vdp_line", "planar.focus_stay_window",
        "verifier.certify", "orbits.build_gamma1", "orbits.build_gamma_up",
        "integrate.rk45", "cli.main")
#: Per-op counts reported as their mean over the counting window.
COUNTS = ("model.validate_hypotheses.calls", "planar.flow_calls",
          "flows.left_flow.calls", "flows.right_flow.calls",
          "flows.left_flow.calls.orbits", "flows.right_flow.calls.orbits",
          "flows.left_flow.calls.hybrid", "flows.right_flow.calls.hybrid",
          "orbits.samples_kept", "integrate.rk45.calls",
          "integrate.steps_accepted", "integrate.field_evals",
          "hybrid.events")
BYTES = ("orbits.csv_bytes", "cli.report_bytes")


def _median_ms(values) -> float:
    """Median in ms over the ops that entered the layer (0 if none did)."""
    vals = [v for v in values if v]
    return statistics.median(vals) / 1e6 if vals else 0.0


def layer_metrics(tracer: Tracer, window: int) -> dict:
    """Per-layer metrics of a traced run.  Times are per-op medians over
    all traced ops that entered the layer; counts are means over the
    first ``window`` ops (one pass over the distinct inputs, so they
    repeat exactly for a seed); maxima are over the same window."""
    ops = tracer.ops
    out = {}
    for name in INCLUSIVE:
        out[f"{name}.ms"] = (_median_ms(o[0][name] for o in ops), "ms")
    for name in SELF:
        out[f"{name}.self_ms"] = (_median_ms(o[1][name] for o in ops), "ms")
    out["flows.ms"] = (_median_ms(o[0]["flows"] for o in ops), "ms")

    win = ops[:window]
    total = collections.Counter()
    for _, _, counts in win:
        total.update(counts)
    n = len(win)
    for name in COUNTS:
        out[name] = (total[name] / n, "count")
    for name in BYTES:
        out[name] = (total[name] / n, "bytes")
    out["verifier.certified_frac"] = (total["verifier.certified"] / n, "frac")
    orbit_flows = (total["flows.left_flow.calls.orbits"]
                   + total["flows.right_flow.calls.orbits"])
    out["orbits.flow_calls_per_sample"] = (
        orbit_flows / total["orbits.samples_kept"]
        if total["orbits.samples_kept"] else 0.0, "ratio")
    out["integrate.field_evals_per_step"] = (
        total["integrate.field_evals"] / total["integrate.steps_accepted"]
        if total["integrate.steps_accepted"] else 0.0, "ratio")
    out["hybrid.refused"] = (total["hybrid.refused"], "count")
    for name in ("hybrid.max_event_residual", "hybrid.oracle_max_error"):
        out[name] = (max((c[name] for _, _, c in win), default=0.0), "abs")
    return out
