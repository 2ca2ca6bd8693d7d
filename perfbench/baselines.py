"""Per-example baseline rows of the traced run (the three built-in systems).

Counts are exact and checked against the figures recorded when the
benchmark was defined; a different count makes the run incorrect, so a
change that moves one must say so.  Times sit beside the figures first
measured on a 2-core shared VM (certify 0.20 / 0.43 / 0.34 ms,
assemble_cycle 16 / 72 / 31 ms, 100-trial crosscheck 180-300 ms,
integrate_hybrid 63 ms); they are measured before tracing is installed.
"""

from __future__ import annotations

import statistics
import time

#: Closed-form flow calls made by ``assemble_cycle`` (left, right).
ORBIT_FLOW_CALLS = {1: (4585, 386), 2: (7943, 5770), 3: (3342, 2973)}

#: ``integrate_hybrid`` on example 1 from (0.5, 0, 0) over [0, 10]: the
#: returned samples (start included) and the accepted steps behind them.
HYBRID_START = (0.5, 0.0, 0.0)
HYBRID_SPAN = (0.0, 10.0)
HYBRID_SAMPLES = 2353
HYBRID_STEPS = 2352

CROSSCHECK_TRIALS = 100


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def timings(hc, scale: str):
    """Untraced times per example, as metrics."""
    reps = 1 if scale == "smoke" else 3
    out = {}
    for n in (1, 2, 3):
        params = hc.presets.example_params(n)
        verdict = hc.verifier.certify(params)
        out[f"baseline.ex{n}.certify.ms"] = (_median_ms(
            lambda: hc.verifier.certify(params), 10 * reps), "ms")
        out[f"baseline.ex{n}.assemble_cycle.ms"] = (_median_ms(
            lambda: hc.orbits.assemble_cycle(params, verdict), reps), "ms")
        out[f"baseline.ex{n}.crosscheck100.ms"] = (_median_ms(
            lambda: hc.hybrid.crosscheck_closed_forms(
                params, CROSSCHECK_TRIALS, seed=n), 1), "ms")
    ex1 = hc.presets.example_params(1)
    out["baseline.ex1.integrate_hybrid.ms"] = (_median_ms(
        lambda: hc.hybrid.integrate_hybrid(ex1, HYBRID_START, HYBRID_SPAN),
        reps), "ms")
    return out


def counts(hc, tracer, scale: str):
    """Exact counts per example through the installed wrappers; returns
    (metrics, problems).  These calls are not benchmark ops."""
    out = {}
    problems = []
    for n in (1, 2, 3):
        params = hc.presets.example_params(n)
        tracer.begin_op(-n)
        hc.orbits.assemble_cycle(params, hc.verifier.certify(params))
        got = (tracer.counts["flows.left_flow.calls.orbits"],
               tracer.counts["flows.right_flow.calls.orbits"])
        out[f"baseline.ex{n}.orbits.left_flow.calls"] = (got[0], "count")
        out[f"baseline.ex{n}.orbits.right_flow.calls"] = (got[1], "count")
        if got != ORBIT_FLOW_CALLS[n]:
            problems.append(f"example {n} orbit flow calls {got}, "
                            f"recorded {ORBIT_FLOW_CALLS[n]}")
    tracer.begin_op(-4)
    traj = hc.cli.integrate_hybrid(hc.presets.example_params(1),
                                   HYBRID_START, HYBRID_SPAN)
    got = (len(traj.ts), tracer.counts["integrate.steps_accepted"])
    out["baseline.ex1.hybrid.samples"] = (got[0], "count")
    out["baseline.ex1.integrate.steps_accepted"] = (got[1], "count")
    if got != (HYBRID_SAMPLES, HYBRID_STEPS):
        problems.append(f"example 1 integrate_hybrid samples/steps {got}, "
                        f"recorded {(HYBRID_SAMPLES, HYBRID_STEPS)}")
    return out, problems
