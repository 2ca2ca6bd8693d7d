"""Benchmark of the ``hetcycle`` package, built from the checkout's ``src/``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

A run generates its inputs from ``--seed`` (``gen.py``), then drives one
workload in process as a closed loop: one client, one thread, the next op
starts when the previous one has returned and been checked.  The op count
is fixed by ``--seconds`` and the workload's reference rate
(``workloads.op_count``), not by the clock, so the same seed always runs
the same ops and gives the same ``attempted`` and ``failed``.  Every op's
output is checked (``workloads.py``).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a human-readable summary.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half
the ops untraced and half traced (``tracing.py``), each at least one pass
over the inputs, and reports the per-layer metrics, the tracing overhead, and
the per-example baseline rows (``baselines.py``).  ``--smoke`` runs every
workload at a tiny size in both modes and checks that each named metric
is emitted.
"""

from __future__ import annotations

import argparse
import array
import collections
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import types

import numpy as np

import baselines
import calibrate
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where traced runs write their spans.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

MODULES = ("cli", "errors", "hybrid", "model", "orbits", "planar",
           "presets", "verifier")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: Tail percentiles tried, highest first; the first one with at least
#: TAIL_BEYOND samples above it is reported.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def fresh_import():
    """Import the package from the checkout's ``src/``, dropping any copy
    imported before, so each set-up repeat pays the import again."""
    for name in [m for m in sys.modules
                 if m == "hetcycle" or m.startswith("hetcycle.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hetcycle")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != SRC:
        raise RuntimeError(f"hetcycle imported from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"hetcycle.{m}")
                                    for m in MODULES})


def timed_setup(cls, seed, size, work_dir, repeats):
    """Import the package and generate the inputs ``repeats`` times;
    returns (package modules, workload, median raw set-up seconds, median
    set-up seconds at the reference host speed)."""
    raw, scaled = [], []
    kernel = calibrate.Kernel()
    for _ in range(repeats):
        gc.collect()  # free the previous repeat's modules and inputs
        t0 = time.perf_counter()
        hc = fresh_import()
        w = cls(hc, seed, size, work_dir)
        dt = time.perf_counter() - t0
        factor = calibrate.speed_factor(
            [calibrate.time_kernel(kernel) for _ in range(5)])
        raw.append(dt)
        scaled.append(dt / factor)
    return hc, w, statistics.median(raw), statistics.median(scaled)


class Loop:
    """Closed-loop runner: runs ops 0, 1, ..., n_ops - 1.  The reference
    kernel is timed after every INTERVAL_NS of op time, and each op's
    duration is scaled by the host-speed factor of the last three kernel
    samples (``scaled``)."""

    def __init__(self, w, tracer=None):
        self.w = w
        self.tracer = tracer
        # arrays, not lists: the benchmark's own memory must not grow with
        # the op count, or a faster program would show a higher peak RSS
        self.durations = array.array("q")
        self.failures = collections.Counter()
        self.busy_ns = 0
        self.kernel_ns = []
        self.kernel = calibrate.Kernel()
        self.scaled = array.array("d")  # durations at reference host speed

    def run(self, n_ops: int) -> None:
        w, tracer = self.w, self.tracer
        since_kernel = calibrate.INTERVAL_NS
        for n in range(n_ops):
            if since_kernel >= calibrate.INTERVAL_NS:
                self.kernel_ns.append(calibrate.time_kernel(self.kernel))
                since_kernel = 0
                local = calibrate.speed_factor(self.kernel_ns[-3:])
            w.prepare(n)
            if tracer is not None:
                tracer.begin_op(n)
            t0 = time.perf_counter_ns()
            result = w.run(n)
            dt = time.perf_counter_ns() - t0
            if tracer is not None:
                report = getattr(w, "report", None)
                if report and os.path.exists(report):
                    tracer.counts["cli.report_bytes"] += os.path.getsize(report)
                tracer.end_op()
            self.busy_ns += dt
            since_kernel += dt
            self.durations.append(dt)
            self.scaled.append(dt / local)
            kind = w.check(n, result)
            if kind is not None:
                self.failures[kind] += 1

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def ops_per_s(self) -> float:
        """Ops per second of op time, at the reference host speed."""
        return self.attempted / (sum(self.scaled) / 1e9)

    def unexpected(self) -> list:
        return sorted(k for k in self.failures if not k.startswith("hole_"))


def input_medians(w, durations_ns) -> list:
    """Sorted per-input medians of the op times.  Repeats of one input are
    not independent samples, and a run's last, partial pass repeats only
    some inputs, so percentiles are taken over distinct inputs."""
    by_input = collections.defaultdict(list)
    for n, dt in enumerate(durations_ns):
        by_input[w.input_key(n)].append(dt)
    return sorted(statistics.median(v) for v in by_input.values())


def tail(s):
    """(percentile, value, inputs beyond) for the highest percentile in
    TAIL_PERCENTILES with at least TAIL_BEYOND of the per-input medians
    ``s`` beyond it; a percentile resting on two or three extreme inputs
    would change with every seed."""
    for p in TAIL_PERCENTILES:
        beyond = len(s) - math.ceil(p / 100.0 * len(s))
        if beyond >= TAIL_BEYOND or p == TAIL_PERCENTILES[-1]:
            break
    return p, harrell_davis(s, p / 100.0), beyond


def harrell_davis(sorted_values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta((n+1)q, (n+1)(1-q))
    weighted mean of all order statistics.  It estimates the same
    percentile as the single order statistic with much less run-to-run
    noise.  Weights use the Beta density at the midpoint of each rank's
    interval, which for n in the hundreds matches the exact interval
    probabilities to well under 1%."""
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    x = (np.arange(n) + 0.5) / n
    logw = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
    w = np.exp(logw - logw.max())
    return float(np.dot(w / w.sum(), sorted_values))


def certify_tally_problems(w, seed, scale) -> list:
    """Compare the certify-sweep verdict tally with the one recorded for
    this seed and size, when there is one."""
    if not isinstance(w, workloads.CertifySweep):
        return []
    with open(os.path.join(HERE, "tallies.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)[scale]
    tally = w.tally()
    digest = workloads.tally_digest(tally)
    print(f"tally: {json.dumps(tally, sort_keys=True)}")
    want = recorded.get(str(seed))
    if want is None:
        print(f"tally digest {digest}: no tally recorded for seed {seed}")
        return []
    print(f"tally digest {digest}: recorded {want}")
    return [] if want == digest else [f"verdict tally differs (digest {digest})"]


def run_workload(name, seed, seconds, traced, scale) -> dict:
    cls = workloads.WORKLOADS[name]
    size = workloads.SIZES[name][scale]
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        repeats = SETUP_REPEATS if scale == "full" else 2
        hc, w, setup_raw, setup_s = timed_setup(cls, seed, size, work_dir,
                                                repeats)
        window = len(w.ops)
        n_ops = workloads.op_count(name, seconds)
        problems = []
        if not traced:
            loop = Loop(w)
            loop.run(n_ops)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            loops = [loop]
            medians = input_medians(w, loop.scaled)
            p, tail_ns, beyond = tail(medians)
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (loop.ops_per_s(), "1/s"),
                "op_p50_ms": (harrell_davis(medians, 0.5) / 1e6, "ms"),
                "op_tail_ms": (tail_ns / 1e6, "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            print(f"op_tail_ms is p{p:g} over {len(medians)} distinct inputs "
                  f"({beyond} beyond it) of {loop.attempted} ops")
            print(f"host speed factor {calibrate.speed_factor(loop.kernel_ns):.4f};"
                  f" raw: setup_s {setup_raw:.6g} ops_per_s "
                  f"{loop.attempted / (loop.busy_ns / 1e9):.6g} op_p50_ms "
                  f"{statistics.median(loop.durations) / 1e6:.6g}")
        else:
            plain = Loop(w)
            plain.run(max(n_ops // 2, window))
            rows = baselines.timings(hc, scale)
            tracer = tracing.Tracer()
            tracing.install(hc, tracer)
            traced_loop = Loop(w, tracer)
            traced_loop.run(max(n_ops // 2, window))
            counts, problems = baselines.counts(hc, tracer, scale)
            loops = [plain, traced_loop]
            metrics = tracing.layer_metrics(tracer, window)
            metrics["trace.untraced_ops_per_s"] = (plain.ops_per_s(), "1/s")
            metrics["trace.traced_ops_per_s"] = (traced_loop.ops_per_s(), "1/s")
            metrics["trace.overhead_ratio"] = (
                plain.ops_per_s() / traced_loop.ops_per_s(), "ratio")
            metrics["trace.kernel_ms"] = (statistics.median(
                plain.kernel_ns + traced_loop.kernel_ns) / 1e6, "ms")
            metrics.update(rows)
            metrics.update(counts)
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write_spans(os.path.join(OUT_DIR, f"spans-{name}-{seed}.csv"))
        problems += certify_tally_problems(w, seed, scale)
        attempted = sum(lp.attempted for lp in loops)
        failures = collections.Counter()
        for lp in loops:
            failures.update(lp.failures)
            problems += [f"unexpected failure: {k}" for k in lp.unexpected()]
        failed = sum(failures.values())
        print(f"workload {name} seed {seed} inputs {len(w.ops)} "
              f"attempted {attempted} failed {failed} "
              f"failed_frac {failed / attempted:.6f}")
        for kind, k in sorted(failures.items()):
            print(f"  failed {k:6d}  {kind}")
        for p in problems:
            print(f"PROBLEM: {p}")
        return {"correct": not problems, "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()}}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced; checks that the
    result has the shape BENCHMARK.json names."""
    spec = benchmark_spec()
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    bad = []
    for wl in spec["workloads"]:
        for traced in (0, 1):
            res = run_workload(wl["name"], 0, 0.2, traced, "smoke")
            got = set(res["metrics"])
            if got != want[traced]:
                bad.append(f"{wl['name']} trace {traced}: metrics differ: "
                           f"missing {sorted(want[traced] - got)}, "
                           f"extra {sorted(got - want[traced])}")
            if not res["correct"] or res["attempted"] < 1:
                bad.append(f"{wl['name']} trace {traced}: not correct")
            print(json.dumps(res))
    for b in bad:
        print(f"SMOKE FAIL: {b}")
    print(json.dumps({"smoke_ok": not bad}))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload in both modes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hetcycle", "__init__.py")):
        print(f"perfbench: no hetcycle package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), "full")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
