"""The three benchmark workloads: set-up, the timed operation, and the
check of each operation's output.

Each workload class is built as ``Workload(hc, seed, size, work_dir)``
where ``hc`` holds the freshly imported package modules.  It exposes
``ops`` (the generated inputs, cycled through by op number ``n``),
``prepare(n)`` (untimed clean-up before op ``n``), ``run(n)`` (the timed
call; it never raises for an error the program may legitimately report)
and ``check(n, result)``, which returns ``None`` when the output passes
every check, else a failure kind.
Failure kinds starting with ``hole_`` are the certificate holes already
known in the program (see README.md); any other kind is unexpected and
makes the run incorrect.

Limits are the acceptance suite's: endpoint residuals <= 1e-3, strict
containment margins > 0, closed margins >= -1e-9, oracle max error
<= 1e-6, event residual <= 1e-10, exact JSON round trip.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import gen

RESIDUAL_MAX = 1e-3
CLOSED_MARGIN_MIN = -1e-9
ORACLE_MAX_ERROR = 1e-6
EVENT_RESIDUAL_MAX = 1e-10

#: Input sizes at full scale and in smoke mode.
SIZES = {
    "certify-sweep": {"full": 3000, "smoke": 40},
    "cycle-build": {"full": 3000, "smoke": 40},
    "simulate-oracle": {"full": 24, "smoke": 1},
}

#: Ops per second of op time at the reference host speed, measured on a
#: 2-core x86-64 VM.  A run of ``--seconds`` s makes ``op_count`` ops, so
#: its length follows the program's speed but its ops, and therefore its
#: ``attempted`` and ``failed``, depend only on the seed.
OPS_PER_SECOND = {"certify-sweep": 3800, "cycle-build": 27,
                  "simulate-oracle": 35}


def op_count(name: str, seconds: float) -> int:
    return max(1, round(OPS_PER_SECOND[name] * seconds))


#: ``hetcycle simulate`` settings: horizon and oracle trials per op.
SIM_T1 = 3.0
SIM_ORACLE_TRIALS = 8
#: Oracle seeds per start: 72 starts x 5 = 360 distinct inputs.  The
#: op-time tail depends mostly on which starts are drawn, so starts are
#: many and oracle seeds per start few.
SIM_ORACLE_SEEDS = 5


def _read(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _count_rows(path) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n") - 1


def _remove(path) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _round_trips(text: str) -> bool:
    return json.dumps(json.loads(text), indent=2) + "\n" == text


def _call_cli(cli, argv):
    """Run ``cli.main`` in process; returns (exit code, exception, stderr).
    An exception escaping ``main`` is an operation failure, never a
    benchmark abort."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return cli.main(argv), None, err.getvalue()
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            return None, exc, err.getvalue()


def tally_digest(tally: dict) -> str:
    """Stable short digest of a verdict tally."""
    text = ";".join(f"{k}={tally[k]}" for k in sorted(tally))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verdict_key(v) -> str:
    return f"{v.theorem}/{v.regime}/{v.subcase}/{v.cycle_count}"


class CertifySweep:
    """Library ``certify(params)`` over seeded random parameter sets."""

    name = "certify-sweep"

    def __init__(self, hc, seed, size, work_dir):
        self.verifier = hc.verifier
        self.sets = gen.param_sets(seed, size)
        self.ops = [hc.model.params_from_dict(v) for v, _, _ in self.sets]
        self.keys = [None] * len(self.ops)

    def input_key(self, n: int) -> int:
        return n % len(self.ops)

    def prepare(self, n):
        pass

    def run(self, n):
        return self.verifier.certify(self.ops[n % len(self.ops)])

    def check(self, n, v):
        i = n % len(self.ops)
        values, block, kind = self.sets[i]
        want_theorem = "real_saddle" if block == "node" else "saddle_focus"
        if v.theorem != want_theorem:
            return f"unexpected: theorem {v.theorem} for a {block} block"
        if v.subcase not in _allowed_subcases(values, kind):
            return f"unexpected: subcase {v.subcase} for q3 {kind}"
        passed = all(e.passed for e in v.evidence)
        want_count = ({"a": 1, "b": 1, "c": 2}.get(v.subcase, 0)
                      if passed else 0)
        if v.cycle_count != want_count:
            return f"unexpected: cycle_count {v.cycle_count}, want {want_count}"
        if len(v.connecting_points) != v.cycle_count:
            return "unexpected: connecting points do not match cycle_count"
        key = verdict_key(v)
        if self.keys[i] is None:
            self.keys[i] = key
        elif self.keys[i] != key:
            return "unexpected: verdict changed between repeats"
        return None

    def tally(self) -> dict:
        return dict(collections.Counter(k for k in self.keys if k is not None))


def _allowed_subcases(values, kind) -> set:
    """Subcases the q3 draw can give: exact rims give a/b; interior and
    above draws give c/none unless they land within the program's
    equality band (1e-9 relative) of a rim."""
    sr = math.sqrt(values["rho"])
    lo, hi = values["d"] - sr, values["d"] + sr
    band = 1e-9 * max(1.0, abs(lo), abs(hi))
    q3 = values["q3"]
    near = {s for s, rim in (("a", lo), ("b", hi)) if abs(q3 - rim) <= 2 * band}
    return {"rim_lo": {"a"}, "rim_hi": {"b"}, "inside": {"c"},
            "above": {"none"}}[kind] | near


class CycleBuild:
    """``hetcycle check CFG --certify --csv-dir DIR`` through ``cli.main``
    on the built-in examples plus every certified generated set."""

    name = "cycle-build"

    def __init__(self, hc, seed, size, work_dir):
        self.cli = hc.cli
        self.csv_dir = os.path.join(work_dir, "csv")
        self.report = os.path.join(work_dir, "report.json")
        entries = [(hc.model.params_to_dict(hc.presets.example_params(n)),
                    f"example{n}") for n in (1, 2, 3)]
        for values, _, _ in gen.param_sets(seed, size):
            params = hc.model.params_from_dict(values)
            if hc.verifier.certify(params).certified:
                entries.append((values, "generated"))
        self.ops = []
        for j, (values, label) in enumerate(entries):
            path = os.path.join(work_dir, f"cb{j:04d}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(gen.config_text(values))
            want = {"example1": 1, "example2": 1, "example3": 2}.get(label)
            self.ops.append((path, values, label, want))

    def input_key(self, n: int) -> int:
        return n % len(self.ops)

    def prepare(self, n):
        shutil.rmtree(self.csv_dir, ignore_errors=True)
        _remove(self.report)

    def run(self, n):
        path = self.ops[n % len(self.ops)][0]
        return _call_cli(self.cli, ["check", path, "--certify", "--csv-dir",
                                    self.csv_dir, "--out", self.report])

    def check(self, n, result):
        _, values, label, want = self.ops[n % len(self.ops)]
        code, exc, err = result
        if isinstance(exc, OverflowError):
            return "hole_b_overflow"
        if exc is not None:
            return f"unexpected: {type(exc).__name__}: {exc}"
        error = _error(err) if code == 1 else None
        if error is not None and error["error"] == "BackwardBlowup":
            return "hole_a_backward_blowup"
        if (error is not None and error["error"] == "CertificateFailure"
                and "backward cylinder segment" in error["message"]
                and _amplifies(values)):
            return "hole_c_backward_residual"
        if code != 0:
            return f"unexpected: exit code {code}: {err.strip()[:200]}"
        text = _read(self.report)
        if not _round_trips(text):
            return "unexpected: report does not round-trip"
        rep = json.loads(text)
        if rep["params_echo"] != values:
            return "unexpected: params_echo differs from the config"
        count = rep["verdict"]["cycle_count"]
        if count < 1 or (want is not None and count != want):
            return f"unexpected: {label} cycle_count {count}"
        certs = rep["certificates"]
        if certs is None or len(certs) != count:
            return "unexpected: certificate count differs from cycle_count"
        problem = _certificate_problem(certs, values)
        if problem is not None:
            return problem
        return _csv_problem(certs, self.csv_dir)


def _error(stderr: str):
    """The CLI's JSON error object, or None."""
    try:
        error = json.loads(stderr)
    except ValueError:
        return None
    return error if isinstance(error, dict) and "error" in error else None


def _amplifies(values) -> bool:
    """Hole (c) condition: the backward cylinder horizon ln(1e6)/mu grows
    a radial offset by (1e6)^(2 rho / mu), beyond 1e12 when 2 rho/mu > 2."""
    return 2.0 * values["rho"] / values["mu"] > 2.0


def _certificate_problem(certs, values):
    """First failed certificate check; a backward-cylinder residual above
    the limit with everything else passing is hole (c) when 2 rho / mu > 2
    (the backward horizon amplifies rounding of the rim point; when the
    amplified offset is large enough, the containment check fails instead
    and the CLI exits with CertificateFailure)."""
    residual_only = []
    for cert in certs:
        if not cert["containment_ok"]:
            return "unexpected: containment_ok is false"
        for seg in cert["segments"]:
            m = seg["containment_margin"]
            strict = seg["requirement"].endswith("strict")
            if (strict and not m > 0.0) or (not strict and not m >= CLOSED_MARGIN_MIN):
                return f"unexpected: {seg['role']} margin {m!r}"
        for name, value in cert["endpoint_residuals"].items():
            if not value <= RESIDUAL_MAX:
                residual_only.append(name)
    if not residual_only:
        return None
    if set(residual_only) == {"gamma_up_back_to_cycle"} and _amplifies(values):
        return "hole_c_backward_residual"
    return f"unexpected: residuals {sorted(set(residual_only))} above limit"


def _csv_problem(certs, csv_dir):
    """Per-segment CSVs hold exactly the unique segments' samples (the
    equilibrium-to-cycle orbit is shared by both cycles of subcase c)."""
    want = sum(s["n_points"] for s in certs[0]["segments"])
    want += sum(s["n_points"] for c in certs[1:] for s in c["segments"]
                if s["role"].startswith("gamma_up"))
    files = sorted(os.listdir(csv_dir))
    if len(files) != 2 + 2 * len(certs):
        return f"unexpected: {len(files)} segment CSV files"
    rows = sum(_count_rows(os.path.join(csv_dir, f)) for f in files)
    if rows != want:
        return f"unexpected: {rows} CSV rows, report says {want}"
    return None


class SimulateOracle:
    """``hetcycle simulate CFG --x0 ... --t1 ... --oracle N --seed s``
    through ``cli.main`` on the built-in examples."""

    name = "simulate-oracle"

    def __init__(self, hc, seed, size, work_dir):
        self.cli = hc.cli
        self.report = os.path.join(work_dir, "sim.json")
        self.traj = os.path.join(work_dir, "trajectory.csv")
        self.events = os.path.join(work_dir, "events.csv")
        self.ops = []
        for n in (1, 2, 3):
            params = hc.presets.example_params(n)
            path = os.path.join(work_dir, f"example{n}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(gen.config_text(hc.model.params_to_dict(params)))
            for x0 in _screened_starts(hc, params, seed, n, size):
                self.ops.append((path, params.d, x0))
        self.seed = seed

    def input_key(self, n: int) -> int:
        """Op ``n`` simulates start ``n % len(ops)`` with oracle seed
        ``n % (SIM_ORACLE_SEEDS * len(ops))``: the distinct inputs are
        capped, so the tail percentile does not change with speed."""
        return n % (SIM_ORACLE_SEEDS * len(self.ops))

    def prepare(self, n):
        _remove(self.report)

    def run(self, n):
        path, _, x0 = self.ops[n % len(self.ops)]
        oracle_seed = self.seed * 1_000_000 + self.input_key(n)
        argv = ["simulate", path, "--x0=" + ",".join(repr(v) for v in x0),
                "--t1", repr(SIM_T1), "--oracle", str(SIM_ORACLE_TRIALS),
                "--seed", str(oracle_seed), "--out", self.report,
                "--out-traj", self.traj, "--out-events", self.events]
        return _call_cli(self.cli, argv)

    def check(self, n, result):
        d = self.ops[n % len(self.ops)][1]
        code, exc, err = result
        if exc is not None:
            return f"unexpected: {type(exc).__name__}: {exc}"
        if code != 0:
            return f"unexpected: exit code {code}: {err.strip()[:200]}"
        text = _read(self.report)
        if not _round_trips(text):
            return "unexpected: report does not round-trip"
        rep = json.loads(text)
        if _count_rows(self.traj) != rep["n_samples"]:
            return "unexpected: trajectory CSV rows differ from n_samples"
        if _count_rows(self.events) != rep["n_events"]:
            return "unexpected: events CSV rows differ from n_events"
        for e in rep["events"]:
            if not abs(e["x"][0] + e["x"][2] - d) <= EVENT_RESIDUAL_MAX:
                return f"unexpected: event residual at t={e['t']!r}"
        if not rep["oracle"]["max_error"] <= ORACLE_MAX_ERROR:
            return f"unexpected: oracle max_error {rep['oracle']['max_error']!r}"
        return None


def _screened_starts(hc, params, seed, example, n):
    """``n`` generated starts whose trajectories cross the plane once or
    twice on [0, SIM_T1] without a typed refusal.  Where both zone fields
    point at the plane the simulator refuses by design (SlidingDetected);
    such starts are skipped here, so every op is a full simulation."""
    errors = (hc.errors.SlidingDetected, hc.errors.EventStorm)
    kept = []
    for x0 in gen.sim_starts(seed, example, 20 * n, params.sqrt_rho,
                             params.d, tuple(params.q)):
        try:
            traj = hc.hybrid.integrate_hybrid(params, x0, (0.0, SIM_T1))
        except errors:
            continue
        crossings = sum(e.direction in ("left_to_right", "right_to_left")
                        for e in traj.events)
        if 1 <= crossings <= 2:
            kept.append(x0)
            if len(kept) == n:
                return kept
    raise RuntimeError(f"too few usable simulation starts for example {example}")


WORKLOADS = {w.name: w for w in (CertifySweep, CycleBuild, SimulateOracle)}
