"""Command-line front end.

Three commands:

* ``check CONFIG``    - load a config, run the hypothesis checks and the
  cycle certification, optionally build orbit certificates, and write a
  JSON report.  Exit 0 when a cycle is certified, 2 when not, 1 on error.
* ``example N``       - the same run on the built-in system N (1, 2, 3),
  always with certificates, emitting trajectory CSVs for re-plotting.
* ``simulate CONFIG`` - event-detecting simulation from a given state;
  writes trajectory and events CSVs, optionally cross-checks the closed
  forms.

``check`` and ``example`` share one run function and one set of options
(``--tol``, ``--tback``/``--tfwd``, ``--csv``/``--csv-dir``); ``simulate``
certifies nothing and takes none of them.

Reports are built from plain Python values and written as strict JSON
with floats serialized by ``repr`` (a non-finite one as the string "inf",
"-inf" or "nan"), so a report parsed back compares equal.

``main(argv)`` returns the exit code instead of exiting, so it can be
called from Python.  It builds its argument parser on the first call and
reuses it for every later call in the process (importing this module
builds nothing; ``make_parser()`` still returns a fresh parser).  Typed
errors, ``ValueError`` and ``OSError`` (an output path that cannot be
written) are reported as one JSON object ``{"error", "message"}`` on
stderr with exit 1; a usage error exits 2 through argparse.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import orbits
from .errors import ConfigError, HetcycleError
from .hybrid import (
    crosscheck_closed_forms,
    integrate_hybrid,
    write_events_csv,
    write_trajectory_csv,
)
from .model import (
    DEFAULT_TOL,
    SystemParams,
    load_config,
    params_from_dict,
    params_to_dict,
    point,
    read_assignment,
    validate_hypotheses,
)
from .presets import example_params
from .verifier import certify


def _hypotheses_dict(report):
    return {
        "h1_holds": report.h1_holds,
        "h2_holds": report.h2_holds,
        "h3_holds": report.h3_holds,
        "h3_details": [
            {"name": c.name, "passed": c.passed, "margin": c.margin}
            for c in report.h3_details
        ],
        "eigenvalues": [[e.real, e.imag] for e in report.eigenvalues],
        "spectral_type": report.spectral_type,
    }


def _verdict_dict(verdict):
    return {
        "theorem": verdict.theorem,
        "regime": verdict.regime,
        "subcase": verdict.subcase,
        "cycle_count": verdict.cycle_count,
        "connecting_points": [list(p) for p in verdict.connecting_points],
        "q0": list(verdict.q0) if verdict.q0 is not None else None,
        "v_star": list(verdict.v_star) if verdict.v_star is not None else None,
        "window": ({"x_minus": list(verdict.window[0]),
                    "x_plus": list(verdict.window[1])}
                   if verdict.window is not None else None),
        "evidence": [
            {"name": e.name, "value": e.value, "threshold": e.threshold,
             "passed": e.passed, "note": e.note}
            for e in verdict.evidence
        ],
    }


def _certificate_dict(cert):
    return {
        "containment_ok": cert.containment_ok,
        "endpoint_residuals": dict(cert.endpoint_residuals),
        "horizons": dict(cert.horizons),
        "segments": [
            {"role": s.role, "side": s.side, "n_points": int(len(s.ts)),
             "t_start": float(s.ts[0]), "t_end": float(s.ts[-1]),
             "containment_margin": s.containment_margin,
             "requirement": s.requirement}
            for s in cert.orbit_segments
        ],
    }


def build_run_report(params: SystemParams, tol: float, certify_orbits: bool,
                     t_back=None, t_fwd=None):
    """Run the full pipeline and return (report dict, verdict, certificates).
    The hypotheses are validated once; the verdict reuses that report."""
    t0 = time.perf_counter()
    hyp = validate_hypotheses(params, tol)
    t1 = time.perf_counter()
    verdict = certify(params, tol, hyp)
    timing = {"hypotheses_s": t1 - t0, "verify_s": time.perf_counter() - t1}

    certificates = None
    if certify_orbits and verdict.certified:
        t0 = time.perf_counter()
        certificates = orbits.assemble_cycle(params, verdict,
                                             t_back=t_back, t_fwd=t_fwd)
        timing["certify_s"] = time.perf_counter() - t0

    report = {
        "params_echo": params_to_dict(params),
        "tolerance": tol,
        "hypothesis_report": _hypotheses_dict(hyp),
        "verdict": _verdict_dict(verdict),
        "certificates": ([_certificate_dict(c) for c in certificates]
                         if certificates is not None else None),
        "timing": timing,
    }
    return report, verdict, certificates


def _strict(value):
    """``value`` with each non-finite float leaf as its repr string."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(float(value))
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _emit_report(report: dict, out_path) -> None:
    text = json.dumps(_strict(report), indent=2, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_segments(certificates, csv_path, csv_dir) -> None:
    # each segment once, in first-seen order (cycles share gamma1)
    segments = list({id(seg): seg for cert in certificates or ()
                     for seg in cert.orbit_segments}.values())
    if csv_path:
        orbits.write_segments_csv(segments, csv_path)
    if csv_dir:
        orbits.write_segments_csv_dir(segments, csv_dir)


def _params(args) -> SystemParams:
    """The command's system: built-in example ``n`` or the config file,
    with the ``--set`` overrides applied."""
    base = (example_params(args.n) if args.command == "example"
            else load_config(args.config))
    values = params_to_dict(base)
    values.update(read_assignment(item, "--set") for item in args.set or ())
    return params_from_dict(values)


def _cmd_run(args) -> int:
    """``check`` and ``example``: certify, build the orbit certificates
    (always for ``example``), write the report and the segment CSVs."""
    report, verdict, certs = build_run_report(
        _params(args), args.tol, args.certify, args.tback, args.tfwd)
    _emit_report(report, args.out)
    csv_dir = args.csv_dir or (f"example{args.n}_data"
                               if args.command == "example" else None)
    _emit_segments(certs, args.csv, csv_dir)
    return 0 if verdict.certified else 2


def _cmd_simulate(args) -> int:
    params = _params(args)
    try:
        x0 = point([float(v) for v in args.x0.split(",")])
    except ValueError:
        raise ConfigError(f"--x0 expects three comma-separated numbers, got {args.x0!r}")
    traj = integrate_hybrid(params, x0, (args.t0, args.t1))
    write_trajectory_csv(traj, args.out_traj)
    write_events_csv(traj, args.out_events)
    report = {
        "params_echo": params_to_dict(params),
        "x0": list(x0),
        "t_span": [args.t0, args.t1],
        "n_samples": int(len(traj.ts)),
        "n_events": len(traj.events),
        "events": [{"t": e.t, "x": list(e.x), "direction": e.direction}
                   for e in traj.events],
        "trajectory_csv": args.out_traj,
        "events_csv": args.out_events,
    }
    if args.oracle:
        rep = crosscheck_closed_forms(params, args.oracle, seed=args.seed)
        report["oracle"] = {"trials": rep.trials, "max_error": rep.max_error,
                            "worst_trial": rep.worst_trial}
    _emit_report(report, args.out)
    return 0


def _add_common(p):
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config value (repeatable)")


def _add_run(p):
    """Options of the certifying commands, ``check`` and ``example``."""
    _add_common(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="global tolerance for equality-type checks "
                        "(finite, >= 0)")
    p.add_argument("--tback", type=float, default=None,
                   help="override backward horizons")
    p.add_argument("--tfwd", type=float, default=None,
                   help="override forward horizons")
    p.add_argument("--csv", help="write all orbit segments to one CSV")
    p.add_argument("--csv-dir", help="write one CSV per orbit segment "
                                     "(example: default example<n>_data)")
    p.set_defaults(fn=_cmd_run)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetcycle",
        description="Certify and construct heteroclinic cycles of the "
                    "two-zone piecewise-affine system.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify a config")
    p.add_argument("config")
    _add_run(p)
    p.add_argument("--certify", action="store_true",
                   help="also build orbit certificates")

    p = sub.add_parser("example", help="run a built-in example system")
    p.add_argument("n", type=int, choices=(1, 2, 3))
    _add_run(p)
    p.set_defaults(certify=True)

    p = sub.add_parser("simulate", help="event-detecting simulation")
    p.add_argument("config")
    _add_common(p)
    p.add_argument("--x0", required=True, metavar="X1,X2,X3")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--out-traj", default="trajectory.csv")
    p.add_argument("--out-events", default="events.csv")
    p.add_argument("--oracle", type=int, default=0, metavar="N",
                   help="cross-check the closed forms with N random trials")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_simulate)
    return parser


# Built by the first main() call and reused: parse_args keeps no state
# on the parser between calls, and every call gets a fresh Namespace.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = make_parser()
    args = _parser.parse_args(argv)
    try:
        return args.fn(args)
    except (HetcycleError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    except ValueError as exc:
        print(json.dumps({"error": "ValueError", "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
