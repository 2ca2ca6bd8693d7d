"""Sampled heteroclinic orbits with machine-checkable containment margins.

A certified cycle consists of two orbits.  The equilibrium-to-cycle orbit
passes through q0 = (d, q2, 0): backward it is the straight segment of the
equilibrium's unstable line (right zone, strictly on the equilibrium side
of the plane), forward it is a planar left-zone orbit confined to the
closed cycle side.  Each cycle-to-equilibrium orbit passes through a
connection point p on the cylinder rim: backward it winds down the
unstable cylinder (strictly on the cycle side), forward it contracts to
the equilibrium inside its stable plane (strictly on the equilibrium
side).

The true orbits are bi-infinite; the certificates truncate them at
explicit horizons chosen so the relevant contraction factor reaches a
target (1e-6 by default), and report endpoint residuals against the limit
sets plus the worst signed margin of every required half-space
containment.  Strict containments exclude the junction sample, which lies
on the plane by construction; a strict margin crossing zero triggers local
time refinement before the certificate is failed, so near-tangencies are
not misreported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CertificateFailure, HypothesisFailure
from .flows import left_flow, right_flow
from .model import LimitCycle, SystemParams, classify_2x2
from .verifier import CycleVerdict

#: Allowed slack on closed containments ("on or inside the plane").
TOL_CONTAINMENT = 1e-9

#: Default contraction factor defining the truncation horizons.
HORIZON_TARGET = 1e-6

#: Maximum Euclidean gap between consecutive samples after refinement.
MAX_SAMPLE_GAP = 0.05


@dataclass(frozen=True)
class OrbitSample:
    """One sampled orbit segment.

    ``containment_margin`` is the minimum over samples of the signed
    distance (in plane-normal units x1 + x3 - d) to the required
    half-space; positive means satisfied.  For strict requirements the
    junction sample on the plane itself is excluded from the minimum.
    """

    ts: np.ndarray
    xs: np.ndarray
    side: str
    role: str
    containment_margin: float
    requirement: str


@dataclass(frozen=True)
class CycleCertificate:
    """Bundle of the four segments forming one heteroclinic cycle, with
    endpoint residuals against the two limit sets."""

    orbit_segments: tuple
    endpoint_residuals: dict
    containment_ok: bool
    horizons: dict


def default_horizons(params: SystemParams, target: float = HORIZON_TARGET) -> dict:
    """Truncation times from the contraction rates of the closed forms:
    the right-zone vertical rate (toward q backward), the radial rate
    2*rho at the cycle, the left vertical rate mu (cylinder unwinding),
    and the slowest stable rate of the right planar block."""
    span = math.log(1.0 / target)
    kind, eigs = classify_2x2(params.b11, params.b12, params.b21, params.b22)
    slow = min(abs(e.real) for e in eigs)
    if slow == 0.0:
        raise HypothesisFailure("right planar block has a non-contracting mode")
    return {
        "gamma1_back": span / params.lam,
        "gamma1_fwd": span / (2.0 * params.rho),
        "gamma_up_back": span / params.mu,
        "gamma_up_fwd": span / slow,
    }


def _sample_times(pos, t0: float, t1: float, n_init: int,
                  max_gap: float = MAX_SAMPLE_GAP) -> tuple:
    """Sample pos(t) on [t0, t1], inserting midpoints until consecutive
    samples are within max_gap (Euclidean)."""
    ts = np.linspace(t0, t1, max(n_init, 2))
    xs = np.array([pos(t) for t in ts.tolist()])
    for _ in range(48):
        gaps = np.linalg.norm(np.diff(xs, axis=0), axis=1)
        bad = np.where(gaps > max_gap)[0]
        if bad.size == 0:
            break
        mids = 0.5 * (ts[bad] + ts[bad + 1])
        ts = np.sort(np.concatenate([ts, mids]))
        xs = np.array([pos(t) for t in ts.tolist()])
    return ts, xs


def _margin(params: SystemParams, ts, xs, requirement: str, pos=None) -> float:
    """Worst signed margin of the containment requirement over the samples.

    requirement 'plus_strict'  : x1 + x3 - d > 0 for t != 0
    requirement 'minus_strict' : d - x1 - x3 > 0 for t != 0
    requirement 'minus_closed' : d - x1 - x3 >= -tol everywhere
    A strict margin at or below zero is re-examined on a 16x finer local
    grid before being accepted as the minimum (tangency guard).
    """
    resid = xs[:, 0] + xs[:, 2] - params.d
    sign = 1.0 if requirement.startswith("plus") else -1.0
    vals = sign * resid
    if requirement.endswith("strict"):
        mask = ts != 0.0
        vals = vals[mask]
        kept_ts = ts[mask]
        worst = float(vals.min())
        if worst <= 0.0 and pos is not None:
            i = int(vals.argmin())
            t_lo = kept_ts[max(0, i - 1)]
            t_hi = kept_ts[min(len(kept_ts) - 1, i + 1)]
            fine = np.linspace(t_lo, t_hi, 33)
            fine = fine[fine != 0.0]
            fx = np.array([pos(t) for t in fine.tolist()])
            fr = sign * (fx[:, 0] + fx[:, 2] - params.d)
            worst = min(worst, float(fr.min()))
        return worst
    return float(vals.min())


def _segment(params: SystemParams, x0, t0: float, t1: float, n_init: int,
             role: str, requirement: str, where: str,
             tol_containment: float) -> OrbitSample:
    """Sample the closed-form orbit of x0 on [t0, t1] and check its
    containment.  A 'plus' requirement is the equilibrium side (right
    zone), a 'minus' one the cycle side (left zone); ``where`` names the
    segment in the CertificateFailure raised when the margin is violated.
    """
    plus = requirement.startswith("plus")
    flow = right_flow if plus else left_flow
    x0 = tuple(np.asarray(x0, dtype=float).tolist())
    pos = lambda t: flow(x0, t, params)  # noqa: E731
    ts, xs = _sample_times(pos, t0, t1, n_init)
    margin = _margin(params, ts, xs, requirement, pos)
    if margin < -tol_containment:
        raise CertificateFailure(
            f"{'equilibrium' if plus else 'cycle'}-side containment violated "
            f"on {where} (margin {margin!r})")
    return OrbitSample(ts, xs, "right" if plus else "left", role, margin,
                       requirement)


def _per_revolution(params: SystemParams, span: float) -> int:
    """Initial sample count of a left-zone segment: 64 per revolution."""
    return int(span * params.omega / (2.0 * math.pi) * 64) + 2


def build_gamma1(params: SystemParams, verdict: CycleVerdict,
                 t_back: Optional[float] = None,
                 t_fwd: Optional[float] = None,
                 tol_containment: float = TOL_CONTAINMENT) -> tuple:
    """Equilibrium-to-cycle orbit through q0: backward right-zone segment
    (strictly on the equilibrium side) and forward left-zone segment
    (closed cycle side).  Returns (backward, forward) with residuals
    available via ``endpoint_residuals`` of the enclosing certificate.

    Raises HypothesisFailure when the verdict certifies nothing and
    CertificateFailure when a containment margin is violated.
    """
    if not verdict.certified:
        raise HypothesisFailure("verdict does not certify a cycle")
    horizons = default_horizons(params)
    tb = t_back if t_back is not None else horizons["gamma1_back"]
    tf = t_fwd if t_fwd is not None else horizons["gamma1_fwd"]
    # Backward, q0 lies on the unstable line {x1 = q1, x2 = q2} (q1 = d is
    # a hypothesis, exact up to tol); snapping the planar coordinates keeps
    # the backward right flow from amplifying that rounding exponentially.
    q0_back = (params.q1, params.q2, 0.0)
    back = _segment(params, q0_back, -tb, 0.0, 129, "gamma1_back",
                    "plus_strict", "gamma1 backward segment", tol_containment)
    fwd = _segment(params, verdict.q0, 0.0, tf, _per_revolution(params, tf),
                   "gamma1_fwd", "minus_closed", "gamma1 forward segment",
                   tol_containment)
    return back, fwd


def build_gamma_up(params: SystemParams, verdict: CycleVerdict, p,
                   t_back: Optional[float] = None,
                   t_fwd: Optional[float] = None,
                   tol_containment: float = TOL_CONTAINMENT) -> tuple:
    """Cycle-to-equilibrium orbit through the connection point p: backward
    left-zone segment winding down the unstable cylinder (strictly on the
    cycle side; this is the numeric replacement for the tangent-angle
    argument) and forward right-zone segment inside the stable plane of q
    (strictly on the equilibrium side)."""
    if not verdict.certified:
        raise HypothesisFailure("verdict does not certify a cycle")
    horizons = default_horizons(params)
    tb = t_back if t_back is not None else horizons["gamma_up_back"]
    tf = t_fwd if t_fwd is not None else horizons["gamma_up_fwd"]
    p = tuple(np.asarray(p, dtype=float).tolist())
    back = _segment(params, p, -tb, 0.0, _per_revolution(params, tb),
                    "gamma_up_back", "minus_strict",
                    "backward cylinder segment", tol_containment)
    # Forward, p lies on the stable plane {x3 = q3} (the subcase selection
    # guarantees this up to tol); snapping the vertical coordinate keeps
    # the unstable vertical rate from amplifying that rounding.
    p_fwd = (p[0], p[1], params.q3)
    fwd = _segment(params, p_fwd, 0.0, tf, 257, "gamma_up_fwd",
                   "plus_strict", f"forward segment from {p}",
                   tol_containment)
    return back, fwd


def assemble_cycle(params: SystemParams, verdict: CycleVerdict,
                   t_back: Optional[float] = None,
                   t_fwd: Optional[float] = None,
                   tol_containment: float = TOL_CONTAINMENT) -> list:
    """One certificate per certified cycle (none for a failed verdict).

    ``t_back``/``t_fwd`` override both families' horizons when given; the
    default horizons are per-family contraction times.
    """
    if not verdict.certified:
        return []
    cycle = LimitCycle.from_params(params)
    q = params.q
    horizons = default_horizons(params)
    if t_back is not None:
        horizons = {k: (t_back if k.endswith("back") else v)
                    for k, v in horizons.items()}
    if t_fwd is not None:
        horizons = {k: (t_fwd if k.endswith("fwd") else v)
                    for k, v in horizons.items()}

    g1_back, g1_fwd = build_gamma1(params, verdict,
                                   horizons["gamma1_back"],
                                   horizons["gamma1_fwd"],
                                   tol_containment)
    certificates = []
    for p in verdict.connecting_points:
        up_back, up_fwd = build_gamma_up(params, verdict, p,
                                         horizons["gamma_up_back"],
                                         horizons["gamma_up_fwd"],
                                         tol_containment)
        segments = (g1_back, g1_fwd, up_back, up_fwd)
        residuals = {
            "gamma1_back_to_q": float(np.linalg.norm(g1_back.xs[0] - q)),
            "gamma1_fwd_to_cycle": cycle.distance(g1_fwd.xs[-1]),
            "gamma_up_back_to_cycle": cycle.distance(up_back.xs[0]),
            "gamma_up_fwd_to_q": float(np.linalg.norm(up_fwd.xs[-1] - q)),
        }
        ok = all(
            seg.containment_margin >= -tol_containment for seg in segments)
        certificates.append(CycleCertificate(segments, residuals, ok,
                                             dict(horizons)))
    return certificates


#: Columns of the trajectory CSVs: time, state, then the rows' labels.
CSV_HEADER = ("t", "x1", "x2", "x3", "side", "role")


def _plain(fields) -> tuple:
    """``fields`` unchanged; ValueError for one that ``csv.writer`` would
    quote or that is not a string."""
    for v in fields:
        if not isinstance(v, str) or any(c in v for c in ',"\r\n'):
            raise ValueError(f"CSV field is not a plain string: {v!r}")
    return fields


def write_csv(path, blocks, header=CSV_HEADER) -> None:
    """Write ``header``, then for each block ``(ts, xs, labels)`` one row
    per sample: t, x1, x2, x3 by ``repr`` (exact round trip) followed by
    the block's labels.  The bytes are those of ``csv.writer``; the header
    and labels must be strings it would not quote."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_plain(header)) + "\r\n")
        for ts, xs, labels in blocks:
            fields = [v.replace("%", "%%") for v in _plain(labels)]
            row = ",".join(["%r,%r,%r,%r", *fields]) + "\r\n"
            fh.writelines(
                row % (t, x1, x2, x3)
                for t, (x1, x2, x3) in zip(np.asarray(ts, dtype=float).tolist(),
                                           np.asarray(xs, dtype=float).tolist()))


def write_segments_csv(segments, path) -> None:
    """All segments concatenated into one CSV, distinguished by the role
    column."""
    write_csv(path, ((seg.ts, seg.xs, (seg.side, seg.role))
                     for seg in segments))


def write_segments_csv_dir(segments, dirpath) -> list:
    """One CSV per segment, named ``<index>_<role>.csv``; returns paths."""
    import os

    os.makedirs(dirpath, exist_ok=True)
    paths = []
    for i, seg in enumerate(segments):
        path = os.path.join(dirpath, f"{i:02d}_{seg.role}.csv")
        write_segments_csv([seg], path)
        paths.append(path)
    return paths
