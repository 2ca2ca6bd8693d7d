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
import os
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CertificateFailure, ConfigError, HypothesisFailure
from .flows import left_flow, right_flow
from .model import SystemParams, classify_2x2, point
from .verifier import CycleVerdict

#: Allowed slack on closed containments ("on or inside the plane").
TOL_CONTAINMENT = 1e-9

#: Default contraction factor defining the truncation horizons.
HORIZON_TARGET = 1e-6

#: Maximum Euclidean gap between consecutive samples after refinement.
MAX_SAMPLE_GAP = 0.05

#: Most samples one segment may hold, checked before each grid is built.
MAX_SEGMENT_SAMPLES = 2 ** 22

#: Samples evaluated per block into a segment's (n, 3) array.
SAMPLE_CHUNK_ROWS = 4096


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


def default_horizons(params: SystemParams) -> dict:
    """Truncation times to contract by ``HORIZON_TARGET`` at the rates of
    the closed forms: the right-zone vertical rate (toward q backward), the
    radial rate 2*rho at the cycle, the left vertical rate mu (cylinder
    unwinding), and the slowest stable rate of the right planar block."""
    span = math.log(1.0 / HORIZON_TARGET)
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


def _check_horizons(t_back, t_fwd) -> None:
    """ConfigError unless each override is None or a positive finite time."""
    for name, value in (("t_back", t_back), ("t_fwd", t_fwd)):
        if value is not None and not 0.0 < value < math.inf:
            raise ConfigError(
                f"horizon {name} must be a positive finite time, "
                f"got {value!r}")


def _horizons(params: SystemParams, verdict: CycleVerdict, t_back,
              t_fwd) -> dict:
    """The four horizons, ``t_back``/``t_fwd`` overriding the defaults
    (computed only if one is missing).  Raises as in ``build_gamma1``."""
    _check_horizons(t_back, t_fwd)
    if not verdict.certified:
        raise HypothesisFailure("verdict does not certify a cycle")
    if t_back is None or t_fwd is None:
        return {key: (t_back if key.endswith("back") else t_fwd) or value
                for key, value in default_horizons(params).items()}
    return {"gamma1_back": t_back, "gamma1_fwd": t_fwd,
            "gamma_up_back": t_back, "gamma_up_fwd": t_fwd}


def _check_size(n: int, where: str) -> None:
    """CertificateFailure naming ``where`` if n > MAX_SEGMENT_SAMPLES."""
    if n > MAX_SEGMENT_SAMPLES:
        raise CertificateFailure(
            f"{where} needs {n:.6g} samples, more than {MAX_SEGMENT_SAMPLES}")


def _sample_times(flow, x0: tuple, params: SystemParams, t0: float,
                  t1: float, n_init: int, where: str) -> tuple:
    """Sample flow(x0, t, params) on [t0, t1] into an (n, 3) array, adding
    midpoints (48 passes at most) until consecutive samples are within
    MAX_SAMPLE_GAP (Euclidean); a grid over MAX_SEGMENT_SAMPLES raises, as
    does a polyline through the samples too long for one: the orbit is no
    shorter, so its final grid would need at least length / gap samples."""
    _check_size(n_init, where)
    ts = np.linspace(t0, t1, n_init)
    for passes in range(49):
        xs = np.empty((len(ts), 3))
        for lo in range(0, len(ts), SAMPLE_CHUNK_ROWS):
            chunk = ts[lo:lo + SAMPLE_CHUNK_ROWS].tolist()
            xs[lo:lo + len(chunk)] = [flow(x0, t, params) for t in chunk]
        gaps = np.linalg.norm(np.diff(xs, axis=0), axis=1)
        least = float(gaps.sum()) / MAX_SAMPLE_GAP + 1.0
        if least > MAX_SEGMENT_SAMPLES:
            raise CertificateFailure(
                f"{where} needs at least {least:.6g} samples, more than "
                f"{MAX_SEGMENT_SAMPLES}")
        bad = np.where(gaps > MAX_SAMPLE_GAP)[0]
        if bad.size == 0 or passes == 48:
            break
        _check_size(len(ts) + bad.size, where)
        mids = 0.5 * (ts[bad] + ts[bad + 1])
        ts = np.sort(np.concatenate([ts, mids]))
    return ts, xs


def _margin(params: SystemParams, ts, xs, requirement: str, flow,
            x0: tuple) -> float:
    """Worst signed margin of the containment requirement over the samples.

    requirement 'plus_strict'  : x1 + x3 - d > 0 for t != 0
    requirement 'minus_strict' : d - x1 - x3 > 0 for t != 0
    requirement 'minus_closed' : d - x1 - x3 >= -tol everywhere
    A strict margin at or below zero is re-examined on a 16x finer local
    grid of flow(x0, t, params) before being accepted as the minimum
    (tangency guard).
    """
    resid = xs[:, 0] + xs[:, 2] - params.d
    sign = 1.0 if requirement.startswith("plus") else -1.0
    vals = sign * resid
    if requirement.endswith("strict"):
        mask = ts != 0.0
        vals = vals[mask]
        kept_ts = ts[mask]
        worst = float(vals.min())
        if worst <= 0.0:
            i = int(vals.argmin())
            t_lo = kept_ts[max(0, i - 1)]
            t_hi = kept_ts[min(len(kept_ts) - 1, i + 1)]
            fine = np.linspace(t_lo, t_hi, 33)
            fine = fine[fine != 0.0]
            fx = np.array([flow(x0, t, params) for t in fine.tolist()])
            fr = sign * (fx[:, 0] + fx[:, 2] - params.d)
            worst = min(worst, float(fr.min()))
        return worst
    return float(vals.min())


def _segment(params: SystemParams, x0, t0: float, t1: float, n_init: int,
             role: str, requirement: str, where: str) -> OrbitSample:
    """Sample the closed-form orbit of x0 on [t0, t1] and check its
    containment.  A 'plus' requirement is the equilibrium side (right
    zone), a 'minus' one the cycle side (left zone); ``where`` names the
    segment in the CertificateFailure raised when the margin is violated
    or the samples would exceed MAX_SEGMENT_SAMPLES.
    """
    plus = requirement.startswith("plus")
    flow = right_flow if plus else left_flow
    x0 = point(x0)
    ts, xs = _sample_times(flow, x0, params, t0, t1, n_init, where)
    margin = _margin(params, ts, xs, requirement, flow, x0)
    if margin < -TOL_CONTAINMENT:
        raise CertificateFailure(
            f"{'equilibrium' if plus else 'cycle'}-side containment violated "
            f"on {where} (margin {margin!r})")
    return OrbitSample(ts, xs, "right" if plus else "left", role, margin,
                       requirement)


def _per_revolution(params: SystemParams, span: float) -> int:
    """Initial sample count of a left-zone segment: 64 per revolution."""
    n = span * params.omega / (2.0 * math.pi) * 64
    return int(n) + 2 if n < math.inf else n  # inf: _sample_times refuses it


def build_gamma1(params: SystemParams, verdict: CycleVerdict,
                 t_back: Optional[float] = None,
                 t_fwd: Optional[float] = None) -> tuple:
    """Equilibrium-to-cycle orbit through q0: backward right-zone segment
    (strictly on the equilibrium side) and forward left-zone segment
    (closed cycle side).  Returns (backward, forward) with residuals
    available via ``endpoint_residuals`` of the enclosing certificate.

    Raises ConfigError for a horizon that is not a positive finite time,
    HypothesisFailure when the verdict certifies nothing and
    CertificateFailure when a containment margin is violated or a segment
    needs more than MAX_SEGMENT_SAMPLES samples.
    """
    horizons = _horizons(params, verdict, t_back, t_fwd)
    tb, tf = horizons["gamma1_back"], horizons["gamma1_fwd"]
    # Backward, q0 lies on the unstable line {x1 = q1, x2 = q2} (q1 = d is
    # a hypothesis, exact up to tol); snapping the planar coordinates keeps
    # the backward right flow from amplifying that rounding exponentially.
    q0_back = (params.q1, params.q2, 0.0)
    back = _segment(params, q0_back, -tb, 0.0, 129, "gamma1_back",
                    "plus_strict", "gamma1 backward segment")
    fwd = _segment(params, verdict.q0, 0.0, tf, _per_revolution(params, tf),
                   "gamma1_fwd", "minus_closed", "gamma1 forward segment")
    return back, fwd


def build_gamma_up(params: SystemParams, verdict: CycleVerdict, p,
                   t_back: Optional[float] = None,
                   t_fwd: Optional[float] = None) -> tuple:
    """Cycle-to-equilibrium orbit through the connection point p: backward
    left-zone segment winding down the unstable cylinder (strictly on the
    cycle side; this is the numeric replacement for the tangent-angle
    argument) and forward right-zone segment inside the stable plane of q
    (strictly on the equilibrium side).  Errors as in ``build_gamma1``."""
    horizons = _horizons(params, verdict, t_back, t_fwd)
    tb, tf = horizons["gamma_up_back"], horizons["gamma_up_fwd"]
    p = point(p)
    # Backward, p lies on the cylinder x1^2 + x2^2 = rho up to rounding;
    # the radial law treats it as on the cycle (flows.ON_CYCLE_BAND), so
    # its repulsion at rate 2 rho does not amplify that rounding.
    back = _segment(params, p, -tb, 0.0, _per_revolution(params, tb),
                    "gamma_up_back", "minus_strict",
                    "backward cylinder segment")
    # Forward, p lies on the stable plane {x3 = q3} (the subcase selection
    # guarantees this up to tol); snapping the vertical coordinate keeps
    # the unstable vertical rate from amplifying that rounding.
    p_fwd = (p[0], p[1], params.q3)
    fwd = _segment(params, p_fwd, 0.0, tf, 257, "gamma_up_fwd",
                   "plus_strict", f"forward segment from {p}")
    return back, fwd


def _cycle_distance(params: SystemParams, x) -> float:
    """Radial-plus-vertical distance |r - sqrt(rho)| + |x3| of x from the
    left zone's saddle periodic orbit, the circle of radius sqrt(rho) in the
    plane x3 = 0."""
    x1, x2, x3 = point(x)
    return abs(math.hypot(x1, x2) - params.sqrt_rho) + abs(x3)


def assemble_cycle(params: SystemParams, verdict: CycleVerdict,
                   t_back: Optional[float] = None,
                   t_fwd: Optional[float] = None) -> list:
    """One certificate per certified cycle (none for a failed verdict).

    ``t_back``/``t_fwd`` override both families' horizons when given; the
    default horizons are per-family contraction times.  An override that
    is not a positive finite time raises ConfigError.
    """
    if not verdict.certified:
        _check_horizons(t_back, t_fwd)
        return []
    horizons = _horizons(params, verdict, t_back, t_fwd)
    q = params.q
    g1_back, g1_fwd = build_gamma1(params, verdict,
                                   horizons["gamma1_back"],
                                   horizons["gamma1_fwd"])
    certificates = []
    for p in verdict.connecting_points:
        up_back, up_fwd = build_gamma_up(params, verdict, p,
                                         horizons["gamma_up_back"],
                                         horizons["gamma_up_fwd"])
        segments = (g1_back, g1_fwd, up_back, up_fwd)
        residuals = {
            "gamma1_back_to_q": float(np.linalg.norm(g1_back.xs[0] - q)),
            "gamma1_fwd_to_cycle": _cycle_distance(params, g1_fwd.xs[-1]),
            "gamma_up_back_to_cycle": _cycle_distance(params, up_back.xs[0]),
            "gamma_up_fwd_to_q": float(np.linalg.norm(up_fwd.xs[-1] - q)),
        }
        ok = all(
            seg.containment_margin >= -TOL_CONTAINMENT for seg in segments)
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


#: Rows formatted and written per ``write`` call: bounds the memory held
#: by the joined text of a long block.
CSV_CHUNK_ROWS = 512


def _constant_repr(col: np.ndarray):
    """``repr`` of the value of a float64 column whose values share one
    64-bit pattern, else None.  Patterns, not values, are compared, so a
    column mixing 0.0 and -0.0 is not constant."""
    bits = col.view(np.uint64)
    # min/max, not bits == bits[0]: that bool temporary per column raised
    # the peak RSS of a process writing many blocks by about 0.3 MB
    if len(bits) and bits.min() == bits.max():
        return repr(float(col[0]))
    return None


def write_csv(path, blocks, header=CSV_HEADER) -> None:
    """Write ``header``, then for each block ``(ts, xs, labels)`` one row
    per sample: t, x1, x2, x3 by ``repr`` (exact round trip) followed by
    the block's labels.  The bytes are those of ``csv.writer``; the header
    and labels must be strings it would not quote.

    A block is formatted column by column, ``CSV_CHUNK_ROWS`` rows per
    write; a constant column (``_constant_repr``) is formatted once.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_plain(header)) + "\r\n")
        for ts, xs, labels in blocks:
            tail = "".join("," + v for v in _plain(labels)) + "\r\n"
            # reshape: an empty block may come as [] rather than (0, 3)
            x1, x2, x3 = np.asarray(xs, dtype=float).reshape(len(xs), 3).T
            cols = (np.asarray(ts, dtype=float), x1, x2, x3)
            consts = [_constant_repr(col) for col in cols]
            n = min(map(len, cols))
            for lo in range(0, n, CSV_CHUNK_ROWS):
                hi = min(lo + CSV_CHUNK_ROWS, n)
                chunk = [map(repr, col[lo:hi].tolist()) if const is None
                         else [const] * (hi - lo)
                         for col, const in zip(cols, consts)]
                fh.write("".join([f"{t},{a},{b},{c}{tail}"
                                  for t, a, b, c in zip(*chunk)]))


def write_segments_csv(segments, path) -> None:
    """All segments concatenated into one CSV, distinguished by the role
    column."""
    write_csv(path, ((seg.ts, seg.xs, (seg.side, seg.role))
                     for seg in segments))


#: Names of the per-segment CSVs: ``<index>_<role>.csv``.
_SEGMENT_CSV_NAME = re.compile(
    r"[0-9]{2,}_(gamma1_back|gamma1_fwd|gamma_up_back|gamma_up_fwd)\.csv")


def write_segments_csv_dir(segments, dirpath) -> list:
    """One CSV per segment, named ``<index>_<role>.csv``; returns paths.

    Files of that naming scheme that an earlier run left in ``dirpath``
    and this one does not write are removed, so the directory holds only
    this run's segments; any other file is left alone.
    """
    os.makedirs(dirpath, exist_ok=True)
    paths = []
    for i, seg in enumerate(segments):
        path = os.path.join(dirpath, f"{i:02d}_{seg.role}.csv")
        write_segments_csv([seg], path)
        paths.append(path)
    written = {os.path.basename(path) for path in paths}
    for name in os.listdir(dirpath):
        path = os.path.join(dirpath, name)
        if (name not in written and _SEGMENT_CSV_NAME.fullmatch(name)
                and os.path.isfile(path)):
            os.remove(path)
    return paths
