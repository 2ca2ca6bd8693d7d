"""Mechanical checking of the cycle-existence conditions.

A verdict certifies (or declines to certify) heteroclinic cycles between
the left zone's saddle periodic orbit and the right zone's saddle
equilibrium.  One certification route serves both theorems, named by the
spectrum of the right planar block; they differ only in the test at the
connection points p:

* ``real_saddle`` (stable node): p must satisfy the outward half-plane
  condition (1,0,1) . B (p - q) >= 0,
* ``saddle_focus`` (stable focus): p must lie in the half-open spiral
  stay window [x_minus, x_plus) on the in-plane line L2.

The regime compares d^2 - rho with omega^2 / (4 d^2): in ``case_i`` every
point of L1 flows inward and stays, so the equilibrium-to-cycle orbit
needs no further condition; in ``case_ii`` the ordinate q2 must sit in an
explicit window derived from the first backward return v_star on L1.  The subcase is selected by where
q3 sits relative to the plane heights d -/+ sqrt(rho) of the cylinder rim:
at the bottom ('a', one cycle through p0), at the top ('b', one cycle
through p1, plus the cone condition omega^2 rho < mu^2 (d^2 - rho)), or
strictly between ('c', two cycles through p_plus/p_minus, plus the cone
condition).

All conditions here are sufficient only: cycle_count 0 means "not
certified", never "no cycle exists".  Strict inequalities are evaluated
with zero slack; equality-type checks use the global tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RootSearchError, UngenericBranch
from .model import (
    DEFAULT_TOL,
    DerivedGeometry,
    HypothesisReport,
    Interval3D,
    SystemParams,
    derive_geometry,
    interval_contains,
    validate_hypotheses,
)
from .planar import PlanarLinearSystem, StaySet, analyze_vdp_line, focus_stay_window


@dataclass(frozen=True)
class Evidence:
    """One named condition with its computed value, threshold and outcome."""

    name: str
    value: float
    threshold: str
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class CycleVerdict:
    """Outcome of the certification with per-condition numeric evidence.

    ``theorem`` names the route that applied ('real_saddle',
    'saddle_focus', or 'none' when the hypothesis gate fails).
    ``connecting_points`` holds the cycle entry points on the cylinder rim
    (one for subcases a/b, two for c) when certification succeeds; ``q0``
    is the shared plane crossing of the equilibrium-to-cycle orbit and is
    kept separate because it lies on the cycle's stable plane, not on the
    cylinder.
    """

    theorem: str
    regime: Optional[str]
    subcase: str
    cycle_count: int
    connecting_points: tuple
    q0: Optional[tuple]
    evidence: tuple
    v_star: Optional[tuple] = None
    window: Optional[tuple] = None  # (x_minus, x_plus) as tuples

    @property
    def certified(self) -> bool:
        return self.cycle_count >= 1


def regime_classify(params: SystemParams, tol: float = DEFAULT_TOL) -> str:
    """'case_i' when d^2 - rho >= omega^2/(4 d^2) (within tol), else
    'case_ii'.  Assumes the placement hypothesis (so d^2 - rho > 0)."""
    lhs = params.d * params.d - params.rho
    rhs = params.omega * params.omega / (4.0 * params.d * params.d)
    scale = max(1.0, abs(lhs), abs(rhs))
    return "case_i" if lhs >= rhs - tol * scale else "case_ii"


def compute_v_star(params: SystemParams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """First backward intersection v_star = (d, v2*, 0) of the orbit of the
    upper tangency point v1 on L1 (the plane x3 = 0 is flow-invariant, so
    this is the planar line analysis at k = d, lifted).

    Raises RootSearchError when the backward orbit escapes before returning
    to L1 (a configuration the certification does not cover).
    """
    analysis = analyze_vdp_line(params.rho, params.omega, params.d, tol)
    if analysis.regime != "subcritical":
        raise UngenericBranch(
            "v_star is defined only in the tangential regime (case_ii)")
    if analysis.x_star is None:
        raise RootSearchError(
            "the backward orbit of v1 escapes before returning to L1; "
            "v_star does not exist for these parameters")
    return np.array([params.d, analysis.x_star[1], 0.0])


def cone_condition(params: SystemParams) -> Evidence:
    """Backward-containment condition on the cylinder: the vertical field
    must dominate the rotation, omega^2 rho < mu^2 (d^2 - rho), strictly."""
    lhs = params.omega ** 2 * params.rho
    rhs = params.mu ** 2 * (params.d ** 2 - params.rho)
    return Evidence("cone", lhs, f"< {rhs!r}", lhs < rhs)


def check_q2_window(params: SystemParams, v_star, tol: float = DEFAULT_TOL,
                    sigma_plus: Optional[float] = None,
                    sigma_minus: Optional[float] = None) -> Evidence:
    """Window condition on q2 in the tangential regime (case_ii).

    ``v_star`` may be the lifted 3-vector (d, v2*, 0) or the bare ordinate.
    When the first backward return lands above the upper tangency ordinate
    (v2* > sigma_plus): q2 must lie in [sigma_plus, v2*].  When it lands
    below the lower one (v2* < sigma_minus): q2 must lie in
    (-inf, v2*] u [sigma_plus, +inf); the left-infinite reading is the one
    consistent with the stay-set geometry (the excluded set is the open
    interval of L1 between v1 and v_star).  Within tolerance of the
    tangency ordinates the dichotomy does not apply (UngenericBranch).
    """
    v2_star = float(np.asarray(v_star).reshape(-1)[1]
                    if np.asarray(v_star).size == 3 else v_star)
    if sigma_plus is None or sigma_minus is None:
        geometry = derive_geometry(params, tol)
        sigma_plus = geometry.sigma_plus
        sigma_minus = geometry.sigma_minus
    if sigma_plus is None:
        raise UngenericBranch(
            "tangency ordinates are not real; the q2 window applies only "
            "in the tangential regime (case_ii)")
    scale = max(1.0, abs(sigma_plus), abs(sigma_minus))
    band = tol * scale
    if sigma_minus - band <= v2_star <= sigma_plus + band:
        raise UngenericBranch(
            f"v2* = {v2_star!r} within tolerance of the tangency ordinates")
    # The stay set on L1 widened by the tolerance band: the interval between
    # the band edges on the "above" branch, its closed complement "below".
    lo, hi = sorted((sigma_plus - band, v2_star + band))
    above = v2_star > sigma_plus
    stay = StaySet("interval" if above else "complement", lo=lo, hi=hi,
                   lo_in=True, hi_in=True)
    passed = stay.contains(params.q2)
    if above:
        return Evidence("q2_window", params.q2,
                        f"[{sigma_plus!r}, {v2_star!r}]", passed,
                        note="branch: v2* above sigma_plus")
    return Evidence(
        "q2_window", params.q2,
        f"(-inf, {v2_star!r}] u [{sigma_plus!r}, +inf)", passed,
        note="branch: v2* below sigma_minus; left-infinite interval used "
             "(the mirrored sign reading is inconsistent with the stay set)")


def _subcase_of_q3(params: SystemParams, tol: float) -> tuple:
    """('a'|'b'|'c'|'none', Evidence) by the position of q3 relative to
    the cylinder rim heights d - sqrt(rho) and d + sqrt(rho)."""
    lo = params.d - params.sqrt_rho
    hi = params.d + params.sqrt_rho
    scale = max(1.0, abs(lo), abs(hi))
    band = tol * scale
    q3 = params.q3
    if abs(q3 - lo) <= band:
        return "a", Evidence("q3_subcase", q3, f"= {lo!r} (bottom rim)", True,
                             note="subcase a")
    if abs(q3 - hi) <= band:
        return "b", Evidence("q3_subcase", q3, f"= {hi!r} (top rim)", True,
                             note="subcase b")
    if lo < q3 < hi:
        return "c", Evidence("q3_subcase", q3, f"in ({lo!r}, {hi!r})", True,
                             note="subcase c")
    return "none", Evidence(
        "q3_subcase", q3, f"within [{lo!r}, {hi!r}]", False,
        note="q3 outside certification coverage")


def _none_verdict(evidence: list) -> CycleVerdict:
    return CycleVerdict("none", None, "none", 0, (), None, tuple(evidence))


#: Spectral gate of each route: (evidence name, block spectrum, other route).
_GATES = {"real_saddle": ("h1", "real stable", "saddle-focus"),
          "saddle_focus": ("h2", "complex stable", "real-saddle")}


def _hypothesis_evidence(report: HypothesisReport, theorem: str) -> list:
    """Evidence entries for the spectral gate and the placement checks."""
    name, spectrum, other_route = _GATES[theorem]
    holds, other_holds = ((report.h1_holds, report.h2_holds)
                          if theorem == "real_saddle" else
                          (report.h2_holds, report.h1_holds))
    note = "" if holds else (
        "spectral type is " + report.spectral_type +
        (f"; {other_route} route applies" if other_holds else ""))
    ev = [Evidence(name, 1.0 if holds else 0.0,
                   f"right planar block {spectrum}", holds, note=note)]
    worst = min(report.h3_details, key=lambda c: c.passed)
    ev.append(Evidence("h3", 1.0 if report.h3_holds else 0.0,
                       "placement hypothesis", report.h3_holds,
                       note="" if report.h3_holds else
                       f"failing sub-check: {worst.name}"))
    return ev


def _case_ii_gate(params, geometry, evidence, tol):
    """Run the q2-window machinery; returns (v_star tuple or None).

    A missing first backward return (the orbit of v1 escapes first) is a
    coverage gap, recorded as failed evidence rather than an exception.
    """
    try:
        v_star = compute_v_star(params, tol)
    except RootSearchError:
        evidence.append(Evidence(
            "v_star_exists", 0.0, "backward orbit of v1 returns to L1", False,
            note="the backward orbit escapes before returning; "
                 "configuration outside certification coverage"))
        return None
    evidence.append(check_q2_window(params, v_star, tol,
                                    sigma_plus=geometry.sigma_plus,
                                    sigma_minus=geometry.sigma_minus))
    return tuple(float(v) for v in v_star)


def _certify_route(params: SystemParams, report: HypothesisReport,
                   theorem: str, tol: float) -> CycleVerdict:
    """The certification skeleton shared by both theorems.

    In case_ii the q2 window gates the shared equilibrium-to-cycle orbit;
    subcases b/c add the cone condition.  Only the test at the candidate
    connection points depends on ``theorem``: the outward half-plane check
    (1,0,1) . B (p - q) >= 0 for a node block ('real_saddle'), membership
    of the spiral stay window [x_minus, x_plus) on L2 for a focus block
    ('saddle_focus').
    """
    evidence = _hypothesis_evidence(report, theorem)
    if not (evidence[0].passed and report.h3_holds):
        return _none_verdict(evidence)
    geometry = derive_geometry(params, tol)
    regime = regime_classify(params, tol)

    v_star = None
    if regime == "case_ii":
        v_star = _case_ii_gate(params, geometry, evidence, tol)

    subcase, sub_ev = _subcase_of_q3(params, tol)
    evidence.append(sub_ev)
    points = _candidate_points(geometry, subcase)

    if subcase in ("b", "c"):
        evidence.append(cone_condition(params))

    window = None
    if theorem == "real_saddle":
        for label, p in points:
            # (1,0,1) . B (p - q) >= 0: the forward right-zone orbit of p
            # stays on the equilibrium side of the plane.  Closed condition:
            # the tangential boundary value 0 counts as staying, so equality
            # gets the global tolerance.
            bp = params.b_full @ (np.asarray(p, dtype=float) - params.q)
            value = float(bp[0] + bp[2])
            scale = max(1.0, float(np.linalg.norm(bp)))
            evidence.append(Evidence(f"halfplane_{label}", value, ">= 0",
                                     value >= -tol * scale))
    else:
        window = _window_on_l2(params, tol)
        iv = Interval3D(np.array(window[0]), np.array(window[1]),
                        closed_a=True, closed_b=False)
        for label, p in points:
            lam = _interval_parameter(window[0], window[1], p)
            evidence.append(Evidence(
                f"window_{label}", lam, "in [0, 1) along [x_minus, x_plus)",
                interval_contains(iv, p, tol)))

    if subcase == "none" or not all(e.passed for e in evidence):
        count, connecting = 0, ()
    else:
        count = 2 if subcase == "c" else 1
        connecting = tuple(tuple(float(v) for v in p) for _, p in points)
    return CycleVerdict(theorem, regime, subcase, count, connecting,
                        (params.d, params.q2, 0.0), tuple(evidence), v_star,
                        window)


def certify_real_saddle(params: SystemParams, tol: float = DEFAULT_TOL) -> CycleVerdict:
    """Certification route for a stable-node right block."""
    return _certify_route(params, validate_hypotheses(params, tol),
                          "real_saddle", tol)


def certify_saddle_focus(params: SystemParams, tol: float = DEFAULT_TOL) -> CycleVerdict:
    """Certification route for a stable-focus right block."""
    return _certify_route(params, validate_hypotheses(params, tol),
                          "saddle_focus", tol)


def _window_on_l2(params: SystemParams, tol: float) -> tuple:
    """Spiral stay window on L2, lifted to 3D (the in-plane dynamics at
    height q3 is the planar right block centered at (q1, q2))."""
    c0 = params.d - params.q3 - params.q1  # line offset in centered coords
    sys = PlanarLinearSystem.from_matrix(params.b0)
    w = focus_stay_window(sys, (1.0 / c0, 0.0), tol)
    x_minus = (w.x_star_in[0] + params.q1, w.x_star_in[1] + params.q2, params.q3)
    x_plus = (w.x_star_out[0] + params.q1, w.x_star_out[1] + params.q2, params.q3)
    return x_minus, x_plus


def _interval_parameter(a, b, x) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    u = b - a
    return float(np.dot(x - a, u) / np.dot(u, u))


def _candidate_points(geometry: DerivedGeometry, subcase: str) -> list:
    if subcase == "a":
        return [("p0", geometry.p0)]
    if subcase == "b":
        return [("p1", geometry.p1)]
    if subcase == "c":
        return [("p_plus", geometry.p_plus), ("p_minus", geometry.p_minus)]
    return []


def certify(params: SystemParams, tol: float = DEFAULT_TOL) -> CycleVerdict:
    """Dispatch to the route matching the right block's spectrum."""
    report = validate_hypotheses(params, tol)
    if report.h1_holds:
        return _certify_route(params, report, "real_saddle", tol)
    if report.h2_holds:
        return _certify_route(params, report, "saddle_focus", tol)
    evidence = [Evidence("spectral_type", 0.0,
                         "real stable or complex stable", False,
                         note=f"got {report.spectral_type}")]
    evidence += _hypothesis_evidence(report, "real_saddle")[1:]
    return _none_verdict(evidence)
