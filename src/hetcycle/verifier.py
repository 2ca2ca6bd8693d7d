"""Mechanical checking of the cycle-existence conditions.

A verdict certifies (or declines to certify) heteroclinic cycles between
the left zone's saddle periodic orbit and the right zone's saddle
equilibrium.  ``certify`` is the only way to one: the spectrum of the
right planar block names the theorem (never the caller), and both
theorems share one route that differs only in the planar check it
applies on L2 = {y1 = c} (c = ``l2_offset``, y = (x1 - q1, x2 - q2) at
height q3), in one loop, to the ordinate y2 = p2 - q2 of each connection
point p, as ``vdp_stay_check`` tests q2 on L1:

* ``real_saddle`` (stable node): ``planar.node_stay_check``,
* ``saddle_focus`` (stable focus): ``planar.focus_stay_check`` on the
  half-open stay window of ``planar.focus_stay_window``.

One ``analyze_vdp_line`` of L1 = {x1 = d} decides the regime and is the
only reading of it: in ``case_i`` (supercritical) every point of L1 flows
inward and stays, so the equilibrium-to-cycle orbit needs no further
condition; in ``case_ii`` (subcritical) the ordinate q2 must pass
``planar.vdp_stay_check``, the window between the upper tangency ordinate
and v_star, the first backward return (or v_star_exists fails).
The subcase and its connection points are one ``model.rim_subcase``:
where q3 sits relative to the plane heights d -/+ sqrt(rho) of the
cylinder rim, at the bottom ('a', one cycle through p0), at the top ('b',
one cycle through p1, plus the cone condition omega^2 rho < mu^2 (d^2 -
rho)), or strictly between ('c', two cycles through p_plus/p_minus, plus
the cone condition).

All conditions here are sufficient only: cycle_count 0 means "not
certified", never "no cycle exists".  Strict inequalities (h1-h3, the
regime, the cone, the node's half-plane) are evaluated with zero slack:
each is the exact sign of its expression in the float parameters, by the
one rule of ``model.SIGN_REL`` and ``model.exact_value``.  ``tol`` reaches
only the equality-type checks (the rim subcases, q1 = d) and the L1
tangency and focus-window bands.
``Evidence`` and ``CycleVerdict`` are ``NamedTuple``s; ``certify`` builds
each through its ``_make``, and the gate and passing h3 entries, the
same value on every call, are module constants.  An ``Evidence`` keeps
its threshold's numbers (``limits``) beside its text (``form``), and
``certify`` formats no text: ``threshold`` renders it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .model import (DEFAULT_TOL, SIGN_REL, SIGN_TINY, HypothesisReport,
                    SystemParams, exact_value, l2_offset, rim_subcase,
                    validate_hypotheses)
from .planar import (VdpLineAnalysis, analyze_vdp_line, focus_stay_check,
                     focus_stay_window, node_stay_check, vdp_stay_check)

# perfbench/tracing.py wraps this name by lookup; nothing calls it, and
# ROADMAP item 1 stage B deletes it along with the wrapper.
derive_geometry = None


class Evidence(NamedTuple):
    """One named condition with its computed value, threshold and outcome.

    ``form`` is the threshold text with a ``{!r}`` slot per number of
    ``limits``; ``threshold`` renders it only when a report reads it."""

    name: str
    value: float
    form: str
    limits: tuple
    passed: bool
    note: str = ""

    @property
    def threshold(self) -> str:
        return self.form.format(*self.limits)


class CycleVerdict(NamedTuple):
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


def cone_condition(params: SystemParams) -> Evidence:
    """Backward-containment condition on the cylinder: the vertical field
    must dominate the rotation, omega^2 rho < mu^2 (d^2 - rho), strictly.
    The evidence shows both sides' floats; the exact sign of their
    difference decides (``model.SIGN_REL``), from the terms (mu d)^2,
    mu (mu rho) and omega (omega rho), whose underflow is never scaled up
    past 2^52 (each scaling factor is below 2^52 where its product
    underflows)."""
    omega, mu, d, rho = params.omega, params.mu, params.d, params.rho
    lhs = omega * omega * rho
    rhs = mu * mu * (d * d - rho)
    md, mr, wr = mu * d, mu * (mu * rho), omega * (omega * rho)
    m = md * md - mr - wr
    if not abs(m) > SIGN_REL * (md * md + mr + wr) + SIGN_TINY:
        m = exact_value(lambda omega, mu, d, rho: mu * mu * (d * d - rho)
                        - omega * omega * rho, omega, mu, d, rho)
    return Evidence._make(("cone", lhs, "< {!r}", (rhs,), m > 0.0, ""))


def _q2_window(params: SystemParams, analysis: VdpLineAnalysis) -> Evidence:
    """q2 against the stay set of L1 by ``vdp_stay_check``, which raises
    UngenericBranch on an 'ungeneric' branch."""
    passed = vdp_stay_check(analysis, params.q2)
    vp, v2_star = analysis.varrho_plus, analysis.x_star[1]
    if analysis.branch == "x2star_above":
        return Evidence._make(("q2_window", params.q2, "[{!r}, {!r}]",
                               (vp, v2_star), passed,
                               "branch: v2* above sigma_plus"))
    return Evidence(
        "q2_window", params.q2, "(-inf, {!r}] u [{!r}, +inf)",
        (v2_star, vp), passed,
        note="branch: v2* below sigma_minus; left-infinite interval used "
             "(the mirrored sign reading is inconsistent with the stay set)")


#: (form, note) of the q3_subcase entry of each covered subcase.
_SUBCASE_TEXT = {"a": ("= {!r} (bottom rim)", "subcase a"),
                 "b": ("= {!r} (top rim)", "subcase b"),
                 "c": ("in ({!r}, {!r})", "subcase c")}


def _q3_evidence(q3: float, subcase: str, lo: float, hi: float) -> Evidence:
    """The ``rim_subcase`` decision of q3 against the rims lo, hi."""
    if subcase == "none":
        return Evidence("q3_subcase", q3, "within [{!r}, {!r}]", (lo, hi),
                        False, note="q3 outside certification coverage")
    form, note = _SUBCASE_TEXT[subcase]
    limits = (lo,) if subcase == "a" else (hi,) if subcase == "b" else (lo, hi)
    return Evidence._make(("q3_subcase", q3, form, limits, True, note))


def _none_verdict(evidence: list) -> CycleVerdict:
    return CycleVerdict("none", None, "none", 0, (), None, tuple(evidence))


#: Route of each certifiable spectrum: (theorem, its passing gate entry).
_ROUTES = {"real_stable": ("real_saddle", Evidence(
               "h1", 1.0, "right planar block real stable", (), True)),
           "complex_stable": ("saddle_focus", Evidence(
               "h2", 1.0, "right planar block complex stable", (), True))}
#: The h3 entry of every set whose placement holds.
_H3_PASSED = Evidence("h3", 1.0, "placement hypothesis", (), True)


def _h3_evidence(report: HypothesisReport) -> Evidence:
    if report.h3_holds:
        return _H3_PASSED
    worst = min(report.h3_details, key=lambda c: c.passed)
    return Evidence("h3", 0.0, "placement hypothesis", (), False,
                    note=f"failing sub-check: {worst.name}")


def certify(params: SystemParams, tol: float = DEFAULT_TOL,
            report: Optional[HypothesisReport] = None) -> CycleVerdict:
    """The verdict on ``params``: the one certification entry point.

    The right block's spectrum picks the theorem (a node block
    'real_saddle', a focus block 'saddle_focus', any other 'none').  One
    ``analyze_vdp_line`` of L1 names the regime; in case_ii its
    ``vdp_stay_check`` of q2 (the q2 window) gates the shared
    equilibrium-to-cycle orbit, or v_star_exists fails when the
    orbit of v1 escapes before returning; subcases b/c add the cone
    condition.  Only the planar criterion on L2 at the connection points'
    ordinates depends on the theorem: ``node_stay_check`` for a node block
    (``halfplane_*`` evidence, its signed margin), ``focus_stay_check``
    for a focus block (``window_*``, the parameter along the spiral
    window).  ``report`` is ``validate_hypotheses(params, tol)`` when the
    caller already holds it.
    """
    if report is None:
        report = validate_hypotheses(params, tol)
    sys = report.block
    if sys.spectral_type not in _ROUTES:
        return _none_verdict([
            Evidence("spectral_type", 0.0, "real stable or complex stable",
                     (), False, note=f"got {sys.spectral_type}"),
            _h3_evidence(report)])
    theorem, gate = _ROUTES[sys.spectral_type]
    evidence = [gate, _h3_evidence(report)]
    if not report.h3_holds:
        return _none_verdict(evidence)
    analysis = analyze_vdp_line(params.rho, params.omega, params.d, tol)
    regime = "case_ii" if analysis.regime == "subcritical" else "case_i"

    v_star = None
    if regime == "case_ii":
        if analysis.x_star is None:  # a coverage gap, not an exception
            evidence.append(Evidence(
                "v_star_exists", 0.0, "backward orbit of v1 returns to L1",
                (), False,
                note="the backward orbit escapes before returning; "
                     "configuration outside certification coverage"))
        else:
            evidence.append(_q2_window(params, analysis))
            v_star = (analysis.k, analysis.x_star[1], 0.0)

    subcase, lo, hi, points = rim_subcase(params, tol)
    evidence.append(_q3_evidence(params.q3, subcase, lo, hi))

    if subcase in ("b", "c"):
        evidence.append(cone_condition(params))

    q2 = params.q2
    if theorem == "real_saddle":
        w = window = None
        prefix, form = "halfplane", ">= 0"
        c = (params.d, -params.q3, -params.q1)  # d - q3 - q1, exactly
    else:  # the report prints the window lifted to L2 in 3D
        w = focus_stay_window(sys, l2_offset(params))
        x1, q3 = params.d - params.q3, params.q3
        window = ((x1, w.y_in + q2, q3), (x1, w.y_out + q2, q3))
        prefix, form = "window", "in [0, 1) along [x_minus, x_plus)"
    for label, p in points:
        # p's ordinate on L2: a rim point of subcase a or b itself sits up
        # to the rim band off L2
        stays, value = (node_stay_check(sys, c, (p[1], -q2)) if w is None
                        else focus_stay_check(w, p[1] - q2, tol))
        evidence.append(Evidence._make((f"{prefix}_{label}", value, form, (),
                                        stays, "")))

    # subcase 'none' implies no points and fails the q3_subcase evidence
    connecting = (tuple([p for _, p in points])
                  if all([e.passed for e in evidence]) else ())
    return CycleVerdict._make((theorem, regime, subcase, len(connecting),
                               connecting, (params.d, q2, 0.0),
                               tuple(evidence), v_star, window))
