import math
import re
from dataclasses import replace

import numpy as np
import pytest

from helpers import Budget, rim_sets, wide_sets
from rigorous import focus_return, strict_signs

from hetcycle.errors import ConfigError, HetcycleError, UngenericBranch
from hetcycle.flows import left_flow, right_flow
from hetcycle.hybrid import numeric_flow
from hetcycle.model import (SystemParams, l2_offset, params_from_dict,
                            rim_subcase, tangency_ordinates,
                            validate_hypotheses, window_tangency)
from hetcycle.orbits import assemble_cycle
from hetcycle.planar import (PlanarLinearSystem, analyze_vdp_line,
                             focus_stay_window, return_branch,
                             tangency_band)
from hetcycle.presets import example_params
from hetcycle.verifier import Evidence, certify, cone_condition


def test_regime_classification(ex1, ex3):
    assert certify(ex1).regime == "case_ii"   # d^2 - rho = 0.44, small
    assert certify(ex3).regime == "case_i"    # d^2 - rho = 3 dominates
    # exact boundary counts as case_i (closed inequality)
    p = SystemParams(rho=1, omega=math.sqrt(8.0), mu=1, b11=-2, b12=1,
                     b21=0, b22=-1, lam=1, q1=math.sqrt(2), q2=0, q3=0.5,
                     d=math.sqrt(2))
    assert certify(p).regime == "case_i"


def test_regime_reads_the_tangency_discriminant(ex1):
    # d^2 - rho against omega^2 / (4 d^2) once rounded apart from the sign
    # of omega^2 - 4 d^2 (d^2 - rho) at tol 0, and certify raised
    # UngenericBranch; case_ii now always means a subcritical L1, and
    # both read the exact sign of that discriminant
    boundary = 2.0 * ex1.d * math.sqrt(ex1.d * ex1.d - ex1.rho)
    omegas = [1.5919798993705918]
    for _ in range(4):
        omegas = ([math.nextafter(omegas[0], 0.0)] + omegas
                  + [math.nextafter(omegas[-1], math.inf)])
    assert min(omegas) <= boundary <= max(omegas)
    for omega in omegas:
        p = replace(ex1, omega=omega)
        exact = strict_signs(p).regime > 0
        for tol in (0.0, 1e-9):
            v = certify(p, tol)
            subcritical = analyze_vdp_line(p.rho, omega, p.d, tol).regime == (
                "subcritical")
            assert (v.regime == "case_ii") == subcritical == exact, (
                omega, tol)
    # the float discriminant of this omega reads 0.0, its exact one 4.3e-16
    p = replace(ex1, omega=1.5919798993705918)
    assert p.omega * p.omega - 4.0 * p.d * p.d * (p.d * p.d - p.rho) == 0.0
    assert strict_signs(p).regime == 1
    assert certify(p, 0.0).regime == "case_ii"


def test_regime_is_one_reading_of_the_line(ex1):
    # omega just past the regime boundary: the discriminant (5.07e-10) is
    # positive, and no tol band reads it as 0 any more, so the line
    # analysis and certify both read the subcritical case_ii at every tol
    p = replace(ex1, omega=1.5919798993705918 * (1 + 1e-10))
    assert strict_signs(p).regime == 1
    for tol in (0.0, 1e-9):
        assert analyze_vdp_line(p.rho, p.omega, p.d, tol).regime == (
            "subcritical")
        assert certify(p, tol).regime == "case_ii"


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_regime_with_omega_squared_past_the_float_range(ex1, tol):
    # omega^2 = inf makes the discriminant and its band inf: still case_ii,
    # where every point of L1 flowing inward (case_i) would certify
    v = certify(replace(ex1, omega=1e160), tol)
    assert (v.regime, v.cycle_count) == ("case_ii", 0)
    assert not _evidence(v, "v_star_exists").passed


def _evidence(verdict, name):
    return {e.name: e for e in verdict.evidence}[name]


def test_v_star_example1(ex1):
    v = certify(ex1).v_star
    assert v[1] == pytest.approx(2.363, abs=5e-3)
    assert v[0] == ex1.d and v[2] == 0.0


def test_v_star_example2(ex2):
    v = certify(ex2).v_star
    assert v[1] == pytest.approx(-4.4162, abs=5e-3)


def test_v_star_closed_form_residual(ex1):
    # re-evaluating the closed-form flow at the bracketed root lands on L1
    from hetcycle.planar import analyze_vdp_line

    a = analyze_vdp_line(ex1.rho, ex1.omega, ex1.d)
    x = left_flow((ex1.d, a.varrho_plus, 0.0), a.t_star, ex1)
    assert abs(x[0] - ex1.d) <= 1e-9


def test_q2_window_branch1_pass(ex1):
    ev = _evidence(certify(ex1), "q2_window")
    assert ev.passed and "above" in ev.note


def test_q2_window_branch1_closed_endpoint(ex1):
    sigma_plus = tangency_ordinates(ex1.rho, ex1.omega, ex1.d)[1]
    p = replace(ex1, q2=sigma_plus)  # exactly at the closed endpoint
    assert _evidence(certify(p), "q2_window").passed


@pytest.mark.parametrize("tol", [0.0, 1e-9])
@pytest.mark.parametrize("example, branch", [(1, "x2star_above"),
                                             (2, "x2star_below")])
def test_q2_window_widened_ends(ex1, ex2, example, branch, tol):
    # each end of the q2 window moves out by tol * max(1, |vp|, |vm|):
    # q2 at a widened end passes, one float further out fails
    p = ex1 if example == 1 else ex2
    a = analyze_vdp_line(p.rho, p.omega, p.d, tol)
    assert a.branch == branch
    vp, vm, xs = a.varrho_plus, a.varrho_minus, a.x_star[1]
    band = tol * max(1.0, abs(vp), abs(vm))
    assert a.band == band
    if branch == "x2star_above":  # [vp - band, xs + band]
        ends = ((vp - band, -math.inf), (xs + band, math.inf))
    else:  # (-inf, xs + band] u [vp - band, +inf)
        ends = ((xs + band, math.inf), (vp - band, -math.inf))
    for end, outward in ends:
        assert _evidence(certify(replace(p, q2=end), tol), "q2_window").passed
        beyond = replace(p, q2=math.nextafter(end, outward))
        assert not _evidence(certify(beyond, tol), "q2_window").passed


def test_q2_window_branch2_pass(ex2):
    ev = _evidence(certify(ex2), "q2_window")
    assert ev.passed and "below" in ev.note


def test_q2_window_ungeneric_raises(ex1):
    # a first return strictly between the tangency ordinates is neither
    # branch of the dichotomy
    _, sigma_plus, sigma_minus = tangency_ordinates(ex1.rho, ex1.omega, ex1.d)
    mid = 0.5 * (sigma_plus + sigma_minus)
    with pytest.raises(UngenericBranch):
        return_branch(mid, sigma_plus, sigma_minus,
                      tangency_band(sigma_plus, sigma_minus))


def test_cone_condition_examples(ex2, ex3):
    ev2 = cone_condition(ex2)
    assert ev2.passed and ev2.value == pytest.approx(35.0)
    ev3 = cone_condition(ex3)
    assert ev3.passed and ev3.value == pytest.approx(9.0)
    tiny_mu = replace(ex3, mu=1e-3)
    assert not cone_condition(tiny_mu).passed
    # a square past the float range reads as inf, not OverflowError
    huge_mu = cone_condition(replace(ex3, mu=1e300))
    assert huge_mu.passed and huge_mu.threshold == "< inf"
    huge_omega = cone_condition(replace(ex2, omega=1e160))
    assert not huge_omega.passed and huge_omega.value == math.inf


@pytest.mark.parametrize("q2, margin, count", [
    (0.39999999999999997, 2.0 ** -54, 1), (0.4, 0.0, 1),
    (0.4000000000000001, -(2.0 ** -54), 0)])
def test_half_plane_reads_the_parameters(ex1, q2, margin, count):
    # example 1's p0 margin is -2 (d - q3 - q1) - q2, exactly 0 at q2 = 0.4
    # (2 fl(0.2) = fl(0.4)); the rounded offset d - q3 - q1 =
    # -0.19999999999999996 read it as -1.1e-16 at 0.4 and as -5.6e-17 at
    # the float below, where the exact margin is +5.6e-17
    v = certify(replace(ex1, q2=q2))
    e = _evidence(v, "halfplane_p0")
    assert (e.value, e.passed, v.cycle_count) == (margin, count == 1, count)
    assert l2_offset(ex1) == -0.19999999999999996


def test_cone_at_equality_is_not_certified(ex1):
    # omega^2 rho = mu^2 (d^2 - rho) = 0.5 exactly in subcase c: the
    # strict cone fails, and with it alone the two cycles
    p = replace(ex1, rho=0.5, d=1.0, q1=1.0, omega=1.0, mu=1.0, q3=1.0,
                q2=0.0)
    v = certify(p)
    by_name = {e.name: e for e in v.evidence}
    assert (v.theorem, v.subcase, v.cycle_count) == ("real_saddle", "c", 0)
    assert by_name["cone"].value == by_name["cone"].limits[0] == 0.5
    assert [e.name for e in v.evidence if not e.passed] == ["cone"]


#: (example, changed params, evidence, rendered threshold) for every kind
#: of evidence, the texts as the reports printed them when each verdict
#: formatted its own (v2* as refined to 1e-12 / omega): gate, h3 (holding
#: and failing), both q2 window branches, the four q3 subcases, cone (a
#: square past the float range reading as inf) and the node and focus
#: checks on L2.
THRESHOLD_TEXTS = [
    (1, {}, "h1", "right planar block real stable"),
    (2, {}, "h2", "right planar block complex stable"),
    (1, {"b11": 2.0}, "spectral_type", "real stable or complex stable"),
    (1, {}, "h3", "placement hypothesis"),
    (1, {"d": 0.9, "q1": 0.9}, "h3", "placement hypothesis"),
    (1, {"omega": 1e160}, "v_star_exists",
     "backward orbit of v1 returns to L1"),
    (1, {}, "q2_window", "[-0.05313884846595452, 2.3630450702477748]"),
    (2, {}, "q2_window",
     "(-inf, -4.416214485475618] u [-0.9045340337332911, +inf)"),
    (1, {}, "q3_subcase", "= 0.19999999999999996 (bottom rim)"),
    (2, {}, "q3_subcase", "= 2.7837651700316894 (top rim)"),
    (3, {}, "q3_subcase", "in (1.0, 3.0)"),
    (1, {"q3": 5.0}, "q3_subcase", "within [0.19999999999999996, 2.2]"),
    (2, {}, "cone", "< 54.545454545454554"),
    (3, {"mu": 1e300}, "cone", "< inf"),
    (1, {}, "halfplane_p0", ">= 0"),
    (2, {}, "window_p1", "in [0, 1) along [x_minus, x_plus)"),
    (3, {}, "window_p_minus", "in [0, 1) along [x_minus, x_plus)"),
]


@pytest.mark.parametrize("n, changes, name, text", THRESHOLD_TEXTS)
def test_threshold_texts(n, changes, name, text):
    # the threshold is rendered from its numbers only when read
    e = _evidence(certify(replace(example_params(n), **changes)), name)
    assert e.threshold == text
    assert all(type(x) is float for x in e.limits)


def test_q2_window_next_to_the_cycle(ex1):
    # L1 = {x1 = d} 1e-13 outside example 1's cycle: the backward orbit of
    # u1 returns at t = -0.62832 with x2 = 7.087419944322185e-07 (the
    # 60-digit rigorous.first_return), where a radial law that snapped u1
    # onto the cycle read an escape and failed v_star_exists; the window
    # ends at the line analysis' return (which test_planar checks against
    # the reference), and the cone fails
    with Budget("example 1's q2 window next to the cycle", 1.0):
        p = replace(ex1, d=1.0000000000001, q1=1.0000000000001)
        v = certify(p)
        a = analyze_vdp_line(p.rho, p.omega, p.d)
    names = {e.name: e for e in v.evidence}
    assert "v_star_exists" not in names
    q2 = names["q2_window"]
    assert q2.passed and q2.limits == (a.varrho_plus, a.x_star[1])
    assert q2.limits[1] == pytest.approx(7.087419944322185e-07, rel=1e-12)
    assert v.cycle_count == 0 and not names["cone"].passed


def test_verdict_example1(ex1):
    v = certify(ex1)
    assert v.theorem == "real_saddle"
    assert v.regime == "case_ii" and v.subcase == "a"
    assert v.cycle_count == 1
    np.testing.assert_allclose(v.connecting_points[0], [1.0, 0.0, 0.2],
                               atol=1e-12)
    np.testing.assert_allclose(v.q0, [1.2, 0.0, 0.0], atol=1e-14)
    hp = {e.name: e for e in v.evidence}["halfplane_p0"]
    assert hp.value == pytest.approx(0.4, abs=1e-12)


def test_verdict_example2(ex2):
    v = certify(ex2)
    assert v.theorem == "saddle_focus"
    assert v.regime == "case_ii" and v.subcase == "b"
    assert v.cycle_count == 1
    x_minus, x_plus = v.window
    assert x_minus[1] == pytest.approx(-4.848, abs=1e-2)
    assert x_plus[1] == pytest.approx(0.0476, abs=5e-3)
    assert {e.name: e.passed for e in v.evidence}["window_p1"]


def test_verdict_example3(ex3):
    v = certify(ex3)
    assert v.theorem == "saddle_focus"
    assert v.regime == "case_i" and v.subcase == "c"
    assert v.cycle_count == 2
    assert len(v.connecting_points) == 2
    np.testing.assert_allclose(v.connecting_points[0], [0.0, 1.0, 2.0],
                               atol=1e-12)
    np.testing.assert_allclose(v.connecting_points[1], [0.0, -1.0, 2.0],
                               atol=1e-12)


def test_negative_control_q3_outside(ex1):
    v = certify(replace(ex1, q3=3.0))
    assert v.cycle_count == 0
    failed = [e for e in v.evidence if not e.passed]
    assert failed and failed[0].name == "q3_subcase"
    assert "coverage" in failed[0].note


def test_negative_control_cone_failure(ex1):
    # q3 = 0.9 moves into the interior subcase where the cone condition
    # (100 vs 11) fails
    v = certify(replace(ex1, q3=0.9))
    assert v.cycle_count == 0
    failed = {e.name for e in v.evidence if not e.passed}
    assert failed == {"cone"}


def test_negative_control_window_failure(ex3):
    v = certify(replace(ex3, q2=10.0))
    assert v.cycle_count == 0
    failed = {e.name for e in v.evidence if not e.passed}
    assert "window_p_plus" in failed


def test_neither_spectrum_none_verdict(ex1):
    p = replace(ex1, b11=2.0, b12=0.0, b21=0.0, b22=-1.0)  # saddle block
    v = certify(p)
    assert v.theorem == "none" and v.cycle_count == 0


def test_verdict_determinism(ex2):
    assert certify(ex2) == certify(ex2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_records_are_immutable(n):
    # example 1 takes the node route, 2 and 3 the focus route (SpiralWindow)
    p = example_params(n)
    report = validate_hypotheses(p)
    verdict = certify(p)
    assert verdict.theorem == ("real_saddle" if n == 1 else "saddle_focus")
    sys = PlanarLinearSystem.from_entries(p.b11, p.b12, p.b21, p.b22)
    fields = [(report, "h3_holds"), (report.h3_details[0], "passed"),
              (verdict, "cycle_count"), (verdict.evidence[0], "passed"),
              (analyze_vdp_line(p.rho, p.omega, p.d), "regime"),
              (sys, "a11")]
    if n != 1:
        fields.append((focus_stay_window(sys, l2_offset(p)), "y_out"))
    for record, field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) == before
    assert repr(verdict).startswith("CycleVerdict(theorem=")


def test_certify_classifies_the_block_once(ex1, ex2, ex3, monkeypatch):
    # one spectrum per parameter set: the theorem choice, the L2 check, the
    # flows and the horizons of certify and assemble_cycle all read the
    # record that PlanarLinearSystem.from_entries built once
    import sys

    calls = []
    build = PlanarLinearSystem.from_entries

    def counted(cls, *entries):
        calls.append(entries)
        return build(*entries)

    # no module keeps the builder under a name of its own, so patching it
    # on the class patches it wherever it is looked up
    modules = [m for name, m in sys.modules.items()
               if name.startswith("hetcycle")]
    assert not [(m, k) for m in modules for k, v in vars(m).items()
                if callable(v) and v == build]
    monkeypatch.setattr(PlanarLinearSystem, "from_entries",
                        classmethod(counted))
    for p in (ex1, ex2, ex3):
        p = replace(p)  # a new object, whose spectrum is not derived yet
        calls.clear()
        verdict = certify(p)
        assert verdict.certified
        assert assemble_cycle(p, verdict)
        assert calls == [(p.b11, p.b12, p.b21, p.b22)]


#: A focus with rates near 1e-6 (alpha = -9.7e-7, beta = 4.2e-7): its
#: discriminant, -7.1e-13, once fell inside a repeated-root band with an
#: absolute floor of 1e-12, so its spiral window was refined on a flow that
#: does not rotate, and it certified no cycle.
SMALL_RATE_FOCUS = dict(
    rho=1.7225157317705857, omega=2.4480501069987852,
    mu=0.4386184050052798, b11=-9.694814540121535e-07,
    b12=-1.804892770862274e-06, b21=9.852611088887626e-08,
    b22=-9.694814540121535e-07, lam=0.018782423058652915,
    q1=9.888177507590518, q2=-0.05141019404000463, q3=8.57573103943626,
    d=9.888177507590518)


def test_small_rate_focus_certifies_as_its_scaled_twin(ex2):
    p = replace(ex2, **SMALL_RATE_FOCUS)
    twin = _scaled(p, 16.0)  # rates x 256: far from any band
    v, vt = certify(p), certify(twin)
    assert (v.theorem, v.cycle_count) == (vt.theorem, vt.cycle_count) == (
        "saddle_focus", 1)
    # the window's far end (x_plus's ordinate on L2) scales with lengths,
    # bit for bit; a 40-digit evaluation of the first return gives -17678.39
    far = v.window[1][1] - p.q2
    assert vt.window[1][1] - twin.q2 == 16.0 * far
    assert far == pytest.approx(-17678.39096355185, rel=1e-9)
    # over one backward turn of the spiral, the block's own time scale,
    # the closed form meets the Runge-Kutta oracle to 1e-6 relative (the
    # non-rotating flow missed it by more than the orbit's size)
    t = -2.0 * math.pi / p.block.w
    x0 = v.window[0]
    got, want = right_flow(x0, t, p), numeric_flow(x0, t, "right", p)
    assert math.dist(got, want) <= 1e-6 * math.dist(want, p.q)


#: Example 2 with b11 = b22 = -1e-16 and b12 b21 = -16: a focus whose
#: damping per radian g = a / w is -2.5e-17, so its spiral returns to L2
#: about sqrt(4 pi |g|) = 1.8e-8 radians short of a full turn, below the
#: float resolution of w t.
NEAR_UNDAMPED_FOCUS = dict(b11=-1e-16, b22=-1e-16, b12=3.2893968591199364e-08,
                           b21=-486411360.0534272)


def test_near_undamped_focus_window_is_the_references(ex2):
    # the 60-digit window on L2 is [-8.46e-9, 6.0) above q2 and holds p1's
    # ordinate 4.5 above it, so one cycle; a refine to an absolute width in
    # t read the far end 3.5666 from rounding and certified none
    p = replace(ex2, **NEAR_UNDAMPED_FOCUS)
    ref = focus_return(p.b11, p.b12, p.b21, p.b22, l2_offset(p))
    v = certify(p)
    assert (v.theorem, v.subcase, v.cycle_count) == ("saddle_focus", "b", 1)
    x_minus, x_plus = v.window
    assert x_minus[1] - p.q2 == pytest.approx(ref.y_in, rel=1e-15)
    assert x_plus[1] - p.q2 == pytest.approx(ref.y_out, rel=1e-12)
    assert ref.y_in < 0.0 - p.q2 < ref.y_out


def test_subcase_exclusivity_and_points(ex1, ex2, ex3):
    for p, want in ((ex1, "a"), (ex2, "b"), (ex3, "c")):
        v = certify(p)
        assert v.subcase == want
        n = {"a": 1, "b": 1, "c": 2}[want]
        assert len(v.connecting_points) == n


def test_connecting_points_on_plane_and_cylinder(ex1, ex2, ex3):
    for p in (ex1, ex2, ex3):
        v = certify(p)
        for x in v.connecting_points:
            assert abs(x[0] + x[2] - p.d) <= 1e-12 * max(1.0, p.d)
            assert abs(x[0] ** 2 + x[1] ** 2 - p.rho) <= 1e-12 * p.rho


def test_evidence_names_unique(ex1, ex2, ex3):
    for p in (ex1, ex2, ex3):
        v = certify(p)
        names = [e.name for e in v.evidence]
        assert len(names) == len(set(names))


def test_q2_sweep_inside_window(ex1):
    """Sweeping q2 through the window changes nothing while the outward
    half-plane value c.B(p0 - q) = 0.4 - q2 stays nonnegative; past 0.4 that
    condition (which also depends on q2) flips the verdict."""
    sigma_plus = tangency_ordinates(ex1.rho, ex1.omega, ex1.d)[1]
    v2 = certify(ex1).v_star[1]
    for q2 in np.linspace(sigma_plus + 1e-6, 0.4, 9):
        v = certify(replace(ex1, q2=float(q2)))
        assert v.cycle_count == 1
    for q2 in np.linspace(0.41, v2 - 1e-6, 5):
        v = certify(replace(ex1, q2=float(q2)))
        assert v.cycle_count == 0
        failed = {e.name for e in v.evidence if not e.passed}
        assert failed == {"halfplane_p0"}


def test_uncovered_no_backward_return():
    # subcritical tangency regime whose backward orbit escapes before
    # returning: certification must decline, not crash
    d = 1.4606452437107786
    p = SystemParams(rho=1.7211346270362227, omega=8.80842366311969, mu=2.0,
                     b11=-2, b12=1, b21=0, b22=-1, lam=2,
                     q1=d, q2=0.0, q3=0.8, d=d)
    v = certify(p)
    assert v.cycle_count == 0
    assert not {e.name: e for e in v.evidence}["v_star_exists"].passed


def _scaled(p, s):
    """x -> s x, t -> t / s^2 maps the system onto itself with rates scaled
    by s^2 and positions by s; powers of two keep the arithmetic exact."""
    s2 = s * s
    return replace(p, rho=s2 * p.rho, omega=s2 * p.omega, mu=s2 * p.mu,
                   b11=s2 * p.b11, b12=s2 * p.b12, b21=s2 * p.b21,
                   b22=s2 * p.b22, lam=s2 * p.lam, q1=s * p.q1, q2=s * p.q2,
                   q3=s * p.q3, d=s * p.d)


# 2^12 and 2^16 scale the right block by s^2 and L2's abscissa by s, far
# past any absolute floor: the spiral tangency's degeneracy guard is
# relative (|b12| against hypot(b11, b12))
@pytest.mark.parametrize("s", [0.25, 0.5, 2.0, 4.0, 4096.0, 65536.0])
def test_scaling_keeps_verdict(ex1, ex2, ex3, s):
    for p in (ex1, ex2, ex3):
        a, b = certify(p), certify(_scaled(p, s))
        assert (b.theorem, b.regime, b.subcase, b.cycle_count) == (
            a.theorem, a.regime, a.subcase, a.cycle_count)
        assert [(e.name, e.passed) for e in b.evidence] == [
            (e.name, e.passed) for e in a.evidence]
        assert b.connecting_points == tuple(
            tuple(s * v for v in pt) for pt in a.connecting_points)


#: Power of s by which each evidence value scales under ``_scaled(p, s)``:
#: hypothesis margins are ratios, q2 and the rim heights are positions,
#: the half-plane margins are a rate times a position (s^2 s), and the
#: cone sides are a rate squared times a rate (s^4 s^2).
EVIDENCE_POWER = {"h1": 0, "h2": 0, "h3": 0, "v_star_exists": 0,
                  "q2_window": 1, "q3_subcase": 1, "halfplane": 3,
                  "cone": 6}


@pytest.mark.parametrize("s", [2.0, 0.5, 8.0])
def test_scaling_keeps_verdict_on_rim_sets(s):
    # The metamorphic relation on a batch of node and focus sets on and
    # between the rims: the same verdict and flags, and every evidence
    # value scaled exactly by its power of s.  The window evidence is read
    # off return times bracketed to an absolute ROOT_BRACKET, so it agrees
    # only to that bracket.
    for p in rim_sets(7, 600):
        a, b = certify(p), certify(_scaled(p, s))
        assert (b.theorem, b.regime, b.subcase, b.cycle_count) == (
            a.theorem, a.regime, a.subcase, a.cycle_count), p
        assert [(e.name, e.passed) for e in b.evidence] == [
            (e.name, e.passed) for e in a.evidence], p
        for ea, eb in zip(a.evidence, b.evidence):
            kind = ea.name.split("_")[0]
            if kind == "window":
                assert eb.value == pytest.approx(ea.value, rel=1e-9), p
            else:
                k = EVIDENCE_POWER[kind if kind == "halfplane" else ea.name]
                assert eb.value == ea.value * s ** k, (p, ea.name)


#: Entry family -> (the test for its names, the fields outside its
#: footprint).  The footprints: L1 entries (rho, omega, d, q1, q2, tol),
#: L2 entries (B, rho, d, q1, q2, q3, tol), cone (omega, rho, mu, d, q1);
#: q1 is in each only because h3 gates every entry.
FOOTPRINT_FREE = {
    "L1": (lambda name: name in ("q2_window", "v_star_exists"),
           ("mu", "b11", "b12", "b21", "b22", "lam", "q3")),
    "L2": (lambda name: name.startswith(("halfplane_", "window_")),
           ("omega", "mu", "lam")),
    "cone": (lambda name: name == "cone",
             ("b11", "b12", "b21", "b22", "lam", "q2", "q3")),
}


def _perturbed(p, field, rng):
    """``p`` with ``field`` moved: a rate scaled by up to e, any other
    field shifted by up to half its size (or by up to 0.5 from 0)."""
    v = getattr(p, field)
    if field in ("omega", "mu", "lam"):
        return replace(p, **{field: v * math.exp(rng.uniform(-1.0, 1.0))})
    return replace(p, **{field: v + rng.uniform(-0.5, 0.5) * max(1.0, abs(v))})


def test_evidence_keeps_its_footprint():
    # Moving one field outside an entry family's footprint leaves every
    # entry of the family that both verdicts hold bit for bit as it was.
    rng = np.random.default_rng(30)
    compared = dict.fromkeys(FOOTPRINT_FREE, 0)
    with Budget("evidence footprints", 10.0):
        for p in rim_sets(30, 300):
            try:
                base = certify(p)
            except HetcycleError:
                continue
            for family, (member, free) in FOOTPRINT_FREE.items():
                want = {e.name: e for e in base.evidence if member(e.name)}
                for field in free:
                    try:
                        got = certify(_perturbed(p, field, rng))
                    except HetcycleError:
                        continue
                    for e in got.evidence:
                        a = want.get(e.name)
                        if a is None:
                            continue
                        assert (repr(e.value), e.form, repr(e.limits),
                                e.passed, e.note) == (
                            repr(a.value), a.form, repr(a.limits),
                            a.passed, a.note), (p, field, e.name)
                        compared[family] += 1
    assert all(n >= 900 for n in compared.values()), compared


def test_scaling_keeps_the_focus_verdicts():
    for p in rim_sets(16, 120)[1::2]:  # the focus blocks
        try:
            a = certify(p)
        except HetcycleError:
            continue
        b = certify(_scaled(p, 1024.0))
        assert b.cycle_count == a.cycle_count, p
        assert [e.passed for e in b.evidence] == [
            e.passed for e in a.evidence], p


def test_certify_checks_the_hypotheses_once(ex1, ex2, ex3, monkeypatch):
    # certify validates its parameters once and never a second time
    import hetcycle.model as model
    import hetcycle.verifier as verifier

    calls = []
    validate = model.validate_hypotheses

    def counted(params, tol=model.DEFAULT_TOL):
        calls.append(params)
        return validate(params, tol)

    for mod in (model, verifier):
        monkeypatch.setattr(mod, "validate_hypotheses", counted)
    for p in (ex1, ex2, ex3):
        calls.clear()
        assert certify(p).certified
        assert calls == [p]


def test_certify_reuses_a_given_report(ex1, ex2, ex3):
    for p in (ex1, ex2, ex3, replace(ex1, q3=5.0), replace(ex1, b11=2.0)):
        for tol in (0.0, 1e-9, 1e-3):
            assert certify(p, tol, validate_hypotheses(p, tol)) == certify(
                p, tol)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-9])
def test_invalid_tol_is_a_config_error(ex1, tol):
    for check in (validate_hypotheses, certify):
        with pytest.raises(ConfigError):
            check(ex1, tol)


def test_geometry_x_minus_is_the_window_start(ex1, ex2, ex3):
    # one solve of the spiral tangency point on L2: x_minus lifted from
    # window_tangency and the verdict's window agree bit for bit
    assert certify(ex1).window is None
    checked = 0
    for p in [ex2, ex3] + rim_sets(12, 400)[1::2]:  # the focus blocks
        try:
            window = certify(p).window
        except HetcycleError:
            continue
        y = window_tangency(p.b11, p.b12, l2_offset(p))
        assert (p.d - p.q3, y + p.q2, p.q3) == window[0], p
        checked += 1
    assert checked >= 150


# q3 values at fl(hi - band) (or fl(lo + band)) of the rim band: the
# subcase test and the construction of p_plus/p_minus once disagreed there,
# and certify indexed a missing point.
RIM_EDGE_Q3 = [(1, 2.1999999978), (2, 0.7837651728154547),
               (2, 2.783765167247924), (3, 1.000000003)]


@pytest.mark.parametrize("example, q3", RIM_EDGE_Q3)
def test_rim_band_edge_certifies(example, q3):
    from hetcycle.presets import example_params

    p = replace(example_params(example), q3=q3)
    v = certify(p)
    assert v.subcase == "c"
    assert "p_plus" in dict(rim_subcase(p)[3])
    assert len(v.connecting_points) == v.cycle_count


def test_connecting_points_are_the_geometry_points():
    # the verdict's connection points are the rim formulas' p0, p1 and
    # p_plus/p_minus, the same floats bit for bit
    from hetcycle.presets import example_params

    sets = rim_sets(13, 300) + [replace(example_params(n), q3=q3)
                                for n, q3 in RIM_EDGE_Q3]
    certified = 0
    for p in sets:
        try:
            v = certify(p)
        except HetcycleError:
            continue
        d, sr, q3 = p.d, p.sqrt_rho, p.q3
        y = math.sqrt(max(p.rho - (d - q3) * (d - q3), 0.0))
        want = {"a": ((sr, 0.0, d - sr),), "b": ((-sr, 0.0, d + sr),),
                "c": ((d - q3, y, q3), (d - q3, -y, q3))}.get(v.subcase)
        got = v.connecting_points
        assert repr(got) == repr(want if v.certified else ()), p
        certified += v.certified
    assert certified >= 50


# Failed evidence of the node sets of rim_sets(15, 40) with q3 at
# lo -/+ 0.99 band and at hi -/+ 0.99 band of the rim band: (at lo, at
# hi), "-" where the verdict certifies one cycle.  These are the verdicts
# the 3D half-plane test (1,0,1) . B (p - q) at the rim point gave.
RIM_BAND_NODE_FAILS = [
    ("halfplane_p0", "cone"),
    ("q2_window", "q2_window,cone"),
    ("v_star_exists,halfplane_p0", "v_star_exists,cone,halfplane_p1"),
    ("-", "cone"),
    ("-", "-"),
    ("v_star_exists", "v_star_exists,cone"),
    ("halfplane_p0", "cone"),
    ("v_star_exists", "v_star_exists,cone"),
    ("halfplane_p0", "cone"),
    ("-", "cone"),
    ("-", "cone"),
    ("halfplane_p0", "halfplane_p1"),
    ("-", "cone"),
    ("q2_window,halfplane_p0", "q2_window,cone"),
    ("halfplane_p0", "cone"),
    ("-", "cone"),
    ("-", "-"),
    ("v_star_exists", "v_star_exists,cone"),
    ("v_star_exists,halfplane_p0", "v_star_exists,cone"),
    ("v_star_exists", "v_star_exists,cone"),
]


def test_node_route_across_the_rim_band():
    # a rim point of subcase a or b sits up to the rim band off L2; the node
    # criterion reads the L2 point with its ordinate, so every q3 in the
    # band gives a verdict, the same one at both edges
    for base, fails in zip(rim_sets(15, 40)[::2], RIM_BAND_NODE_FAILS):
        lo, hi = base.d - base.sqrt_rho, base.d + base.sqrt_rho
        band = 1e-9 * max(1.0, abs(lo), abs(hi))
        for rim, subcase, want in ((lo, "a", fails[0]), (hi, "b", fails[1])):
            for q3 in (rim - 0.99 * band, rim + 0.99 * band):
                v = certify(replace(base, q3=q3))
                failed = ",".join(e.name for e in v.evidence if not e.passed)
                assert (v.subcase, failed or "-") == (subcase, want), q3
                assert v.cycle_count == (not failed)


@pytest.mark.parametrize("q3, margin", [(0.200000002, 0.400000004),
                                        (0.199999998, 0.399999996)])
def test_example1_across_the_rim_band(ex1, q3, margin):
    v = certify(replace(ex1, q3=q3))
    assert (v.subcase, v.cycle_count) == ("a", 1)
    assert all(e.passed for e in v.evidence)
    # -(k_hat . B y) = b11 (d - q3 - q1) + b12 (0 - q2) = 2 q3
    assert _evidence(v, "halfplane_p0").value == pytest.approx(margin,
                                                               abs=1e-15)


# q3 1.88e-9 below the bottom rim, inside the rim band: subcase a.  Read
# at p0 itself, 1.88e-9 off L2, the window test refused a parameter of
# 0.598 and certified nothing.
RIM_BAND_FOCUS = SystemParams(
    rho=1.494353607382925, omega=1.4018756184246681, mu=3.685042833953684,
    b11=-1.3310750024284959, b12=-7.690045123412686, b21=2.665721813932171,
    b22=-1.3310750024284959, lam=3.41328777317732, q1=1.5528248197509562,
    q2=0.4415590456794085, q3=0.3303872499826238, d=1.5528248197509562)


def test_focus_route_reads_the_l2_point():
    from hetcycle.orbits import assemble_cycle

    v = certify(RIM_BAND_FOCUS)
    assert (v.theorem, v.subcase, v.cycle_count) == ("saddle_focus", "a", 1)
    ev = _evidence(v, "window_p0")
    assert ev.passed and 0.0 <= ev.value < 1.0
    certs = assemble_cycle(RIM_BAND_FOCUS, v)
    assert len(certs) == 1 and certs[0].containment_ok


def test_rim_band_keeps_the_planar_flags():
    # q3 anywhere within 0.99 rim band of a rim reads each connection point
    # at the same L2 ordinate: every halfplane_*/window_* flag is the
    # on-rim set's
    rng = np.random.default_rng(5)
    compared = 0
    for i, base in enumerate(rim_sets(19, 150)):
        if i % 3 == 2:
            continue  # q3 between the rims
        try:
            want = _planar_flags(certify(base))
        except HetcycleError:
            continue
        lo, hi = base.d - base.sqrt_rho, base.d + base.sqrt_rho
        band = 1e-9 * max(1.0, abs(lo), abs(hi))
        for u in rng.uniform(-0.99, 0.99, 4):
            p = replace(base, q3=base.q3 + u * band)
            assert _planar_flags(certify(p)) == want, p
        compared += 1
    assert compared >= 60


def _planar_flags(verdict):
    return [(e.name, e.passed) for e in verdict.evidence
            if e.name.startswith(("halfplane_", "window_"))]


def test_focus_window_is_planar_at_large_q2(ex3):
    # lifted to 3D, both window ordinates round to q2 = 1e100 and the
    # window read as degenerate; in planar coordinates it is the window of
    # ex3, and the points lie far below it
    for q2 in (1e100, 1e300):
        v = certify(replace(ex3, q2=q2))
        assert v.cycle_count == 0
        for label in ("p_plus", "p_minus"):
            ev = _evidence(v, f"window_{label}")
            assert not ev.passed and ev.value < 0.0


def test_node_margin_is_planar_and_finite(ex1):
    # |B y|^2 past the float range leaves the band finite: an outward push
    # of 1e160 fails
    v = certify(replace(ex1, q2=1e160))
    assert _evidence(v, "halfplane_p0").value == -1e160
    assert not _evidence(v, "halfplane_p0").passed
    # no vertical term: lambda (p3 - q3) = -5.6e-17 lambda is rounding of
    # the rim height, not an outward push
    v = certify(replace(ex1, lam=1e160))
    assert v.cycle_count == 1
    assert _evidence(v, "halfplane_p0").value == pytest.approx(0.4,
                                                               abs=1e-15)


def test_node_route_with_zero_tolerance(ex1):
    # (1 / c) * c rounds off 1 for some offsets c = d - q3 - q1 of L2; the
    # node criterion still takes the L2 point as on the line
    for p in [ex1] + rim_sets(17, 60)[::2]:
        c = p.d - p.q3 - p.q1
        v = certify(p, 0.0)
        assert any(e.name.startswith("halfplane_") for e in v.evidence), p
        if (1.0 / c) * c != 1.0:
            break
    else:
        pytest.fail("no offset c with (1 / c) * c != 1")


def test_certify_builds_no_geometry(ex1, ex2, ex3, monkeypatch):
    import hetcycle.verifier as verifier

    def no_geometry(*args, **kwargs):
        raise AssertionError("derive_geometry called on the verdict path")

    monkeypatch.setattr(verifier, "derive_geometry", no_geometry)
    for p in [ex1, ex2, ex3] + rim_sets(14, 40):
        try:
            certify(p)
        except HetcycleError:
            pass


# Each boundary of the examples' verdicts, pinned at the two adjacent
# floats between which it flips: (example, key, below, above, verdict
# below, verdict above), a verdict being (cycle_count, subcase, failed
# evidence).  Example 1's q2 window opens at fl(sigma_plus -
# tangency_band), the upper float of the first pair; its half-plane test
# closes at q2 = 0.4, where the exact margin is 0.  Example 3's q3 crosses the rim bands
# [rim - 3e-9, rim + 3e-9] about the rims 1 and 3 (one float of each
# pair is fl(rim -/+ 3e-9)), and its cone is strict: fl(sqrt(3)) fails.
VERDICT_FLIPS = [
    (1, "q2", -0.05313885674614901, -0.053138856746149,
     (0, "a", "q2_window"), (1, "a", "")),
    (1, "q2", 0.4, 0.4000000000000001, (1, "a", ""), (0, "a", "halfplane_p0")),
    (3, "q3", 0.999999997, 0.9999999970000001,
     (0, "none", "q3_subcase"), (1, "a", "")),
    (3, "q3", 1.0000000029999998, 1.000000003, (1, "a", ""), (2, "c", "")),
    (3, "q3", 2.9999999969999998, 2.999999997, (2, "c", ""), (1, "b", "")),
    (3, "q3", 3.000000003, 3.0000000030000002,
     (1, "b", ""), (0, "none", "q3_subcase")),
    (3, "mu", 1.7320508075688772, 1.7320508075688774,
     (0, "c", "cone"), (2, "c", "")),
]


@pytest.mark.parametrize("example, key, below, above, want_below, want_above",
                         VERDICT_FLIPS)
def test_verdict_flips_between_adjacent_floats(example, key, below, above,
                                               want_below, want_above):
    assert math.nextafter(below, math.inf) == above
    base = example_params(example)
    for x, want in ((below, want_below), (above, want_above)):
        v = certify(replace(base, **{key: x}))
        failed = ",".join(e.name for e in v.evidence if not e.passed)
        assert (v.cycle_count, v.subcase, failed) == want, (key, x)


def _rim_edge_values(lo, hi, band):
    """fl(lo -/+ band) and fl(hi -/+ band), each with the two floats on
    either side of it."""
    out = []
    for x in (lo - band, lo + band, hi - band, hi + band):
        x = math.nextafter(math.nextafter(x, -math.inf), -math.inf)
        for _ in range(5):
            out.append(x)
            x = math.nextafter(x, math.inf)
    return out


def test_rim_band_edges_one_subcase_decision():
    from hetcycle.errors import HetcycleError

    rng = np.random.default_rng(11)
    subcases = set()
    for i in range(60):
        rho = rng.uniform(0.3, 2.0)
        d = math.sqrt(rho) * rng.uniform(1.02, 1.6)
        if i % 2 == 0:  # node block
            b11, b12, b21, b22 = (-rng.uniform(0.2, 4.0),
                                  rng.uniform(-6.0, 6.0), 0.0,
                                  -rng.uniform(0.2, 4.0))
        else:  # focus block alpha +/- i beta
            alpha, beta = -rng.uniform(0.2, 4.0), rng.uniform(0.5, 8.0)
            b11, b12, b21, b22 = alpha, beta, -beta, alpha
        base = SystemParams(
            rho=rho, omega=math.exp(rng.uniform(math.log(0.5), math.log(8.0))),
            mu=math.exp(rng.uniform(math.log(0.5), math.log(4.0))),
            b11=b11, b12=b12, b21=b21, b22=b22, lam=rng.uniform(0.5, 4.0),
            q1=d, q2=rng.uniform(-5.0, 5.0), q3=d, d=d)
        lo, hi = d - base.sqrt_rho, d + base.sqrt_rho
        band = 1e-9 * max(1.0, abs(lo), abs(hi))
        for q3 in _rim_edge_values(lo, hi, band):
            p = replace(base, q3=q3)
            try:
                v = certify(p)
            except HetcycleError:
                continue
            subcases.add(v.subcase)
            assert (v.subcase == "c") == (
                "p_plus" in dict(rim_subcase(p)[3])), p
    assert subcases == {"a", "b", "c", "none"}


def _wide_verdicts():
    """(params, verdict) of each set of the wide draw that certify
    answers."""
    for values in wide_sets(2028, 1000):
        p = params_from_dict(values)
        try:
            yield p, certify(p)
        except HetcycleError:
            continue


def _entry(verdict, name):
    return next((e for e in verdict.evidence if e.name == name), None)


def test_passing_cone_passes_at_larger_mu():
    # omega^2 rho < mu^2 (d^2 - rho) only grows easier with mu: a passing
    # cone entry still passes one ulp up and at every larger mu tried
    checked = 0
    with Budget("cone order in mu", 10.0):
        for p, verdict in _wide_verdicts():
            cone = _entry(verdict, "cone")
            if cone is None or not cone.passed:
                continue
            for mu in (math.nextafter(p.mu, math.inf), 1.5 * p.mu,
                       10.0 * p.mu, 1e3 * p.mu):
                assert _entry(certify(replace(p, mu=mu)), "cone").passed, \
                    (p, mu)
            checked += 1
    assert checked >= 200, checked


def test_q2_window_passes_form_an_interval_or_its_complement():
    # q2 swept over a grid three window widths wide and each end of the
    # window and of its tol band, and one ulp either side: the passes are
    # one interval on branch x2star_above, the complement of one on
    # x2star_below
    shapes = {"x2star_above": r"0*1+0*", "x2star_below": r"1+0+1+"}
    branches = dict.fromkeys(shapes, 0)
    with Budget("q2 window order", 10.0):
        for p, verdict in _wide_verdicts():
            if _entry(verdict, "q2_window") is None:
                continue
            a = analyze_vdp_line(p.rho, p.omega, p.d)
            vp, xs = a.varrho_plus, a.x_star[1]
            band = tangency_band(vp, a.varrho_minus)
            lo, hi = min(vp, xs), max(vp, xs)
            q2s = set(np.linspace(lo - (hi - lo), hi + (hi - lo), 31).tolist())
            for end in (vp, xs, vp - band, xs + band):
                q2s.update((math.nextafter(end, -math.inf), end,
                            math.nextafter(end, math.inf)))
            passes = "".join(
                "1" if _entry(certify(replace(p, q2=q2)), "q2_window").passed
                else "0" for q2 in sorted(q2s))
            assert re.fullmatch(shapes[a.branch], passes), (p, passes)
            branches[a.branch] += 1
    above, below = branches["x2star_above"], branches["x2star_below"]
    assert above >= 200 and below >= 10, branches
