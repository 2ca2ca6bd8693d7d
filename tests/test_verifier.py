import math
from dataclasses import replace

import numpy as np
import pytest

from hetcycle.errors import UngenericBranch
from hetcycle.flows import left_flow
from hetcycle.model import SystemParams, derive_geometry
from hetcycle.verifier import (
    Evidence,
    certify,
    certify_real_saddle,
    certify_saddle_focus,
    check_q2_window,
    compute_v_star,
    cone_condition,
    regime_classify,
)


def test_regime_classification(ex1, ex3):
    assert regime_classify(ex1) == "case_ii"   # d^2 - rho = 0.44, small
    assert regime_classify(ex3) == "case_i"    # d^2 - rho = 3 dominates
    # exact boundary counts as case_i (closed inequality)
    p = SystemParams(rho=1, omega=math.sqrt(8.0), mu=1, b11=-2, b12=1,
                     b21=0, b22=-1, lam=1, q1=math.sqrt(2), q2=0, q3=0.5,
                     d=math.sqrt(2))
    assert regime_classify(p) == "case_i"


def test_v_star_example1(ex1):
    v = compute_v_star(ex1)
    assert v[1] == pytest.approx(2.363, abs=5e-3)
    assert v[0] == ex1.d and v[2] == 0.0


def test_v_star_example2(ex2):
    v = compute_v_star(ex2)
    assert v[1] == pytest.approx(-4.4162, abs=5e-3)


def test_v_star_closed_form_residual(ex1):
    # re-evaluating the closed-form flow at the bracketed root lands on L1
    from hetcycle.planar import analyze_vdp_line

    a = analyze_vdp_line(ex1.rho, ex1.omega, ex1.d)
    x = left_flow((ex1.d, a.varrho_plus, 0.0), a.t_star, ex1)
    assert abs(x[0] - ex1.d) <= 1e-9


def test_q2_window_branch1_pass(ex1):
    ev = check_q2_window(ex1, 2.363)
    assert ev.passed and "above" in ev.note


def test_q2_window_branch1_closed_endpoint(ex1):
    geo = derive_geometry(ex1)
    p = replace(ex1, q2=geo.sigma_plus)  # exactly at the closed endpoint
    ev = check_q2_window(p, 2.363)
    assert ev.passed


def test_q2_window_branch2_pass(ex2):
    # a lifted 3-vector works too
    ev = check_q2_window(ex2, (ex2.d, -4.4162, 0.0))
    assert ev.passed and "below" in ev.note


def test_q2_window_ungeneric_raises(ex1):
    geo = derive_geometry(ex1)
    mid = 0.5 * (geo.sigma_plus + geo.sigma_minus)
    with pytest.raises(UngenericBranch):
        check_q2_window(ex1, mid)


def test_cone_condition_examples(ex2, ex3):
    ev2 = cone_condition(ex2)
    assert ev2.passed and ev2.value == pytest.approx(35.0)
    ev3 = cone_condition(ex3)
    assert ev3.passed and ev3.value == pytest.approx(9.0)
    tiny_mu = replace(ex3, mu=1e-3)
    assert not cone_condition(tiny_mu).passed


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


def test_wrong_route_yields_none_verdict(ex2):
    v = certify_real_saddle(ex2)  # focus-type params on the node route
    assert v.theorem == "none" and v.cycle_count == 0
    h1 = {e.name: e for e in v.evidence}["h1"]
    assert not h1.passed and "saddle-focus" in h1.note


def test_neither_spectrum_none_verdict(ex1):
    p = replace(ex1, b11=2.0, b12=0.0, b21=0.0, b22=-1.0)  # saddle block
    v = certify(p)
    assert v.theorem == "none" and v.cycle_count == 0


def test_verdict_determinism(ex2):
    assert certify(ex2) == certify(ex2)


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
    geo = derive_geometry(ex1)
    v2 = float(compute_v_star(ex1)[1])
    for q2 in np.linspace(geo.sigma_plus + 1e-6, 0.4, 9):
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


@pytest.mark.parametrize("s", [0.25, 0.5, 2.0, 4.0])
def test_scaling_keeps_verdict(ex1, ex2, ex3, s):
    # x -> s x, t -> t / s^2 maps the system onto itself with rates scaled
    # by s^2 and positions by s; powers of two keep the arithmetic exact
    s2 = s * s
    for p in (ex1, ex2, ex3):
        scaled = replace(p, rho=s2 * p.rho, omega=s2 * p.omega,
                         mu=s2 * p.mu, b11=s2 * p.b11, b12=s2 * p.b12,
                         b21=s2 * p.b21, b22=s2 * p.b22, lam=s2 * p.lam,
                         q1=s * p.q1, q2=s * p.q2, q3=s * p.q3, d=s * p.d)
        a, b = certify(p), certify(scaled)
        assert (b.theorem, b.regime, b.subcase, b.cycle_count) == (
            a.theorem, a.regime, a.subcase, a.cycle_count)
        assert [(e.name, e.passed) for e in b.evidence] == [
            (e.name, e.passed) for e in a.evidence]
        assert b.connecting_points == tuple(
            tuple(s * v for v in pt) for pt in a.connecting_points)
