"""Acceptance criteria.

Each test pins one acceptance criterion at its stated tolerance and time
budget and prints a single PASS line on success (FAIL surfaces as the
pytest failure itself).  Run with ``pytest tests/test_acceptance.py -s``
to see the lines.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    Budget,
    brute_affine_stays_above,
    brute_linear_stays,
    brute_vdp_stays,
    random_real_stable_2x2,
    semigroup_max_rel_err,
)

from hetcycle.model import l2_offset, tangency_ordinates
from hetcycle.hybrid import crosscheck_closed_forms
from hetcycle.orbits import assemble_cycle
from hetcycle.planar import (
    PlanarLinearSystem,
    analyze_vdp_line,
    focus_stay_check,
    focus_stay_window,
    node_stay_check,
    vdp_stay_check,
)
from hetcycle.verifier import certify


def test_criterion_1_example1_reproduction(ex1):
    with Budget("1 example-1 reproduction", 1.0):
        verdict = certify(ex1)
        assert verdict.cycle_count == 1
        sigma_plus = tangency_ordinates(ex1.rho, ex1.omega, ex1.d)[1]
        assert sigma_plus == pytest.approx(-0.05314, abs=1e-4)
        assert verdict.v_star[1] == pytest.approx(2.363, abs=5e-3)
        hp = {e.name: e for e in verdict.evidence}["halfplane_p0"]
        assert hp.value == pytest.approx(0.4, abs=1e-12)


def _l2_window(params):
    """The spiral stay window of the right block on L2."""
    sys = PlanarLinearSystem.from_entries(params.b11, params.b12,
                                          params.b21, params.b22)
    return focus_stay_window(sys, l2_offset(params))


def _l2_ordinate(params, p):
    """The ordinate of p on L2, in planar coordinates."""
    return p[1] - params.q2


def test_criterion_2_example2_reproduction(ex2):
    with Budget("2 example-2 reproduction", 1.0):
        verdict = certify(ex2)
        assert verdict.cycle_count == 1
        _, sigma_plus, sigma_minus = tangency_ordinates(ex2.rho, ex2.omega,
                                                        ex2.d)
        assert sigma_plus == pytest.approx(-0.9045, abs=1e-3)
        assert sigma_minus == pytest.approx(-2.4121, abs=1e-3)
        assert verdict.v_star[1] == pytest.approx(-4.4162, abs=5e-3)
        x_minus, x_plus = verdict.window
        assert x_minus[1] == pytest.approx(-4.848, abs=1e-2)
        assert x_plus[1] == pytest.approx(0.0476, abs=5e-3)
        # p1 = (-sqrt(rho), 0, d + sqrt(rho)), read at its L2 point
        p1 = (-math.sqrt(ex2.rho), 0.0, ex2.d + math.sqrt(ex2.rho))
        assert focus_stay_check(_l2_window(ex2), _l2_ordinate(ex2, p1),
                                tol=1e-9)[0]


def test_criterion_3_example3_reproduction(ex3):
    with Budget("3 example-3 reproduction", 1.0):
        verdict = certify(ex3)
        assert verdict.cycle_count == 2
        x_minus, x_plus = verdict.window
        np.testing.assert_allclose(x_minus, [0.0, -1.1667, 2.0], atol=1e-3)
        np.testing.assert_allclose(x_plus, [0.0, 27.6586, 2.0], atol=5e-2)
        w = _l2_window(ex3)
        for p in ((0.0, 1.0, 2.0), (0.0, -1.0, 2.0)):
            assert focus_stay_check(w, _l2_ordinate(ex3, p), tol=1e-9)[0]


def test_criterion_4_closed_form_crosscheck(ex1, ex2, ex3):
    with Budget("4 closed-form vs oracle crosscheck", 10.0):
        for params, seed in ((ex1, 101), (ex2, 102), (ex3, 103)):
            rep = crosscheck_closed_forms(params, 100, seed=seed)
            assert rep.trials == 100
            assert rep.max_error <= 1e-6, rep.worst_trial


def test_criterion_5_semigroup(ex1, ex3):
    with Budget("5 semigroup property", 5.0):
        assert semigroup_max_rel_err(ex1, "left", 1000, seed=201) <= 1e-9
        assert semigroup_max_rel_err(ex3, "right", 1000, seed=202) <= 1e-9


def test_criterion_6_node_stay_extensional():
    with Budget("6 node stay-criterion extensional check", 30.0):
        rng = np.random.default_rng(301)
        checked = 0
        while checked < 200:
            m, slow = random_real_stable_2x2(rng)
            th = rng.uniform(0.0, 2.0 * math.pi)
            khat = np.array([math.cos(th), math.sin(th)])
            u = np.array([-khat[1], khat[0]])
            drift = float(khat @ (m @ u))
            if abs(drift) < 0.5:
                continue  # keep the tangency geometry well-conditioned
            base = khat  # on the line {khat . x = 1}
            tau_star = -float(khat @ (m @ base)) / drift
            # sample away from the tangency locus by at least 1e-3
            tau = tau_star + rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 2.0)
            x0 = base + tau * u
            # in the frame y = R x (rows khat, u) the line is {y1 = 1} and
            # x0 is (1, tau)
            r = np.array([khat, u])
            sys = PlanarLinearSystem.from_entries(
                *map(float, (r @ m @ r.T).ravel()))
            predicted, _ = node_stay_check(sys, 1.0, float(tau))
            brute = brute_linear_stays(
                (m[0, 0], m[0, 1], m[1, 0], m[1, 1]), khat, tuple(x0), slow)
            assert predicted == brute, (m, khat, tau - tau_star)
            checked += 1


def test_criterion_7_stay_set_and_window_extensional(ex1, ex2, ex3):
    with Budget("7 stay-set / spiral-window extensional checks", 60.0):
        margin = 1e-3
        # vertical-line stay sets on L1 for each example's oscillator, by
        # the check certify runs on q2
        for params, lo, hi in ((ex1, -2.0, 4.0), (ex2, -7.0, 2.0),
                               (ex3, -4.0, 4.0)):
            a = analyze_vdp_line(params.rho, params.omega, params.d)
            boundaries = []
            if a.regime == "subcritical":
                boundaries = [a.varrho_plus, a.varrho_minus, a.x_star[1]]
            for y in np.linspace(lo, hi, 50):
                if any(abs(y - b) < margin for b in boundaries):
                    continue
                predicted = vdp_stay_check(a, float(y))
                brute = brute_vdp_stays(params.rho, params.omega, params.d,
                                        float(y))
                assert predicted == brute, (params.d, float(y))

        # spiral stay windows on L2 for the focus examples
        for params in (ex2, ex3):
            c0 = params.d - params.q3 - params.q1
            sys = PlanarLinearSystem.from_entries(params.b11, params.b12,
                                                  params.b21, params.b22)
            w = focus_stay_window(sys, c0)
            y_lo = w.y_in + params.q2
            y_hi = w.y_out + params.q2
            span = y_hi - y_lo
            grid = np.linspace(y_lo - 0.15 * span - 0.5,
                               y_hi + 0.15 * span + 0.5, 50)
            line_x1 = params.d - params.q3
            for y in grid:
                if abs(y - y_lo) < margin or abs(y - y_hi) < margin:
                    continue
                predicted = y_lo <= y < y_hi
                brute = brute_affine_stays_above(
                    (params.b11, params.b12, params.b21, params.b22),
                    (params.q1, params.q2), line_x1,
                    (line_x1, float(y)), abs(sys.a))
                assert predicted == brute, (params.d, float(y))


def test_criterion_8_orbit_certificates(ex1, ex2, ex3):
    with Budget("8 orbit certificates", 5.0):
        for n, params in ((1, ex1), (2, ex2), (3, ex3)):
            verdict = certify(params)
            certs = assemble_cycle(params, verdict)
            assert len(certs) == verdict.cycle_count
            if n == 3:
                assert len(certs) == 2
            for cert in certs:
                assert cert.containment_ok
                for seg in cert.orbit_segments:
                    if seg.requirement.endswith("strict"):
                        assert seg.containment_margin > 0.0
                    else:
                        assert seg.containment_margin >= -1e-9
                for name, value in cert.endpoint_residuals.items():
                    assert value <= 1e-3, (n, name, value)


def test_criterion_9_negative_controls(ex1, ex3):
    with Budget("9 negative controls", 1.0):
        v = certify(replace(ex1, q3=3.0))
        assert v.cycle_count == 0
        failed = [e for e in v.evidence if not e.passed]
        assert [e.name for e in failed] == ["q3_subcase"]
        assert "coverage" in failed[0].note

        v = certify(replace(ex3, q2=10.0))
        assert v.cycle_count == 0
        failed = {e.name for e in v.evidence if not e.passed}
        assert failed == {"window_p_plus", "window_p_minus"}
