import math
from collections import Counter
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from helpers import (
    Budget,
    brute_linear_stays,
    brute_vdp_stays,
    random_real_stable_2x2,
)
from rigorous import first_return, focus_return

from hetcycle.errors import (
    DegenerateInterval,
    InvalidLine,
    RootSearchError,
    UngenericBranch,
    WrongSpectralType,
)
from hetcycle.flows import left_orbit, radial_law
from hetcycle.model import l2_offset, tangency_ordinates
from hetcycle.planar import (
    ROOT_BRACKET,
    PlanarLinearSystem,
    SpiralWindow,
    _refine,
    analyze_vdp_line,
    focus_stay_check,
    focus_stay_window,
    node_stay_check,
    return_branch,
    tangency_band,
    vdp_stay_check,
)


def test_analysis_example1_restriction():
    a = analyze_vdp_line(1.0, 10.0, 1.2)
    assert a.regime == "subcritical"
    assert a.varrho_plus == pytest.approx(-0.05314, abs=1e-4)
    assert a.x_star[1] == pytest.approx(2.363, abs=5e-3)
    assert a.branch == "x2star_above"


def test_analysis_example2_restriction():
    a = analyze_vdp_line(1.0, math.sqrt(35.0), math.sqrt(35.0 / 11.0))
    assert a.regime == "subcritical"
    assert a.varrho_plus == pytest.approx(-0.9045, abs=1e-3)
    assert a.varrho_minus == pytest.approx(-2.4121, abs=1e-3)
    assert a.x_star[1] == pytest.approx(-4.4162, abs=5e-3)
    assert a.branch == "x2star_below"


def test_analysis_supercritical():
    a = analyze_vdp_line(1.0, 1.0, 2.0)  # k^2 - rho = 3 >= 1/16
    assert a.regime == "supercritical"
    assert a.varrho_plus is None and a.x_star is None


def test_analysis_rejects_line_through_cycle():
    with pytest.raises(InvalidLine):
        analyze_vdp_line(1.0, 10.0, 0.9)


def test_tangency_root_identities():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 50:
        rho = rng.uniform(0.2, 2.0)
        k = math.sqrt(rho) * rng.uniform(1.02, 1.6)
        omega = rng.uniform(1.0, 15.0)
        if omega * omega <= 4 * k * k * (k * k - rho):
            continue
        a = analyze_vdp_line(rho, omega, k)
        vp, vm = a.varrho_plus, a.varrho_minus
        assert k * vp * vm == pytest.approx(k * (k * k - rho), rel=1e-10)
        assert k * (vp + vm) == pytest.approx(-omega, rel=1e-10)
        # the planar field is parallel to the line at both tangency points
        for v in (vp, vm):
            x1dot = rho * k - omega * v - k * (k * k + v * v)
            assert x1dot == pytest.approx(0.0, abs=1e-9)
        checked += 1


def test_x_star_residual_and_exclusion():
    for rho, omega, k in ((1.0, 10.0, 1.2),
                          (1.0, math.sqrt(35.0), math.sqrt(35.0 / 11.0))):
        a = analyze_vdp_line(rho, omega, k)
        x = left_orbit((k, a.varrho_plus, 0.0), rho, omega, 0.0)(a.t_star)
        assert abs(x[0] - k) <= 1e-9
        assert not (a.varrho_minus < a.x_star[1] < a.varrho_plus)


def test_stay_set_example1_contains_q2():
    a = analyze_vdp_line(1.0, 10.0, 1.2, 0.0)
    assert vdp_stay_check(a, 0.0)  # sigma_plus < 0 < x2*


def test_stay_set_endpoint_bookkeeping_case_above():
    # both ends of the interval [u1, x2*] are closed, and at tol 0 the
    # next float outward is out
    a = analyze_vdp_line(1.0, 10.0, 1.2, 0.0)
    u1 = a.varrho_plus
    xs = a.x_star[1]
    assert vdp_stay_check(a, u1) and vdp_stay_check(a, xs)
    assert not vdp_stay_check(a, math.nextafter(u1, -math.inf))
    assert not vdp_stay_check(a, math.nextafter(xs, math.inf))


def test_stay_set_endpoint_bookkeeping_case_below():
    a = analyze_vdp_line(1.0, math.sqrt(35.0), math.sqrt(35.0 / 11.0), 0.0)
    u1 = a.varrho_plus
    xs = a.x_star[1]
    assert vdp_stay_check(a, u1) and vdp_stay_check(a, xs)
    assert not vdp_stay_check(a, math.nextafter(u1, -math.inf))
    assert not vdp_stay_check(a, math.nextafter(xs, math.inf))
    # interior of the excluded wedge
    assert not vdp_stay_check(a, 0.5 * (u1 + xs))


def test_stay_set_supercritical():
    a = analyze_vdp_line(1.0, 1.0, 2.0, 0.0)
    assert vdp_stay_check(a, -0.25)

    a1 = analyze_vdp_line(1.0, 10.0, 1.2)
    assert vdp_stay_check(a1, 0.0)


def test_stay_set_boundary_discriminant():
    # omega^2 = 4 k^2 (k^2 - rho) exactly: one tangency ordinate
    # -omega / (2k) = -1, touched but never crossed, so the whole line stays
    for tol in (0.0, 1e-9):
        a = analyze_vdp_line(3.0, 4.0, 2.0, tol)
        assert a.regime == "supercritical" and a.evaluations == 0
        assert vdp_stay_check(a, -1.0)


def test_ungeneric_branch_raises_on_stay_set():
    a = analyze_vdp_line(1.0, 10.0, 1.2)
    for branch, words in (("ungeneric", "within tolerance"),
                          ("no_backward_return", "escapes")):
        forced = a._replace(branch=branch)
        with pytest.raises(UngenericBranch, match=words):
            vdp_stay_check(forced, 0.0)


def test_node_stay_check_example1_mapping(ex1):
    # planar reduction in the stable plane of q: line offset d - q3 - q1
    c0 = ex1.d - ex1.q3 - ex1.q1
    sys = PlanarLinearSystem.from_entries(ex1.b11, ex1.b12, ex1.b21, ex1.b22)
    # p0's ordinate on L2
    stays, margin = node_stay_check(sys, c0, 0.0 - ex1.q2)
    assert stays and margin == pytest.approx(0.4, abs=1e-12)


def test_node_stay_check_boundary_counts_as_staying():
    sys = PlanarLinearSystem.from_entries(-1.0, 0.0, 0.0, -2.0)
    # at (1, 0) on {x1 = 1} of the swapped system diag(-2, -1) (the twin
    # of (0, 1) on {x2 = 1} of this one): field (-2, 0), margin 2
    swapped = PlanarLinearSystem.from_entries(-2.0, 0.0, 0.0, -1.0)
    assert node_stay_check(swapped, 1.0, 0.0) == (True, 2.0)
    # at (1, 0) on {x1 = 1}: field (-1, 0), margin 1
    assert node_stay_check(sys, 1.0, 0.0) == (True, 1.0)
    # the margin is the field's inward component, not scaled by 1 / c
    assert node_stay_check(sys, 2.0, 0.0) == (True, 2.0)
    # left of the equilibrium, inward is +x1: field (1, 0), margin 1
    assert node_stay_check(sys, -1.0, 0.0) == (True, 1.0)
    # tangential point: (A y)_1 = 0 exactly, margin 0, stays
    shear = PlanarLinearSystem.from_entries(-1.0, 1.0, 0.0, -2.0)
    assert node_stay_check(shear, 1.0, 1.0) == (True, 0.0)
    # no band: an outward push of 1e-10 leaves, whatever its size
    y2 = 1.0 + 1e-10
    stays, margin = node_stay_check(shear, 1.0, y2)
    assert not stays and -1e-9 < margin < 0.0
    # coordinates given as exact sums: at y2 = 1 + 2^-60 the float margin
    # reads 0, the exact one -2^-60, which leaves; with c = 1 + 2^-60 too
    # the point is tangential again, margin 0, and stays
    tiny = 2.0 ** -60
    assert node_stay_check(shear, 1.0, (1.0, tiny)) == (False, -tiny)
    assert node_stay_check(shear, (1.0, tiny), (1.0, tiny)) == (True, 0.0)


def test_node_stay_check_takes_a_point_on_the_line_up_to_rounding():
    # the line {x1 = 49} as the normal form {(1/49) x1 = 1} held (49, 3)
    # only up to rounding, as (1/49) * 49 rounds to 1 - 2^-53; given by
    # its abscissa, the line holds it exactly
    sys = PlanarLinearSystem.from_entries(-2.0, 1.0, 0.0, -1.0)
    assert (1.0 / 49.0) * 49.0 != 1.0
    assert node_stay_check(sys, 49.0, 3.0) == (True, 95.0)


def test_node_stay_check_errors():
    focus = PlanarLinearSystem.from_entries(-0.5, 4.0, -4.0, -0.5)
    with pytest.raises(WrongSpectralType):
        node_stay_check(focus, 1.0, 0.0)
    # a line through the equilibrium has no side to stay on
    node = PlanarLinearSystem.from_entries(-1.0, 0.0, 0.0, -2.0)
    with pytest.raises(InvalidLine):
        node_stay_check(node, 0.0, 2.0)
    # also an offset whose exact sum is 0 where its float sum is not
    with pytest.raises(InvalidLine):
        node_stay_check(node, (1.0, 2.0 ** -60, -1.0, -(2.0 ** -60)), 2.0)


def test_node_stay_check_vs_brute_force_sample():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 12:
        m, slow = random_real_stable_2x2(rng)
        th = rng.uniform(0, 2 * math.pi)
        khat = np.array([math.cos(th), math.sin(th)])
        u = np.array([-khat[1], khat[0]])
        if abs(khat @ (m @ u)) < 0.5:
            continue
        base = khat  # |khat| = 1 so khat . base = 1
        tau_star = -(khat @ (m @ base)) / (khat @ (m @ u))
        tau = tau_star + rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 2.0)
        x0 = base + tau * u
        # in the frame y = R x (rows khat, u) the line {khat . x = 1} is
        # {y1 = 1} and x0 is (1, tau)
        r = np.array([khat, u])
        sys = PlanarLinearSystem.from_entries(*map(float, (r @ m @ r.T).ravel()))
        predicted, margin = node_stay_check(sys, 1.0, float(tau))
        brute = brute_linear_stays((m[0, 0], m[0, 1], m[1, 0], m[1, 1]),
                                   khat, tuple(x0), slow)
        assert predicted == brute == (margin > 0.0)
        checked += 1


def test_focus_window_example2(ex2):
    c0 = ex2.d - ex2.q3 - ex2.q1
    sys = PlanarLinearSystem.from_entries(ex2.b11, ex2.b12, ex2.b21, ex2.b22)
    w = focus_stay_window(sys, c0)
    assert w.y_in + ex2.q2 == pytest.approx(-4.848, abs=1e-2)
    assert w.y_out + ex2.q2 == pytest.approx(0.0476, abs=5e-3)
    assert w.c == c0


def test_focus_window_example3(ex3):
    c0 = ex3.d - ex3.q3 - ex3.q1
    sys = PlanarLinearSystem.from_entries(ex3.b11, ex3.b12, ex3.b21, ex3.b22)
    w = focus_stay_window(sys, c0)
    assert w.y_in + ex3.q2 == pytest.approx(-1.1667, abs=1e-3)
    assert w.y_out + ex3.q2 == pytest.approx(27.6586, abs=5e-2)
    assert w.y_in != w.y_out
    assert w.t_star_out < 0.0


def _ex3_window(ex3):
    c0 = ex3.d - ex3.q3 - ex3.q1
    sys = PlanarLinearSystem.from_entries(ex3.b11, ex3.b12, ex3.b21, ex3.b22)
    return focus_stay_window(sys, c0)


def test_focus_window_closed_start_membership(ex3):
    w = _ex3_window(ex3)
    # tangency end included, return end excluded
    assert focus_stay_check(w, w.y_in, tol=1e-9) == (True, 0.0)
    assert focus_stay_check(w, w.y_out, tol=1e-9) == (False, 1.0)


def test_focus_check_ends_and_bands(ex3):
    # lam is the parameter along [y_in, y_out); the tangency end takes in
    # the band tol / len below 0, the return end gives up the band below 1
    w = _ex3_window(ex3)
    a, b = w.y_in, w.y_out
    length = abs(b - a)
    band = 1e-9 / length
    for lam, stays in ((0.5, True), (-0.5 * band, True), (-2.0 * band, False),
                       (1.0 - 2.0 * band, True), (1.0 - 0.5 * band, False),
                       (1.5, False), (-0.5, False)):
        got, got_lam = focus_stay_check(w, a + lam * (b - a), tol=1e-9)
        assert got == stays, lam
        assert got_lam == pytest.approx(lam, abs=1e-14)


def test_focus_check_short_window_is_degenerate(ex3):
    # ends at most tol apart raise before lam is formed, also at tol 0 for
    # ends that coincide
    same = SpiralWindow(1.0, 1e-200, 1e-200, -1.0)
    with pytest.raises(DegenerateInterval):
        focus_stay_check(same, 0.0, tol=0.0)
    # a genuinely short window: L2 1e-12 from q, so the spiral's window on
    # it is about 1e-11 long
    p = replace(ex3, d=1.000000000001, q1=1.000000000001, q3=1e-12)
    sys = PlanarLinearSystem.from_entries(p.b11, p.b12, p.b21, p.b22)
    w = focus_stay_window(sys, l2_offset(p))
    with pytest.raises(DegenerateInterval):
        focus_stay_check(w, 0.0, tol=1e-9)


def test_focus_window_errors():
    node = PlanarLinearSystem.from_entries(-1.0, 0.0, 0.0, -2.0)
    with pytest.raises(WrongSpectralType):
        focus_stay_window(node, 1.0)
    focus = PlanarLinearSystem.from_entries(-0.5, 4.0, -4.0, -0.5)
    with pytest.raises(InvalidLine):
        focus_stay_window(focus, 0.0)
    # example 2's diagonal with b12 = 2e-310, b21 = -8e307: a focus whose
    # tangency ordinate -a11 c / a12 overflows, refused before the refine
    # with an error naming the ordinate
    focus = PlanarLinearSystem.from_entries(-0.5, 2e-310, -8e307, -0.5)
    assert focus.spectral_type == "complex_stable"
    with pytest.raises(RootSearchError, match="tangency ordinate"):
        focus_stay_window(focus, -1.0)


def test_focus_window_return_past_float_range():
    # a slowly rotating focus whose backward spiral meets L2 again only
    # where its ordinate is past the float range: RootSearchError, not a
    # window ending at inf or NaN
    sys = PlanarLinearSystem.from_entries(
        -11.06719190451943, -0.07740938625780615, 0.03128756874096285,
        -11.06719190451943)
    with pytest.raises(RootSearchError, match="float range"):
        focus_stay_window(sys, 26.916108971616854 - 15.06448838726424
                          - 26.916108971616854)


def test_vdp_stay_set_vs_brute_force_sample():
    a = analyze_vdp_line(1.0, 10.0, 1.2)
    for y in (-1.0, 0.0, 1.5, 2.8, a.varrho_plus + 0.05, a.x_star[1] - 0.05):
        assert vdp_stay_check(a, y) == brute_vdp_stays(1.0, 10.0, 1.2, y)


# --- first-return scans against reference scans -----------------------------


def _matches_reference(a, rho, omega, tol=1e-9):
    """Whether the subcritical analysis ``a`` of the oscillator (rho,
    omega) escapes where ``rigorous.first_return`` does, or returns where
    it does: t_star in (t_c, 0) and within the refine's width ROOT_BRACKET
    / omega of the reference time, plus the band in which rounding of the
    line value (a few ulp of the radius r) hides its sign at the crossing
    rate x1'; the ordinate within r |r'| / |x2| (its rate along the
    radius) times that, plus rounding; and the branch, or the
    UngenericBranch, that the reference ordinate gives."""
    ref = first_return(rho, omega, a.k, a.varrho_plus)
    if ref.t is None or a.t_star is None:
        return ref.t is None and a.t_star is None
    k, x2 = a.k, ref.x2
    r_sq = k * k + x2 * x2
    rate = rho * k - omega * x2 - k * r_sq  # x1' at the return
    dt = ROOT_BRACKET / omega + 8.0 * math.ulp(math.sqrt(r_sq)) / abs(rate)
    dx2 = r_sq * abs(rho - r_sq) / abs(x2) * dt + 4.0 * math.ulp(x2)
    return (ref.t_c < a.t_star < 0.0 and a.x_star[0] == k
            and abs(a.t_star - ref.t) <= dt and abs(a.x_star[1] - x2) <= dx2
            and a.branch == _branch(x2, a.varrho_plus, a.varrho_minus, tol))


def _branch(x2, vp, vm, tol=1e-9):
    """``return_branch``, or 'between' where it raises UngenericBranch."""
    try:
        return return_branch(x2, vp, vm, tangency_band(vp, vm, tol))
    except UngenericBranch:
        return "between"


def _seeded_scans(seed, n):
    """n oscillator lines x1 = d and n focus systems on their line
    {x1 = d - q3 - q1 = -q3}, drawn as the benchmark's generator draws
    them (omega log-uniform on [0.5, 15], |alpha| / beta in [1/40, 8]).
    Each focus line is given by its abscissa -q3."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        rho = rng.uniform(0.3, 2.0)
        d = math.sqrt(rho) * rng.uniform(1.02, 1.6)
        omega = math.exp(rng.uniform(math.log(0.5), math.log(15.0)))
        alpha = -rng.uniform(0.2, 4.0)
        beta = rng.uniform(0.5, 8.0)
        s = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        sys = PlanarLinearSystem.from_entries(alpha, beta * s, -beta / s,
                                              alpha)
        q3 = rng.uniform(0.05, d + math.sqrt(rho) + 2.0)
        out.append(((rho, omega, d), sys, -q3))
    return out


def _matches_focus_reference(sys, c, tol=1e-9):
    """Whether ``focus_stay_window`` on {y1 = c} and ``focus_stay_check``
    answer as ``rigorous.focus_return`` does.  A refusal exactly where g =
    a / w underflows or the far end is past the float range.  Else
    t_star_out and y_out within the refine's half width ROOT_BRACKET hi /
    2 in s (hi the bracket's upper end), plus the shift that rounding of
    log u's terms and of g (16 ulp of ``drift``) makes at the crossing
    ``rate``, carried to t by 1 / w and to the span by ``slope``; plus 16
    ulp of the span and an ulp of each end.  And DegenerateInterval where
    the reference span is at most tol, outside that band around tol."""
    ref = focus_return(sys.a11, sys.a12, sys.a21, sys.a22, c)
    try:
        w = focus_stay_window(sys, c)
    except RootSearchError:
        return not (abs(ref.g) >= 2.0 ** -1022 and math.isfinite(ref.y_out))
    if not (abs(ref.g) >= 2.0 ** -1022 and math.isfinite(ref.y_out)):
        return False
    g, eps = ref.g, math.ulp(1.0)
    hi = min(0.5 * math.pi - math.atan(g), math.sqrt(-4.0 * math.pi * g))
    ds = (0.5 * ROOT_BRACKET * hi + math.ulp(ref.s)
          + 16.0 * eps * ref.drift / ref.rate)
    dt = abs(ref.t) * (ds / (2.0 * math.pi - ref.s) + 8.0 * eps)
    dy = (abs(ref.span) * (abs(ref.slope) * ds
                           + 16.0 * eps * (1.0 + ref.drift))
          + 2.0 * math.ulp(ref.y_in) + math.ulp(ref.y_out))
    if not (abs(w.y_in - ref.y_in) <= math.ulp(ref.y_in)
            and abs(w.t_star_out - ref.t) <= dt
            and abs(w.y_out - ref.y_out) <= dy):
        return False
    try:
        focus_stay_check(w, 0.0, tol)
        degenerate = False
    except DegenerateInterval:
        degenerate = True
    return (abs(abs(ref.span) - tol) <= dy + math.ulp(ref.y_in)
            or degenerate == (abs(ref.span) <= tol))


def test_vdp_return_point_is_the_orbit_at_t_star(ex1, ex2):
    # x_star is the point of the line at the radius of the planar left
    # orbit of u1 at t_star, on the orbit's side of the x1 axis: (k,
    # +-sqrt(r^2 - k^2)), so k^2 + x2^2 is the orbit's r^2 up to the
    # rounding of the law's offset rho / r0^2 - 1 (8 ulp), which its
    # denominator rho / r^2 amplifies by e^{-2 rho t} r^2 / rho
    lines = [(p.rho, p.omega, p.d) for p in (ex1, ex2)]
    lines += [line for line, _, _ in _seeded_scans(808, 300)]
    returns = 0
    for rho, omega, k in lines:
        a = analyze_vdp_line(rho, omega, k)
        if a.x_star is not None:
            returns += 1
            o1, o2 = left_orbit((k, a.varrho_plus, 0.0), rho, omega,
                                0.0)(a.t_star)[:2]
            x1, x2 = a.x_star
            r_sq = o1 * o1 + o2 * o2
            growth = math.exp(-2.0 * rho * a.t_star) * r_sq / rho
            assert x1 == k and x2 * o2 > 0.0
            assert x1 * x1 + x2 * x2 == pytest.approx(
                r_sq, rel=8.0 * 2.0 ** -53 * growth)
    assert returns == 88


def test_scans_match_dense_reference():
    # the oscillator and focus returns against their 60-digit references
    for (rho, omega, k), sys, c in _seeded_scans(606, 500):
        a = analyze_vdp_line(rho, omega, k)
        if a.regime == "subcritical":
            assert _matches_reference(a, rho, omega), (rho, omega, k)
        assert _matches_focus_reference(sys, c), (sys, c)


def _near_cycle_lines(seed, n, gap=(1e-10, 1e-1)):
    """n lines x1 = k just outside the cycle of random oscillators: rho
    log-uniform on [1e-8, 1e8], k / sqrt(rho) - 1 on ``gap`` and omega /
    rho on [1e-3, 1e16]."""
    rng = np.random.default_rng(seed)
    lo, hi = math.log10(gap[0]), math.log10(gap[1])
    out = []
    for _ in range(n):
        rho = 10.0 ** rng.uniform(-8.0, 8.0)
        k = math.sqrt(rho) * (1.0 + 10.0 ** rng.uniform(lo, hi))
        out.append((rho, rho * 10.0 ** rng.uniform(-3.0, 16.0), k))
    return out


def test_near_cycle_returns_match_the_reference():
    # Lines on which a scan that took only crossings past an absolute guard
    # returned a later one, or none within its revolution cap.  Every
    # return, escape and branch is the 60-digit reference's, returns
    # within a grid step of the escape among them (found on arc C, whose
    # one crossing is refined from the arc's ends).
    seen, late = Counter(), 0
    with Budget("near-cycle first returns against the reference", 20.0):
        for rho, omega, k in _near_cycle_lines(2036, 150):
            try:
                a = analyze_vdp_line(rho, omega, k)
            except UngenericBranch:  # strictly between the tangency pair
                _, vp, vm = tangency_ordinates(rho, omega, k)
                x2 = first_return(rho, omega, k, vp).x2
                assert _branch(x2, vp, vm) == "between", (rho, omega, k)
                seen["between"] += 1
                continue
            seen[a.branch] += 1
            if a.regime == "subcritical":
                assert _matches_reference(a, rho, omega), (rho, omega, k)
            if a.t_star is not None:
                floor = radial_law(k, a.varrho_plus, rho)[2]  # t_escape
                late += omega * (a.t_star - floor) < 2.0 * math.pi / 64.0
    print(dict(seen), "returns within a grid step of the escape:", late)
    assert all(seen[b] for b in ("x2star_above", "x2star_below",
                                 "ungeneric", "no_backward_return"))
    assert late >= 5


def test_returns_next_to_the_cycle_match_the_reference():
    # Lines k / sqrt(rho) - 1 in [2.5e-16, 1e-12], where u1's offset b =
    # (r0^2 - rho) / r0^2 is inside the band |b| <= 1e-12 in which the left
    # orbit holds a start on the cycle.  The scan reads u1 through the
    # exact law, so every return, escape and branch is the 60-digit
    # reference's (a law that snapped u1 onto the cycle read 132 of these
    # 150 lines as escaping before their return).
    seen = Counter()
    with Budget("first returns next to the cycle against the reference",
                20.0):
        for rho, omega, k in _near_cycle_lines(3939, 150, (2.5e-16, 1e-12)):
            try:
                a = analyze_vdp_line(rho, omega, k)
            except UngenericBranch:  # strictly between the tangency pair
                _, vp, vm = tangency_ordinates(rho, omega, k)
                x2 = first_return(rho, omega, k, vp).x2
                assert _branch(x2, vp, vm) == "between", (rho, omega, k)
                seen["between"] += 1
                continue
            seen[a.branch] += 1
            if a.regime == "subcritical":
                assert _matches_reference(a, rho, omega), (rho, omega, k)
    print(dict(seen))
    assert seen["x2star_above"] + seen["x2star_below"] + seen["ungeneric"] \
        >= 140


@pytest.mark.parametrize("rho, omega, k", [
    (1.0, 10.0, 1.2),  # example 1's L1
    (1.0, 10.0, 1.0000000000001),  # 1e-13 outside its cycle
], ids=["example1", "example1_next_to_the_cycle"])
def test_example1_l1_returns_match_the_reference(rho, omega, k):
    # example 1's v2* = 2.3630450702477748 is 4.06e-13 from the reference
    # 2.3630450702481807 (the scan that sampled arc A read
    # 2.363045070248615, 4.34e-13 from it, and the full-revolution scan
    # 2.363045070247754, 4.27e-13), and next to the cycle the return at
    # t = -0.62832, x2 = 7.087e-07, is found where a law that snapped u1
    # onto the cycle read an escape
    a = analyze_vdp_line(rho, omega, k)
    assert a.branch == "x2star_above"
    assert _matches_reference(a, rho, omega)


def _escape_angle(rho, omega, k, v):
    """theta0 + omega t_esc, the angle at which the backward orbit of the
    line point (k, v) escapes (outside the cycle), in 60 digits."""
    with mp.workdps(60):
        rho, omega, k, v = (mp.mpf(x) for x in (rho, omega, k, v))
        r0_sq = k * k + v * v
        t_esc = mp.log((r0_sq - rho) / r0_sq) / (2 * rho)
        return float(mp.atan2(v, k) + omega * t_esc)


def _extreme_lines(seed, n):
    """n lines x1 = k outside the cycle at extreme scales: rho log-uniform
    on [1e-150, 1e150], k / sqrt(rho) on [1.001, 10], and omega / rho
    log-uniform on [1e-3, 1e3] for every other line (escapes within a
    quarter turn among them) and on [1e-3, 1e150 / rho] for the rest."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        e = rng.uniform(-150.0, 150.0)
        rho = 10.0 ** e
        k = math.sqrt(rho) * rng.uniform(1.001, 10.0)
        out.append((rho, 10.0 ** rng.uniform(e - 3.0, e + 3.0 if i % 2
                                              else 150.0), k))
    return out


def _double_tangency_lines(seed, n):
    """n lines just inside the subcritical regime: omega = 2 k sqrt(k^2 -
    rho) (1 + delta), the double tangency at delta = 0, with delta
    log-uniform on [1e-12, 1e-6]; rho and k as in ``_near_cycle_lines``,
    k / sqrt(rho) - 1 on [1e-10, 10]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        rho = 10.0 ** rng.uniform(-8.0, 8.0)
        k = math.sqrt(rho) * (1.0 + 10.0 ** rng.uniform(-10.0, 1.0))
        delta = 10.0 ** rng.uniform(-12.0, -6.0)
        out.append((rho, 2.0 * k * math.sqrt(k * k - rho) * (1.0 + delta), k))
    return out


#: A line whose 60-digit reference once raised TypeError (comparing a
#: complex arc bound): v^2 / k^2 and the growth per turn lie below 60
#: digits, so its radius rounded below k.
EXTREME_RATIO_LINE = (0.006832078916366508, 2.0007726525196053e+69,
                      0.43400294519427385)


def test_the_seed_is_a_strict_maximum_of_x1():
    # the package's argument for arc A: at u1 = (k, v), w0 = r0^2 - rho is
    # the smaller root of k^2 w^2 - omega^2 w + omega^2 (k^2 - rho) = 0,
    # and w0^2 + 2 rho w0 < omega^2, so x1'' < 0 there (equality holds at
    # the double tangency, which ``_double_tangency_lines`` approach); for
    # the exact tangency ordinate and for the package's rounded one
    lines = ([EXTREME_RATIO_LINE] + _extreme_lines(4242, 400)
             + _near_cycle_lines(4242, 200)
             + _double_tangency_lines(4242, 200)
             + [line for line, _, _ in _seeded_scans(808, 300)])
    seen, closest = 0, 0.0
    with mp.workdps(60):
        for rho, omega, k in lines:
            disc, vp, _ = tangency_ordinates(rho, omega, k)
            if not 0.0 < disc < math.inf:
                continue
            rho_, omega_, k_ = (mp.mpf(x) for x in (rho, omega, k))
            gap = k_ * k_ - rho_
            y = 4 * k_ * k_ * gap / (omega_ * omega_)
            if not y < 1:  # a double or no tangency, up to rounding of disc
                continue
            root = mp.sqrt(1 - y)
            v = -2 * k_ * gap / (omega_ * (1 + root))  # the upper ordinate
            w0 = gap + v * v
            assert abs(w0 - 2 * gap / (1 + root)) <= 1e-40 * w0
            for w in (w0, gap + mp.mpf(vp) ** 2):
                assert w * w + 2 * rho_ * w < omega_ * omega_, (rho, omega, k)
            seen += 1
            closest = max(closest, (w0 * w0 + 2 * rho_ * w0) / omega_ ** 2)
    assert seen >= 750 and closest > 1.0 - 1e-5


def test_first_return_lies_on_arc_a_where_the_escape_does():
    # The reference samples arc A (theta in (-pi / 2, theta0)) and the
    # package does not: it returns there exactly when the escape lies
    # there.  Both agree on every line, extreme ratios included.
    lines = ([EXTREME_RATIO_LINE] + _extreme_lines(2042, 300)
             + [line for line, _, _ in _seeded_scans(2042, 150)])
    seen = Counter()
    with Budget("arc A of the first return against the reference", 30.0):
        for rho, omega, k in lines:
            disc, vp, vm = tangency_ordinates(rho, omega, k)
            if not 0.0 < disc < math.inf:
                continue
            ref = first_return(rho, omega, k, vp)
            edge = -0.5 * math.pi
            escape_on_a = _escape_angle(rho, omega, k, vp) > edge
            on_a = (ref.t is not None
                    and math.atan2(vp, k) + omega * ref.t > edge)
            assert on_a == escape_on_a, (rho, omega, k)
            seen[escape_on_a] += 1
            try:
                a = analyze_vdp_line(rho, omega, k)
            except UngenericBranch:  # strictly between the tangency pair
                assert _branch(ref.x2, vp, vm) == "between", (rho, omega, k)
                continue
            if a.regime == "subcritical":
                assert _matches_reference(a, rho, omega), (rho, omega, k)
    print(dict(seen))
    assert seen[True] >= 10 and seen[False] >= 200


@pytest.mark.parametrize("s", [2.0 ** -60, 2.0 ** 40],
                         ids=["2^-60", "2^40"])
def test_vdp_return_scales_exactly(s):
    # (rho, omega, k) -> (s^2 rho, s^2 omega, s k) rescales the planar
    # flow: lengths by s, time by 1 / s^2.  At tol 0 (no absolute band) and
    # for s a power of 2 each operation of the analysis scales exactly, so
    # the return time scales by 1 / s^2 and the point by s to the bit,
    # after the same evaluations: no absolute guard or width is left.
    def scaled(x, f):
        return None if x is None else x * f

    lines = [line for line, _, _ in _seeded_scans(909, 300)]
    returns = 0
    for rho, omega, k in lines + _near_cycle_lines(909, 300):
        try:
            a = analyze_vdp_line(rho, omega, k, 0.0)
        except UngenericBranch:
            with pytest.raises(UngenericBranch):
                analyze_vdp_line(rho * s * s, omega * s * s, k * s, 0.0)
            continue
        b = analyze_vdp_line(rho * s * s, omega * s * s, k * s, 0.0)
        x_star = a.x_star and (a.x_star[0] * s, a.x_star[1] * s)
        assert b == a._replace(
            k=k * s, varrho_plus=scaled(a.varrho_plus, s),
            varrho_minus=scaled(a.varrho_minus, s), x_star=x_star,
            t_star=scaled(a.t_star, 1.0 / (s * s))), (rho, omega, k)
        returns += a.x_star is not None
    assert returns >= 300


def test_slow_focus_scan_matches_dense_reference(focus_refines):
    # 2 pi |alpha| / beta past the float range of exp: u - 1 is inf at the
    # bracket's lower end while the return itself is representable, or the
    # return overflows too, refused without a refine as e^{pi |alpha| /
    # beta} overflows; both as the 60-digit reference has it
    for beta, finite in ((1.0 / 150.0, True), (1.0 / 200.0, True),
                         (1.0 / 400.0, False)):
        sys = PlanarLinearSystem.from_entries(-1.0, 3.0 * beta, -beta / 3.0, -1.0)
        focus_refines.clear()
        assert _matches_focus_reference(sys, 2.0), beta
        assert len(focus_refines) == (1 if finite else 0), beta
        if not finite:
            with pytest.raises(RootSearchError, match="float range"):
                focus_stay_window(sys, 2.0)


def _damped_foci(seed, n):
    """n stable-focus blocks whose damping per turn |g| = |a| / w is
    log-uniform on [1e-300, 1e3] (on [1e-3, 1e3] for every other block),
    with w log-uniform on [1, 1e3], the diagonal split by up to 0.9
    min(|a|, w) and the off-diagonal sheared by up to 1e3 (times sqrt|g|
    for every other block, which keeps the window of a near-undamped focus
    long), each with a line offset c of either sign; and each again with
    the block scaled by 2^k, k in [-20, 20], which keeps every entry
    normal."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        beta = math.exp(rng.uniform(0.0, math.log(1e3)))
        g = 10.0 ** rng.uniform(-300.0 if i % 2 else -3.0, 3.0)
        alpha, h = -beta * g, rng.uniform(0.0, 0.9) * min(beta * g, beta)
        s = float(10.0 ** rng.uniform(-3.0, 3.0) * rng.choice([-1.0, 1.0])
                  * (math.sqrt(g) if i % 4 < 2 else 1.0))
        entries = (alpha + h, beta * s, -beta / s, alpha - h)
        c = float(rng.uniform(0.05, 5.0) * rng.choice([-1.0, 1.0]))
        f = 2.0 ** int(rng.integers(-20, 21))
        for scale in (1.0, f):
            out.append((PlanarLinearSystem.from_entries(
                *(x * scale for x in entries)), c))
    return out


def test_focus_returns_match_the_reference_at_every_damping():
    # From near-undamped foci, whose return lies about sqrt(4 pi |g|) short
    # of a full turn (below the float resolution of w t), to strongly
    # damped ones past the float range: each far end, DegenerateInterval
    # and refusal is the 60-digit reference's, also where g underflows
    seen = Counter()
    with Budget("focus returns against the reference", 20.0):
        for sys, c in _damped_foci(37, 300):
            assert sys.spectral_type == "complex_stable"
            assert _matches_focus_reference(sys, c), (sys, c)
            try:
                w = focus_stay_window(sys, c)
                short = abs(w.y_out - w.y_in) <= 1e-9
                seen["short" if short else "window"] += 1
            except RootSearchError:
                seen["refused"] += 1
    print(dict(seen))
    assert seen["window"] >= 100 and seen["short"] >= 100 and seen["refused"]
    for alpha in (-1e-310, -5e-324):  # g subnormal: refused, not rounding
        sys = PlanarLinearSystem.from_entries(alpha, 1.0, -1.0, alpha)
        assert _matches_focus_reference(sys, 1.0)
        with pytest.raises(RootSearchError, match="underflows"):
            focus_stay_window(sys, 1.0)


@pytest.mark.parametrize("s", [1.0, 1e10, 1e11, 1e12])
def test_focus_far_end_does_not_move_with_the_time_scale(s):
    # the block (-0.5 s, 4 s; -4 s, -0.5 s) on c = -1, whose far end an
    # absolute refine width once moved to 1.6315, 1.6960 and 1.3158 at
    # s = 1e10, 1e11 and 1e12; 60 digits give 1.6336152981086356 at every s
    w = focus_stay_window(PlanarLinearSystem.from_entries(
        -0.5 * s, 4.0 * s, -4.0 * s, -0.5 * s), -1.0)
    assert w.y_out == pytest.approx(1.6336152981086356, rel=1e-12)


def _seeded_foci(seed, n):
    """n stable-focus blocks (a11 + a22) / 2 +/- i w, with |a| and w
    log-uniform on [1e-4, 1e3], unequal diagonal entries and off-diagonal
    entries sheared by up to 1e3, each with a line offset c of either
    sign."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        alpha = -math.exp(rng.uniform(math.log(1e-4), math.log(1e3)))
        beta = math.exp(rng.uniform(math.log(1e-4), math.log(1e3)))
        h = beta * rng.uniform(0.0, 0.9)  # |a11 - a22| / 2 < w keeps disc < 0
        s = float(math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
                  * rng.choice([-1.0, 1.0]))
        sys = PlanarLinearSystem.from_entries(alpha + h, beta * s,
                                              -beta / s, alpha - h)
        c = float(rng.uniform(0.05, 5.0) * rng.choice([-1.0, 1.0]))
        out.append((sys, c))
    return out


def test_focus_window_scales_exactly_with_b12(ex2, ex3):
    # (a12, a21) -> (a12 2^-k, a21 2^k) is the similarity by diag(1, 2^k):
    # the spectrum keeps its bits, and the refine reads g = a / w alone, so
    # both window ends scale by exactly 2^k (y_in = -a11 c / a12, and the
    # span divides by a12 last) at the same return time after the same
    # evaluations; the window is refused exactly where a scaled end is not
    # finite.  Example 2's spectrum with b12 = 1.1e-289 has a window end of
    # 1.6e290, past the float range at k = 60, where every entry is still
    # normal.
    tiny = replace(ex2, b12=1.1e-289, b21=-16.0 / 1.1e-289)
    cases = [(PlanarLinearSystem.from_entries(p.b11, p.b12, p.b21, p.b22),
              l2_offset(p)) for p in (ex2, ex3, tiny)]
    cases += _seeded_foci(28, 200)
    scaled_windows = refusals = 0
    for sys, c in cases:
        assert sys.spectral_type == "complex_stable"
        try:
            w = focus_stay_window(sys, c)
        except RootSearchError:
            w = None
        spectrum = repr(sys[4:])  # spectral_type, branch, a, w, eigenvalues
        for k in range(-60, 61, 10):
            f = 2.0 ** k
            scaled = PlanarLinearSystem.from_entries(
                sys.a11, sys.a12 / f, sys.a21 * f, sys.a22)
            assert repr(scaled[4:]) == spectrum, (sys, k)
            # a window refused in one system is refused in every one
            ends = (math.inf,) if w is None else (w.y_in * f, w.y_out * f)
            if not all(map(math.isfinite, ends)):
                with pytest.raises(RootSearchError):
                    focus_stay_window(scaled, c)
                refusals += 1
                continue
            assert repr(focus_stay_window(scaled, c)) == repr(SpiralWindow(
                c, *ends, w.t_star_out, w.evaluations)), (sys, c, k)
            scaled_windows += 1
    assert scaled_windows + refusals == 13 * len(cases)  # no pair skipped
    assert scaled_windows >= 1500 and refusals > 0


def test_focus_inside_the_repeated_root_band_is_refused():
    # beta <= 1e-6 |alpha|, on the complex formula (no repeated-root band):
    # the spiral grows by e^{2 pi 1e6} or more per backward turn, past the
    # float range, at any rate
    for s in (1.0, 2.0 ** -20, 2.0 ** 20):
        sys = PlanarLinearSystem.from_entries(-s, s, -0.5e-12 * s, -s)
        assert sys.branch == "complex"
        with pytest.raises(RootSearchError):
            focus_stay_window(sys, 2.0 / s)


@pytest.mark.parametrize("s", [0.25, 0.5, 2.0, 3.0])
def test_focus_window_time_rescaling(s):
    # e^{t sA} = e^{(st) A}: the same window, reached at t_star_out / s.
    # The refine reads g = a / w alone, which a power-of-2 s keeps to the
    # bit, and so the window is the same to the bit.  At s = 3, g moves by
    # a few ulp.  Each return angle w t + 2 pi lies within ROOT_BRACKET
    # pi / 2 of its root (the bracket's upper end is below pi), so the two
    # angles differ by at most ROOT_BRACKET pi plus their rounding, and
    # the span y_out - y_in by that times its log-derivative g + cot(angle).
    for _, sys, c in _seeded_scans(707, 40):
        w = focus_stay_window(sys, c)
        scaled = PlanarLinearSystem.from_entries(
            s * sys.a11, s * sys.a12, s * sys.a21, s * sys.a22)
        ws = focus_stay_window(scaled, c)
        if s != 3.0:
            assert ws == w._replace(t_star_out=w.t_star_out / s), (sys, c)
            continue
        angle = sys.w * w.t_star_out + 2.0 * math.pi
        d_angle = ROOT_BRACKET * math.pi + 8.0 * math.ulp(2.0 * math.pi)
        np.testing.assert_allclose(ws.y_in, w.y_in, rtol=1e-13)
        assert abs(scaled.w * ws.t_star_out + 2.0 * math.pi - angle) <= d_angle
        span = w.y_out - w.y_in
        slope = sys.a / sys.w + 1.0 / math.tan(angle)
        assert abs(ws.y_out - w.y_out) <= (
            abs(span * slope) * d_angle + 1e-14 * math.hypot(c, w.y_out))


#: Ceilings on the closed-form evaluations of one scan, and on their mean
#: over a seeded batch.  A focus scan needs no sampling; an oscillator scan
#: samples nothing either: one evaluation where the escape lies on arc A,
#: then one refine on arc A or arc C.  ``VDP_EVALUATIONS`` bounds any line
#: (arc C's refine bisects longer when its return lies next to t_c), and
#: ``VDP_BATCH_EVALUATIONS`` the examples and the benchmark's draw.
FOCUS_EVALUATIONS = 16
VDP_EVALUATIONS = 48
VDP_BATCH_EVALUATIONS = 16
FOCUS_MEAN_EVALUATIONS = 8.0
VDP_MEAN_EVALUATIONS = 10.5


def test_scan_evaluation_ceilings(ex1, ex2, ex3):
    for p in (ex1, ex2, ex3):
        a = analyze_vdp_line(p.rho, p.omega, p.d)
        assert a.evaluations <= VDP_BATCH_EVALUATIONS
    for p in (ex2, ex3):
        sys = PlanarLinearSystem.from_entries(p.b11, p.b12, p.b21, p.b22)
        w = focus_stay_window(sys, p.d - p.q3 - p.q1)
        assert 1 <= w.evaluations <= FOCUS_EVALUATIONS
    vdp, focus, on_arc_b = [], [], 0
    for (rho, omega, k), sys, c in _seeded_scans(808, 1000):
        a = analyze_vdp_line(rho, omega, k)
        # no evaluation exactly where the line is supercritical or u1's
        # backward orbit escapes on arc B (theta in [-3 pi / 2, -pi / 2],
        # where x1 <= 0)
        escape_on_b = (a.regime == "subcritical" and -1.5 * math.pi
                       <= _escape_angle(rho, omega, k, a.varrho_plus)
                       <= -0.5 * math.pi)
        on_arc_b += escape_on_b
        assert (a.evaluations == 0) == (a.regime == "supercritical"
                                        or escape_on_b)
        if a.evaluations:
            vdp.append(a.evaluations)
        focus.append(focus_stay_window(sys, c).evaluations)
    assert on_arc_b == 279
    assert max(vdp) <= VDP_BATCH_EVALUATIONS
    assert max(focus) <= FOCUS_EVALUATIONS
    assert sum(vdp) <= VDP_MEAN_EVALUATIONS * len(vdp)
    assert sum(focus) <= FOCUS_MEAN_EVALUATIONS * len(focus)


#: Lines on which the L1 scan once stepped through up to 10,000 backward
#: revolutions to a RootSearchError, or to a crossing on its last ones:
#: example 1's L1 = {x1 = d} at fast rotation, where u1's orbit gains a
#: fraction 1e-17 to 1e-154 of its radius in a revolution (around omega =
#: 2.764e14 the cap met the crossings of the guard), and a tiny cycle,
#: whose guard 1e-10 was 1e27 radii and whose escape lies about 8e73
#: revolutions back.  Each returns just after t_c, with an ordinate far
#: inside the tangency band (about tol omega / k): 'ungeneric'.
SLOW_SPIRALS = {
    "1e17": (1.0, 1e17, 1.2),
    "1e20": (1.0, 1e20, 1.2),
    "2.764e14": (1.0, 2.764e14, 1.2),
    "2.7648e14": (1.0, 2.7648e14, 1.2),
    "2.766e14": (1.0, 2.766e14, 1.2),
    "tiny_cycle": (6.4e-76, 1.0, 1.001 * math.sqrt(6.4e-76)),
}


@pytest.mark.parametrize("rho, omega, k", SLOW_SPIRALS.values(),
                         ids=SLOW_SPIRALS)
def test_slow_spiral_returns_within_the_first_revolution(rho, omega, k):
    # decided in (t_c, 0) with a handful of closed-form evaluations, and
    # matching the 60-digit reference
    a = analyze_vdp_line(rho, omega, k)
    assert a.branch == "ungeneric"
    assert a.evaluations <= VDP_EVALUATIONS
    assert _matches_reference(a, rho, omega)


def test_refine_brackets_to_the_contract():
    # a smooth root, and a steep exponential on which false position keeps
    # one end for thousands of steps unless the stall safeguard bisects, on
    # the time scale 1 / omega: the midpoint of a bracket no wider than
    # ROOT_BRACKET / omega, in few steps; at width 0, of adjacent floats
    for omega in (1.0, 1e-3, 1e3, 1e11):
        for root in (-0.3, -2.0 / 3.0, -5.123456789):
            for shape, most in ((lambda u: 1e3 * math.tanh(u), 12),
                                (lambda u: math.expm1(50.0 * u), 100)):
                calls = []

                def value(t):
                    calls.append(t)
                    if len(calls) > 1000:
                        raise RuntimeError("the refine does not converge")
                    return shape(root - omega * t)

                lo = -6.0 / omega
                t, steps = _refine(value, lo, value(lo), 0.0, value(0.0),
                                   ROOT_BRACKET / omega)
                assert abs(omega * t - root) <= 0.5 * ROOT_BRACKET
                assert steps == len(calls) - 2 and steps <= most
    for root in (-0.3, -2.0 / 3.0, -5.123456789):
        t, _ = _refine(lambda t: math.tanh(root - t), -6.0,
                       math.tanh(root + 6.0), 0.0, math.tanh(root), 0.0)
        assert abs(t - root) <= math.ulp(root)


@pytest.mark.parametrize("rho, omega, k, t_star", [
    (1.7693183051964239, 5.590415157751715, 1.9532276223541516,
     -0.008377325053451639),
    (0.31573010960822756, 1.1425572126983963, 0.8662376617072363,
     -0.033009704169945364),
    (1.789921316810826, 5.993859105831948, 2.0056512427656723,
     -0.001081577175719856),
])
def test_vdp_return_within_the_first_sample_step(rho, omega, k, t_star):
    # the orbit returns before the first grid sample, so the bracket closes
    # on the seed, whose line value is rounding noise: the refine must not
    # interpolate on it and settle next to the seed (t_star from the
    # sampled scan this one replaced, and the 60-digit reference)
    a = analyze_vdp_line(rho, omega, k)
    assert a.branch == "x2star_below"
    assert a.t_star == pytest.approx(t_star, abs=1e-12)
    assert _matches_reference(a, rho, omega)


# Sets on which the tangency ordinates of the geometry and of the line
# analysis once differed in the last bits (omega ** 2 against
# omega * omega).
TANGENCY_SETS = [
    dict(rho=0.6408909575488191, omega=2.3622061567614465,
         d=1.212107064424428),
    dict(rho=1.177845558249385, omega=7.936709775687314,
         d=1.6504817478401401),
]


def _tangency_sets():
    rng = np.random.default_rng(5)
    out = list(TANGENCY_SETS)
    while len(out) < 60:
        rho = rng.uniform(0.2, 2.0)
        d = math.sqrt(rho) * rng.uniform(1.02, 1.5)
        omega = math.exp(rng.uniform(math.log(0.5), math.log(20.0)))
        if omega * omega > 4.0 * d * d * (d * d - rho):
            out.append(dict(rho=rho, omega=omega, d=d))
    return out


@pytest.mark.parametrize("s", _tangency_sets())
def test_geometry_and_line_analysis_share_the_tangency_solve(s):
    sigma_plus, sigma_minus = tangency_ordinates(s["rho"], s["omega"],
                                                 s["d"])[1:]
    a = analyze_vdp_line(s["rho"], s["omega"], s["d"])
    assert a.regime == "subcritical"
    assert sigma_plus.hex() == a.varrho_plus.hex()
    assert sigma_minus.hex() == a.varrho_minus.hex()
