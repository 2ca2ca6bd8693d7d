import math
import struct
from dataclasses import replace
from typing import NamedTuple

import mpmath
import numpy as np
import pytest

from helpers import Budget, semigroup_max_rel_err
from rigorous import first_return, radial_sq

from hetcycle.errors import BackwardBlowup, StepFailure
from hetcycle.flows import (
    ON_CYCLE_BAND,
    left_flow,
    left_orbit,
    radial_law,
    right_flow,
)
from hetcycle.hybrid import (
    StepControl,
    left_field,
    numeric_flow,
    right_field,
    rk45,
)

TIGHT = StepControl(rtol=1e-12, atol=1e-14)


class _Law(NamedTuple):
    """radial_law's (r0^2, b, t_escape, r_sq), by name."""

    r0_sq: float
    b: float
    t_escape: float
    r_sq: object


def _law(x1, x2, rho):
    return _Law(*radial_law(x1, x2, rho))


# Oracle values frozen from the adaptive Runge-Kutta integration of the raw
# fields at rtol 1e-13 (see numeric_flow); the closed forms must match.
LEFT_ORACLE_POINT = (-1.2906211912098229, 0.18397358922532037, 0.4481689070338068)
RIGHT_ORACLE_POINT = (2.36859278054147, -0.12298893951994293, 2.0)


def test_left_flow_cycle_invariance(ex1):
    sr = math.sqrt(ex1.rho)
    for t in (-3.0, -0.5, 0.0, 0.7, 12.0):
        x = left_flow((sr, 0.0, 0.0), t, ex1)
        assert math.hypot(x[0], x[1]) == pytest.approx(sr, rel=1e-12)
        assert x[2] == 0.0


def test_left_flow_attracts_to_cycle(ex1):
    for x0 in ((0.3, 0.1, 0.0), (2.0, -1.0, 0.0)):
        x = left_flow(x0, 50.0, ex1)
        assert math.hypot(x[0], x[1]) == pytest.approx(math.sqrt(ex1.rho),
                                                       abs=1e-12)
        assert x[2] == 0.0


def test_left_flow_matches_frozen_oracle(ex1):
    x = left_flow((2.0, 0.0, 0.1), 0.3, ex1)
    np.testing.assert_allclose(x, LEFT_ORACLE_POINT, atol=1e-8)


def test_left_flow_backward_blowup_boundary():
    p = _plain_params()
    t_blow = _law(2.0, 0.0, p.rho).t_escape  # start (2, 0, 0)
    assert t_blow == pytest.approx(math.log(0.75) / 2.0)
    with pytest.raises(BackwardBlowup):
        left_flow((2.0, 0.0, 0.0), t_blow, p)
    with pytest.raises(BackwardBlowup):
        left_flow((2.0, 0.0, 0.0), t_blow - 1e-9, p)
    left_flow((2.0, 0.0, 0.0), t_blow + 1e-3, p)  # just inside: fine


def _plain_params():
    from hetcycle.model import SystemParams

    return SystemParams(rho=1, omega=10, mu=5, b11=-2, b12=1, b21=0, b22=-1,
                        lam=2, q1=1.2, q2=0, q3=0.2, d=1.2)


def test_right_flow_equilibrium(ex3):
    for t in (-2.0, 0.0, 1.5):
        np.testing.assert_allclose(right_flow(ex3.q, t, ex3), ex3.q,
                                   atol=1e-14)


def test_right_flow_stable_plane_invariance(ex3):
    x0 = (0.0, 1.0, ex3.q3)
    for t in (0.3, 2.0, 17.0):
        assert right_flow(x0, t, ex3)[2] == pytest.approx(ex3.q3, abs=1e-13)


def test_right_flow_stable_plane_past_exp_overflow(ex3):
    # e^{lam t} overflows at this t; a start with x3 = q3 never needs it
    t = 800.0 / ex3.lam
    with pytest.raises(OverflowError):
        math.exp(ex3.lam * t)
    x = right_flow((ex3.q1 + 0.3, ex3.q2 - 0.2, ex3.q3), t, ex3)
    assert x[2] == ex3.q3
    np.testing.assert_allclose(x[:2], (ex3.q1, ex3.q2), atol=1e-12)


def test_right_flow_unstable_line_past_exp_overflow(ex1, ex2, ex3):
    # e^{Bt} overflows at this t; a start on the line through q never
    # needs it (the backward start of gamma1 is snapped onto that line)
    for p in (ex1, ex2, ex3):
        t = -800.0 / min(abs(p.b11), abs(p.b22))
        x = right_flow((p.q1, p.q2, p.q3 + 0.5), t, p)
        assert (x[0], x[1]) == (p.q1, p.q2)
        assert x[2] == p.q3 + 0.5 * math.exp(p.lam * t)


def test_right_flow_unstable_line_invariance(ex3):
    x0 = (ex3.q1, ex3.q2, ex3.q3 + 0.4)
    for t in (-3.0, -0.5, 0.8):
        x = right_flow(x0, t, ex3)
        assert x[0] == pytest.approx(ex3.q1, abs=1e-13)
        assert x[1] == pytest.approx(ex3.q2, abs=1e-13)


def test_right_flow_matches_frozen_oracle(ex3):
    x = right_flow((0.0, 1.0, 2.0), 0.5, ex3)
    np.testing.assert_allclose(x, RIGHT_ORACLE_POINT, atol=1e-8)


def test_right_flow_repeated_eigenvalue_branch():
    from hetcycle.model import SystemParams

    p = SystemParams(rho=1, omega=1, mu=1, b11=-1.0, b12=1.0, b21=0.0,
                     b22=-1.0, lam=1, q1=1.2, q2=0, q3=0.2, d=1.2)
    x = right_flow((0.5, 0.5, 0.2), 0.7, p)
    n = rk45(right_field(p), (0.5, 0.5, 0.2), 0.0, 0.7, control=TIGHT).xs[-1]
    np.testing.assert_allclose(x, n, atol=1e-9)


def test_numeric_flow_identity_at_zero(ex1):
    x0 = np.array([0.4, -0.2, 0.7])
    np.testing.assert_array_equal(numeric_flow(x0, 0.0, "left", ex1), x0)


@pytest.mark.parametrize("t", [0.0, 0.4, -0.3])
def test_numeric_flow_returns_float_triple(ex1, t):
    # the stepper's final state as it is, like left_flow / right_flow
    for side in ("left", "right"):
        x = numeric_flow(np.array([0.4, -0.2, 0.7]), t, side, ex1)
        assert type(x) is tuple and len(x) == 3
        assert all(type(v) is float for v in x)


def test_numeric_flow_agrees_left(ex1):
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        r = rng.uniform(0.2, 1.4)
        th = rng.uniform(0, 2 * math.pi)
        x0 = (r * math.cos(th), r * math.sin(th), rng.uniform(-0.5, 0.5))
        t = rng.uniform(-1.0, 5.0)
        try:
            ref = left_flow(x0, t, ex1)
        except BackwardBlowup:
            continue
        if np.max(np.abs(ref)) > 1e3:
            continue
        got = numeric_flow(x0, t, "left", ex1)
        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-6
        checked += 1


def test_numeric_flow_agrees_right(ex2):
    rng = np.random.default_rng(8)
    for _ in range(100):
        x0 = ex2.q + rng.uniform(-1.5, 1.5, size=3)
        t = rng.uniform(-1.0, 3.0)
        ref = right_flow(x0, t, ex2)
        if np.max(np.abs(ref)) > 1e3:
            continue
        got = numeric_flow(x0, t, "right", ex2)
        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-6


def _scaled_blocks(rng, n):
    """n right blocks, nodes and foci alternating, whose overall rate is
    log-uniform on [1e-6, 1e6] and whose two drawn rates are at most 100
    apart, sheared by up to 100 either way; a node is coupled one way or
    both ways."""

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    blocks = []
    for i in range(n):
        scale, ratio = log_uniform(1e-6, 1e6), log_uniform(1.0, 100.0)
        shear = log_uniform(1e-2, 1e2) * float(rng.choice([-1.0, 1.0]))
        if i % 2 == 0:  # node -l1, -l2; det > 0 and disc >= 0
            l1, l2 = rng.permutation([scale, scale * ratio]).tolist()
            b12 = scale * shear
            b21 = (l1 * l2 / b12 * rng.uniform(0.0, 0.9)
                   if rng.random() < 0.5 else 0.0)
            blocks.append((-l1, b12, b21, -l2))
        else:  # focus -scale +/- i beta
            beta = scale * ratio ** float(rng.choice([-1.0, 1.0]))
            blocks.append((-scale, beta * shear, -beta / shear, -scale))
    return blocks


def test_right_flow_matches_oracle_on_its_own_time_scale(ex1):
    # each block is checked at 0.3 T and T, T = 3 / |slowest rate|: a
    # fixed horizon in time units stops short of a slow block's scale.
    # The last block is the small-rate focus (time scale 1e6) whose old
    # repeated-root formula missed the oracle by 1.3e-2 at t = 3e6.
    rng = np.random.default_rng(2031)
    blocks = _scaled_blocks(rng, 300) + [
        (-9.694814540121535e-07, -1.804892770862274e-06,
         9.852611088887626e-08, -9.694814540121535e-07)]
    with Budget("right_flow against rk45 on each block's time scale", 15.0):
        for b11, b12, b21, b22 in blocks:
            p = replace(ex1, b11=b11, b12=b12, b21=b21, b22=b22)
            slow = min(abs(e.real) for e in p.block.eigenvalues)
            x0 = (p.q1 + rng.uniform(-1.0, 1.0),
                  p.q2 + rng.uniform(-1.0, 1.0), p.q3)
            for t in (0.9 / slow, 3.0 / slow):
                got = right_flow(x0, t, p)
                want = numeric_flow(x0, t, "right", p)
                err = max(abs(a - b) for a, b in zip(got, want))
                assert err <= 1e-5, ((b11, b12, b21, b22), t, err)


def test_left_flow_matches_oracle_on_its_own_time_scale(ex1):
    # the left twin of the test above: rates scaled together over six
    # decades, each set checked at 0.9 T and 3 T, T = 1 / min(rho, mu),
    # relative to the cycle's radius or the height reached
    rng = np.random.default_rng(2045)
    with Budget("left_flow against rk45 on each set's time scale", 10.0):
        for _ in range(120):
            s = 10.0 ** rng.uniform(-6.0, 0.0)
            rho, omega, mu = (s * rng.uniform(0.3, 2.0),
                              s * rng.uniform(0.5, 3.0),
                              s * rng.uniform(0.05, 1.0))
            p = replace(ex1, rho=rho, omega=omega, mu=mu)
            sr = math.sqrt(rho)
            r, th = sr * rng.uniform(0.3, 1.6), rng.uniform(0.0, 2.0 * math.pi)
            x0 = (r * math.cos(th), r * math.sin(th), sr * rng.uniform(-1, 1))
            for t in (0.9 / min(rho, mu), 3.0 / min(rho, mu)):
                got = left_flow(x0, t, p)
                want = numeric_flow(x0, t, "left", p)
                err = (max(abs(a - b) for a, b in zip(got, want))
                       / max(sr, abs(want[2])))
                assert err <= 1e-7, ((rho, omega, mu), x0, t, err)


def test_numeric_flow_stepfailure_past_blowup():
    p = _plain_params()
    with pytest.raises(StepFailure):
        numeric_flow((2.0, 0.0, 0.0), -0.2, "left", p)


def test_semigroup_property(ex1, ex3):
    assert semigroup_max_rel_err(ex1, "left", 200, seed=21) <= 1e-9
    assert semigroup_max_rel_err(ex3, "right", 200, seed=22) <= 1e-9


def test_left_flow_preserves_plane_and_vertical_sign(ex1):
    rng = np.random.default_rng(5)
    for _ in range(50):
        x0 = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        t = rng.uniform(0.0, 2.0)
        x = left_flow(x0, t, ex1)
        if x0[2] == 0:
            assert x[2] == 0.0
        else:
            assert math.copysign(1, x[2]) == math.copysign(1, x0[2])


def test_left_flow_radial_monotonicity(ex1):
    ts = np.linspace(0.0, 2.0, 40)
    inside = [math.hypot(*left_flow((0.3, 0.0, 0.0), t, ex1)[:2]) for t in ts]
    outside = [math.hypot(*left_flow((1.7, 0.0, 0.0), t, ex1)[:2]) for t in ts]
    assert all(b > a for a, b in zip(inside, inside[1:]))
    assert all(b < a for a, b in zip(outside, outside[1:]))


# The radial law written out per call, from the start's coordinates; the
# law bound once (radial_law, and left_orbit through it off the on-cycle
# band) must reproduce it bit for bit, and it must meet the 60-digit
# rigorous.radial_sq.
def _frozen_offset(x1, x2, rho):
    """(r0^2, b, log|b|) of the start: b = (r0^2 - rho) / r0^2 from the
    exact squares (Veltkamp's split) rounded once by fsum; b = -inf at
    the origin, and no log|b| exactly on the cycle (b = 0)."""
    r0_sq = x1 * x1 + x2 * x2
    if r0_sq == 0.0:
        return 0.0, -math.inf, math.inf
    terms = [-rho]
    for x in (x1, x2):
        c = 134217729.0 * x
        hi = c - (c - x)
        lo = x - hi
        terms += [x * x, ((hi * hi - x * x) + 2.0 * hi * lo) + lo * lo]
    diff = math.fsum(terms)
    b = diff / r0_sq
    if b == 0.0:
        return r0_sq, b, None
    if b > 0.5:
        log_b = math.log1p(-(rho / r0_sq))
    elif b > -math.inf:
        log_b = math.log(abs(b))
    else:
        log_b = math.log(-diff) - math.log(r0_sq)
    return r0_sq, b, log_b


def _frozen_escape(x1, x2, rho):
    """The backward escape time, -inf inside the cycle or on it."""
    _, b, log_b = _frozen_offset(x1, x2, rho)
    if b <= 0.0:
        return -math.inf
    return log_b / (2.0 * rho)


def _frozen_radial_sq(x1, x2, t, rho):
    r0_sq, b, log_b = _frozen_offset(x1, x2, rho)
    if r0_sq == 0.0:
        return 0.0
    if b == 0.0:
        return rho
    start = rho / r0_sq
    if b > 0.0:
        t_escape = log_b / (2.0 * rho)
        den = start - b * math.expm1(-(2.0 * rho) * t) if t > t_escape else 0.0
        if den > 0.0:
            return rho / den
        raise BackwardBlowup(f"radial solution escapes at t={t_escape!r}; "
                             f"requested t={float(t)!r}")
    x = -(2.0 * rho) * t
    if b > -math.inf and -math.log(2.0) <= x <= math.log(2.0):
        return rho / (start - b * math.expm1(x))
    s = log_b + x
    if s > 0.0:
        return math.exp(math.log(rho) - s) / (1.0 + math.exp(-s))
    return rho / (1.0 + math.exp(s))


def _in_band(x1, x2, rho):
    r0_sq, b, _ = _frozen_offset(x1, x2, rho)
    return r0_sq != 0.0 and abs(b) <= ON_CYCLE_BAND


def _frozen_orbit_radial_sq(x1, x2, t, rho):
    """The left orbit's r(t)^2: rho in the on-cycle band, else the law."""
    if _in_band(x1, x2, rho):
        return rho
    return _frozen_radial_sq(x1, x2, t, rho)


def _assert_meets_rigorous(x1, x2, t, rho, got):
    """r(t)^2 within 1e-13 of the 60-digit law, where the law evaluates
    within a factor 100 of rho outside the cycle (the escape's own
    conditioning grows as r^2 / rho), or the raise at or past the escape.
    """
    want = radial_sq(x1, x2, rho, t)
    if got is BackwardBlowup:
        assert want is None or want > 1e12 * rho, (x1, x2, t, rho)
    elif want is not None and want <= 100.0 * max(rho, x1 * x1 + x2 * x2):
        assert abs(got - want) <= 1e-13 * want, (x1, x2, t, rho, got, want)


def _assert_radius_meets_rigorous(x0, t, rho, orbit):
    """The radius of the left orbit ``orbit`` of the start ``x0`` at ``t``
    against the 60-digit law, off the on-cycle band (where r^2 = rho)."""
    if _in_band(x0[0], x0[1], rho):
        return
    try:
        x = orbit(t)
    except BackwardBlowup:
        got = BackwardBlowup
    else:
        got = x[0] * x[0] + x[1] * x[1]
    _assert_meets_rigorous(float(x0[0]), float(x0[1]), float(t), rho, got)


def _band_starts(rho):
    """Starts (x1, 0) just inside and just outside the band on both sides
    of the cycle, with the offset |b| each aims at."""
    out = []
    for rel in (0.5e-12, 0.99e-12, 1.01e-12, 2e-12, 1e-9):
        for sign in (1.0, -1.0):
            out.append((math.sqrt(rho / (1.0 - sign * rel)), sign * rel))
    return out


def test_radial_law_matches_frozen_reference():
    rng = np.random.default_rng(40)
    in_band = off_band = near_escape = 0
    for _ in range(60):
        rho = rng.uniform(0.3, 2.0)
        sr = math.sqrt(rho)
        starts = [(0.0, 0.0), (sr, 0.0)]
        for _ in range(6):
            th = rng.uniform(-math.pi, math.pi)
            r = sr * math.sqrt(rng.uniform(0.01, 3.0))
            starts.append((r * math.cos(th), r * math.sin(th)))
        starts += [(x1, 0.0) for x1, _ in _band_starts(rho)]
        for x1, x2 in starts:
            law = _law(x1, x2, rho)
            ts = [0.0, -0.0] + list(rng.uniform(-40.0, 40.0, size=8))
            t_blow = _frozen_escape(x1, x2, rho)
            assert law.t_escape == t_blow, (x1, x2)
            if t_blow > -math.inf:
                ts += [t_blow, t_blow - 1e-9, t_blow + 1e-9, t_blow - 1.0]
            for t in ts:
                t = float(t)
                # the law never snaps a start onto the cycle, so the
                # on-cycle band follows the exact law too
                got = _kernel_outcome(lambda t: (law.r_sq(t),), t)
                want = _kernel_outcome(
                    lambda t: (_frozen_radial_sq(x1, x2, t, rho),), t)
                assert got == want, (x1, x2, t)
                if got[0] is BackwardBlowup:
                    near_escape += t > t_blow - 1e-6
                    _assert_meets_rigorous(x1, x2, t, rho, BackwardBlowup)
                else:
                    _assert_meets_rigorous(x1, x2, t, rho, got[0][0])
                if _in_band(x1, x2, rho):
                    in_band += 1
                else:
                    off_band += 1
                assert _kernel_outcome(
                    lambda t: (_law(x1, x2, rho).r_sq(t),), t) == got
    assert in_band and off_band and near_escape


def test_left_orbit_from_a_start_past_the_float_range():
    # r0^2 = 1e400 overflows, so the law takes its offset b as 1 (rho /
    # r0^2 rounds away) and escapes at t = 0: the start itself, then r^2
    # as the 60-digit law has it once back in range, and backward none
    orbit = left_orbit((1e200, 0.0, 0.0), 1.0, 1.0, 0.0)
    assert repr(orbit(0.0)) == repr((1e200, 0.0, 0.0))
    for t in (1e-9, 1e-3, 0.5, 3.0, 40.0):
        x1, x2, _ = orbit(t)
        want = radial_sq(1e200, 0.0, 1.0, t)
        assert abs(x1 * x1 + x2 * x2 - want) <= 1e-15 * want, (t, want)
    with pytest.raises(BackwardBlowup):
        orbit(-1e-3)


def test_on_cycle_band_edges():
    rho = 1.3
    params = replace(_plain_params(), rho=rho)
    for x1, rel in _band_starts(rho):
        law = _law(x1, 0.0, rho)
        r0_sq, b, log_b = _frozen_offset(x1, 0.0, rho)
        # the law's offset is the exact one, inside the band too
        assert law.b == b != 0.0
        if b > 0.0:
            # the escape log(b) / (2 rho), b from the exact offset, within
            # 4 ulp of the 60-digit escape time
            assert law.t_escape == log_b / (2.0 * rho)
            with mpmath.workdps(60):
                exact = mpmath.mpf(x1) ** 2
                ref = mpmath.log((exact - rho) / exact) / (2 * rho)
            assert abs(law.t_escape - float(ref)) <= 4.0 * math.ulp(
                law.t_escape)
            with pytest.raises(BackwardBlowup, match="requested t="):
                law.r_sq(law.t_escape * (1.0 + 1e-9))
            law.r_sq(law.t_escape * (1.0 - 1e-9))
        else:
            assert law.t_escape == -math.inf
        # left_flow holds a start in the band on the cycle, r^2 = rho at
        # every time; off it, the orbit follows the law, which by t = -20
        # has escaped outside the cycle (log(b) / (2 rho) > -11 here) and
        # shrunk r^2 to about rho e^{2 rho t} / |b| inside
        t = -20.0
        if abs(b) <= ON_CYCLE_BAND:
            theta = params.omega * t
            assert _bits(left_flow((x1, 0.0, 0.0), t, params)[:2]) == _bits(
                (math.sqrt(rho) * math.cos(theta),
                 math.sqrt(rho) * math.sin(theta)))
        elif b > 0.0:
            with pytest.raises(BackwardBlowup):
                left_flow((x1, 0.0, 0.0), t, params)
        else:
            x = left_flow((x1, 0.0, 0.0), t, params)
            assert x[0] * x[0] + x[1] * x[1] == pytest.approx(
                law.r_sq(t), rel=1e-14)
    # the band reaches both sides of the cycle at each edge
    assert sorted(abs(_frozen_offset(x1, 0.0, rho)[1]) <= ON_CYCLE_BAND
                  for x1, _ in _band_starts(rho)) == [False] * 6 + [True] * 4


def test_left_orbit_meets_rigorous_along_a_near_cycle_l1_return():
    # The L1 line k / sqrt(rho) - 1 = 1.4e-10 whose first-return scan an
    # offset formed by cancellation misplaced: along [t*, 0] the orbit of
    # the tangency point keeps r^2 to 1e-13 of the 60-digit law (that
    # offset missed it by 9.6e-7).
    from hetcycle.model import tangency_ordinates

    rho, omega, k = (0.0016230609822102907, 0.00015704353400870005,
                     0.04028723101266667)
    vp = tangency_ordinates(rho, omega, k)[1]
    t_star = first_return(rho, omega, k, vp).t
    assert t_star == pytest.approx(-6686.3677, abs=1e-4)
    orbit = left_orbit((k, vp, 0.0), rho, omega, 0.0)
    worst = 0.0
    for t in [t_star * i / 200.0 for i in range(201)]:
        x1, x2, _ = orbit(t)
        want = radial_sq(k, vp, rho, t)
        worst = max(worst, abs(x1 * x1 + x2 * x2 - want) / want)
    assert worst <= 1e-13, worst


def test_radial_law_meets_rigorous_near_the_cycle():
    # 400 starts with rho log-uniform in [1e-3, 10] and |rho / r0^2 - 1|
    # log-uniform in [1e-11, 1e-3], on both sides of the cycle, at a uniform
    # angle (so |x1| < |x2| half the time); backward until the offset has
    # grown 1e6-fold, or outside the cycle until r^2 = 100 rho (past it the
    # escape's own conditioning, r^2 / rho, takes over), and forward to
    # 5 / rho.  Every r^2 is within 1e-12 of the 60-digit law (an offset
    # formed by cancellation missed it by 5.7e-9).
    rng = np.random.default_rng(38)
    worst = 0.0
    with Budget("radial law near the cycle against the reference", 10.0):
        for i in range(400):
            rho = 10.0 ** rng.uniform(-3.0, 1.0)
            a = 10.0 ** rng.uniform(-11.0, -3.0) * (1.0 if i % 2 else -1.0)
            r0, th = math.sqrt(rho / (1.0 + a)), rng.uniform(-math.pi, math.pi)
            x1, x2 = r0 * math.cos(th), r0 * math.sin(th)
            law = _law(x1, x2, rho)
            growth = 1e6 if a > 0.0 else min(1e6, 0.99 / law.b)
            t_back = -math.log(growth) / (2.0 * rho)
            ts = [t_back * j / 11.0 for j in range(12)]
            ts += [5.0 / rho * j / 7.0 for j in range(1, 8)]
            for t in ts:
                want = radial_sq(x1, x2, rho, t)
                worst = max(worst, abs(law.r_sq(t) - want) / want)
    assert worst <= 1e-12, worst


def test_radial_law_returns_the_start():
    # r(0) is within 2 ulp of the exact radius of the start, over four
    # decades either side of the cycle (an offset formed by cancellation
    # was off by up to 231,819 ulp), and a start far outside a small cycle
    # keeps its coordinate (it moved by -4.96e-8)
    rng = np.random.default_rng(3838)
    worst = 0.0
    for _ in range(20000):
        rho = 10.0 ** rng.uniform(-6.0, 6.0)
        r = math.sqrt(rho) * 10.0 ** rng.uniform(-3.0, 3.0)
        th = rng.uniform(-math.pi, math.pi)
        x1, x2 = r * math.cos(th), r * math.sin(th)
        got = math.sqrt(_law(x1, x2, rho).r_sq(0.0))
        with mpmath.workdps(40):
            want = float(mpmath.sqrt(mpmath.mpf(x1) ** 2 + mpmath.mpf(x2) ** 2))
        worst = max(worst, abs(got - want) / math.ulp(want))
    assert worst <= 2.0, worst
    x = left_orbit((1.2, 0.0, 0.0), 1e-10, 1.0, 0.0)(0.0)
    assert abs(x[0] - 1.2) <= math.ulp(1.2), x


def test_left_orbit_returns_its_start_at_time_zero():
    # the start comes back bit for bit at t = +-0.0, inside, outside and in
    # the on-cycle band (where the orbit is held at r = sqrt(rho)); a start
    # rebuilt from its radius and angle moved x1 by an ulp
    rng = np.random.default_rng(3939)
    in_band = 0
    with Budget("left orbits return their starts", 5.0):
        for i in range(20000):
            rho = 10.0 ** rng.uniform(-6.0, 6.0)
            if i % 2:
                a = 10.0 ** rng.uniform(-16.0, -12.0) * rng.choice([-1.0, 1.0])
                r = math.sqrt(rho / (1.0 - a))
            else:
                r = math.sqrt(rho) * 10.0 ** rng.uniform(-3.0, 3.0)
            th = rng.uniform(-math.pi, math.pi)
            x0 = (r * math.cos(th), r * math.sin(th), rng.uniform(-1.0, 1.0))
            orbit = left_orbit(x0, rho, rng.uniform(0.1, 10.0), 1.0)
            for t in (0.0, -0.0):
                assert _bits(orbit(t)) == _bits(x0), (x0, rho)
            in_band += _in_band(x0[0], x0[1], rho)
    assert in_band > 5000


def test_radial_law_offset_one_ulp_outside_the_cycle():
    # the law never snaps a start onto the cycle: 1 ulp outside it, on
    # either axis, b > 0 is the exact offset, rounded, and the orbit
    # escapes backward at log(b) / (2 rho)
    with Budget("the law 1 ulp outside the cycle", 1.0):
        for rho in (1.3, 2.0, 1e-6, 7e5):
            x = math.nextafter(math.sqrt(rho), math.inf)
            for x1, x2 in ((x, 0.0), (0.0, -x)):
                law = _law(x1, x2, rho)
                with mpmath.workdps(60):
                    exact = mpmath.mpf(x) ** 2
                    b = float((exact - rho) / exact)
                assert 0.0 < law.b <= 1e-15
                assert abs(law.b - b) <= 2.0 * math.ulp(b), (rho, law.b, b)
                assert law.t_escape == math.log(law.b) / (2.0 * rho)
                with pytest.raises(BackwardBlowup):
                    law.r_sq(law.t_escape)


def test_radial_law_edge_starts():
    # the origin is an equilibrium of the law
    law = _law(0.0, -0.0, 1.0)
    assert (law.r0_sq, law.t_escape) == (0.0, -math.inf)
    assert [law.r_sq(t) for t in (-1e3, 0.0, 1e3)] == [0.0] * 3
    assert left_orbit((0.0, -0.0, 0.5), 1.0, 1.0, 1.0)(2.0)[:2] == (0.0, 0.0)
    # a subnormal r0^2: rho / r0^2 overflows, yet the start keeps its
    # radius to the precision of r0^2, and the orbit reaches the cycle
    law = _law(1e-160, 0.0, 1.0)
    r0_sq = 1e-160 * 1e-160
    assert 0.0 < r0_sq < 2.0 ** -1022
    assert abs(law.r_sq(0.0) - r0_sq) <= math.ulp(r0_sq)
    x = left_orbit((1e-160, 0.0, 0.0), 1.0, 1.0, 0.0)
    assert abs(x(0.0)[0] - math.sqrt(r0_sq)) <= math.ulp(r0_sq) / r0_sq \
        * math.sqrt(r0_sq)
    assert abs(math.hypot(*x(400.0)[:2]) - 1.0) <= 1e-12
    # forward from a tiny start never raises, and r grows to the cycle
    for rho in (1.0, 1e-3, 1e3):
        law = _law(1e-150, 0.0, rho)
        rs = [law.r_sq(t / rho) for t in (0.0, 1.0, 100.0, 300.0, 346.0,
                                           400.0, 1e4, math.inf)]
        assert all(a <= b for a, b in zip(rs, rs[1:])), rs
        assert rs[-2] == rs[-1] == rho
    # deep backward inside the cycle: r^2 follows the 60-digit law down to
    # the float range's end, with no overflow and no early 0
    for x1, rho in ((0.5, 1.0), (0.999, 1.0), (1e-100, 1e-3), (3.0, 1e4)):
        law = _law(x1, 0.0, rho)
        for t in (-1.0, -10.0, -100.0, -300.0, -355.0, -372.0, -1e4):
            t /= rho
            got, want = law.r_sq(t), radial_sq(x1, 0.0, rho, t)
            if want >= 2.0 ** -1022:
                assert abs(got - want) <= 1e-12 * want, (x1, rho, t)
            else:
                assert got <= 2.0 ** -1022 and (got > 0.0) == (want > 0.0)
    # the escape: BackwardBlowup past it, not before it
    for x1, x2, rho in ((2.0, 0.0, 1.0), (1.2, 0.0, 1e-10),
                        (0.0, 1.0 + 1e-9, 1.0), (3e5, -4e5, 7.0),
                        (0.03, 0.04, 1e-3 * (1.0 - 1e-6))):
        law = _law(x1, x2, rho)
        assert law.t_escape < 0.0
        with pytest.raises(BackwardBlowup, match="requested t="):
            law.r_sq(law.t_escape * (1.0 + 1e-9))
        assert law.r_sq(law.t_escape * (1.0 - 1e-9)) > 0.0
        want = radial_sq(x1, x2, rho, law.t_escape * (1.0 - 1e-9))
        assert law.r_sq(law.t_escape * (1.0 - 1e-9)) == pytest.approx(
            want, rel=1e-5)


def test_left_flow_on_cycle_start_stays_on_the_cylinder(ex1):
    # a start a rounding error off the cycle winds down the cylinder over
    # a long backward horizon at radius sqrt(rho), with no spurious blow-up
    sr = ex1.sqrt_rho
    for scale in (1.0 + 4e-16, 1.0 - 4e-16):
        x0 = (sr * scale * math.cos(0.3), sr * scale * math.sin(0.3), 0.2)
        assert _in_band(x0[0], x0[1], ex1.rho)
        x = left_flow(x0, -30.0, ex1)
        assert math.hypot(x[0], x[1]) == pytest.approx(sr, rel=1e-15)


def test_left_flow_stable_plane_past_exp_overflow(ex1):
    # e^{mu t} overflows at this t; a start with x3 = +-0.0 never needs it
    t = 800.0 / ex1.mu
    with pytest.raises(OverflowError):
        math.exp(ex1.mu * t)
    for x3 in (0.0, -0.0):
        x = left_flow((0.4, -0.3, x3), t, ex1)
        assert _bits((x[2],)) == _bits((x3,))
        assert math.hypot(x[0], x[1]) == pytest.approx(ex1.sqrt_rho,
                                                       rel=1e-12)


# The numpy-array closed forms as they stood before the flows moved to
# Python floats, the left one on the frozen radial law above; the float
# path must reproduce them bit for bit.
def _array_left_flow(x0, t, params):
    x0 = np.asarray(x0, dtype=float)
    r0_sq = x0[0] * x0[0] + x0[1] * x0[1]
    if r0_sq == 0.0:
        x1 = x2 = 0.0
    elif t == 0.0:  # the start, bit for bit
        x1, x2 = x0[0], x0[1]
    else:
        r_sq = _frozen_orbit_radial_sq(x0[0], x0[1], t, params.rho)
        r = math.sqrt(r_sq)
        theta = math.atan2(x0[1], x0[0]) + params.omega * t
        x1 = r * math.cos(theta)
        x2 = r * math.sin(theta)
    x3 = x0[2] * math.exp(params.mu * t)
    return np.array([x1, x2, x3])


def _array_right_flow(x0, t, params):
    from hetcycle.flows import block_exp
    from hetcycle.model import PlanarLinearSystem

    x0 = np.asarray(x0, dtype=float)
    y1 = x0[0] - params.q1
    y2 = x0[1] - params.q2
    y3 = x0[2] - params.q3
    sys = PlanarLinearSystem.from_entries(params.b11, params.b12, params.b21,
                                          params.b22)
    c, s = block_exp(sys)(t)
    # q + c y + s (B - a I) y
    z1 = (params.b11 - sys.a) * y1 + params.b12 * y2
    z2 = params.b21 * y1 + (params.b22 - sys.a) * y2
    return np.array([
        params.q1 + c * y1 + s * z1,
        params.q2 + c * y2 + s * z2,
        params.q3 + (y3 * math.exp(params.lam * t) if y3 != 0.0 else y3),
    ])


def _float3_bytes(x):
    """The bytes of a closed form's value, which must be a tuple of three
    floats."""
    assert type(x) is tuple and len(x) == 3
    assert all(isinstance(v, float) for v in x)
    return np.array(x).tobytes()


def _bytes(flow, x):
    """The bytes of ``flow``'s value ``x``: a float64 array of shape (3,)
    from an array reference, a tuple of three floats from a closed form."""
    if flow in (_array_left_flow, _array_right_flow):
        assert isinstance(x, np.ndarray) and x.dtype == np.float64
        assert x.shape == (3,)
        return x.tobytes()
    return _float3_bytes(x)


def _outcome(flow, x0, t, params):
    """The returned bytes, or the type of the exception raised."""
    try:
        x = flow(x0, t, params)
    except (BackwardBlowup, OverflowError) as exc:
        return type(exc)
    return _bytes(flow, x)


def _assert_float_path_matches(flow, ref, x0, t, params):
    want = _outcome(ref, x0, t, params)
    for start in (tuple(x0), list(x0), np.array(x0)):
        for time in (float(t), np.float64(t)):
            assert _outcome(flow, start, time, params) == want, (start, time)


def test_left_flow_float_path_matches_array_reference(ex1, ex2, ex3):
    rng = np.random.default_rng(20)
    for p in (ex1, ex2, ex3):
        sr = p.sqrt_rho
        for _ in range(150):
            r = sr * rng.uniform(0.05, 2.5)  # inside and outside the cycle
            th = rng.uniform(-math.pi, math.pi)
            x0 = (r * math.cos(th), r * math.sin(th), rng.uniform(-1.0, 1.0))
            t = rng.uniform(-3.0, 6.0)
            _assert_float_path_matches(left_flow, _array_left_flow, x0, t, p)
            _assert_radius_meets_rigorous(
                x0, t, p.rho, lambda t: left_flow(x0, t, p))
        # the origin of the plane (r0 = 0), a start on the cycle, and the
        # backward escape time of a start outside it, at and just past it
        for x0, t in (((0.0, 0.0, 0.3), -2.0), ((0.0, 0.0, 0.0), 5.0),
                      ((sr, 0.0, 0.1), -4.0)):
            _assert_float_path_matches(left_flow, _array_left_flow, x0, t, p)
        x0 = (1.5 * sr, -0.2 * sr, 0.4)
        t_blow = _frozen_escape(x0[0], x0[1], p.rho)
        for t in (t_blow, t_blow - 1e-9, t_blow + 1e-9, t_blow + 1e-3):
            _assert_float_path_matches(left_flow, _array_left_flow, x0, t, p)
        assert _outcome(left_flow, x0, t_blow, p) is BackwardBlowup
        with pytest.raises(BackwardBlowup) as info:
            left_flow(np.array(x0), np.float64(t_blow - 1.0), p)
        assert "np.float64" not in str(info.value)


def _flow_outcome(flow, x0, t, params):
    """The returned bytes, or the BackwardBlowup message."""
    try:
        return _bytes(flow, flow(x0, t, params))
    except BackwardBlowup as exc:
        return ("BackwardBlowup", str(exc))


def test_left_flow_start_memo_matches_array_reference(ex1, ex2, ex3):
    p = _plain_params()
    twin = _plain_params()
    assert twin == p and twin is not p
    starts = [
        (0.3, 0.4, 0.2), (2.0, -0.5, 0.4),  # inside and outside the cycle
        (0.0, 0.0, 0.3), (-0.0, -0.0, -0.3),  # r0 = 0
        (0.0, -1.0, 0.2),  # exactly on the cycle of p (rho = 1)
        # pairs equal under == whose results differ in sign bits: the
        # angle is pi or -pi, x3 is 0.0 or -0.0
        (-1.0, 0.0, 0.0), (-1.0, -0.0, -0.0),
        (0.5, 0.0, 0.1), (0.5, -0.0, -0.0),
    ]
    assert p.rho / (0.0 * 0.0 + (-1.0) * (-1.0)) - 1.0 == 0.0
    t_blow = _frozen_escape(2.0, 0.5, p.rho)
    times = (-0.7, 0.0, -0.0, 0.3, 4.0, t_blow, t_blow - 1e-9,
             t_blow + 1e-9)
    assert isinstance(_flow_outcome(_array_left_flow, starts[1], t_blow, p),
                      tuple)
    rng = np.random.default_rng(33)
    for _ in range(4):
        for i in rng.permutation(len(starts)):
            held = tuple(list(starts[i]))  # a new tuple object each time
            # one tuple object under alternating params
            for t in times:
                for params in (p, twin, ex1, ex2, ex3, p):
                    want = _flow_outcome(_array_left_flow, starts[i], t,
                                         params)
                    _assert_radius_meets_rigorous(
                        held, t, params.rho,
                        lambda t: left_flow(held, t, params))
                    assert _flow_outcome(left_flow, held, t, params) == want
                    assert _flow_outcome(left_flow, held, np.float64(t),
                                         params) == want
            # an equal but distinct tuple, a list and an ndarray
            for params in (p, twin, ex1, ex2, ex3, p):
                t = times[int(rng.integers(len(times)))]
                want = _flow_outcome(_array_left_flow, starts[i], t, params)
                for x0 in (tuple(list(held)), list(held), np.array(held)):
                    assert _flow_outcome(left_flow, x0, t, params) == want
    # the equal pairs back to back, in both orders
    for pair in (starts[5:7], starts[7:9]):
        for a, b in (pair, pair[::-1]):
            for x0 in (a, b):
                assert (_flow_outcome(left_flow, x0, 0.3, p)
                        == _flow_outcome(_array_left_flow, x0, 0.3, p))


def test_right_flow_float_path_matches_array_reference(ex1, ex2, ex3):
    from hetcycle.model import SystemParams

    repeated = SystemParams(rho=1, omega=1, mu=1, b11=-1.0, b12=1.0, b21=0.0,
                            b22=-1.0, lam=1, q1=1.2, q2=0, q3=0.2, d=1.2)
    rng = np.random.default_rng(21)
    for p in (ex1, ex2, ex3, repeated):
        for _ in range(150):
            x0 = tuple(p.q + rng.uniform(-2.0, 2.0, size=3))
            t = rng.uniform(-2.0, 8.0)
            _assert_float_path_matches(right_flow, _array_right_flow, x0, t, p)
        # a start on the stable plane (y3 = 0), also past where e^{lam t}
        # overflows, the equilibrium itself, and an overflowing y3 != 0
        on_plane = (p.q1 + 0.3, p.q2 - 0.2, p.q3)
        for x0, t in ((on_plane, 2.5), (on_plane, 800.0 / p.lam),
                      (tuple(p.q), -3.0), ((p.q1, p.q2, p.q3 + 0.1),
                                           800.0 / p.lam)):
            _assert_float_path_matches(right_flow, _array_right_flow, x0, t, p)


# The planar kernels written out per call; the factories, which bind the
# t-independent part once, must reproduce them bit for bit.
def _ref_planar_left_flow(xy, t, rho, omega):
    r0_sq = xy[0] * xy[0] + xy[1] * xy[1]
    if r0_sq == 0.0:
        return (0.0, 0.0)
    if t == 0.0:  # the start, bit for bit
        return (xy[0], xy[1])
    r = math.sqrt(_frozen_orbit_radial_sq(xy[0], xy[1], t, rho))
    theta = math.atan2(xy[1], xy[0]) + omega * t
    return (r * math.cos(theta), r * math.sin(theta))


def _ref_planar_matrix_exp(a11, a12, a21, a22, t):
    disc = (a11 - a22) * (a11 - a22) + 4.0 * a12 * a21
    a = 0.5 * (a11 + a22)
    if disc == 0.0:
        e = math.exp(a * t)
        c, sl = e, e * t
    elif disc > 0.0:
        # the larger of e^{lo t}, e^{hi t}, and the smaller as the larger
        # times 1 + m with m = expm1(-2 w |t|); the rates lo <= hi as the
        # block's spectrum holds them (a +/- w cancels on stiff blocks)
        from hetcycle.model import PlanarLinearSystem
        lo, hi = (e.real for e in PlanarLinearSystem.from_entries(
            a11, a12, a21, a22).eigenvalues)
        w = 0.5 * math.sqrt(disc)
        if t > 0.0:
            e_big, m = math.exp(hi * t), math.expm1(-2.0 * w * t)
            half_diff = -0.5 * e_big * m  # (e_hi - e_lo) / 2
        else:
            e_big, m = math.exp(lo * t), math.expm1(2.0 * w * t)
            half_diff = 0.5 * e_big * m
        c = e_big + 0.5 * e_big * m  # (e_hi + e_lo) / 2
        sl = half_diff / w
    else:
        w = 0.5 * math.sqrt(-disc)
        e = math.exp(a * t)
        c = e * math.cos(w * t)
        sl = e * math.sin(w * t) / w
    return (c + (a11 - a) * sl, a12 * sl, a21 * sl, c + (a22 - a) * sl)


def _bits(values):
    """The exact doubles of a tuple (tells -0.0 from 0.0)."""
    return tuple(struct.pack("<d", v) for v in values)


def _kernel_outcome(fn, *args):
    """The returned values with their exact bits, or the raised error."""
    try:
        got = fn(*args)
    except (BackwardBlowup, OverflowError) as exc:
        return type(exc), str(exc)
    return got, _bits(got)


def _branch(a11, a12, a21, a22):
    """The sign of the discriminant, by name."""
    disc = (a11 - a22) * (a11 - a22) + 4.0 * a12 * a21
    return ("real" if disc > 0.0 else
            "repeated" if disc == 0.0 else "complex")


def _block_entries(sys, exp_ta):
    """t -> the four entries of e^{tA} = c I + s (A - a I) from
    ``block_exp``'s (c, s) at t."""
    def entries(t):
        c, s = exp_ta(t)
        return (c + (sys.a11 - sys.a) * s, sys.a12 * s, sys.a21 * s,
                c + (sys.a22 - sys.a) * s)
    return entries


def test_block_exp_matches_per_call_reference():
    from hetcycle.flows import block_exp
    from hetcycle.model import PlanarLinearSystem

    rng = np.random.default_rng(30)
    blocks = []
    for _ in range(60):
        a, b = -rng.uniform(0.1, 4.0), rng.uniform(0.1, 8.0)
        blocks.append((a, b * 1.3, -b / 1.3, a))  # complex pair
        blocks.append((-rng.uniform(0.1, 4.0), rng.uniform(-3.0, 3.0),
                       0.0, -rng.uniform(0.1, 4.0)))  # distinct real
        c = -rng.uniform(0.1, 4.0)
        blocks.append((c, rng.uniform(-3.0, 3.0), 0.0, c))  # exact repeat
    # tiny discriminants, disc = 4 eps s^2, on both sides of 0, at unit
    # rates and at rates 2^-20 and 2^20: the branch is the sign of disc
    # however small
    for s in (1.0, 2.0 ** -20, 2.0 ** 20):
        for eps in (0.9e-12, -0.9e-12, 1.1e-12, -1.1e-12, 1e-12, -1e-12):
            blocks.append((-s, s, eps * s, -s))
            assert _branch(-s, s, eps * s, -s) == (
                "real" if eps > 0.0 else "complex")
    branches = {_branch(*m) for m in blocks}
    assert branches == {"repeated", "real", "complex"}
    ts = [0.0, -0.0, 1e-9, -1e-9] + list(rng.uniform(-6.0, 6.0, size=20))
    ts += [-400.0, -800.0, 800.0]  # exp overflows on the backward side
    for m in blocks:
        sys = PlanarLinearSystem.from_entries(*m)
        assert sys.branch == _branch(*m)
        exp_ta = _block_entries(sys, block_exp(sys))
        for t in ts:
            t = float(t)
            want = _kernel_outcome(_ref_planar_matrix_exp, *m, t)
            assert _kernel_outcome(exp_ta, t) == want, (m, t)


def test_block_exp_matches_mpmath_on_small_rate_blocks(ex1):
    # an independent reference: the 40-digit matrix exponential, at times
    # up to 20 of the block's own time scale 1/|a|, on blocks whose rates
    # are far below 1, far above it and near it, with discriminants from
    # exactly 0 to 1e-8 a^2 on both sides: every branch meets it to 1e-14
    # of the largest entry, the real one too as w -> 0 (no cancellation).
    # Real blocks whose rates differ by factors up to 1e30 meet it too, at
    # times up to 20 of their slow time scale: a +/- w would cancel the
    # slow rate there and keep e^{tA} near its start.  So do near-singular
    # nodes, whose slow rate is det over the fast one
    import mpmath

    from hetcycle.flows import block_exp
    from hetcycle.model import PlanarLinearSystem

    blocks = [(ex1.b11, ex1.b12, ex1.b21, ex1.b22),
              (-9.694814540121535e-07, -1.804892770862274e-06,
               9.852611088887626e-08, -9.694814540121535e-07)]  # focus, 1e-6
    for s in (1.0, 2.0 ** -20, 2.0 ** 20):
        blocks += [(-2.0 * s, s, 0.0, -s),
                   (-0.5 * s, 4.0 * s, -4.0 * s, -0.5 * s),
                   (-s, s, 0.0, -s), (-s, 3.0 * s / 150.0, -s / 450.0, -s),
                   (-s, s, 0.0, math.nextafter(-s, 0.0))]  # one ulp apart
        # disc = 4 s (eps s / 4) = eps a^2
        blocks += [(-s, s, 0.25 * eps * s, -s)
                   for eps in (0.5e-12, -0.5e-12, 2e-12, -2e-12, 1e-8, -1e-8)]
    # separated rates l1 << l2: triangular either way round, and coupled
    # both ways (b12 b21 = l1 l2 / 2, so det > 0 and the slow rate ~ l1 / 2)
    for l1 in (1.0, 1e-10, 1e-3):
        for ratio in (1e3, 1e10, 1e17, 1e20, 1e30):
            l2 = l1 * ratio
            blocks += [(-l1, l1, 0.0, -l2), (-l2, l2, 0.0, -l1),
                       (-l1, l2, 0.5 * l1, -l2)]
    # near-singular true nodes (det 1.2e-17 and 1.5e-15 exactly) whose
    # rounded a11 + s reads 0.0: the slow rate comes from the exact det
    blocks += [(-1.303928193760727, -3.891098390922299, -1.1139837238350385,
                -3.3242783583246602),
               (-8.557365677512372, -0.18779725405889502, -129.33306710443384,
                -2.8383027880944924)]
    for m in blocks:
        sys = PlanarLinearSystem.from_entries(*m)
        exp_ta = _block_entries(sys, block_exp(sys))
        ts = [k / abs(sys.a) for k in (-20.0, -10.0, -3.0, -1.0, -0.3, -1e-3,
                                       -1e-6, 1e-6, 1e-3, 0.5, 2.0, 10.0)]
        if sys.branch == "real":  # the slow rate's own time scale
            slow = abs(sys.eigenvalues[1].real)
            ts += [k / slow for k in (1e-3, 0.3, 1.0, 3.0, 20.0)]
        if sys.spectral_type == "complex_stable":
            ts.append(-2.0 * math.pi / sys.w)  # one backward turn
        a = mpmath.matrix([[m[0], m[1]], [m[2], m[3]]])
        for t in ts:
            try:
                got = exp_ta(t)
            except OverflowError:  # past the float range, as the reference
                assert abs(sys.a * t) > 700.0
                continue
            with mpmath.workdps(40):
                e = mpmath.expm(a * t)
            want = (e[0, 0], e[0, 1], e[1, 0], e[1, 1])
            big = max(abs(v) for v in want)
            assert max(abs(g - v) for g, v in zip(got, want)) <= 1e-14 * big, (
                m, t)


def _orbit_test_blocks(rng):
    """Blocks at rates 2^-20, 1 and 2^20: complex pairs with w / |a| down
    to 1e-6, near-repeated real pairs with disc down to 1e-24 a^2 and
    triangular shears (some with a repeated diagonal)."""
    blocks = []
    for s in (2.0 ** -20, 1.0, 2.0 ** 20):
        for _ in range(45):
            a = -s * rng.uniform(0.2, 3.0)
            w = abs(a) * 10.0 ** rng.uniform(-6.0, 1.0)
            k = 10.0 ** rng.uniform(-1.0, 1.0)
            blocks.append((a, w * k, -w / k, a))
            eps, k = 10.0 ** rng.uniform(-24.0, -8.0), rng.uniform(0.5, 2.0)
            blocks.append((a, k * s, 0.25 * eps * a * a / (k * s), a))
            d1, d2 = -s * rng.uniform(0.2, 3.0), -s * rng.uniform(0.2, 3.0)
            blocks.append((d1, s * rng.uniform(-20.0, 20.0), 0.0,
                           d1 if rng.uniform() < 0.3 else d2))
    return blocks


def test_right_orbit_matches_mpmath():
    # q + e^{tB} y against the 40-digit matrix exponential, at times up
    # to 20 of the block's own time scale 1/|a|: the combination
    # q + c y + s (B - a I) y meets it to 1e-14 max(1, |y|), and x3 its
    # exponential to 1e-14 of its size
    from hetcycle.flows import right_orbit
    from hetcycle.model import SystemParams

    rng = np.random.default_rng(40)
    blocks = _orbit_test_blocks(rng)
    assert {_branch(*m) for m in blocks} == {"real", "repeated", "complex"}
    with Budget("right_orbit against mpmath.expm", 20.0):
        for m in blocks:
            q = rng.uniform(-2.0, 2.0, size=3).tolist()
            p = SystemParams(rho=1, omega=1, mu=1, b11=m[0], b12=m[1],
                             b21=m[2], b22=m[3], q1=q[0], q2=q[1], q3=q[2],
                             lam=rng.uniform(0.5, 2.0) * abs(m[0] + m[3]),
                             d=1.0)
            r, th = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-3.2, 3.2)
            x0 = (q[0] + r * math.cos(th), q[1] + r * math.sin(th),
                  q[2] + rng.uniform(-1.0, 1.0))
            orbit = right_orbit(x0, p)
            with mpmath.workdps(40):  # y = x0 - q of the float start
                y = [mpmath.mpf(x) - mpmath.mpf(v) for x, v in zip(x0, q)]
                bound = 1e-14 * max(1.0, float(mpmath.hypot(y[0], y[1])))
            b = mpmath.matrix([[m[0], m[1]], [m[2], m[3]]])
            for k in (1e-6, 1e-3, 0.5, 2.0, 20.0):
                t = k / abs(p.block.a)
                got = orbit(t)
                with mpmath.workdps(40):
                    e = mpmath.expm(b * t)
                    want = (q[0] + e[0, 0] * y[0] + e[0, 1] * y[1],
                            q[1] + e[1, 0] * y[0] + e[1, 1] * y[1],
                            q[2] + mpmath.exp(p.lam * t) * y[2])
                    err = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
                    err3 = abs(got[2] - want[2])
                assert err <= bound, (m, t, err / bound)
                assert err3 <= 1e-14 * max(1.0, abs(want[2])), (m, t, err3)


def test_planar_left_flow_matches_per_call_reference():
    # left_orbit bound once in the plane x3 = 0: the reference's (x1, x2)
    # bit for bit

    rng = np.random.default_rng(31)
    for _ in range(40):
        rho = rng.uniform(0.3, 2.0)
        omega = rng.uniform(0.5, 15.0)
        sr = math.sqrt(rho)
        starts = [(0.0, 0.0), (sr, 0.0), (0.0, -sr)]  # r0 = 0, on the cycle
        for scale in (0.05, 0.7, 1.0, 1.3, 2.5):  # inside, on, outside
            th = rng.uniform(-math.pi, math.pi)
            starts.append((scale * sr * math.cos(th), scale * sr * math.sin(th)))
        for xy in starts:
            orbit = left_orbit((*xy, 0.0), rho, omega, 0.0)
            ts = [0.0, -0.0] + list(rng.uniform(-4.0, 6.0, size=12))
            t_blow = _frozen_escape(xy[0], xy[1], rho)
            if t_blow > -math.inf:  # the backward escape, at and around it
                ts += [t_blow, t_blow - 1e-9, t_blow + 1e-9, t_blow - 1.0]
            for t in ts:
                t = float(t)
                want = _kernel_outcome(_ref_planar_left_flow, xy, t, rho, omega)
                assert _kernel_outcome(lambda t: orbit(t)[:2], t) == want, (
                    xy, t)
                _assert_radius_meets_rigorous(xy, t, rho, orbit)
    # a start outside the cycle raises at its escape time, same message
    orbit = left_orbit((2.0, 0.0, 0.0), 1.0, 3.0, 0.0)
    with pytest.raises(BackwardBlowup, match="requested t="):
        orbit(_frozen_escape(2.0, 0.0, 1.0))


def test_right_flow_block_memo_follows_the_params_object(ex2, ex3):
    import dataclasses

    from hetcycle import flows
    from hetcycle.model import SystemParams

    fields = {f.name: getattr(ex2, f.name) for f in dataclasses.fields(ex2)}
    twin_a, twin_b = SystemParams(**fields), SystemParams(**fields)
    assert twin_a == twin_b and twin_a is not twin_b
    # equal under == (0.0 == -0.0), yet their blocks differ in b12's sign
    base = dict(fields, q1=-0.0, q2=-0.0, b11=-0.5, b22=-1.5, b21=0.7)
    pos = SystemParams(**dict(base, b12=0.0))
    neg = SystemParams(**dict(base, b12=-0.0))
    assert pos == neg
    rng = np.random.default_rng(32)
    for p, other in ((ex2, ex3), (twin_a, twin_b), (pos, neg)):
        for _ in range(10):
            for params in (p, other, p, p, other):
                for x0 in (tuple(params.q),
                           tuple(params.q + rng.uniform(-1.0, 1.0, 3))):
                    t = float(rng.uniform(-2.0, 3.0))
                    got = flows.right_flow(x0, t, params)
                    want = _array_right_flow(x0, t, params)
                    assert _float3_bytes(got) == want.tobytes()
                    assert (np.signbit(got) == np.signbit(want)).all()
    # each params object binds its own block, so z = (B - a I) y keeps the
    # sign of b12: (b11 - a) y1 = 0.5 y1 underflows to -0.0, so z1 =
    # -0.0 + b12 y2 is b12's signed zero, and with q1 = -0.0 and c y1
    # underflowing to -0.0 as well, x1 = s z1 carries it
    x0 = (-5e-324, 1.0, 0.0)
    for params in (pos, neg, pos):
        want = math.copysign(1.0, params.b12)
        assert math.copysign(1.0, flows.right_orbit(x0, params)(2.0)[0]) == want
        assert math.copysign(1.0, flows.right_flow(x0, 2.0, params)[0]) == want


# The zone fields as they stood with every component read by index; the
# fields that unpack the state once must return the same bits.
def _indexed_left_field(params):
    rho, omega, mu = params.rho, params.omega, params.mu

    def f(x):
        rr = x[0] * x[0] + x[1] * x[1]
        return (rho * x[0] - omega * x[1] - x[0] * rr,
                omega * x[0] + rho * x[1] - x[1] * rr,
                mu * x[2])

    return f


def _indexed_right_field(params):
    b11, b12, b21, b22 = params.b11, params.b12, params.b21, params.b22
    lam, q1, q2, q3 = params.lam, params.q1, params.q2, params.q3

    def f(x):
        y1 = x[0] - q1
        y2 = x[1] - q2
        return (b11 * y1 + b12 * y2, b21 * y1 + b22 * y2, lam * (x[2] - q3))

    return f


def test_zone_fields_match_indexed_reference(ex1, ex2, ex3):
    rng = np.random.default_rng(22)
    for p in (ex1, ex2, ex3):
        pairs = ((left_field(p), _indexed_left_field(p)),
                 (right_field(p), _indexed_right_field(p)))
        states = [tuple((rng.uniform(-3.0, 3.0, size=3)
                         * 10.0 ** rng.uniform(-6.0, 3.0)).tolist())
                  for _ in range(300)]
        states += [tuple(p.q), (0.0, -0.0, 0.0)]
        for x in states:
            for field, ref in pairs:
                assert (struct.pack("<3d", *field(x))
                        == struct.pack("<3d", *ref(x)))
