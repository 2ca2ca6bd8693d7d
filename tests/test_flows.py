import math
import struct

import numpy as np
import pytest

from helpers import semigroup_max_rel_err

from hetcycle._integrate import StepControl
from hetcycle.errors import BackwardBlowup, StepFailure
from hetcycle.flows import (
    ON_CYCLE_BAND,
    left_field,
    left_flow,
    numeric_flow,
    radial_blowup_time,
    radial_law,
    right_field,
    right_flow,
)

TIGHT = StepControl(rtol=1e-12, atol=1e-14)

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
    t_blow = radial_blowup_time(4.0, p.rho)  # start (2, 0, 0)
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
    n = numeric_flow((0.5, 0.5, 0.2), 0.7, "right", p, TIGHT)
    np.testing.assert_allclose(x, n, atol=1e-9)


def test_numeric_flow_identity_at_zero(ex1):
    x0 = np.array([0.4, -0.2, 0.7])
    np.testing.assert_array_equal(numeric_flow(x0, 0.0, "left", ex1), x0)


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
        assert np.max(np.abs(got - ref)) <= 1e-6
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
        assert np.max(np.abs(got - ref)) <= 1e-6


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


# The radial law as it stood before the on-cycle band, written out per
# call; radial_law must reproduce it bit for bit outside the band.
def _frozen_radial_sq(r0_sq, t, rho):
    if r0_sq == 0.0:
        return 0.0
    a = rho / r0_sq - 1.0
    if a == 0.0:
        return rho
    s = math.log(abs(a)) - 2.0 * rho * t
    if a < 0.0:
        if s >= 0.0:
            t_blow = math.log(-a) / (2.0 * rho)
            raise BackwardBlowup(
                f"radial solution escapes at t={t_blow!r}; "
                f"requested t={float(t)!r}")
        return rho / (1.0 - math.exp(s))
    if s > 0.0:
        es = math.exp(-s)
        return rho * es / (1.0 + es)
    return rho / (1.0 + math.exp(s))


def _in_band(r0_sq, rho):
    return r0_sq != 0.0 and abs(rho / r0_sq - 1.0) <= ON_CYCLE_BAND


def _ref_radial_sq(r0_sq, t, rho):
    """The frozen law, with rho for a start inside the on-cycle band."""
    return rho if _in_band(r0_sq, rho) else _frozen_radial_sq(r0_sq, t, rho)


def _band_starts(rho):
    """Squared start radii just inside and just outside the band on both
    sides of the cycle, with the offset each gives."""
    out = []
    for rel in (0.5e-12, 0.99e-12, 1.01e-12, 2e-12, 1e-9):
        for sign in (1.0, -1.0):
            r0_sq = rho / (1.0 + sign * rel)
            out.append((r0_sq, rho / r0_sq - 1.0))
    return out


def test_radial_law_matches_frozen_reference():
    rng = np.random.default_rng(40)
    inside = outside = near_escape = 0
    for _ in range(60):
        rho = rng.uniform(0.3, 2.0)
        starts = [0.0, rho] + [rho * rng.uniform(0.01, 3.0) for _ in range(6)]
        starts += [r0_sq for r0_sq, _ in _band_starts(rho)]
        for r0_sq in starts:
            law = radial_law(r0_sq, rho)
            ts = [0.0, -0.0] + list(rng.uniform(-40.0, 40.0, size=8))
            t_blow = radial_blowup_time(r0_sq, rho)
            if t_blow > -math.inf:
                ts += [t_blow, t_blow - 1e-9, t_blow + 1e-9, t_blow - 1.0]
            for t in ts:
                t = float(t)
                got = _kernel_outcome(lambda t: (law(t),), t)
                if _in_band(r0_sq, rho):
                    assert got == ((rho,), _bits((rho,))), (r0_sq, t)
                    inside += 1
                else:
                    try:
                        want = _kernel_outcome(
                            lambda t: (_frozen_radial_sq(r0_sq, t, rho),), t)
                    except ZeroDivisionError:
                        # e^s rounded to 1 just inside the escape time: the
                        # frozen law divided by zero, the live one raises
                        assert got[0] is BackwardBlowup, (r0_sq, t)
                        near_escape += 1
                        continue
                    assert got == want, (r0_sq, t)
                    outside += 1
                assert _kernel_outcome(
                    lambda t: (radial_law(r0_sq, rho)(t),), t) == got
    assert inside and outside and near_escape


def test_on_cycle_band_edges():
    rho = 1.3
    for r0_sq, a in _band_starts(rho):
        t_blow = radial_blowup_time(r0_sq, rho)
        if abs(a) <= ON_CYCLE_BAND:
            # on the cycle: no escape time, r^2 = rho at every time
            assert t_blow == -math.inf
            assert radial_law(r0_sq, rho)(-1e3) == rho
        elif a < 0.0:
            assert t_blow == math.log(1.0 - rho / r0_sq) / (2.0 * rho)
            with pytest.raises(BackwardBlowup, match="requested t="):
                radial_law(r0_sq, rho)(t_blow * (1.0 + 1e-9))
        else:
            assert t_blow == -math.inf
    # the band reaches both sides of the cycle at each edge
    assert sorted(abs(a) <= ON_CYCLE_BAND for _, a in _band_starts(rho)) \
        == [False] * 6 + [True] * 4


def test_left_flow_on_cycle_start_stays_on_the_cylinder(ex1):
    # a start a rounding error off the cycle winds down the cylinder over
    # a long backward horizon at radius sqrt(rho), with no spurious blow-up
    sr = ex1.sqrt_rho
    for scale in (1.0 + 4e-16, 1.0 - 4e-16):
        x0 = (sr * scale * math.cos(0.3), sr * scale * math.sin(0.3), 0.2)
        assert _in_band(x0[0] * x0[0] + x0[1] * x0[1], ex1.rho)
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
# Python floats; the float path must reproduce them bit for bit.
def _array_left_flow(x0, t, params):
    x0 = np.asarray(x0, dtype=float)
    r0_sq = x0[0] * x0[0] + x0[1] * x0[1]
    if r0_sq == 0.0:
        x1 = x2 = 0.0
    else:
        r_sq = _ref_radial_sq(r0_sq, t, params.rho)
        r = math.sqrt(r_sq)
        theta = math.atan2(x0[1], x0[0]) + params.omega * t
        x1 = r * math.cos(theta)
        x2 = r * math.sin(theta)
    x3 = x0[2] * math.exp(params.mu * t)
    return np.array([x1, x2, x3])


def _array_right_flow(x0, t, params):
    from hetcycle.flows import planar_matrix_exp

    x0 = np.asarray(x0, dtype=float)
    y1 = x0[0] - params.q1
    y2 = x0[1] - params.q2
    y3 = x0[2] - params.q3
    m11, m12, m21, m22 = planar_matrix_exp(
        params.b11, params.b12, params.b21, params.b22, t)
    return np.array([
        params.q1 + m11 * y1 + m12 * y2,
        params.q2 + m21 * y1 + m22 * y2,
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
        # the origin of the plane (r0 = 0), a start on the cycle, and the
        # backward escape time of a start outside it, at and just past it
        for x0, t in (((0.0, 0.0, 0.3), -2.0), ((0.0, 0.0, 0.0), 5.0),
                      ((sr, 0.0, 0.1), -4.0)):
            _assert_float_path_matches(left_flow, _array_left_flow, x0, t, p)
        x0 = (1.5 * sr, -0.2 * sr, 0.4)
        t_blow = radial_blowup_time(x0[0] * x0[0] + x0[1] * x0[1],
                                    p.rho)
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
    t_blow = radial_blowup_time(2.0 * 2.0 + 0.5 * 0.5, p.rho)
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


# The per-call planar kernels as they stood before each was split into a
# factory that binds its t-independent part once; the factories must
# reproduce them bit for bit.
def _ref_planar_left_flow(xy, t, rho, omega):
    r0_sq = xy[0] * xy[0] + xy[1] * xy[1]
    if r0_sq == 0.0:
        return (0.0, 0.0)
    r = math.sqrt(_ref_radial_sq(r0_sq, t, rho))
    theta = math.atan2(xy[1], xy[0]) + omega * t
    return (r * math.cos(theta), r * math.sin(theta))


def _ref_planar_matrix_exp(a11, a12, a21, a22, t):
    from hetcycle.flows import _REPEATED_ROOT_TOL

    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    disc = tr * tr - 4.0 * det
    a = 0.5 * tr
    scale = max(1.0, tr * tr, abs(det))
    if abs(disc) <= _REPEATED_ROOT_TOL * scale:
        e = math.exp(a * t)
        c, sl = e, e * t
    elif disc > 0.0:
        w = 0.5 * math.sqrt(disc)
        e_hi = math.exp((a + w) * t)
        e_lo = math.exp((a - w) * t)
        c = 0.5 * (e_hi + e_lo)
        sl = 0.5 * (e_hi - e_lo) / w
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
    from hetcycle.flows import _REPEATED_ROOT_TOL

    tr = a11 + a22
    disc = tr * tr - 4.0 * (a11 * a22 - a12 * a21)
    scale = max(1.0, tr * tr, abs(a11 * a22 - a12 * a21))
    if abs(disc) <= _REPEATED_ROOT_TOL * scale:
        return "repeated"
    return "real" if disc > 0.0 else "complex"


def test_block_exp_matches_per_call_reference():
    from hetcycle.flows import block_exp, planar_matrix_exp

    rng = np.random.default_rng(30)
    blocks = []
    for _ in range(60):
        a, b = -rng.uniform(0.1, 4.0), rng.uniform(0.1, 8.0)
        blocks.append((a, b * 1.3, -b / 1.3, a))  # complex pair
        blocks.append((-rng.uniform(0.1, 4.0), rng.uniform(-3.0, 3.0),
                       0.0, -rng.uniform(0.1, 4.0)))  # distinct real
        c = -rng.uniform(0.1, 4.0)
        blocks.append((c, rng.uniform(-3.0, 3.0), 0.0, c))  # exact repeat
    # the repeated-root threshold: disc = 4 eps against 1e-12 * scale with
    # scale = tr^2 = 4, just inside and just outside on both sides
    for eps in (0.9e-12, -0.9e-12, 1.1e-12, -1.1e-12, 1e-12, -1e-12):
        blocks.append((-1.0, 1.0, eps, -1.0))
    branches = {_branch(*m) for m in blocks}
    assert branches == {"repeated", "real", "complex"}
    assert [_branch(-1.0, 1.0, e, -1.0) for e in (0.9e-12, -0.9e-12)] == [
        "repeated", "repeated"]
    assert [_branch(-1.0, 1.0, e, -1.0) for e in (1.1e-12, -1.1e-12)] == [
        "real", "complex"]
    ts = [0.0, -0.0, 1e-9, -1e-9] + list(rng.uniform(-6.0, 6.0, size=20))
    ts += [-400.0, -800.0, 800.0]  # exp overflows on the backward side
    for m in blocks:
        exp_ta = block_exp(*m)
        for t in ts:
            t = float(t)
            want = _kernel_outcome(_ref_planar_matrix_exp, *m, t)
            assert _kernel_outcome(exp_ta, t) == want, (m, t)
            assert _kernel_outcome(planar_matrix_exp, *m, t) == want, (m, t)


def test_planar_left_orbit_matches_per_call_reference():
    from hetcycle.flows import planar_left_flow, planar_left_orbit

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
            orbit = planar_left_orbit(xy, rho, omega)
            ts = [0.0, -0.0] + list(rng.uniform(-4.0, 6.0, size=12))
            r0_sq = xy[0] * xy[0] + xy[1] * xy[1]
            t_blow = radial_blowup_time(r0_sq, rho)
            if t_blow > -math.inf:  # the backward escape, at and around it
                ts += [t_blow, t_blow - 1e-9, t_blow + 1e-9, t_blow - 1.0]
            for t in ts:
                t = float(t)
                want = _kernel_outcome(_ref_planar_left_flow, xy, t, rho, omega)
                assert _kernel_outcome(orbit, t) == want, (xy, t)
                assert _kernel_outcome(planar_left_flow, xy, t, rho,
                                       omega) == want, (xy, t)
    # a start outside the cycle raises at its escape time, same message
    orbit = planar_left_orbit((2.0, 0.0), 1.0, 3.0)
    with pytest.raises(BackwardBlowup, match="requested t="):
        orbit(radial_blowup_time(4.0, 1.0))


def test_right_flow_block_memo_follows_the_params_object(ex2, ex3,
                                                        monkeypatch):
    import dataclasses

    from hetcycle import flows
    from hetcycle.model import SystemParams

    # the array reference above, on the per-call matrix exponential
    # (right_flow itself no longer calls planar_matrix_exp)
    monkeypatch.setattr(flows, "planar_matrix_exp", _ref_planar_matrix_exp)
    fields = {f.name: getattr(ex2, f.name) for f in dataclasses.fields(ex2)}
    twin_a, twin_b = SystemParams(**fields), SystemParams(**fields)
    assert twin_a == twin_b and twin_a is not twin_b
    # equal under == (0.0 == -0.0), yet their blocks differ in m12's sign
    base = dict(fields, q1=-0.0, q2=-0.0, b11=-1.5, b22=-0.5, b21=0.7)
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
    # each params object binds its own block, so m12 keeps the sign of
    # b12: with q1 = -0.0 and m11 y1 underflowing to -0.0, x1 = m12 y2
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
