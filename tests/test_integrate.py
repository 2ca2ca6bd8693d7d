import math
import struct

import numpy as np
import pytest

from hetcycle.hybrid import (
    EVENT_RESIDUAL,
    GRAZE_TOL,
    StepControl,
    _bisect_event,
    _plane_event,
    _unit_roots,
    hermite,
    rk45,
)


def _bits(v):
    """Exact comparison key of a float, or of nested tuples and lists of
    them (signed zeros and NaN payloads included)."""
    if isinstance(v, float):
        return struct.pack("<d", v)
    if isinstance(v, (tuple, list)):
        return tuple(_bits(u) for u in v)
    return v


def _poisoned_zero_field(poison_call, value):
    """The zero field, except that call number ``poison_call`` returns
    ``value``; call 0 is the field at the start and calls 1-5 are the stages
    k2..k6 of the first step."""
    calls = []

    def f(x):
        calls.append(x)
        return value if len(calls) - 1 == poison_call else (0.0, 0.0, 0.0)

    return f


@pytest.mark.parametrize("component", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("stage", [2, 3, 4, 5])
def test_non_finite_stage_rejects_the_step(stage, bad, component):
    # k3..k6 enter both the update and the error estimate, so one non-finite
    # component of one of them must give err = inf: the step is rejected and
    # retried at 0.2 h.  A norm that let a NaN component drop out of the
    # maximum would accept it and record the NaN state.
    value = tuple(bad if j == component else 0.0 for j in range(3))
    span = 2.0
    res = rk45(_poisoned_zero_field(stage, value), (0.0, 0.0, 0.0), 0.0,
               span)
    h_first = 0.01 * span  # zero speed at the start
    assert res.ts[1] == h_first * 0.2
    assert res.ts[-1] == span
    for x in res.xs:
        assert all(math.isfinite(v) for v in x)


@pytest.mark.parametrize("component", [0, 1, 2])
@pytest.mark.parametrize("rtol", [0.0, 1e-9])
def test_overflowing_state_rejects_the_step(rtol, component):
    # The error estimate of this step is finite, 0.036 h of atol, while one
    # component of its state overflows.  With rtol > 0 that state makes the
    # scale infinite and the ratio 0; with rtol = 0 it makes it 0 * inf =
    # NaN, which a maximum written out as comparisons drops from any but
    # the first component.  Only the finiteness of the state rejects it.
    huge = tuple(1e308 if j == component else 0.0 for j in range(3))
    x0 = tuple(1.79e308 if j == component else 0.0 for j in range(3))
    ctl = StepControl(rtol=rtol, atol=1e308)
    span = 100.0
    res = rk45(_poisoned_zero_field(5, huge), x0, 0.0, span, control=ctl)
    h_first = 0.01 * span
    assert x0[component] + h_first * (2.0 / 55.0) * 1e308 == math.inf
    assert res.ts[1] == h_first * 0.2
    assert res.ts[-1] == span
    assert all(x == x0 for x in res.xs)


# The event bisection and dense output as they stood with a generic
# component count (``_bisect_hermite``, ``hermite``, ``_dot``); the
# 3-component ``hermite`` must return the same states, and the bisection
# through it the same step fraction, bit for bit.  ``_dot`` was ``sum()``
# of the products: the same left-to-right sum on Python 3.11 and earlier,
# compensated on 3.12, so the reference spells the 3.11 order out.
def _ref_hermite(x0, f0, x1, f1, h, s):
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return tuple(
        h00 * a + h10 * h * fa + h01 * b + h11 * h * fb
        for a, fa, b, fb in zip(x0, f0, x1, f1)
    )


def _ref_dot(a, b):
    acc = 0
    for u, v in zip(a, b):
        acc = acc + u * v
    return acc


#: Normal of the event plane x1 + x3 = d, dotted in the generic form.
_NORMAL = (1.0, 0.0, 1.0)


def _ref_bisect_hermite(g, x0, f0, x1, f1, h, s_lo, s_hi, g_lo, g_hi,
                        target_sign):
    a, b = s_lo, s_hi
    ga, gb = g_lo, g_hi
    for _ in range(200):
        if abs(ga) <= EVENT_RESIDUAL and abs(gb) <= EVENT_RESIDUAL:
            break
        m = 0.5 * (a + b)
        xm = _ref_hermite(x0, f0, x1, f1, h, m)
        gm = g(xm)
        if (gm > 0.0) == (ga > 0.0):
            a, ga = m, gm
        else:
            b, gb = m, gm
        if b - a < 1e-17:
            break
    if ga * target_sign >= 0.0 and abs(ga) <= abs(gb):
        return a
    if gb * target_sign >= 0.0:
        return b
    return a if abs(ga) <= abs(gb) else b


def _ref_plane_event(offset, side, x, fx, x_new, f_new, h, t, grazes):
    normal = _NORMAL
    g0 = _ref_dot(normal, x) - offset
    g1 = _ref_dot(normal, x_new) - offset
    m0 = h * _ref_dot(normal, fx)
    m1 = h * _ref_dot(normal, f_new)
    crit = _unit_roots(6.0 * (g0 - g1) + 3.0 * (m0 + m1),
                       6.0 * (g1 - g0) - 4.0 * m0 - 2.0 * m1, m0)
    checks = [(0.0, g0)]
    for s in crit:
        s2 = s * s
        checks.append((s, (2.0 * s2 * s - 3.0 * s2 + 1.0) * g0
                          + (s2 * s - 2.0 * s2 + s) * m0
                          + (3.0 * s2 - 2.0 * s2 * s) * g1
                          + (s2 * s - s2) * m1))
    checks.append((1.0, g1))
    target = -side
    for (s_lo, g_lo), (s_hi, g_hi) in zip(checks, checks[1:]):
        if g_hi * target > 1e-12:
            return _ref_bisect_hermite(lambda y: _ref_dot(normal, y) - offset,
                                       x, fx, x_new, f_new, h,
                                       s_lo, s_hi, g_lo, g_hi, target)
    if crit:
        s_t, g_t = min(checks[1:-1], key=lambda c: abs(c[1]))
        if abs(g_t) <= GRAZE_TOL and abs(g_t) < min(abs(g0), abs(g1)):
            x_t = _ref_hermite(x, fx, x_new, f_new, h, s_t)
            shift = (_ref_dot(normal, x_t) - offset) / _ref_dot(normal, normal)
            grazes.append((t + s_t * h,
                           tuple(v - shift * n for v, n in zip(x_t, normal))))
    return None


def _random_step(rng):
    x = tuple(rng.uniform(-2.0, 2.0, size=3).tolist())
    fx = tuple((rng.uniform(-3.0, 3.0, size=3)
                * 10.0 ** rng.uniform(-3.0, 2.0)).tolist())
    x_new = tuple(rng.uniform(-2.0, 2.0, size=3).tolist())
    f_new = tuple((rng.uniform(-3.0, 3.0, size=3)
                   * 10.0 ** rng.uniform(-3.0, 2.0)).tolist())
    h = float(10.0 ** rng.uniform(-4.0, 0.0))
    return x, fx, x_new, f_new, h


def _both_bisections(offset, step, a, b, ga, gb, target):
    x, fx, x_new, f_new, h = step
    want = _ref_bisect_hermite(lambda y: _ref_dot(_NORMAL, y) - offset,
                               x, fx, x_new, f_new, h, a, b, ga, gb, target)
    got = _bisect_event(offset, x, fx, x_new, f_new, h, a, b, ga, gb, target)
    return _bits(got), _bits(want)


def test_crossing_ends_at_the_event_without_a_field_call():
    # x1 = e^t crosses the plane x1 + x3 = e at t = 1; the run ends at the
    # event state, and nothing evaluates the field there
    seen = []

    def f(x):
        seen.append(x)
        return (x[0], -x[1], 0.0)

    res = rk45(f, (1.0, 1.0, 0.0), 0.0, 3.0,
               plane=math.e, event_side=-1.0)
    assert res.event_x is not None and len(seen) > 6
    assert res.event_x not in seen
    assert res.xs[-1] == res.event_x and res.ts[-1] == res.event_t


def test_step_limits_are_module_constants(monkeypatch):
    # every run shares the step budget and the step-size floor
    from hetcycle import hybrid
    from hetcycle.errors import StepFailure

    circle = lambda x: (-x[1], x[0], 0.0)  # noqa: E731
    assert not hasattr(StepControl(), "max_steps")
    monkeypatch.setattr(hybrid, "MAX_STEPS", 3)
    with pytest.raises(StepFailure, match="max_steps=3"):
        rk45(circle, (1.0, 0.0, 0.0), 0.0, 10.0)
    monkeypatch.setattr(hybrid, "MAX_STEPS", 2_000_000)
    monkeypatch.setattr(hybrid, "H_MIN", 1.0)
    with pytest.raises(StepFailure, match="underflow"):
        rk45(circle, (1.0, 0.0, 0.0), 0.0, 10.0)


def test_hermite_matches_generic_reference():
    rng = np.random.default_rng(76)
    for _ in range(2000):
        x, fx, x_new, f_new, h = _random_step(rng)
        # the step ends, a fraction near each, and interior fractions
        for s in (0.0, 1.0, float(rng.uniform(0.0, 1e-9)),
                  1.0 - float(rng.uniform(0.0, 1e-9)),
                  *rng.uniform(0.0, 1.0, size=4).tolist()):
            assert (_bits(hermite(x, fx, x_new, f_new, h, s))
                    == _bits(_ref_hermite(x, fx, x_new, f_new, h, s)))


def test_event_bisection_matches_generic_reference():
    rng = np.random.default_rng(77)
    crossings = 0
    for _ in range(2000):
        step = x, fx, x_new, f_new, h = _random_step(rng)
        # a plane through an interior point of the interpolant, so the
        # step ends are on opposite sides more often than not
        s_mid = float(rng.uniform(0.05, 0.95))
        offset = _ref_dot(_NORMAL,
                          _ref_hermite(x, fx, x_new, f_new, h, s_mid))
        ga = _ref_dot(_NORMAL, x) - offset
        gb = _ref_dot(_NORMAL, x_new) - offset
        if (ga > 0.0) == (gb > 0.0):
            continue
        crossings += 1
        for target in (1.0, -1.0):
            got, want = _both_bisections(offset, step, 0.0, 1.0, ga, gb,
                                         target)
            assert got == want
    assert crossings > 500


def test_event_bisection_ties_and_stalls_match_reference():
    rng = np.random.default_rng(78)
    for _ in range(300):
        step = _random_step(rng)
        offset = float(rng.uniform(-1.0, 1.0))
        for target in (1.0, -1.0):
            # |ga| == |gb| within the residual: no bisection step, and the
            # tie goes to the endpoint on the target side
            r = float(rng.uniform(0.0, 1.0)) * EVENT_RESIDUAL
            for ga, gb in ((r, -r), (-r, r), (r, r), (0.0, -0.0)):
                got, want = _both_bisections(offset, step, 0.0, 1.0, ga, gb,
                                             target)
                assert got == want
            # a bracket narrower than 1e-17 stops after one midpoint, with
            # both values far from the residual (ties included)
            a = float(rng.uniform(0.0, 1e-15))
            b = a + float(rng.uniform(0.5, 1.9)) * 1e-17
            for ga, gb in ((1.0, -1.0), (-2.0, 2.0), (1.0, -2.0)):
                got, want = _both_bisections(offset, step, a, b, ga, gb,
                                             target)
                assert got == want


@pytest.mark.parametrize("b, c, roots", [
    (2.0, -1.0, [0.5]),     # the linear case: one root, inside (0, 1)
    (1.0, 1.0, []),         # its root -1 is outside
    (1.0, 0.0, []),         # a root at 0 is not strictly inside
    (0.0, 1.0, []),         # a = b = 0: a constant has no root
    (0.0, 0.0, []),         # nor does the zero polynomial
])
def test_unit_roots_linear_case(b, c, roots):
    assert _unit_roots(0.0, b, c) == roots


def test_plane_event_matches_generic_reference():
    rng = np.random.default_rng(79)
    found = {"crossing": 0, "graze": 0, "none": 0}
    for i in range(3000):
        x, fx, x_new, f_new, h = _random_step(rng)
        normal = _NORMAL
        # put the plane near an interior extremum of the interpolant, at
        # distances from grazing to clearly crossing
        g_at = lambda s: _ref_dot(  # noqa: E731
            normal, _ref_hermite(x, fx, x_new, f_new, h, s))
        g0, g1 = g_at(0.0), g_at(1.0)
        m0 = h * _ref_dot(normal, fx)
        m1 = h * _ref_dot(normal, f_new)
        crit = _unit_roots(6.0 * (g0 - g1) + 3.0 * (m0 + m1),
                           6.0 * (g1 - g0) - 4.0 * m0 - 2.0 * m1, m0)
        base = g_at(crit[0]) if crit else g_at(float(rng.uniform()))
        delta = float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(-13, -6)
        offset = base + (delta if i % 4 else 0.0)
        t = float(rng.uniform(-5.0, 5.0))
        for side in (1.0, -1.0):
            got_grazes, want_grazes = [], []
            got = _plane_event(offset, side, x, fx, x_new, f_new, h, t,
                               _ref_dot(normal, x) - offset,
                               _ref_dot(normal, x_new) - offset,
                               h * _ref_dot(normal, fx),
                               h * _ref_dot(normal, f_new), got_grazes)
            want = _ref_plane_event(offset, side, x, fx, x_new, f_new, h, t,
                                    want_grazes)
            assert _bits(got) == _bits(want)
            assert _bits(got_grazes) == _bits(want_grazes)
            found["crossing" if got is not None
                  else "graze" if got_grazes else "none"] += 1
    assert min(found.values()) > 100, found
