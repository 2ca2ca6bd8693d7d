import math

import numpy as np
import pytest

from helpers import csv_rows, reference_crosscheck

from hetcycle._integrate import (
    GRAZE_TOL,
    StepControl,
    _clears_plane,
    _plane_event,
    hermite,
    rk45,
)
from hetcycle import hybrid
from hetcycle.errors import ConfigError, EventStorm, SlidingDetected
from hetcycle.flows import left_flow, numeric_flow, right_flow
from hetcycle.hybrid import (
    active_side,
    crosscheck_closed_forms,
    integrate_hybrid,
    write_events_csv,
    write_trajectory_csv,
)
from hetcycle.model import derive_geometry


def test_equilibrium_is_stationary(ex1):
    tr = integrate_hybrid(ex1, ex1.q, (0.0, 2.0))
    assert np.abs(tr.xs - ex1.q).max() == 0.0
    assert tr.events == ()


def test_left_start_converges_to_cycle_no_events(ex1):
    # just inside the plane crossing of the cycle's stable plane: the
    # radius contracts monotonically, so the orbit never reaches the plane
    x0 = np.array([1.19, 0.0, 0.0])
    tr = integrate_hybrid(ex1, x0, (0.0, 10.0))
    assert tr.events == ()
    assert set(tr.sides) == {"left"}
    r_end = math.hypot(tr.xs[-1, 0], tr.xs[-1, 1])
    assert abs(r_end - math.sqrt(ex1.rho)) <= 1e-4
    for t, x in zip(tr.ts[:: max(1, len(tr.ts) // 100)],
                    tr.xs[:: max(1, len(tr.ts) // 100)]):
        assert np.abs(x - left_flow(x0, t, ex1)).max() <= 1e-6


def test_right_start_crosses_back(ex1):
    tr = integrate_hybrid(ex1, (1.21, 0.0, 0.01), (0.0, 3.0))
    crossings = [e for e in tr.events if e.direction == "right_to_left"]
    assert crossings
    for e in tr.events:
        assert abs(e.x[0] + e.x[2] - ex1.d) <= 1e-10


def test_event_states_on_plane_multi(ex3):
    x0 = (2.0006068209275734, -2.049310280724067, 1.9712477042452798)
    tr = integrate_hybrid(ex3, x0, (0.0, 6.0))
    dirs = [e.direction for e in tr.events]
    assert dirs == ["right_to_left", "left_to_right", "right_to_left"]
    for e in tr.events:
        assert abs(e.x[0] + e.x[2] - ex3.d) <= 1e-10


def test_sides_consistent_with_plane(ex3):
    x0 = (2.0006068209275734, -2.049310280724067, 1.9712477042452798)
    tr = integrate_hybrid(ex3, x0, (0.0, 6.0))
    g = tr.xs[:, 0] + tr.xs[:, 2] - ex3.d
    for gi, side in zip(g, tr.sides):
        if side == "left":
            assert gi <= 1e-9
        else:
            assert gi >= -1e-9


def test_pre_event_segment_matches_closed_form(ex1):
    x0 = np.array([1.21, 0.0, 0.01])
    tr = integrate_hybrid(ex1, x0, (0.0, 3.0))
    t_ev = next(e.t for e in tr.events
                if e.direction in ("left_to_right", "right_to_left"))
    for t, x in zip(tr.ts, tr.xs):
        if t > t_ev:
            break
        assert np.abs(x - right_flow(x0, t, ex1)).max() <= 1e-6


def test_event_storm_guard(ex3, monkeypatch):
    x0 = (2.0006068209275734, -2.049310280724067, 1.9712477042452798)
    monkeypatch.setattr(hybrid, "MAX_EVENTS", 2)
    with pytest.raises(EventStorm, match="more than 2 switching events"):
        integrate_hybrid(ex3, x0, (0.0, 6.0))


def test_sliding_detected(ex1):
    # left of a plane point where the left field pushes up and the right
    # field pushes down: the crossing has no transversal continuation
    x0 = (1.1643894401883894, -0.8187170572218079, 0.03541055982846795)
    assert active_side(ex1, x0) == "left"
    with pytest.raises(SlidingDetected):
        integrate_hybrid(ex1, x0, (0.0, 1.0))


def test_grazing_recorded_without_switch(ex1):
    geo = derive_geometry(ex1)
    x0 = left_flow(geo.v1, -0.01, ex1)  # passes the line tangency at t=0.01
    tr = integrate_hybrid(ex1, x0, (0.0, 0.05))
    grazes = [e for e in tr.events if e.direction == "graze_left"]
    assert grazes
    assert grazes[0].t == pytest.approx(0.01, abs=1e-4)
    assert abs(grazes[0].x[0] + grazes[0].x[2] - ex1.d) <= 1e-10
    assert set(tr.sides) == {"left"}


def test_backward_only_rejected(ex1):
    with pytest.raises(ValueError):
        integrate_hybrid(ex1, (0.0, 0.0, 0.0), (1.0, 0.0))


@pytest.mark.parametrize("x0, t_span", [
    ((math.inf, 0.0, 0.0), (0.0, 1.0)), ((0.5, math.nan, 0.0), (0.0, 1.0)),
    ((0.5, 0.0, 0.0), (0.0, math.inf)), ((0.5, 0.0, 0.0), (0.0, math.nan)),
    ((0.5, 0.0, 0.0), (-math.inf, 1.0))])
def test_non_finite_start_rejected(ex1, x0, t_span):
    # an input error, before any step: an infinite horizon would step
    # until memory or MAX_STEPS ran out
    with pytest.raises(ConfigError, match="non-finite x0"):
        integrate_hybrid(ex1, x0, t_span)


def test_reversibility_spot_check(ex1, ex3):
    rng = np.random.default_rng(13)
    for params, side in ((ex1, "left"), (ex3, "right")):
        for _ in range(5):
            if side == "left":
                x0 = np.array([rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8),
                               rng.uniform(-0.3, 0.3)])
            else:
                x0 = params.q + rng.uniform(-0.5, 0.5, size=3)
            dt = rng.uniform(0.1, 1.0)
            mid = numeric_flow(x0, dt, side, params)
            back = numeric_flow(mid, -dt, side, params)
            assert np.abs(back - x0).max() <= 1e-7


def test_crosscheck_all_examples(ex1, ex2, ex3):
    for p, seed in ((ex1, 42), (ex2, 11), (ex3, 7)):
        rep = crosscheck_closed_forms(p, 40, seed=seed)
        assert rep.trials == 40
        assert rep.max_error <= 1e-6


def test_crosscheck_matches_generator_max_reference(ex1, ex2, ex3):
    for p in (ex1, ex2, ex3):
        for seed in (0, 1, 2):
            got = crosscheck_closed_forms(p, 40, seed)
            want = reference_crosscheck(p, 40, seed)
            assert got.trials == want.trials
            assert got.max_error.hex() == want.max_error.hex()
            assert got.worst_trial == want.worst_trial
            assert got.worst_trial is not None


def test_crosscheck_zero_trials(ex1):
    rep = crosscheck_closed_forms(ex1, 0, seed=1)
    assert rep.trials == 0 and rep.max_error == 0.0


def test_csv_outputs(tmp_path, ex1):
    tr = integrate_hybrid(ex1, (1.21, 0.0, 0.01), (0.0, 2.0))
    tpath = tmp_path / "traj.csv"
    epath = tmp_path / "events.csv"
    write_trajectory_csv(tr, tpath)
    write_events_csv(tr, epath)
    rows = csv_rows(tpath)
    assert rows[0] == ["t", "x1", "x2", "x3", "side", "role"]
    assert len(rows) - 1 == len(tr.ts)
    erows = csv_rows(epath)
    assert erows[0] == ["t", "x1", "x2", "x3", "direction"]
    assert len(erows) - 1 == len(tr.events)


def test_rk45_plane_crossing_linear_field():
    # x1 = e^t, x3 = 0: the plane x1 + x3 = e is crossed at t = 1
    res = rk45(lambda x: (x[0], -x[1], 0.0), (1.0, 1.0, 0.0), 0.0, 3.0,
               plane=((1.0, 0.0, 1.0), math.e), event_side=-1.0)
    assert res.event_t == pytest.approx(1.0, abs=1e-8)
    assert abs(res.event_x[0] + res.event_x[2] - math.e) <= 1e-10
    assert res.ts[-1] == res.event_t and res.grazes == []


def test_rk45_plane_graze_on_tangent_circle():
    # unit circle through (cos 1, -sin 1) touches the plane x1 = 1 at t = 1
    ctl = StepControl(rtol=1e-12, atol=1e-14)
    res = rk45(lambda x: (-x[1], x[0], 0.0),
               (math.cos(1.0), -math.sin(1.0), 0.0), 0.0, 2.0, control=ctl,
               plane=((1.0, 0.0, 0.0), 1.0), event_side=-1.0)
    assert res.event_t is None and res.ts[-1] == 2.0
    assert len(res.grazes) == 1
    t_g, x_g = res.grazes[0]
    assert t_g == pytest.approx(1.0, abs=1e-6)
    assert abs(x_g[0] - 1.0) <= 1e-15


def test_integrate_hybrid_example1_sample_count(ex1):
    tr = integrate_hybrid(ex1, (0.5, 0.0, 0.0), (0.0, 10.0))
    assert len(tr.ts) == 2353
    assert tr.xs.shape == (2353, 3)


def test_rk45_rejects_other_dimensions():
    for x0 in ((1.0, 0.0), (1.0, 0.0, 0.0, 0.0), (1.0,)):
        with pytest.raises(ValueError, match="3 components"):
            rk45(lambda x: x, x0, 0.0, 1.0)


@pytest.mark.parametrize("event_side", [None, 0.0, 0.5, math.nan])
def test_rk45_plane_needs_a_side(event_side):
    with pytest.raises(ValueError, match="event_side"):
        rk45(lambda x: (x[0], -x[1], 0.0), (1.0, 1.0, 0.0), 0.0, 3.0,
             plane=((1.0, 0.0, 1.0), math.e), event_side=event_side)


def test_step_control_needs_positive_atol():
    with pytest.raises(ValueError):
        StepControl(atol=0.0)
    with pytest.raises(ValueError):
        StepControl(rtol=-1e-9)


def _cubic(g0, g1, m0, m1, s):
    s2 = s * s
    s3 = s2 * s
    return ((2 * s3 - 3 * s2 + 1) * g0 + (s3 - 2 * s2 + s) * m0
            + (3 * s2 - 2 * s3) * g1 + (s3 - s2) * m1)


def test_plane_clearance_bound_is_sound():
    # steps the bound skips: the cubic stays more than GRAZE_TOL on the
    # starting side on a dense grid, and the full scan finds nothing
    rng = np.random.default_rng(2024)
    s = np.linspace(0.0, 1.0, 4001)
    plane = ((1.0, 0.0, 0.0), 0.0)
    skipped = 0
    for i in range(3000):
        side = 1.0 if i % 2 else -1.0
        scale = 10.0 ** rng.uniform(-10.0, 3.0)
        m0, m1 = rng.uniform(0.0, 1.0, size=2) * scale
        if i % 3:  # slope into the plane at the start, out at the end
            m0, m1 = -side * m0, side * m1 * 10.0 ** rng.uniform(-8.0, 0.0)
        else:
            m0, m1 = m0 * rng.choice((-1.0, 1.0)), m1 * rng.choice((-1.0, 1.0))
        floor = 4.0 / 27.0 * (abs(m0) + abs(m1)) + 2.0 * GRAZE_TOL
        # end distances from a third of the bound to twice it
        w0, w1 = floor * 10.0 ** rng.uniform(-0.5, 0.3, size=2)
        if not _clears_plane(w0, w1, m0, m1):
            continue
        skipped += 1
        g0, g1 = side * w0, side * w1
        assert (side * _cubic(g0, g1, m0, m1, s)).min() > GRAZE_TOL
        grazes = []
        assert _plane_event(plane, side, (g0, 0.0, 0.0), (m0, 0.0, 0.0),
                            (g1, 0.0, 0.0), (m1, 0.0, 0.0), 1.0, 0.0,
                            grazes) is None
        assert grazes == []
    assert skipped > 300
    # ends clear by 0.1, but the start slope bends the cubic through the
    # plane near s = 1/3: not skipped
    assert (_cubic(0.1, 0.1, -0.7, 0.0, s)).min() < 0.0
    assert not _clears_plane(0.1, 0.1, -0.7, 0.0)


def _circle_step_over_peak():
    """Unit-circle run at loose tolerance whose step straddling the peak
    x1 = 1 (t = 1) has both ends well below it."""
    f = lambda x: (-x[1], x[0], 0.0)  # noqa: E731
    x0 = (math.cos(1.0), -math.sin(1.0), 0.0)
    ctl = StepControl(rtol=1e-3, atol=1e-9)
    free = rk45(f, x0, 0.0, 2.0, control=ctl)
    i = next(k for k in range(len(free.ts) - 1)
             if free.ts[k] < 1.0 < free.ts[k + 1])
    return f, x0, ctl, free, i


def test_rk45_crossing_inside_a_step_with_clear_ends():
    f, x0, ctl, free, i = _circle_step_over_peak()
    c = 0.99
    assert 1.0 - free.xs[i][0] > 0.04 and 1.0 - free.xs[i + 1][0] > 0.04
    res = rk45(f, x0, 0.0, 2.0, control=ctl, plane=((1.0, 0.0, 0.0), c),
               event_side=-1.0)
    assert res.ts[:-1] == free.ts[:i + 1]
    assert free.ts[i] < res.event_t < 1.0
    assert res.event_t == pytest.approx(1.0 - math.acos(c), abs=1e-2)
    assert abs(res.event_x[0] - c) <= 1e-10


def test_rk45_graze_inside_a_step_with_clear_ends():
    f, x0, ctl, free, i = _circle_step_over_peak()
    xa, fa, xb, fb = free.xs[i], free.fs[i], free.xs[i + 1], free.fs[i + 1]
    h = free.ts[i + 1] - free.ts[i]
    lo, hi = 0.0, 1.0
    for _ in range(200):  # ternary search for the interpolant's peak in x1
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if hermite(xa, fa, xb, fb, h, m1)[0] < hermite(xa, fa, xb, fb, h, m2)[0]:
            lo = m1
        else:
            hi = m2
    c = hermite(xa, fa, xb, fb, h, 0.5 * (lo + hi))[0] + 5e-9
    res = rk45(f, x0, 0.0, 2.0, control=ctl, plane=((1.0, 0.0, 0.0), c),
               event_side=-1.0)
    assert res.event_t is None and res.ts == free.ts
    assert len(res.grazes) == 1
    t_g, x_g = res.grazes[0]
    assert free.ts[i] < t_g < free.ts[i + 1]
    assert abs(x_g[0] - c) <= 1e-15


def test_event_times_never_decrease(ex1, ex2, ex3):
    # a graze followed by a crossing: the height x3 = 1e-12 grows at rate
    # mu until the orbit leaves through the plane
    geo = derive_geometry(ex1)
    x0 = left_flow((geo.v1[0], geo.v1[1], 1e-12), -0.01, ex1)
    tr = integrate_hybrid(ex1, x0, (0.0, 8.0))
    assert [e.direction for e in tr.events] == ["graze_left", "left_to_right"]
    rng = np.random.default_rng(3)
    crossings = 0
    for params in (ex1, ex2, ex3):
        sr, q = params.sqrt_rho, params.q
        for i in range(20):
            if i % 2 == 0:  # a ring around the cycle at positive height
                r, th = sr * rng.uniform(0.5, 1.3), rng.uniform(0, 2 * math.pi)
                x0 = (r * math.cos(th), r * math.sin(th),
                      rng.uniform(0.05, 0.4) * params.d)
            else:  # a box just below the equilibrium
                x0 = (q[0] + rng.uniform(-0.3, 0.3),
                      q[1] + rng.uniform(-0.5, 0.5),
                      q[2] - rng.uniform(0.05, 0.3))
            try:
                tr = integrate_hybrid(params, x0, (0.0, 10.0))
            except SlidingDetected:
                continue
            ts = [e.t for e in tr.events]
            assert ts == sorted(ts)
            crossings += len(ts) >= 2
    assert crossings > 0
