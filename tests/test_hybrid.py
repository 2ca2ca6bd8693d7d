import math

import numpy as np
import pytest

from hetcycle._integrate import StepControl, rk45
from hetcycle.errors import EventStorm, SlidingDetected
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
    t_ev = tr.first_event_time()
    for t, x in zip(tr.ts, tr.xs):
        if t > t_ev:
            break
        assert np.abs(x - right_flow(x0, t, ex1)).max() <= 1e-6


def test_event_storm_guard(ex3):
    x0 = (2.0006068209275734, -2.049310280724067, 1.9712477042452798)
    with pytest.raises(EventStorm):
        integrate_hybrid(ex3, x0, (0.0, 6.0), max_events=2)


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


def test_crosscheck_zero_trials(ex1):
    rep = crosscheck_closed_forms(ex1, 0, seed=1)
    assert rep.trials == 0 and rep.max_error == 0.0


def test_csv_outputs(tmp_path, ex1):
    tr = integrate_hybrid(ex1, (1.21, 0.0, 0.01), (0.0, 2.0))
    tpath = tmp_path / "traj.csv"
    epath = tmp_path / "events.csv"
    write_trajectory_csv(tr, tpath)
    write_events_csv(tr, epath)
    import csv

    rows = list(csv.reader(open(tpath, newline="")))
    assert rows[0] == ["t", "x1", "x2", "x3", "side", "role"]
    assert len(rows) - 1 == len(tr.ts)
    erows = list(csv.reader(open(epath, newline="")))
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
