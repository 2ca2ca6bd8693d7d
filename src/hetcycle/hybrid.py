"""Event-detecting simulation of the full switched system.

This simulator knows nothing about the closed-form solutions: it
integrates whichever zone field is active with the adaptive Runge-Kutta
oracle, whose event plane is the switching plane x1 + x3 = d.
Along each accepted step the switching function is an exact cubic of the
step's dense-output interpolant; a crossing is localized by bisection on
that interpolant until the event residual is at or below 1e-10, the state
is handed to the other zone, and integration continues.  The plane itself
belongs to the left zone (rule "<= d"), and the incoming side integrates
up to the localized event time before the switch.  The samples are the
stepper's float 3-tuples, handed on as they are.

Tangential touches of the plane (an extremum of the cubic within 1e-8 of
zero, without a sign change) are recorded as grazing events, projected
onto the plane, and do not switch sides.  If at an event both zone
fields point at the plane the crossing dynamics are undefined; the
simulator raises SlidingDetected rather than inventing a sliding mode.

``crosscheck_closed_forms`` is the package's standing self-test: random
starts strictly inside one zone, simulated to the first event or
``CROSSCHECK_HORIZON``, compared sample-by-sample against that zone's
closed form.  Both run the stepper at its default ``StepControl()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._integrate import rk45
from .errors import ConfigError, EventStorm, HetcycleError, SlidingDetected
from .flows import left_field, left_flow, right_field, right_flow
from .model import SystemParams, point
from .orbits import CSV_HEADER, write_csv


@dataclass(frozen=True)
class SwitchEvent:
    t: float
    x: tuple
    direction: str  # left_to_right | right_to_left | graze_left | graze_right


@dataclass(frozen=True)
class HybridTrajectory:
    """Sampled switched trajectory: accepted integrator steps tagged with
    the zone that produced them, plus the localized switching events;
    ``ts``/``xs`` are tuples of the stepper's floats and float 3-tuples."""

    ts: tuple
    xs: tuple
    sides: tuple
    events: tuple


def active_side(params: SystemParams, x) -> str:
    """Zone owning the state; the plane itself belongs to the left zone."""
    return "left" if params.plane_residual(x) <= 0.0 else "right"


#: Switching events after which ``integrate_hybrid`` gives up (EventStorm).
MAX_EVENTS = 10_000


def integrate_hybrid(params: SystemParams, x0, t_span) -> HybridTrajectory:
    """Forward simulation of the switched system over t_span = (t0, t1),
    at the stepper's default ``StepControl()``.

    Raises ValueError for an x0 of other than three components (``point``),
    ConfigError for an x0 or t_span that is not finite or unless t1 > t0,
    EventStorm past ``MAX_EVENTS`` switchings (chattering guard),
    SlidingDetected when both fields point at the plane at an
    event, and StepFailure from the underlying stepper.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    x = point(x0)
    if not all(map(math.isfinite, (*x, t0, t1))):
        raise ConfigError(f"non-finite x0 {x!r} or t_span {(t0, t1)!r}")
    if not t1 > t0:
        raise ConfigError("integrate_hybrid requires t1 > t0 (forward only)")
    fields = {"left": left_field(params), "right": right_field(params)}
    side = active_side(params, x)
    t = t0

    ts: list = []
    xs: list = []
    sides: list = []
    events: list = []
    n_switches = 0

    while t < t1:
        res = rk45(fields[side], x, t, t1, plane=params.d,
                   event_side=-1.0 if side == "left" else 1.0)
        # every run after the first starts at the event sample that the
        # previous run recorded last
        offset = 1 if ts else 0
        ts.extend(res.ts[offset:])
        xs.extend(res.xs[offset:])
        sides.extend([side] * (len(res.ts) - offset))
        for (tg, xg) in res.grazes:
            events.append(SwitchEvent(tg, xg, f"graze_{side}"))

        if res.event_t is None:
            break
        t, x = res.event_t, res.event_x
        ga = fields["left"](x)
        gb = fields["right"](x)
        push_up = ga[0] + ga[2]     # left field's plane-normal speed
        push_down = gb[0] + gb[2]   # right field's plane-normal speed
        if push_up > 0.0 and push_down < 0.0:
            raise SlidingDetected(
                f"both zone fields point at the plane at t={t!r}, x={x!r}")
        direction = "left_to_right" if side == "left" else "right_to_left"
        events.append(SwitchEvent(t, x, direction))
        n_switches += 1
        if n_switches > MAX_EVENTS:
            raise EventStorm(f"more than {MAX_EVENTS} switching events")
        side = "right" if side == "left" else "left"

    # in time order: a run's grazes precede its crossing, where the next
    # run starts
    return HybridTrajectory(tuple(ts), tuple(xs), tuple(sides), tuple(events))


@dataclass(frozen=True)
class CrosscheckReport:
    """Worst-case disagreement between the simulator and the closed forms."""

    trials: int
    max_error: float
    worst_trial: Optional[dict] = None


#: Time each ``crosscheck_closed_forms`` trial runs for at most.
CROSSCHECK_HORIZON = 5.0


def crosscheck_closed_forms(params: SystemParams, trials: int,
                            seed: int) -> CrosscheckReport:
    """Random starts strictly inside one zone, simulated until the first
    switching event or ``CROSSCHECK_HORIZON``, compared componentwise
    against the closed form of that zone at every sample time.

    Starts are drawn in the dynamically relevant region: left-zone starts
    around the limit cycle with nonnegative height (so trajectories either
    stay bounded or leave through the plane), right-zone starts around the
    equilibrium at or below its height (same reason).  Zero trials yield
    max_error 0 by convention.
    """
    if trials <= 0:
        return CrosscheckReport(0, 0.0)
    rng = np.random.default_rng(seed)
    d = params.d
    margin = 0.05 * max(1.0, d)
    sr = params.sqrt_rho
    fields = {"left": left_field(params), "right": right_field(params)}
    max_err = 0.0
    worst = None
    for i in range(trials):
        side = "left" if i % 2 == 0 else "right"
        x0 = _draw_start(params, side, rng, margin, sr)
        # First simulator segment only: up to the first switching event or
        # the horizon (what happens at the hand-off is irrelevant here).
        res = rk45(fields[side], x0, 0.0, CROSSCHECK_HORIZON, plane=d,
                   event_side=-1.0 if side == "left" else 1.0)
        flow = left_flow if side == "left" else right_flow
        for t, (x1, x2, x3) in zip(res.ts, res.xs):
            r1, r2, r3 = flow(x0, t, params)
            # the componentwise max, written out as max() picks it
            err = abs(x1 - r1)
            e = abs(x2 - r2)
            if e > err:
                err = e
            e = abs(x3 - r3)
            if e > err:
                err = e
            if err > max_err:
                max_err = err
                worst = {"trial": i, "side": side, "t": float(t),
                         "x0": [float(v) for v in x0]}
    return CrosscheckReport(trials, max_err, worst)


def _draw_start(params, side, rng, margin, sr):
    """Rejection-sample a start strictly inside the requested zone."""
    for _ in range(1000):
        if side == "left":
            r = sr * rng.uniform(0.3, 1.6)
            th = rng.uniform(0.0, 2.0 * math.pi)
            x3 = rng.uniform(0.0, 0.5 * max(0.2, params.d))
            x = (r * math.cos(th), r * math.sin(th), x3)
            if params.plane_residual(x) <= -margin:
                return x
        else:
            x1 = params.q1 + rng.uniform(-0.4, 0.4)
            x2 = params.q2 + rng.uniform(-0.5, 0.5)
            x3 = params.q3 - rng.uniform(0.0, 0.3 * (1.0 + abs(params.q3)))
            x = (x1, x2, x3)
            if params.plane_residual(x) >= margin:
                return x
    raise HetcycleError(
        f"could not sample a start inside the {side} zone at distance "
        f"{margin!r} from the plane")


def write_trajectory_csv(traj: HybridTrajectory, path) -> None:
    """One row per sample, labelled with its zone and the role 'hybrid'."""
    sides = traj.sides
    cuts = [i for i in range(len(sides)) if i == 0 or sides[i] != sides[i - 1]]
    cuts.append(len(sides))
    write_csv(path, ((traj.ts[a:b], traj.xs[a:b], (sides[a], "hybrid"))
                     for a, b in zip(cuts, cuts[1:])))


def write_events_csv(traj: HybridTrajectory, path) -> None:
    """One row per event, labelled with its direction."""
    write_csv(path, (((e.t,), (e.x,), (e.direction,)) for e in traj.events),
              header=CSV_HEADER[:4] + ("direction",))
