"""The numeric oracle: event-detecting simulation of the switched system.

The oracle integrates the raw Cartesian zone fields, ``left_field`` and
``right_field``, with one adaptive stepper, ``rk45``, and names none of
the closed forms of ``flows``, so it checks them independently:
``numeric_flow`` integrates one zone's field, ``integrate_hybrid`` the
switched system.  ``crosscheck_closed_forms``, the package's standing
self-test, is where the two meet: it compares the first simulated segment
of random starts with that zone's closed form.  All three run the stepper
at its default ``StepControl()``.

Stepper.  ``rk45`` is the Fehlberg 4(5) embedded pair on float 3-tuples.
The six stages, the 5th-order update and the error norm are written out
for 3 components on local floats, which is several times faster here than
small-array numpy or per-component loops, and the speed matters for the
brute-force verification sweeps.  The error norm is the largest of the
three scaled component errors, taken by comparisons (``v if v > u else
u``, the pick ``max`` makes) rather than ``max`` calls; comparisons drop a
NaN instead of propagating it, so a step with any non-finite update or
error component is given err = inf before the norm is formed, and is
retried at 0.2 h.

Events are crossings of the switching plane x1 + x3 = d, located on the
cubic Hermite dense output of each accepted step (Shampine & Thompson,
"Event location for ordinary differential equations", 2000).  Along one
step the switching function g(s) = x1(s) + x3(s) - d is itself an exact
scalar cubic whose end slopes are h (f1 + f3), so its extrema are the
roots of a quadratic: checking g there and at the step ends finds every
crossing and every tangential touch of the interpolant without sampling.
Most steps are far from the plane and skip that check (``_clears_plane``).
A crossing is bisected through ``hermite``, written out for 3 components
like the stepper and the one interpolant, until the event residual |g| is
at or below ``EVENT_RESIDUAL`` on the destination side; the run ends at
that state without evaluating the field there.  An extremum of the cubic
within ``GRAZE_TOL`` of the plane without a sign change is a graze: it is
projected onto the plane, recorded, and does not stop the run.

Switching.  ``_zones`` pairs each zone with its field and the sign of
x1 + x3 - d inside it.  The plane belongs to the left zone (rule "<= d"):
the incoming side integrates up to the localized event time, the state is
handed to the other zone, and integration continues.  If at an event both
zone fields point at the plane the crossing dynamics are undefined; the
simulator raises SlidingDetected rather than inventing a sliding mode.
The samples are the stepper's float 3-tuples, handed on as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EventStorm,
    HetcycleError,
    SlidingDetected,
    StepFailure,
)
from .flows import left_flow, right_flow
from .model import SystemParams, point
from .orbits import CSV_HEADER, write_csv

# Fehlberg 4(5) embedded pair (nodes 0, 1/4, 3/8, 12/13, 1, 1/2).
_A21 = 0.25
_A31, _A32 = 3.0 / 32.0, 9.0 / 32.0
_A41, _A42, _A43 = 1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0
_A51, _A52, _A53, _A54 = 439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0
_A61, _A62, _A63, _A64, _A65 = -8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0
# 5th-order propagation weights.
_B1, _B3, _B4, _B5, _B6 = 16.0 / 135.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0
# Difference between the 4th- and 5th-order solutions (local error estimate).
_E1, _E3, _E4, _E5, _E6 = 1.0 / 360.0, -128.0 / 4275.0, -2197.0 / 75240.0, 1.0 / 50.0, 2.0 / 55.0

#: Required residual |g| of localized event states.
EVENT_RESIDUAL = 1e-10

#: |g| a checked value must exceed on the destination side to be a crossing.
_DECISIVE = 1e-12

#: Largest |g| of an interior extremum recorded as a tangential touch
#: (tangency cannot be resolved below the integration accuracy).
GRAZE_TOL = 1e-8

#: Largest |h10(s)| and |h11(s)| on [0, 1]: how far the end slopes can bend
#: the Hermite cubic away from the blend h00 g0 + h01 g1 of its end values.
_BULGE = 4.0 / 27.0

#: Relative allowance for rounding in the evaluated cubic of a large step.
_ROUNDING = 1e-12

#: Step-size floor and budget of steps (accepted or rejected) of every
#: ``rk45`` run; StepFailure past either.
H_MIN = 1e-13
MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class StepControl:
    """Tolerances of the adaptive step controller.  The limits every run
    shares are the module constants ``H_MIN`` and ``MAX_STEPS``."""

    rtol: float = 1e-9
    atol: float = 1e-12

    def __post_init__(self):
        # The error norm divides by atol wherever a component sits at 0.
        if not (self.atol > 0.0 and self.rtol >= 0.0):
            raise ValueError(f"StepControl needs atol > 0 and rtol >= 0, "
                             f"got atol={self.atol!r}, rtol={self.rtol!r}")


class IntegrationResult(NamedTuple):
    """Accepted steps of one integration run.

    ``ts``/``xs`` hold the accepted mesh and its states, ``grazes`` the
    tangential touches as (t, x).  After a decisive crossing of the plane
    the run ends at the localized event ``event_t``/``event_x``, the last
    entries of ``ts``/``xs``.
    """

    ts: list
    xs: list
    grazes: list
    event_t: Optional[float] = None
    event_x: Optional[tuple] = None


def hermite(x0: Sequence[float], f0, x1, f1, h: float, s: float) -> tuple:
    """Cubic Hermite interpolant of one 3-component step, s in [0, 1]."""
    xa1, xa2, xa3 = x0
    fa1, fa2, fa3 = f0
    xb1, xb2, xb3 = x1
    fb1, fb2, fb3 = f1
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    c10 = (s3 - 2.0 * s2 + s) * h
    h01 = -2.0 * s3 + 3.0 * s2
    c11 = (s3 - s2) * h
    return (h00 * xa1 + c10 * fa1 + h01 * xb1 + c11 * fb1,
            h00 * xa2 + c10 * fa2 + h01 * xb2 + c11 * fb2,
            h00 * xa3 + c10 * fa3 + h01 * xb3 + c11 * fb3)


def _initial_step(f0, x0, span: float, ctl: StepControl) -> float:
    scale = max(abs(v) for v in x0) + ctl.atol
    speed = max(abs(v) for v in f0)
    if speed > 0.0:
        h = 0.01 * (scale + 1.0) / speed
    else:
        h = 0.01 * span
    return min(h, span)


def _bisect_event(d, x0, f0, x1, f1, h, a, b, ga, gb, target_sign):
    """Bisect g = x1 + x3 - d along the Hermite interpolant of one step, from
    the bracket [a, b] with values ``ga``, ``gb``, until both bracket values
    are within ``EVENT_RESIDUAL``; return the endpoint whose sign matches
    ``target_sign`` so the hand-off state lands on the destination side.
    Each midpoint state is ``hermite(..., m)``."""
    for _ in range(200):
        if abs(ga) <= EVENT_RESIDUAL and abs(gb) <= EVENT_RESIDUAL:
            break
        m = 0.5 * (a + b)
        v1, _, v3 = hermite(x0, f0, x1, f1, h, m)
        gm = v1 + v3 - d
        if (gm > 0.0) == (ga > 0.0):
            a, ga = m, gm
        else:
            b, gb = m, gm
        if b - a < 1e-17:
            break
    # Prefer the endpoint on the destination side of the plane.
    if ga * target_sign >= 0.0 and abs(ga) <= abs(gb):
        return a
    if gb * target_sign >= 0.0:
        return b
    return a if abs(ga) <= abs(gb) else b


def rk45(
    f: Callable[[tuple], tuple],
    x0: Sequence[float],
    t0: float,
    t1: float,
    control: Optional[StepControl] = None,
    plane: Optional[float] = None,
    event_side: Optional[float] = None,
) -> IntegrationResult:
    """Integrate the autonomous field ``f`` from ``t0`` to ``t1`` (t1 > t0).

    ``x0`` has 3 components and ``f`` maps a 3-tuple to a 3-tuple; other
    lengths of ``x0`` raise ValueError.

    ``plane``, when given, is the offset d of the switching plane
    x1 + x3 = d; integration stops at the first decisive crossing away
    from ``event_side``, the sign (-1 or +1, ValueError otherwise) of
    x1 + x3 - d in the region the trajectory starts in, and grazes do not
    stop it (module docstring).

    Raises StepFailure when the controller underflows ``H_MIN`` or exceeds
    ``MAX_STEPS``.
    """
    if not t1 > t0:
        raise ValueError("rk45 requires t1 > t0")
    x = point(x0)
    if plane is not None and event_side not in (-1.0, 1.0):
        raise ValueError(f"rk45 needs event_side -1 or +1 with a plane, "
                         f"got {event_side!r}")
    ctl = control or StepControl()
    atol, rtol = ctl.atol, ctl.rtol
    isfinite = math.isfinite
    t = t0
    fx = f(x)
    h = _initial_step(fx, x, t1 - t0, ctl)

    ts = [t]
    xs = [x]
    grazes: list = []
    event_t = event_x = None

    x1, x2, x3 = x
    a1, a2, a3 = fx
    if plane is not None:
        # g = x1 + x3 - d (d = plane) and f1 + f3 at the start of the
        # current step
        g0 = x1 + x3 - plane
        r0 = a1 + a3
        side = event_side

    steps = 0
    while t < t1:
        if steps >= MAX_STEPS:
            raise StepFailure(f"exceeded max_steps={MAX_STEPS} at t={t!r}")
        rest = t1 - t
        if rest < h:
            h = rest

        # Stages k1..k6 have components a, b, c, d, e, p.
        ha = h * _A21
        b1, b2, b3 = f((x1 + ha * a1, x2 + ha * a2, x3 + ha * a3))
        c1, c2, c3 = f((x1 + h * (_A31 * a1 + _A32 * b1),
                        x2 + h * (_A31 * a2 + _A32 * b2),
                        x3 + h * (_A31 * a3 + _A32 * b3)))
        d1, d2, d3 = f((x1 + h * (_A41 * a1 + _A42 * b1 + _A43 * c1),
                        x2 + h * (_A41 * a2 + _A42 * b2 + _A43 * c2),
                        x3 + h * (_A41 * a3 + _A42 * b3 + _A43 * c3)))
        e1, e2, e3 = f((x1 + h * (_A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * d1),
                        x2 + h * (_A51 * a2 + _A52 * b2 + _A53 * c2 + _A54 * d2),
                        x3 + h * (_A51 * a3 + _A52 * b3 + _A53 * c3 + _A54 * d3)))
        p1, p2, p3 = f((
            x1 + h * (_A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * d1 + _A65 * e1),
            x2 + h * (_A61 * a2 + _A62 * b2 + _A63 * c2 + _A64 * d2 + _A65 * e2),
            x3 + h * (_A61 * a3 + _A62 * b3 + _A63 * c3 + _A64 * d3 + _A65 * e3)))

        y1 = x1 + h * (_B1 * a1 + _B3 * c1 + _B4 * d1 + _B5 * e1 + _B6 * p1)
        y2 = x2 + h * (_B1 * a2 + _B3 * c2 + _B4 * d2 + _B5 * e2 + _B6 * p2)
        y3 = x3 + h * (_B1 * a3 + _B3 * c3 + _B4 * d3 + _B5 * e3 + _B6 * p3)
        l1 = h * (_E1 * a1 + _E3 * c1 + _E4 * d1 + _E5 * e1 + _E6 * p1)
        l2 = h * (_E1 * a2 + _E3 * c2 + _E4 * d2 + _E5 * e2 + _E6 * p2)
        l3 = h * (_E1 * a3 + _E3 * c3 + _E4 * d3 + _E5 * e3 + _E6 * p3)
        if (isfinite(l1) and isfinite(y1) and isfinite(l2) and isfinite(y2)
                and isfinite(l3) and isfinite(y3)):
            # max() written out: ``v if v > u else u`` is its pick, and on
            # these finite values nothing else can differ.
            u, v = abs(x1), abs(y1)
            err = abs(l1) / (atol + rtol * (v if v > u else u))
            u, v = abs(x2), abs(y2)
            e = abs(l2) / (atol + rtol * (v if v > u else u))
            if e > err:
                err = e
            u, v = abs(x3), abs(y3)
            e = abs(l3) / (atol + rtol * (v if v > u else u))
            if e > err:
                err = e
        else:
            err = math.inf

        if not err <= 1.0:  # rejects NaN/inf error estimates too
            shrink = 0.2 if not isfinite(err) else max(0.2, 0.9 * err ** -0.2)
            h *= shrink
            if h < H_MIN:
                raise StepFailure(f"step size underflow at t={t!r} (h={h!r})")
            steps += 1
            continue

        x_new = (y1, y2, y3)
        f_new = f(x_new)
        u1, u2, u3 = f_new

        if plane is not None:
            g1 = y1 + y3 - plane
            r1 = u1 + u3
            m0, m1 = h * r0, h * r1
            if not _clears_plane(side * g0, side * g1, m0, m1):
                s_ev = _plane_event(plane, side, x, fx, x_new, f_new, h, t,
                                    g0, g1, m0, m1, grazes)
                if s_ev is not None:
                    x = event_x = hermite(x, fx, x_new, f_new, h, s_ev)
                    t = event_t = t + s_ev * h
                    ts.append(t)
                    xs.append(x)
                    break
            g0, r0 = g1, r1

        t, x, fx = t + h, x_new, f_new
        x1, x2, x3, a1, a2, a3 = y1, y2, y3, u1, u2, u3
        ts.append(t)
        xs.append(x)
        steps += 1
        # Growth factor min(5, 0.9 err^-0.2), the min written out; an
        # accepted err <= 1 keeps it >= 0.9, so no 0.2 floor can bind.
        fac = 5.0 if err == 0.0 else 0.9 * err ** -0.2
        h *= fac if fac < 5.0 else 5.0

    return IntegrationResult(ts, xs, grazes, event_t, event_x)


def _clears_plane(w0: float, w1: float, m0: float, m1: float) -> bool:
    """True when a step whose ends lie at signed distances ``w0``, ``w1``
    (positive on the starting side) and whose end slopes are ``m0``, ``m1``
    can neither cross the plane nor graze it.

    g(s) = h00 g0 + h01 g1 + h10 m0 + h11 m1 with h00, h01 in [0, 1]
    summing to 1 and |h10|, |h11| <= 4/27, so along the whole step the
    distance is at least min(w0, w1) - 4/27 (|m0| + |m1|).  Requiring more
    than 2 GRAZE_TOL (and a relative rounding allowance) on top keeps the
    evaluated cubic of ``_plane_event`` above GRAZE_TOL, which finds
    nothing there either.
    """
    bend = abs(m0) + abs(m1)
    lim = (_BULGE * bend + 2.0 * GRAZE_TOL
           + _ROUNDING * (abs(w0) + abs(w1) + bend))
    return w0 > lim and w1 > lim


def _unit_roots(a: float, b: float, c: float) -> list:
    """Real roots of a s^2 + b s + c strictly inside (0, 1), ascending."""
    if a == 0.0:
        roots = [-c / b] if b != 0.0 else []
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return []
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = [q / a, c / q] if q != 0.0 else [0.0]
    return sorted(s for s in roots if 0.0 < s < 1.0)


def _plane_event(d, side, x, fx, x_new, f_new, h, t, g0, g1, m0, m1,
                 grazes):
    """Scan one accepted step for a decisive crossing or a grazing touch.

    ``g0``, ``g1`` are x1 + x3 - d at the step ends and ``m0``, ``m1`` the
    end slopes h (f1 + f3), as ``rk45`` computed them for ``_clears_plane``.
    Returns the step fraction of a crossing (bisected onto the destination
    side), else None, possibly after appending a graze record.
    """
    # g(s) is the cubic with end values g0, g1 and end slopes m0, m1; it is
    # monotone between consecutive roots of g', so only those are checked.
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
        if g_hi * target > _DECISIVE:
            return _bisect_event(d, x, fx, x_new, f_new, h,
                                 s_lo, s_hi, g_lo, g_hi, target)

    # No crossing: an interior extremum nearer the plane than both ends is
    # a tangential touch; it is projected onto the plane exactly, along
    # its normal (1, 0, 1).
    if crit:
        s_t, g_t = min(checks[1:-1], key=lambda c: abs(c[1]))
        if abs(g_t) <= GRAZE_TOL and abs(g_t) < min(abs(g0), abs(g1)):
            v1, v2, v3 = hermite(x, fx, x_new, f_new, h, s_t)
            shift = (v1 + v3 - d) / 2.0
            grazes.append((t + s_t * h, (v1 - shift, v2, v3 - shift)))
    return None


def left_field(params: SystemParams):
    """Raw Cartesian left-zone vector field."""
    rho, omega, mu = params.rho, params.omega, params.mu

    def f(x):
        x1, x2, x3 = x
        rr = x1 * x1 + x2 * x2
        return (rho * x1 - omega * x2 - x1 * rr,
                omega * x1 + rho * x2 - x2 * rr,
                mu * x3)

    return f


def right_field(params: SystemParams):
    """Raw Cartesian right-zone vector field."""
    b11, b12, b21, b22, lam = params.b11, params.b12, params.b21, params.b22, params.lam
    q1, q2, q3 = params.q1, params.q2, params.q3

    def f(x):
        x1, x2, x3 = x
        y1 = x1 - q1
        y2 = x2 - q2
        return (b11 * y1 + b12 * y2, b21 * y1 + b22 * y2, lam * (x3 - q3))

    return f


def _zones(params: SystemParams) -> dict:
    """Each zone's raw field and the sign of x1 + x3 - d inside it, the
    ``event_side`` of an ``rk45`` run in that zone."""
    return {"left": (left_field(params), -1.0),
            "right": (right_field(params), 1.0)}


def numeric_flow(x0, t: float, side: str, params: SystemParams) -> tuple:
    """Adaptive Runge-Kutta solution of the chosen zone field, 3 floats.

    Exists to cross-check the closed forms; backward times integrate the
    negated field forward.  Raises StepFailure if the controller underflows
    (for the left field this is how backward blow-up manifests).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    x0 = point(x0)
    if t == 0.0:
        return x0
    f = _zones(params)[side][0]
    if t < 0.0:
        fwd = f
        f = lambda x: tuple(-v for v in fwd(x))  # noqa: E731
        span = -t
    else:
        span = t
    return rk45(f, x0, 0.0, span).xs[-1]


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
    """Forward simulation of the switched system over t_span = (t0, t1).

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
    zones = _zones(params)
    side = active_side(params, x)
    t = t0

    ts: list = []
    xs: list = []
    sides: list = []
    events: list = []
    n_switches = 0

    while t < t1:
        field, event_side = zones[side]
        res = rk45(field, x, t, t1, plane=params.d, event_side=event_side)
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
        ga = zones["left"][0](x)
        gb = zones["right"][0](x)
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
    zones = _zones(params)
    max_err = 0.0
    worst = None
    for i in range(trials):
        side = "left" if i % 2 == 0 else "right"
        x0 = _draw_start(params, side, rng, margin, sr)
        # First simulator segment only: up to the first switching event or
        # the horizon (what happens at the hand-off is irrelevant here).
        field, event_side = zones[side]
        res = rk45(field, x0, 0.0, CROSSCHECK_HORIZON, plane=d,
                   event_side=event_side)
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
