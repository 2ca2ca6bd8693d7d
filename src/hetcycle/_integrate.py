"""Adaptive embedded Runge-Kutta integration on small state tuples.

This is the numeric oracle side of the package: it knows nothing about the
closed-form solutions and integrates raw vector fields.  States are plain
float 3-tuples.  The six Fehlberg stages, the 5th-order update and the
error norm are written out for 3 components on local floats, which is
several times faster here than small-array numpy or per-component loops,
and the speed matters for the brute-force verification sweeps.  The error
norm is the largest of the three scaled component errors, taken by
comparisons (``v if v > u else u``, the pick ``max`` makes) rather than
``max`` calls; comparisons drop a NaN instead of propagating it, so a step
with any non-finite update or error component is given err = inf before
the norm is formed, and is retried at 0.2 h.

Events are crossings of the switching plane x1 + x3 = d, located on the
cubic Hermite dense output of each accepted step (Shampine & Thompson,
"Event location for ordinary differential equations", 2000).  Along one
step the switching function g(s) = x1(s) + x3(s) - d is itself an exact
scalar cubic whose end slopes are h (f1 + f3), so its extrema are the
roots of a quadratic: checking g there and at the step ends finds every
crossing and every tangential touch of the interpolant without sampling.
Most steps are far from the plane and skip that check: the cubic is a
convex blend of its end values plus at most 4/27 (|m0| + |m1|) from its
end slopes, so a step whose ends clear the plane on the starting side by
more than that (plus 2 GRAZE_TOL) can neither cross nor graze.
``hermite``, written out for 3 components like the stepper, is the one
interpolant: a crossing is bisected by evaluating each midpoint state
through it.  The run ends at the event state without evaluating the field
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import StepFailure
from .model import point

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
    plane: Optional[tuple] = None,
    event_side: Optional[float] = None,
) -> IntegrationResult:
    """Integrate the autonomous field ``f`` from ``t0`` to ``t1`` (t1 > t0).

    ``x0`` has 3 components and ``f`` maps a 3-tuple to a 3-tuple; other
    lengths of ``x0`` raise ValueError.

    ``plane``, when given, is the offset d of the event plane
    x1 + x3 = d, the switching plane; integration stops at the first
    decisive crossing away from ``event_side``, the sign (-1 or +1,
    ValueError otherwise) of x1 + x3 - d in the region the trajectory
    starts in.  Tangential touches within ``GRAZE_TOL`` of the plane
    without a crossing are collected in ``grazes``, projected onto the
    plane, and do not stop the run.

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
