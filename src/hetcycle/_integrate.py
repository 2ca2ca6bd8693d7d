"""Adaptive embedded Runge-Kutta integration on small state tuples.

This is the numeric oracle side of the package: it knows nothing about the
closed-form solutions and integrates raw vector fields.  States are plain
float tuples (2 or 3 components); scalar arithmetic is several times faster
here than small-array numpy and the speed matters for the brute-force
verification sweeps.

Events are crossings of an affine plane n . x = c, located on the cubic
Hermite dense output of each accepted step (Shampine & Thompson, "Event
location for ordinary differential equations", 2000).  Along one step the
switching function g(s) = n . x(s) - c is itself an exact scalar cubic
whose end slopes are h n . f, so its extrema are the roots of a quadratic:
checking g there and at the step ends finds every crossing and every
tangential touch of the interpolant without sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import StepFailure

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


@dataclass(frozen=True)
class StepControl:
    """Tolerances and limits for the adaptive step controller."""

    rtol: float = 1e-9
    atol: float = 1e-12
    h_min: float = 1e-13
    max_steps: int = 2_000_000


@dataclass
class IntegrationResult:
    """Accepted steps of one integration run.

    ``ts``/``xs``/``fs`` hold the accepted mesh, states, and field values
    (the field values make cubic-Hermite dense output possible between any
    two consecutive entries).  When a plane was supplied and a decisive
    crossing occurred, the run is truncated at the localized event and
    ``event_t``/``event_x`` are set.
    """

    ts: list
    xs: list
    fs: list
    event_t: Optional[float] = None
    event_x: Optional[tuple] = None
    grazes: Optional[list] = None  # list of (t, x) tangential touches

    @property
    def x_end(self) -> tuple:
        return self.xs[-1] if self.event_x is None else self.event_x


def hermite(x0: Sequence[float], f0, x1, f1, h: float, s: float) -> tuple:
    """Cubic Hermite interpolant on one step, s in [0, 1]."""
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


def _initial_step(f0, x0, span: float, ctl: StepControl) -> float:
    scale = max(abs(v) for v in x0) + ctl.atol
    speed = max(abs(v) for v in f0)
    if speed > 0.0:
        h = 0.01 * (scale + 1.0) / speed
    else:
        h = 0.01 * span
    return min(h, span)


def _bisect_hermite(g, x0, f0, x1, f1, h, s_lo, s_hi, g_lo, g_hi, target_sign):
    """Bisect g along the Hermite interpolant until both bracket values are
    within ``EVENT_RESIDUAL``; return the endpoint whose sign matches
    ``target_sign`` so the hand-off state lands on the destination side."""
    a, b = s_lo, s_hi
    ga, gb = g_lo, g_hi
    for _ in range(200):
        if abs(ga) <= EVENT_RESIDUAL and abs(gb) <= EVENT_RESIDUAL:
            break
        m = 0.5 * (a + b)
        xm = hermite(x0, f0, x1, f1, h, m)
        gm = g(xm)
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
    event_side: float = 0.0,
    record: bool = True,
) -> IntegrationResult:
    """Integrate the autonomous field ``f`` from ``t0`` to ``t1`` (t1 > t0).

    ``plane``, when given, is ``(normal, offset)`` of the event plane
    n . x = c; integration stops at the first decisive crossing away from
    ``event_side`` (the sign of n . x - c in the region the trajectory
    starts in: -1, +1, or 0 to infer from the initial state).  Tangential
    touches within ``GRAZE_TOL`` of the plane without a crossing are
    collected in ``grazes``, projected onto the plane, and do not stop the
    run.

    Raises StepFailure when the controller underflows ``h_min`` or exceeds
    ``max_steps``.
    """
    if not t1 > t0:
        raise ValueError("rk45 requires t1 > t0")
    ctl = control or StepControl()
    x = tuple(float(v) for v in x0)
    t = t0
    fx = f(x)
    h = _initial_step(fx, x, t1 - t0, ctl)

    ts = [t]
    xs = [x]
    fs = [fx]
    grazes: list = []

    side = event_side
    if plane is not None and side == 0.0:
        side = 1.0 if _dot(plane[0], x) - plane[1] > 0.0 else -1.0

    steps = 0
    while t < t1:
        if steps >= ctl.max_steps:
            raise StepFailure(f"exceeded max_steps={ctl.max_steps} at t={t!r}")
        h = min(h, t1 - t)

        k1 = fx
        y = tuple(xi + h * _A21 * a for xi, a in zip(x, k1))
        k2 = f(y)
        y = tuple(xi + h * (_A31 * a + _A32 * b) for xi, a, b in zip(x, k1, k2))
        k3 = f(y)
        y = tuple(xi + h * (_A41 * a + _A42 * b + _A43 * c)
                  for xi, a, b, c in zip(x, k1, k2, k3))
        k4 = f(y)
        y = tuple(xi + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                  for xi, a, b, c, d in zip(x, k1, k2, k3, k4))
        k5 = f(y)
        y = tuple(xi + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                  for xi, a, b, c, d, e in zip(x, k1, k2, k3, k4, k5))
        k6 = f(y)

        x_new = tuple(
            xi + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g6)
            for xi, a, c, d, e, g6 in zip(x, k1, k3, k4, k5, k6)
        )
        err = 0.0
        for xi, xn, a, c, d, e, g6 in zip(x, x_new, k1, k3, k4, k5, k6):
            le = h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g6)
            if not math.isfinite(le) or not math.isfinite(xn):
                err = math.inf
                break
            sc = ctl.atol + ctl.rtol * max(abs(xi), abs(xn))
            err = max(err, abs(le) / sc)

        if not err <= 1.0:  # rejects NaN/inf error estimates too
            shrink = 0.2 if not math.isfinite(err) else max(0.2, 0.9 * err ** -0.2)
            h *= shrink
            if h < ctl.h_min:
                raise StepFailure(f"step size underflow at t={t!r} (h={h!r})")
            steps += 1
            continue

        f_new = f(x_new)
        t_new = t + h

        if plane is not None:
            s_ev = _plane_event(plane, side, x, fx, x_new, f_new, h, t, grazes)
            if s_ev is not None:
                x_ev = hermite(x, fx, x_new, f_new, h, s_ev)
                t_ev = t + s_ev * h
                if record:
                    ts.append(t_ev)
                    xs.append(x_ev)
                    fs.append(f(x_ev))
                return IntegrationResult(ts, xs, fs, event_t=t_ev, event_x=x_ev,
                                         grazes=grazes)

        t, x, fx = t_new, x_new, f_new
        if record:
            ts.append(t)
            xs.append(x)
            fs.append(fx)
        steps += 1
        fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        h *= fac

    if not record:
        ts, xs, fs = [t], [x], [fx]
    return IntegrationResult(ts, xs, fs, grazes=grazes)




def _dot(a, b) -> float:
    return sum(u * v for u, v in zip(a, b))


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


def _plane_event(plane, side, x, fx, x_new, f_new, h, t, grazes):
    """Scan one accepted step for a decisive crossing or a grazing touch.

    Returns the step fraction of a crossing (bisected onto the destination
    side), else None, possibly after appending a graze record.
    """
    normal, offset = plane
    g0 = _dot(normal, x) - offset
    g1 = _dot(normal, x_new) - offset
    m0 = h * _dot(normal, fx)
    m1 = h * _dot(normal, f_new)
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
            return _bisect_hermite(lambda y: _dot(normal, y) - offset,
                                   x, fx, x_new, f_new, h,
                                   s_lo, s_hi, g_lo, g_hi, target)

    # No crossing: an interior extremum nearer the plane than both ends is
    # a tangential touch; it is projected onto the plane exactly.
    if crit:
        s_t, g_t = min(checks[1:-1], key=lambda c: abs(c[1]))
        if abs(g_t) <= GRAZE_TOL and abs(g_t) < min(abs(g0), abs(g1)):
            x_t = hermite(x, fx, x_new, f_new, h, s_t)
            shift = (_dot(normal, x_t) - offset) / _dot(normal, normal)
            grazes.append((t + s_t * h,
                           tuple(v - shift * n for v, n in zip(x_t, normal))))
    return None
