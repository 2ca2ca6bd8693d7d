"""Closed-form flows of the two zone fields, plus a numeric oracle.

Left zone: in polar coordinates the planar part obeys r' = r(rho - r^2),
theta' = omega, and the axis obeys x3' = mu x3.  The radial law integrates
to a logistic curve in r^2,

    r(t)^2 = rho / (1 + (rho / r0^2 - 1) exp(-2 rho t)),

linear drift in theta and an exponential in x3.  For r0 > sqrt(rho) the
radial solution escapes to infinity at the finite backward time
t = log(1 - rho/r0^2) / (2 rho); evaluation at or past it raises
BackwardBlowup rather than clamping, because silent saturation would
corrupt the root finding built on top of this flow.  Only ``radial_law``
evaluates the law; a start within ``ON_CYCLE_BAND`` of the cycle stays on it.

Right zone: x(t) = q + e^{Bt} (x0 - q) with the 2x2 block exponential in
closed form, split by eigenvalue type (distinct real / repeated / complex
pair).  On an invariant set through q (the stable plane x3 = q3, the
unstable line x1 = q1, x2 = q2) the exponential of the zero offset is
never evaluated, so a long horizon cannot overflow it.

Each zone binds one start once as an orbit ``t -> (x1, x2, x3)``, a tuple
of floats (an ndarray per call was half its cost), holding every
t-independent part; ``left_flow`` / ``right_flow`` are one memoized body
(``_memoized``) over ``left_orbit`` / ``right_orbit`` that keeps the last
orbit in a one-entry memo, as the orbit sampler and the cross-check
evaluate one start under one parameter set many times in a row.  The memo
is keyed by the identities of the ``x0`` tuple and the ``params`` object
(== would share an entry between 0.0 and -0.0) and holds strong references
to them, so their addresses cannot be reused while the entry lives.  A hit
does the same operations in the same order as a miss, so results are
bit-identical.  A start that is not a tuple is read by ``model.point`` (a
new tuple, so a miss); a tuple is unpacked by its orbit on a miss, so a
start of other than three components raises ValueError either way.

``numeric_flow`` integrates the raw Cartesian fields with the adaptive
Runge-Kutta oracle and exists solely to cross-check the formulas above.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ._integrate import StepControl, rk45
from .errors import BackwardBlowup
from .model import SystemParams, point

#: Relative threshold on the normalized discriminant below which the
#: repeated-root exponential branch is used (stability near coalescence).
_REPEATED_ROOT_TOL = 1e-12

#: Band of |rho / r0^2 - 1| within which a start is on the limit cycle
#: (r^2 = rho for every t).  A point built on the cycle lies on it only up
#: to rounding, which the law's backward repulsion at rate 2 rho would grow
#: into a spurious blow-up or a large residual.
ON_CYCLE_BAND = 1e-12


def _offset(r0_sq: float, rho: float) -> float:
    """The radial law's offset rho / r0^2 - 1 of a start with r0 != 0,
    as 0.0 inside ``ON_CYCLE_BAND``."""
    a = rho / r0_sq - 1.0
    return 0.0 if abs(a) <= ON_CYCLE_BAND else a


def radial_blowup_time(r0_sq: float, rho: float) -> float:
    """Finite backward escape time of the radial law; -inf when the start
    radius is inside the limit cycle or on it (``ON_CYCLE_BAND``)."""
    a = _offset(r0_sq, rho) if r0_sq > rho else 0.0
    if a == 0.0:
        return -math.inf
    return math.log(-a) / (2.0 * rho)


def radial_law(r0_sq: float, rho: float):
    """The squared radius under r' = r(rho - r^2) from the squared start
    radius ``r0_sq``, as a function ``t -> r(t)^2``.

    Evaluated in log space so that neither deep forward times (r -> cycle)
    nor deep backward times (r -> 0 from inside) overflow.  A start outside
    the cycle raises BackwardBlowup at or past its backward escape time.
    """
    if r0_sq == 0.0:
        return lambda t: 0.0
    a = _offset(r0_sq, rho)
    if a == 0.0:
        return lambda t: rho
    log_a = math.log(abs(a))
    two_rho = 2.0 * rho
    if a < 0.0:
        def law(t):
            s = log_a - two_rho * t
            # outside the cycle: the denominator 1 - e^s vanishes at the
            # blow-up, and in rounding already where e^s rounds to 1
            den = 1.0 - math.exp(s) if s < 0.0 else 0.0
            if den == 0.0:
                raise BackwardBlowup(
                    f"radial solution escapes at t={log_a / two_rho!r}; "
                    f"requested t={float(t)!r}")
            return rho / den
    else:
        def law(t):
            s = log_a - two_rho * t
            if s > 0.0:
                es = math.exp(-s)
                return rho * es / (1.0 + es)
            return rho / (1.0 + math.exp(s))
    return law


def _plane_rate(c: float, rate: float) -> float:
    """The rate to evaluate c e^{rate t} with: 0.0 on the invariant plane
    c = 0, where e^{rate t} could overflow and c e^{0 t} is c bit for bit."""
    return rate if c != 0.0 else 0.0


def planar_left_orbit(xy, rho: float, omega: float):
    """The planar left flow (the x3 = 0 dynamics) from the start ``xy`` as
    a function ``t -> (x1, x2)``.

    The start's radial law and angle are bound once, so a scan that
    samples one orbit many times pays only for the t-dependent part.
    """
    r0_sq = xy[0] * xy[0] + xy[1] * xy[1]
    if r0_sq == 0.0:
        return lambda t: (0.0, 0.0)
    law = radial_law(r0_sq, rho)
    theta0 = math.atan2(xy[1], xy[0])

    def orbit(t):
        r = math.sqrt(law(t))
        theta = theta0 + omega * t
        return (r * math.cos(theta), r * math.sin(theta))

    return orbit


def planar_left_flow(xy, t: float, rho: float, omega: float) -> tuple:
    """Planar restriction of the left flow (the x3 = 0 dynamics)."""
    return planar_left_orbit(xy, rho, omega)(t)


def left_orbit(x0, params: SystemParams):
    """The left-zone flow from the start ``x0`` as ``t -> (x1, x2, x3)``,
    a tuple of floats.  The planar part is ``planar_left_orbit``'s, written
    out because a nested call per sample would add about a tenth to each."""
    x1, x2, x3 = x0
    mu = _plane_rate(x3, params.mu)
    r0_sq = x1 * x1 + x2 * x2
    if r0_sq == 0.0:
        return lambda t: (0.0, 0.0, x3 * math.exp(mu * t))
    law = radial_law(r0_sq, params.rho)
    theta0 = math.atan2(x2, x1)
    omega = params.omega

    def orbit(t):
        r = math.sqrt(law(t))
        theta = theta0 + omega * t
        return (r * math.cos(theta), r * math.sin(theta),
                x3 * math.exp(mu * t))

    return orbit


def block_exp(a11: float, a12: float, a21: float, a22: float):
    """exp(t * A) of a fixed 2x2 matrix A as a function
    ``t -> (m11, m12, m21, m22)``.

    Branches once on the sign of the trace/determinant discriminant; only
    the exponentials and trigonometric factors are left to each t.  The
    distinct-real branch is written with the two scalar exponentials
    directly so large |t| cannot overflow through cosh/sinh when the
    combined exponent is moderate.
    """
    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    disc = tr * tr - 4.0 * det
    a = 0.5 * tr
    scale = max(1.0, tr * tr, abs(det))
    d11 = a11 - a
    d22 = a22 - a
    if abs(disc) <= _REPEATED_ROOT_TOL * scale:
        def exp_ta(t):
            c = math.exp(a * t)
            sl = c * t
            return (c + d11 * sl, a12 * sl, a21 * sl, c + d22 * sl)
    elif disc > 0.0:
        w = 0.5 * math.sqrt(disc)
        hi = a + w
        lo = a - w

        def exp_ta(t):
            e_hi = math.exp(hi * t)
            e_lo = math.exp(lo * t)
            c = 0.5 * (e_hi + e_lo)
            sl = 0.5 * (e_hi - e_lo) / w
            return (c + d11 * sl, a12 * sl, a21 * sl, c + d22 * sl)
    else:
        w = 0.5 * math.sqrt(-disc)

        def exp_ta(t):
            e = math.exp(a * t)
            c = e * math.cos(w * t)
            sl = e * math.sin(w * t) / w
            return (c + d11 * sl, a12 * sl, a21 * sl, c + d22 * sl)
    return exp_ta


def planar_matrix_exp(a11: float, a12: float, a21: float, a22: float,
                      t: float) -> tuple:
    """Entries (m11, m12, m21, m22) of exp(t * A) for a 2x2 matrix A."""
    return block_exp(a11, a12, a21, a22)(t)


def right_orbit(x0, params: SystemParams):
    """The right-zone flow q + e^{Bt} (x0 - q) from the start ``x0`` as a
    function ``t -> (x1, x2, x3)``, a tuple of floats."""
    q1, q2, q3 = params.q1, params.q2, params.q3
    x1, x2, x3 = x0
    y1 = x1 - q1
    y2 = x2 - q2
    y3 = x3 - q3
    lam = _plane_rate(y3, params.lam)
    if y1 == 0.0 and y2 == 0.0:
        # On the invariant line through q, where e^{Bt} could overflow,
        # no exponential is built: e^{Bt} (0, 0) is added as +0.0, which
        # is the full product's sum unless every term of it is -0.0.
        x1, x2 = q1 + 0.0, q2 + 0.0
        return lambda t: (x1, x2, q3 + y3 * math.exp(lam * t))
    exp_tb = block_exp(params.b11, params.b12, params.b21, params.b22)

    def orbit(t):
        m11, m12, m21, m22 = exp_tb(t)
        return (q1 + m11 * y1 + m12 * y2,
                q2 + m21 * y1 + m22 * y2,
                q3 + y3 * math.exp(lam * t))

    return orbit


def _memoized(orbit_of):
    """``flow(x0, t, params) = orbit_of(x0, params)(t)``, 3 floats, with
    the last (x0, params, orbit) in a one-entry memo, replaced whole so a
    reader never pairs one start's keys with another's orbit."""
    memo = (None, None, None)

    def flow(x0, t: float, params: SystemParams) -> tuple:
        nonlocal memo
        if not isinstance(x0, tuple):
            x0 = point(x0)
        key_x0, key_params, orbit = memo
        if key_x0 is not x0 or key_params is not params:
            orbit = orbit_of(x0, params)
            memo = (x0, params, orbit)
        return orbit(t)

    return flow


#: Closed-form left-zone flow ``left_orbit(x0, params)(t)``.  Raises
#: BackwardBlowup for starts outside the cycle evaluated at or past their
#: finite backward escape time.
left_flow = _memoized(left_orbit)
#: Closed-form right-zone flow ``right_orbit(x0, params)(t)``.
right_flow = _memoized(right_orbit)


def left_field(params: SystemParams):
    """Raw Cartesian left-zone vector field (for the numeric oracle)."""
    rho, omega, mu = params.rho, params.omega, params.mu

    def f(x):
        x1, x2, x3 = x
        rr = x1 * x1 + x2 * x2
        return (rho * x1 - omega * x2 - x1 * rr,
                omega * x1 + rho * x2 - x2 * rr,
                mu * x3)

    return f


def right_field(params: SystemParams):
    """Raw Cartesian right-zone vector field (for the numeric oracle)."""
    b11, b12, b21, b22, lam = params.b11, params.b12, params.b21, params.b22, params.lam
    q1, q2, q3 = params.q1, params.q2, params.q3

    def f(x):
        x1, x2, x3 = x
        y1 = x1 - q1
        y2 = x2 - q2
        return (b11 * y1 + b12 * y2, b21 * y1 + b22 * y2, lam * (x3 - q3))

    return f


def numeric_flow(x0, t: float, side: str, params: SystemParams,
                 control: Optional[StepControl] = None) -> np.ndarray:
    """Adaptive Runge-Kutta solution of the chosen zone field.

    Exists to cross-check the closed forms; backward times integrate the
    negated field forward.  Raises StepFailure if the controller underflows
    (for the left field this is how backward blow-up manifests).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    x0 = point(x0)
    if t == 0.0:
        return np.array(x0)
    f = left_field(params) if side == "left" else right_field(params)
    if t < 0.0:
        fwd = f
        f = lambda x: tuple(-v for v in fwd(x))  # noqa: E731
        span = -t
    else:
        span = t
    res = rk45(f, x0, 0.0, span, control=control, record=False)
    return np.array(res.x_end)
