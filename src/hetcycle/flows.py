"""Closed-form flows of the two zone fields, plus a numeric oracle.

Left zone: in polar coordinates the planar part obeys r' = r(rho - r^2),
theta' = omega, and the axis obeys x3' = mu x3.  The radial law integrates
to a logistic curve in r^2,

    r(t)^2 = rho / (1 + (rho / r0^2 - 1) exp(-2 rho t)),

linear drift in theta and an exponential in x3.  For r0 > sqrt(rho) the
radial solution escapes to infinity at the finite backward time
t = log(1 - rho/r0^2) / (2 rho); evaluation at or past it raises
BackwardBlowup rather than clamping, because silent saturation would
corrupt the root finding built on top of this flow.

Right zone: x(t) = q + e^{Bt} (x0 - q) with the 2x2 block exponential in
closed form, split by eigenvalue type (distinct real / repeated / complex
pair).

``numeric_flow`` integrates the raw Cartesian fields with the adaptive
Runge-Kutta oracle and exists solely to cross-check the formulas above.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ._integrate import StepControl, rk45
from .errors import BackwardBlowup
from .model import SystemParams

#: Relative threshold on the normalized discriminant below which the
#: repeated-root exponential branch is used (stability near coalescence).
_REPEATED_ROOT_TOL = 1e-12


def to_polar(x1: float, x2: float) -> tuple:
    """Polar image (r, theta) of the planar left-zone coordinates."""
    return (math.hypot(x1, x2), math.atan2(x2, x1))


def from_polar(state) -> tuple:
    r, theta = state
    return (r * math.cos(theta), r * math.sin(theta))


def radial_blowup_time(r0_sq: float, rho: float) -> float:
    """Finite backward escape time of the radial law; -inf when the start
    radius is on or inside the limit cycle."""
    if r0_sq <= rho:
        return -math.inf
    return math.log(1.0 - rho / r0_sq) / (2.0 * rho)


def radial_sq(r0_sq: float, t: float, rho: float) -> float:
    """Squared radius after time t under r' = r(rho - r^2).

    Evaluated in log space so that neither deep forward times (r -> cycle)
    nor deep backward times (r -> 0 from inside) overflow.
    """
    if r0_sq == 0.0:
        return 0.0
    a = rho / r0_sq - 1.0
    if a == 0.0:
        return rho
    s = math.log(abs(a)) - 2.0 * rho * t
    if a < 0.0:
        # outside the cycle: denominator 1 - e^s vanishes at the blow-up
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


def left_flow(x0, t: float, params: SystemParams) -> np.ndarray:
    """Closed-form left-zone flow.

    Raises BackwardBlowup for starts outside the cycle evaluated at or past
    their finite backward escape time.  A tuple ``x0`` is read as it is
    (callers that evaluate one start many times pass a float tuple); any
    other sequence is converted to floats first.
    """
    if not isinstance(x0, tuple):
        x0 = np.asarray(x0, dtype=float).tolist()
    a, b = x0[0], x0[1]
    r0_sq = a * a + b * b
    if r0_sq == 0.0:
        x1 = x2 = 0.0
    else:
        r = math.sqrt(radial_sq(r0_sq, t, params.rho))
        theta = math.atan2(b, a) + params.omega * t
        x1 = r * math.cos(theta)
        x2 = r * math.sin(theta)
    return np.array((x1, x2, x0[2] * math.exp(params.mu * t)))


def planar_left_orbit(xy, rho: float, omega: float):
    """The planar left flow (the x3 = 0 dynamics) from the start ``xy`` as
    a function ``t -> (x1, x2)``.

    The start's squared radius and angle are computed once, so a scan that
    samples one orbit many times pays only for the t-dependent part.
    """
    r0_sq = xy[0] * xy[0] + xy[1] * xy[1]
    if r0_sq == 0.0:
        return lambda t: (0.0, 0.0)
    theta0 = math.atan2(xy[1], xy[0])

    def orbit(t):
        r = math.sqrt(radial_sq(r0_sq, t, rho))
        theta = theta0 + omega * t
        return (r * math.cos(theta), r * math.sin(theta))

    return orbit


def planar_left_flow(xy, t: float, rho: float, omega: float) -> tuple:
    """Planar restriction of the left flow (the x3 = 0 dynamics)."""
    return planar_left_orbit(xy, rho, omega)(t)


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


# One-entry memo of the right-zone block exponential, keyed by the identity
# of a (frozen) SystemParams: the orbit sampler evaluates one parameter set
# thousands of times in a row.  Identity, not equality, because == would
# share an entry between b12 = -0.0 and 0.0; the strong reference keeps the
# key's address from being reused while the entry lives.
_right_block = (None, None)


def _right_block_exp(params: SystemParams):
    global _right_block
    owner, exp_tb = _right_block
    if owner is not params:
        exp_tb = block_exp(params.b11, params.b12, params.b21, params.b22)
        _right_block = (params, exp_tb)
    return exp_tb


def right_flow(x0, t: float, params: SystemParams) -> np.ndarray:
    """Closed-form right-zone flow q + e^{Bt} (x0 - q).

    A start on the stable plane x3 = q3 stays on it for every t; its
    e^{lam t} is not evaluated, because at the long forward horizons of a
    slow stable block it overflows.  ``x0`` is read as in ``left_flow``.
    """
    if not isinstance(x0, tuple):
        x0 = np.asarray(x0, dtype=float).tolist()
    q1, q2, q3 = params.q1, params.q2, params.q3
    y1 = x0[0] - q1
    y2 = x0[1] - q2
    y3 = x0[2] - q3
    m11, m12, m21, m22 = _right_block_exp(params)(t)
    return np.array((
        q1 + m11 * y1 + m12 * y2,
        q2 + m21 * y1 + m22 * y2,
        q3 + (y3 * math.exp(params.lam * t) if y3 != 0.0 else y3),
    ))


def left_field(params: SystemParams):
    """Raw Cartesian left-zone vector field (for the numeric oracle)."""
    rho, omega, mu = params.rho, params.omega, params.mu

    def f(x):
        rr = x[0] * x[0] + x[1] * x[1]
        return (rho * x[0] - omega * x[1] - x[0] * rr,
                omega * x[0] + rho * x[1] - x[1] * rr,
                mu * x[2])

    return f


def right_field(params: SystemParams):
    """Raw Cartesian right-zone vector field (for the numeric oracle)."""
    b11, b12, b21, b22, lam = params.b11, params.b12, params.b21, params.b22, params.lam
    q1, q2, q3 = params.q1, params.q2, params.q3

    def f(x):
        y1 = x[0] - q1
        y2 = x[1] - q2
        return (b11 * y1 + b12 * y2, b21 * y1 + b22 * y2, lam * (x[2] - q3))

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
    x0 = np.asarray(x0, dtype=float)
    if t == 0.0:
        return x0.copy()
    f = left_field(params) if side == "left" else right_field(params)
    if t < 0.0:
        fwd = f
        f = lambda x: tuple(-v for v in fwd(x))  # noqa: E731
        span = -t
    else:
        span = t
    res = rk45(f, tuple(x0), 0.0, span, control=control, record=False)
    return np.array(res.x_end)
