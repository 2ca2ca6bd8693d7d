"""Closed-form flows of the two zone fields.

Left zone: in polar coordinates the planar part obeys r' = r(rho - r^2),
theta' = omega, and the axis obeys x3' = mu x3.  The radial law integrates
to a logistic curve in r^2,

    r(t)^2 = rho / (1 - b exp(-2 rho t)),   b = (r0^2 - rho) / r0^2,

linear drift in theta and an exponential in x3.  ``radial_law`` states it
once, from an exact offset b, for ``left_orbit`` and ``planar``'s L1
first-return scan; ``left_orbit`` alone holds |b| <= ``ON_CYCLE_BAND`` on
the cycle.  For b > 0 the radius escapes to infinity at the finite backward
time log(b) / (2 rho); evaluation at or past it raises BackwardBlowup
rather than clamping, because silent saturation would corrupt the root
finding built on top of this flow.

Right zone: x(t) = q + e^{Bt} (x0 - q) in the Putzer form e^{Bt} =
c(t) I + s(t) (B - a I), a = tr B / 2: only c and s follow the ``branch``
of the block's one spectrum, ``SystemParams.block`` (the sign of its
discriminant: distinct real / repeated / complex pair).  On an invariant
set through q (the stable plane x3 = q3, the unstable line x1 = q1,
x2 = q2) the exponential of the zero offset is never evaluated, so a long
horizon cannot overflow it.

Each zone binds one start once as an orbit ``t -> (x1, x2, x3)``, a tuple
of floats (an ndarray per call was half its cost), holding every
t-independent part.  ``left_orbit`` reads only rho, omega and mu, so it is
the planar flow too (x3 = mu = 0).  ``left_flow`` / ``right_flow`` are one
memoized body (``_memoized``) over ``left_orbit`` / ``right_orbit`` that
keeps the last orbit in a one-entry memo, as the orbit sampler and the
cross-check evaluate one start under one parameter set many times in a row.
The memo is keyed by the identities of the ``x0`` tuple and the ``params``
object (== would share an entry between 0.0 and -0.0) and holds strong
references to them, so their addresses cannot be reused while the entry
lives.  A hit does the same operations in the same order as a miss, so
results are bit-identical.  A start that is not a tuple is read by
``model.point`` (a new tuple, so a miss); a tuple is unpacked by its orbit
on a miss, so a start of other than three components raises ValueError
either way.
"""

from __future__ import annotations

import math

from .errors import BackwardBlowup
from .model import PlanarLinearSystem, SystemParams, point

def radial_law(x1: float, x2: float, rho: float) -> tuple:
    """The radial law r' = r(rho - r^2) from the start (x1, x2), as
    (r0^2, b, t_escape, r_sq): the offset b (0.0 on the cycle, -inf at the
    origin), the escape time (-inf unless b > 0) and t -> r(t)^2.  Outside
    the cycle r_sq(t, True) is (r^2, r^2 - r0^2), the excess r^2 (r0^2 -
    rho) / rho expm1(-2 rho t) read from the same expm1.

    r0^2 - rho is the fsum of the exact squares and -rho, so the offset
    b = (r0^2 - rho) / r0^2 is rounded once.  With x = -2 rho t, r(t)^2 =
    rho / den has den = rho / r0^2 - b expm1(x), which returns r0 within
    2 ulp at t = 0: outside the cycle (b > 0) at every time after the
    escape t_escape = log(b) / (2 rho) (log1p(-rho / r0^2) for b > 1/2),
    and inside while |x| <= log 2, where its terms cancel by a factor 3 at
    most.  Elsewhere inside, den = 1 + e^s with s = log|b| + x, read as
    rho / den = exp(log rho - s) / (1 + e^{-s}) for s > 0: no time cancels,
    overflows or underflows early, and where rho / r0^2 overflows, log|b| =
    log(rho - r0^2) - log(r0^2) is still finite.  BackwardBlowup is raised
    at or past t_escape, and where den rounds to 0 just after it.
    """
    p1, p2 = x1 * x1, x2 * x2
    r0_sq = p1 + p2
    if r0_sq == 0.0:
        return 0.0, -math.inf, -math.inf, lambda t: 0.0
    if r0_sq < math.inf:
        # x^2 = p + (h^2 - p) + 2 h l + l^2 exactly on Veltkamp's split
        # x = h + l (Dekker), and fsum rounds r0^2 - rho once
        c1, c2 = 134217729.0 * x1, 134217729.0 * x2  # 2^27 + 1
        h1, h2 = c1 - (c1 - x1), c2 - (c2 - x2)
        l1, l2 = x1 - h1, x2 - h2
        diff = math.fsum((p1, p2, -rho, h1 * h1 - p1, 2.0 * h1 * l1, l1 * l1,
                          h2 * h2 - p2, 2.0 * h2 * l2, l2 * l2))
        b = diff / r0_sq
    else:  # r0^2 past the float range: b = 1 within rounding
        diff, b = r0_sq, 1.0
    if b == 0.0:  # exactly on the cycle
        return r0_sq, 0.0, -math.inf, lambda t: rho
    start, two_rho = rho / r0_sq, 2.0 * rho
    if b > 0.0:
        t_escape = (math.log1p(-start) if b > 0.5 else math.log(b)) / two_rho
        gain = diff / rho

        def r_sq(t, excess=False):
            m = math.expm1(-two_rho * t) if t > t_escape else math.inf
            den = start - b * m
            if den > 0.0:
                sq = rho / den
                return (sq, sq * gain * m) if excess else sq
            raise BackwardBlowup(f"radial solution escapes at t={t_escape!r}; "
                                 f"requested t={float(t)!r}")

        return r0_sq, b, t_escape, r_sq
    # inside: log|b| and the |x| of the expm1 form, none where rho / r0^2
    # (and so b) overflows
    if b > -math.inf:
        log_b, near = math.log(-b), math.log(2.0)
    else:
        log_b, near = math.log(-diff) - math.log(r0_sq), -1.0
    log_rho = math.log(rho)

    def r_sq(t):
        x = -two_rho * t
        if -near <= x <= near:
            return rho / (start - b * math.expm1(x))
        s = log_b + x
        if s > 0.0:
            return math.exp(log_rho - s) / (1.0 + math.exp(-s))
        return rho / (1.0 + math.exp(s))

    return r0_sq, b, -math.inf, r_sq


def _plane_rate(c: float, rate: float) -> float:
    """The rate to evaluate c e^{rate t} with: 0.0 on the invariant plane
    c = 0, where e^{rate t} could overflow and c e^{0 t} is c bit for bit."""
    return rate if c != 0.0 else 0.0


#: Band of |b| = |r0^2 - rho| / r0^2 within which ``left_orbit`` holds a
#: start on the limit cycle (r^2 = rho for every t).  A point built on the
#: cycle lies on it only up to rounding, which the law's backward repulsion
#: at rate 2 rho would grow into a spurious blow-up or a large residual.
ON_CYCLE_BAND = 1e-12


def left_orbit(x0, rho: float, omega: float, mu: float):
    """The left-zone flow from ``x0`` (itself at t = 0, off the x3 axis) as
    ``t -> (x1, x2, x3)``, floats; the one builder of the left closed form."""
    x1, x2, x3 = x0
    mu = _plane_rate(x3, mu)
    r0_sq, b, _, r_sq = radial_law(x1, x2, rho)
    if r0_sq == 0.0:
        return lambda t: (0.0, 0.0, x3 * math.exp(mu * t))
    if abs(b) <= ON_CYCLE_BAND:
        r_sq = lambda t: rho  # noqa: E731
    theta0 = math.atan2(x2, x1)

    def orbit(t):
        if t == 0.0:
            return x1, x2, x3
        r = math.sqrt(r_sq(t))
        theta = theta0 + omega * t
        return (r * math.cos(theta), r * math.sin(theta),
                x3 * math.exp(mu * t))

    return orbit


def block_exp(sys: PlanarLinearSystem):
    """The two scalars of e^{tA} = c I + s (A - a I), a = tr / 2, for the
    block ``sys`` as ``t -> (c, s)``, from its ``branch``, a and w:
    e^{at} (1, t) repeated, e^{at} (cos wt, sin(wt) / w) complex and
    e^{at} (cosh wt, sinh(wt) / w) real.  The real branch reads its rates
    lo <= hi from the block's ``eigenvalues``, and takes the larger of
    e^{lo t}, e^{hi t} from its own exponent (no overflow through cosh/sinh
    at large |t|) and the smaller as the larger times 1 + m, m =
    expm1(-2 w |t|), so sinh(wt) / w has no cancellation at any w > 0, as
    sin(wt) / w has none.
    """
    _, _, _, _, _, branch, a, w, eigenvalues = sys
    if branch == "repeated":
        def exp_ta(t):
            c = math.exp(a * t)
            return c, c * t
    elif branch == "real":
        # the rates as the spectrum holds them: a +/- w cancels once they
        # differ by more than about 2^53, and drops the slow one
        lo, hi, w2 = eigenvalues[0].real, eigenvalues[1].real, 2.0 * w

        def exp_ta(t):
            if t > 0.0:
                big, m = math.exp(hi * t), math.expm1(-w2 * t)
                s = -0.5 * big * m / w
            else:
                big, m = math.exp(lo * t), math.expm1(w2 * t)
                s = 0.5 * big * m / w
            return big + 0.5 * big * m, s
    else:
        def exp_ta(t):
            e = math.exp(a * t)
            return e * math.cos(w * t), e * math.sin(w * t) / w
    return exp_ta


def right_orbit(x0, params: SystemParams):
    """The right-zone flow q + e^{Bt} y, y = x0 - q, from the start ``x0``
    as ``t -> (x1, x2, x3)``, floats: q + c y + s z in the plane, with
    ``block_exp``'s (c, s) and z = (B - a I) y bound once."""
    q1, q2, q3 = params.q1, params.q2, params.q3
    x1, x2, x3 = x0
    y1, y2, y3 = x1 - q1, x2 - q2, x3 - q3
    lam = _plane_rate(y3, params.lam)
    if y1 == 0.0 and y2 == 0.0:
        # On the invariant line through q, where e^{Bt} could overflow,
        # no exponential is built: c y + s z is added as +0.0, which is
        # q + c y + s z unless each of its three terms is -0.0.
        x1, x2 = q1 + 0.0, q2 + 0.0
        return lambda t: (x1, x2, q3 + y3 * math.exp(lam * t))
    b11, b12, b21, b22, _, _, a, _, _ = block = params.block
    z1 = (b11 - a) * y1 + b12 * y2
    z2 = b21 * y1 + (b22 - a) * y2
    exp_tb = block_exp(block)

    def orbit(t):
        c, s = exp_tb(t)
        return (q1 + c * y1 + s * z1,
                q2 + c * y2 + s * z2,
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


#: Closed-form left-zone flow ``left_orbit(x0, rho, omega, mu)(t)``.
#: Raises BackwardBlowup for starts outside the cycle evaluated at or past
#: their finite backward escape time.
left_flow = _memoized(lambda x0, p: left_orbit(x0, p.rho, p.omega, p.mu))
#: Closed-form right-zone flow ``right_orbit(x0, params)(t)``.
right_flow = _memoized(right_orbit)
