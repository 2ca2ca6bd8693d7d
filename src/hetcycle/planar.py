"""Planar stay-set machinery on the two zone restrictions.

Two questions drive the cycle certification and both are planar:

* For the limit-cycle oscillator, which points of a vertical line
  L = {x1 = k} (k > sqrt(rho), so L clears the cycle) have forward orbits
  that never re-enter {x1 >= k}?  The answer is a dichotomy on the
  tangency quadratic k y^2 + omega y + k (k^2 - rho) = 0 (solved by
  ``model.tangency_ordinates``), decided once, in ``analyze_vdp_line``,
  by the exact sign of its discriminant: without two distinct real roots
  every point of L flows into {x1 < k} and stays; with them the stay set
  is an explicit interval (or complement of one) bounded by the upper
  tangency point u1 and the first backward return x_star of the orbit
  through u1.  ``return_branch`` decides which, with the band
  ``tangency_band`` kept on the analysis, and ``vdp_stay_check`` tests a
  point of L against that set, closed and widened by that band; on L1 it
  is the verifier's q2 window.

* For a stable planar linear system and a vertical line {y1 = c}, c != 0,
  when does the forward orbit of a line point (c, y2) stay on the side of
  the equilibrium (the origin)?  Node case (``node_stay_check``): exactly
  when the field there does not push outward.  Focus case
  (``focus_stay_check``): exactly on the half-open window [y_in, y_out)
  from the field-tangency ordinate to its first backward return
  (``focus_stay_window``).  Like ``vdp_stay_check``, both test an
  ordinate; on L2 they are the verifier's node and focus theorems.

Both first returns are bracketed from the orbit's closed form and refined
by safeguarded false position (``_refine``) to ``ROOT_BRACKET`` in their
own turn's angle, and so scale exactly with a power-of-2 time unit.  The
focus return is one dimensionless root in the spiral's angle, between
analytic bounds.  The oscillator return lies in the first backward
revolution, on the exact ``flows.radial_law``, unsampled: its first
quarter turn holds a return exactly when the orbit escapes within it.
Its seed sits on the line (tangentially), so a refine ends a sliver
before zero, and near-tangent returns are an explicit 'ungeneric' branch
instead of being forced into the generic dichotomy.  Its records are
``NamedTuple``s, built through their ``_make``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .errors import (BackwardBlowup, DegenerateInterval, InvalidLine,
                     RootSearchError, UngenericBranch, WrongSpectralType)
from .flows import radial_law
from .model import (DEFAULT_TOL, SIGN_REL, SIGN_TINY, PlanarLinearSystem,
                    exact_value, tangency_ordinates, window_tangency)

# perfbench/tracing.py wraps these two names by lookup; nothing calls them,
# and ROADMAP item 1 stage B deletes them along with the wrappers.
planar_left_flow = planar_matrix_exp = None


class VdpLineAnalysis(NamedTuple):
    """Tangency data of the oscillator against the vertical line x1 = k.

    ``regime`` is 'supercritical' when the exact discriminant of the
    tangency quadratic (``model.tangency_ordinates``) is at most 0 (every
    point of the line flows inside and stays) and 'subcritical' when it
    is positive, also past the float range.  In the subcritical regime
    the tangency ordinates are ``varrho_plus`` >= ``varrho_minus``, the
    upper tangency point is u1 = (k, varrho_plus), ``x_star`` is the
    first intersection of the backward orbit of u1 with the line, and
    ``branch`` is the ``return_branch`` of its ordinate: above
    varrho_plus, below varrho_minus, or 'ungeneric' within ``band`` of
    either: the pair's ``tangency_band``, by which ``vdp_stay_check``
    widens (0.0 without a return).  ``evaluations`` counts the
    closed-form orbit evaluations the search for x_star made (0 in the
    supercritical regime).
    """

    k: float
    regime: str
    varrho_plus: Optional[float] = None
    varrho_minus: Optional[float] = None
    x_star: Optional[tuple] = None
    t_star: Optional[float] = None
    branch: Optional[str] = None
    evaluations: int = 0
    band: float = 0.0


def analyze_vdp_line(rho: float, omega: float, k: float,
                     tol: float = DEFAULT_TOL) -> VdpLineAnalysis:
    """Classify the line x1 = k against the oscillator and, in the
    subcritical regime, locate the tangency pair and first backward return.

    Requires k > sqrt(rho); raises InvalidLine otherwise.
    """
    if rho <= 0 or omega <= 0:
        raise ValueError("rho and omega must be positive")
    if not k > math.sqrt(rho):
        raise InvalidLine(f"need k > sqrt(rho); got k={k!r}, sqrt(rho)={math.sqrt(rho)!r}")
    disc, vp, vm = tangency_ordinates(rho, omega, k)
    if disc == math.inf:
        # a discriminant past the float range: subcritical, but u1 itself
        # is not known and is not followed
        x_star, t_star, evals = None, None, 0
    elif disc > 0.0:
        x_star, t_star, evals = _vdp_backward_return((k, vp), rho, omega)
    else:
        return VdpLineAnalysis._make((k, "supercritical", None, None, None,
                                      None, None, 0, 0.0))
    # The backward orbit escapes to infinity in finite time; when its total
    # rotation before the escape is too small it never returns to the line
    # at all (possible for strong radial rates), which the classical
    # dichotomy does not cover: branch 'no_backward_return'.
    band = 0.0 if x_star is None else tangency_band(vp, vm, tol)
    branch = ("no_backward_return" if x_star is None
              else return_branch(x_star[1], vp, vm, band))
    return VdpLineAnalysis._make((k, "subcritical", vp, vm, x_star, t_star,
                                  branch, evals, band))


def tangency_band(vp: float, vm: float, tol: float = DEFAULT_TOL) -> float:
    """Half-width of the 'ungeneric' band around tangency ordinates."""
    return tol * max(1.0, abs(vp), abs(vm))


def return_branch(x2: float, vp: float, vm: float, band: float) -> str:
    """Branch of a first-return ordinate x2 against the tangency ordinates
    vm <= vp, 'ungeneric' within ``band``; strictly between UngenericBranch."""
    if abs(x2 - vp) <= band or abs(x2 - vm) <= band:
        return "ungeneric"
    if x2 > vp:
        return "x2star_above"
    if x2 < vm:
        return "x2star_below"
    raise UngenericBranch(
        f"first backward return ordinate {x2!r} lies strictly "
        f"between the tangency ordinates ({vm!r}, {vp!r})")


def vdp_stay_check(analysis: VdpLineAnalysis, y2: float) -> bool:
    """Whether the forward orbit of the point (k, y2) of the analysed line
    stays in {x1 <= k}, with each finite end of the stay set widened by
    the analysis' ``band``: the whole line when supercritical; for
    'x2star_above' the interval [varrho_plus, x_star]; for 'x2star_below'
    the complement (-inf, x_star] u [varrho_plus, +inf).  UngenericBranch
    on a branch the dichotomy does not cover."""
    if analysis.regime == "supercritical":
        return True
    if analysis.branch == "no_backward_return":
        raise UngenericBranch(
            "the backward orbit of the tangency point escapes before "
            "returning to the line; the dichotomy does not cover this")
    if analysis.branch == "ungeneric":
        raise UngenericBranch(
            "first backward return is within tolerance of a tangency "
            "ordinate; the generic dichotomy does not apply")
    vp, xs, band = analysis.varrho_plus, analysis.x_star[1], analysis.band
    if analysis.branch == "x2star_above":
        return vp - band <= y2 <= xs + band
    return y2 <= xs + band or y2 >= vp - band


def _vdp_backward_return(u1, rho, omega):
    """First t < 0 at which the orbit of the tangency point u1 = (k, v)
    returns to the line x1 = k, the seed at t = 0 excluded: (point, t,
    evaluations), the point (k, +-sqrt(r^2 - k^2)) on the orbit's side of
    the x1 axis; or (None, None, evaluations) when the orbit escapes first.

    theta = theta0 + omega t, theta0 = atan2(v, k) in (-pi/2, 0), and u1
    lies outside the cycle, so r grows backward up to the escape of
    ``flows.radial_law`` (t_stop is a sliver inside it).  Arc A, theta in
    (-pi/2, theta0): backward, w = r^2 - rho > 0 grows (w' = 2 w r^2), and
    where x1 > 0 is critical x1'' = x1 (w^2 + 2 rho w - omega^2), so its
    maxima come before its minima.  u1 is a maximum: w0 = 2 (k^2 - rho) /
    (1 + sqrt(1 - y)) <= 2 (k^2 - rho), y = 4 k^2 (k^2 - rho) / omega^2 <
    1, so w0^2 + 2 rho w0 <= y omega^2 < omega^2.  So x1 falls, has at
    most one minimum, then rises: with the escape on arc A (x1 -> inf)
    there is one return, refined in (t_stop, -eps) from t_stop's value
    and NaN at the seed (rounding noise there: the refine bisects), or
    none if t_stop's value is <= 0; else (x1 -> 0 at theta = -pi/2) none.
    Arc B, theta in [-3 pi/2, -pi/2]: cos(theta) <= 0, so x1 < k.  Arc C,
    theta in (-2 pi, -3 pi/2): x1 rises strictly backward from 0 at t_hi
    to r(t_c) > k at t_c = -(2 pi + theta0) / omega, or without bound at
    the escape, so its one crossing is refined in (max(t_c, t_stop),
    t_hi) from NaN and -1, neither end evaluated.  ``_refine`` stops at
    ``ROOT_BRACKET`` / omega, on (x1 - k) / r = (r^2 - k^2) / (r (r + k))
    - 2 sin^2(theta / 2): x1 - k's sign and root, in (-1, 0) at t_hi and
    bounded at the escape, where x1 - k is not.  r^2 - k^2 = (r^2 - r0^2)
    + v^2 from the law's excess, and theta is theta0 + omega t or omega
    (t - t_c) - 2 pi, from the nearer end: no cancellation.
    """
    k, v = u1
    _, _, t_escape, law = radial_law(k, v, rho)
    v_sq = v * v
    theta0 = math.atan2(v, k)
    t_c = -(2.0 * math.pi + theta0) / omega
    t_hi = -(1.5 * math.pi + theta0) / omega  # theta = -3 pi / 2: x1 = 0
    dt = 2.0 * math.pi / omega / 64.0  # the slivers' unit
    eps, t_stop = dt * 1e-6, t_escape + dt * 1e-9
    half_theta0, half_omega = 0.5 * theta0, 0.5 * omega

    def value(t):  # (x1 - k) / r
        r_sq, excess = law(t, True)
        r = math.sqrt(r_sq)
        s = math.sin(half_theta0 + half_omega * t if t > t_hi
                     else half_omega * (t - t_c))  # theta / 2, nearer end
        return (excess + v_sq) / (r * (r + k)) - 2.0 * s * s

    def crossing(lo, f_lo, hi, f_hi, evals):  # sin(theta) < 0 on arc A only
        t, steps = _refine(value, lo, f_lo, hi, f_hi, ROOT_BRACKET / omega)
        x2 = math.sqrt(law(t, True)[1] + v_sq)
        return (k, -x2 if t > t_hi else x2), t, evals + steps + 1

    evals = 0
    try:  # a radius escaping in rounding after t_stop escapes too
        if t_stop > -(0.5 * math.pi + theta0) / omega:  # escape on arc A
            evals = 1
            f = value(t_stop)
            if f > 0.0:
                return crossing(t_stop, f, -eps, math.nan, 1)
        elif t_hi > t_stop:
            return crossing(max(t_c, t_stop), math.nan, t_hi, -1.0, 0)
    except BackwardBlowup:
        pass
    return None, None, evals


#: Width below which a refined bracket is accepted, in the angle of the
#: turn the root lies in (omega t for the oscillator; for the focus, the
#: spiral's angle s relative to its bracket's upper end, which is below
#: pi); its midpoint is the returned root.
ROOT_BRACKET = 1e-12
#: Steps after which a refine that has not halved its bracket bisects.
_STALL_STEPS = 10


def _refine(value, lo, f_lo, hi, f_hi, width):
    """Root of ``value`` in a bracket lo < hi with value(lo) > 0 >= value(hi)
    (the sign convention of a backward scan: lo is the earlier time); the
    end values passed may be estimates of those signs, or NaN.

    False position with the Anderson-Bjorck weight: when the same end moves
    twice in a row, the value kept at the other end is scaled by
    1 - f_new / f_old (by 1/2 when that is not positive).  Each step lands
    at least half the final width inside the bracket, so a step next to the
    root straddles it and collapses the bracket.  The midpoint is taken
    instead when the interpolant leaves the bracket (as with a non-finite
    end value) or when the last ``_STALL_STEPS`` steps have not halved the
    bracket.  Stops once hi - lo <= width, or at adjacent floats, and
    returns (midpoint, evaluations).
    """
    nudge = 0.5 * width
    moved = 0  # +1: lo moved last, -1: hi moved last
    evals = 0
    widths = [math.inf] * _STALL_STEPS  # bracket widths of the last steps
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats
        span = f_lo - f_hi  # 0 only if a weight underflowed onto f_hi = 0
        t = lo + (hi - lo) * (f_lo / span) if span > 0.0 else math.nan
        if hi - lo > 0.5 * widths[evals % _STALL_STEPS] or not lo <= t <= hi:
            t = mid
        else:  # clamped into [lo + nudge, hi - nudge]
            t = (lo + nudge if t < lo + nudge else
                 hi - nudge if t > hi - nudge else t)
        widths[evals % _STALL_STEPS] = hi - lo
        f = value(t)
        evals += 1
        if f <= 0.0:
            if moved == -1:
                m = 1.0 - f / f_hi if f_hi < 0.0 else 0.5
                f_lo *= m if m > 0.0 else 0.5
            hi, f_hi = t, f
            moved = -1
        else:  # past the line, or NaN where the orbit overflowed
            if moved == 1:
                m = 1.0 - f / f_lo
                f_hi *= m if m > 0.0 else 0.5
            lo, f_lo = t, f
            moved = 1
    return 0.5 * (lo + hi), evals


def node_stay_check(sys: PlanarLinearSystem, c, y2) -> tuple:
    """(stays, margin) of a stable-node system at the point y = (c, y2) of
    the line {y1 = c}: the forward orbit stays on the equilibrium's side
    iff the field at y does not push outward.  margin = -sign(c) (A y)_1,
    the field's inward component, and y stays iff its exact margin is
    >= 0 (``model.SIGN_REL``), so a tangential point stays.  c and y2 are
    floats, or tuples of floats standing for their exact sums, whose
    floats are their sums from the left (``certify`` passes L2's offset
    as (d, -q3, -q1) and an ordinate as (p2, -q2)).  InvalidLine for
    c = 0."""
    if sys.spectral_type != "real_stable":
        raise WrongSpectralType(
            f"node criterion needs a real stable spectrum, got {sys.spectral_type}")
    cs = c if type(c) is tuple else (c,)
    ys = y2 if type(y2) is tuple else (y2,)
    c_f = c_size = y_f = y_size = 0.0
    for t in cs:
        c_f += t
        c_size += abs(t)
    for t in ys:
        y_f += t
        y_size += abs(t)
    a11, a12 = sys.a11, sys.a12
    a1 = a11 * c_f + a12 * y_f
    margin = -a1 if c_f > 0.0 else a1
    size = abs(a11) * c_size + abs(a12) * y_size
    if not (abs(c_f) > SIGN_REL * c_size
            and abs(margin) > SIGN_REL * size + SIGN_TINY):
        margin = exact_value(_node_margin, a11, a12, cs, ys)
    return margin >= 0.0, margin


def _node_margin(a11, a12, c, y2):
    if not c:
        raise InvalidLine("the line y1 = 0 passes through the equilibrium")
    a1 = a11 * c + a12 * y2
    return -a1 if c > 0 else a1


class SpiralWindow(NamedTuple):
    """Half-open stay window [y_in, y_out) of ordinates on the line
    {y1 = c} for a stable-focus system: the field is parallel to the line
    at (c, y_in), whose orbit first returns to it backward at (c, y_out),
    at t_star_out, after ``evaluations`` closed-form flow evaluations."""

    c: float
    y_in: float
    y_out: float
    t_star_out: float
    evaluations: int = 0


def focus_stay_window(sys: PlanarLinearSystem, c: float) -> SpiralWindow:
    """Stay window of a stable-focus system on the vertical line {y1 = c}.

    The tangency ordinate is ``model.window_tangency`` (a focus has
    a12 != 0); the window's far end is the first return of its backward
    (expanding) spiral to the line.  In the angle s = w t + 2 pi from the
    spiral's previous maximum, y1 / c = u(s) = e^{g (s - 2 pi)} (cos s -
    g sin s) with g = a / w alone, and u - 1 = expm1(g (s - 2 pi) +
    log1p(-2 sin^2(s/2) - g sin s)) has no cancellation at small s.  As
    (log u)'' = -(1 + g^2) / (cos s - g sin s)^2 <= -1, (log u)'(0) = 0
    and log u(0) = growth = -2 pi g, the root lies in (0, min(pi/2 -
    atan g, sqrt(2 growth))); it is refined to ``ROOT_BRACKET`` times the
    upper end.  On the line y2 = (y1' - a11 y1) / a12, so y_out = y_in -
    c w (1 + g^2) e^{g (s - 2 pi)} sin(s) / a12 at t = (s - 2 pi) / w.
    RootSearchError when g underflows (the return would be rounding) or
    either end is past the float range (-a11 c / a12 can overflow, and so
    can the return of a strongly damped focus); InvalidLine for c = 0.
    """
    if sys.spectral_type != "complex_stable":
        raise WrongSpectralType(
            f"focus window needs a complex stable spectrum, got {sys.spectral_type}")
    if c == 0.0:
        raise InvalidLine("the line y1 = 0 passes through the equilibrium")
    y_in = window_tangency(sys.a11, sys.a12, c)
    if not math.isfinite(y_in):
        raise RootSearchError(
            f"the tangency ordinate -a11 c / a12 = {y_in!r} is past the "
            f"float range (a11={sys.a11!r}, a12={sys.a12!r}, c={c!r})")
    alpha, beta = sys.a, sys.w
    g = alpha / beta
    if not -g >= 2.0 ** -1022:  # zero or subnormal
        raise RootSearchError(f"the damping ratio a / w = {g!r} underflows "
                              f"(alpha={alpha!r}, beta={beta!r})")
    growth, two_pi = -2.0 * math.pi * g, 2.0 * math.pi

    def value(s):
        h = math.sin(0.5 * s)
        z = -2.0 * h * h - g * math.sin(s)  # cos s - g sin s - 1
        if not z > -1.0:
            return -1.0  # past the zero of u: below the line
        x = g * (s - two_pi) + math.log1p(z)
        return math.expm1(x) if x < 709.0 else math.inf

    # u - 1 at the upper end: -1 where u = 0, else (|g| < 0.3) estimated by
    # log u's leading term -s^4 / 12 = -growth^2 / 3 below its bound there
    hi, f_hi = 0.5 * math.pi - math.atan(g), -1.0
    if growth < 0.5 * hi * hi:
        hi, f_hi = math.sqrt(2.0 * growth), math.expm1(-growth * growth / 3.0)
    try:  # u grows by e^growth per backward turn: past e^{growth / 2} each
        # return overflows (g (s - 2 pi) > growth / 2, s < hi < pi), unrefined
        math.exp(0.5 * growth)
        s, steps = _refine(value, 0.0,
                           math.expm1(growth) if growth < 709.0 else math.inf,
                           hi, f_hi, ROOT_BRACKET * hi)
        y_out = y_in - (c * beta * (1.0 + g * g) * math.exp(g * (s - two_pi))
                        * math.sin(s) / sys.a12)
    except OverflowError:
        y_out = math.inf
    if not math.isfinite(y_out):
        raise RootSearchError(
            "the backward spiral leaves float range before returning to "
            f"the line (alpha={alpha!r}, beta={beta!r})")
    return SpiralWindow._make((c, y_in, y_out, (s - two_pi) / beta,
                               steps + 1))


def focus_stay_check(window: SpiralWindow, y2: float,
                     tol: float = DEFAULT_TOL) -> tuple:
    """(stays, lam) of the point (c, y2) of the window's line: lam is y2's
    parameter along [y_in, y_out), and y2 stays iff -tol / len <= lam <
    1 - tol / len (len = |y_out - y_in|), so the tangency end is closed
    and the return end open.  DegenerateInterval when len <= tol."""
    span = window.y_out - window.y_in
    if abs(span) <= tol:
        raise DegenerateInterval("window endpoints coincide within tolerance")
    lam = (y2 - window.y_in) / span
    band = tol / abs(span)
    return -band <= lam < 1.0 - band, lam
