"""Planar stay-set machinery on the two zone restrictions.

Two questions drive the cycle certification and both are planar:

* For the limit-cycle oscillator, which points of a vertical line
  L = {x1 = k} (k > sqrt(rho), so L clears the cycle) have forward orbits
  that never re-enter {x1 >= k}?  The answer is a dichotomy on the
  tangency quadratic k y^2 + omega y + k (k^2 - rho) = 0 (solved by
  ``model.tangency_ordinates``), decided once, in ``analyze_vdp_line``,
  with a tol band on its discriminant: without two distinct real roots
  every point of L flows into {x1 < k} and stays; with them the stay set
  is an explicit interval (or complement of one) bounded by the upper
  tangency point u1 and the first backward return x_star of the orbit
  through u1.  ``return_branch`` decides which, with the band
  ``tangency_band``, and ``vdp_stay_check`` tests a point of L against
  that set, closed and widened by the same band; on L1 it is the
  verifier's q2 window.

* For a stable planar linear system and a line {k . x = 1}, when does the
  forward orbit of a line point stay in {k . x < 1}?  Node case
  (``node_stay_check``): exactly when the field at the point does not push
  outward (k . A x0 <= 0).  Focus case (``focus_stay_check``): exactly on
  the half-open window [x_star_in, x_star_out) between the field-tangency
  point and its first backward return (``focus_stay_window``).  Both
  checks take a point of the line in planar coordinates, refuse one off it
  (OffLine) with the same guard, and return (stays, value); on L2 they are
  the verifier's node and focus theorems.

Root finding here runs on the closed-form flows, and both first returns
are bracketed from the orbit's closed form.  The focus return lies on one
monotone branch between two analytically known times, so it needs no
sampling.  The oscillator return is sampled at 64 points per revolution,
but only inside the angular windows where the growing radius lets the
orbit reach the line.  Each bracket is refined by safeguarded false
position (``_refine``) until it is at most 1e-12 wide in time.  The seed
points themselves sit on the line (tangentially), so a sampled scan starts
a sliver before zero, and near-tangent returns are classified as an
explicit 'ungeneric' branch instead of being forced into the generic
dichotomy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (BackwardBlowup, DegenerateInterval, InvalidLine, OffLine,
                     RootSearchError, UngenericBranch, WrongSpectralType,
                     ZeroNormal)
# planar_left_flow and planar_matrix_exp are unused here but stay in this
# module's namespace: the per-call kernels are looked up on it by name
# (perfbench/tracing.py counts calls through them).
from .flows import (block_exp, planar_left_flow,  # noqa: F401
                    planar_left_orbit, planar_matrix_exp, radial_blowup_time,
                    radial_law)
from .model import (DEFAULT_TOL, classify_2x2, tangency_ordinates,
                    window_tangency)


@dataclass(frozen=True)
class VdpLineAnalysis:
    """Tangency data of the oscillator against the vertical line x1 = k.

    ``regime`` is 'supercritical' when the discriminant of the tangency
    quadratic is at most 4 k^2 tol max(1, |k^2 - rho|, omega^2 / (4 k^2))
    (every point of the line flows inside and stays, within tol) and
    'subcritical' otherwise, also when omega^2 and so the discriminant
    are past the float range.  In the subcritical regime the tangency
    ordinates are ``varrho_plus`` >= ``varrho_minus``, ``u1`` is the upper
    tangency point, ``x_star`` is the first intersection of the backward
    orbit of u1 with the line, and ``branch`` is the ``return_branch`` of
    its ordinate: above varrho_plus, below varrho_minus, or 'ungeneric'
    within ``tangency_band`` of either.  ``evaluations`` counts the
    closed-form orbit evaluations the search for x_star made (0 in the
    supercritical regime).
    """

    rho: float
    omega: float
    k: float
    regime: str
    varrho_plus: Optional[float] = None
    varrho_minus: Optional[float] = None
    u1: Optional[tuple] = None
    x_star: Optional[tuple] = None
    t_star: Optional[float] = None
    branch: Optional[str] = None
    evaluations: int = 0


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
    scale = max(1.0, abs(k * k - rho), omega * omega / (4.0 * k * k))
    band = 4.0 * k * k * tol * scale if tol else 0.0  # not 0 * inf at tol 0
    if disc == math.inf:
        # omega^2 past the float range makes the discriminant and its band
        # inf: subcritical, but u1 itself is not known and is not followed
        x_star, t_star, evals = None, None, 0
    elif disc > band:
        x_star, t_star, evals = _vdp_backward_return((k, vp), rho, omega)
    else:
        return VdpLineAnalysis(rho, omega, k, "supercritical")
    # The backward orbit escapes to infinity in finite time; when its total
    # rotation before the escape is too small it never returns to the line
    # at all (possible for strong radial rates), which the classical
    # dichotomy does not cover: branch 'no_backward_return'.
    branch = ("no_backward_return" if x_star is None
              else return_branch(x_star[1], vp, vm, tol))
    return VdpLineAnalysis(rho, omega, k, "subcritical", vp, vm, (k, vp),
                           x_star, t_star, branch, evals)


def tangency_band(vp: float, vm: float, tol: float = DEFAULT_TOL) -> float:
    """Half-width of the 'ungeneric' band around tangency ordinates."""
    return tol * max(1.0, abs(vp), abs(vm))


def return_branch(x2: float, vp: float, vm: float,
                  tol: float = DEFAULT_TOL) -> str:
    """Branch of a first-return ordinate x2 against the tangency ordinates
    vm <= vp; strictly between them (outside the band) UngenericBranch."""
    band = tangency_band(vp, vm, tol)
    if abs(x2 - vp) <= band or abs(x2 - vm) <= band:
        return "ungeneric"
    if x2 > vp:
        return "x2star_above"
    if x2 < vm:
        return "x2star_below"
    raise UngenericBranch(
        f"first backward return ordinate {x2!r} lies strictly "
        f"between the tangency ordinates ({vm!r}, {vp!r})")


def vdp_stay_check(analysis: VdpLineAnalysis, y2: float,
                   tol: float = DEFAULT_TOL) -> bool:
    """Whether the forward orbit of the point (k, y2) of the analysed line
    stays in {x1 <= k}, with each finite end of the stay set widened by
    ``tangency_band``: the whole line when supercritical; for
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
    vp, xs = analysis.varrho_plus, analysis.x_star[1]
    band = tangency_band(vp, analysis.varrho_minus, tol)
    if analysis.branch == "x2star_above":
        return vp - band <= y2 <= xs + band
    return y2 <= xs + band or y2 >= vp - band


#: Revolutions (about 8 us each) the backward-return scan steps through
#: before it raises RootSearchError.  A fast oscillator reaches the line
#: only after a number of them that grows with omega: 36,174 for example 1
#: at omega = 1e15, 1e5 times as many at 1e20.
MAX_RETURN_REVOLUTIONS = 10_000


def _vdp_backward_return(u1, rho, omega):
    """First t < 0 at which the orbit of the tangency point u1 = (k, v)
    returns to the line x1 = k, excluding the seed at t = 0.

    Returns (point, t, evaluations), or (None, None, evaluations) when the
    orbit escapes (or the 40-revolution cap is reached) first.  Raises
    RootSearchError once MAX_RETURN_REVOLUTIONS revolutions held neither.

    The orbit is x1 = r(t) cos(theta0 + omega t) with r growing backward
    (u1 lies outside the cycle), so a crossing needs
    cos(theta) >= k / r(t) >= k / r_max, with r_max the radius at the far
    edge of the current cos > 0 window.  Only the grid points
    t_j = -eps - j dt (dt = period / 64) inside those sub-windows are
    sampled, plus the first one past each far edge; the grid points skipped
    cannot be past the line.  The seed sits tangentially on the line, so
    its residual is machine noise: a crossing is the first sample
    decisively past the line (value > guard), bracketed against the latest
    earlier sample at or below zero and refined by ``_refine``.  The scan
    floor is a sliver inside the backward escape time; the first grid point
    past it is replaced by one last probe at the floor, because the radius
    explodes within a fraction of dt.
    """
    k = u1[0]
    orbit = planar_left_orbit(u1, rho, omega)
    r0_sq = k * k + u1[1] * u1[1]
    theta0 = math.atan2(u1[1], k)
    t_floor = radial_blowup_time(r0_sq, rho)
    law = radial_law(r0_sq, rho)
    period = 2.0 * math.pi / omega
    dt = period / 64.0
    eps = dt * 1e-6
    guard = 1e-10 * max(1.0, k)
    t_stop = t_floor + dt * 1e-9 if t_floor > -math.inf else -40.0 * period

    def value(t):
        return orbit(t)[0] - k

    # The seed is on the line only up to rounding, so it closes a bracket
    # with no value: NaN makes the refine bisect until that end moves.
    t_neg, f_neg = -eps, math.nan
    evals = 0
    j_done = 0
    n = 0
    try:  # a radius escaping in rounding before the floor escapes too
        while n >= -MAX_RETURN_REVOLUTIONS:
            centre = 2.0 * math.pi * n - theta0  # omega t at cos(theta) = 1
            t_edge = (centre - 0.5 * math.pi) / omega
            if t_edge > t_stop:
                r_max = math.sqrt(law(t_edge))
                half = math.acos(min(1.0, k / r_max))
            else:
                half = 0.5 * math.pi
            t_near = (centre + half) / omega
            if t_near <= t_stop:
                return None, None, evals
            j = max(j_done + 1, math.ceil((-eps - t_near) / dt))
            j_end = math.ceil((-eps - (centre - half) / omega) / dt)
            while j <= j_end:
                t = -eps - j * dt
                at_floor = t <= t_stop
                if at_floor:
                    t = t_stop
                f = value(t)
                evals += 1
                if f > guard:
                    t_root, steps = _refine(value, t, f, t_neg, f_neg)
                    return orbit(t_root), t_root, evals + steps + 1
                if at_floor:
                    return None, None, evals
                if f <= 0.0:
                    t_neg, f_neg = t, f
                j += 1
            j_done = max(j_done, j_end)
            n -= 1
    except BackwardBlowup:
        return None, None, evals
    raise RootSearchError(
        f"no backward return to the line x1={k!r} within "
        f"{MAX_RETURN_REVOLUTIONS} revolutions (omega={omega!r})")


#: Width in t below which a refined bracket is accepted; its midpoint is
#: the returned root.
ROOT_BRACKET = 1e-12
#: Steps after which a refine that has not halved its bracket bisects.
_STALL_STEPS = 10


def _refine(value, lo, f_lo, hi, f_hi):
    """Root of ``value`` in a bracket lo < hi with value(lo) > 0 >= value(hi)
    (the sign convention of a backward scan: lo is the earlier time).

    False position with the Anderson-Bjorck weight: when the same end moves
    twice in a row, the value kept at the other end is scaled by
    1 - f_new / f_old (by 1/2 when that is not positive).  Each step lands
    at least half the final width inside the bracket, so a step next to the
    root straddles it and collapses the bracket.  The midpoint is taken
    instead when the interpolant leaves the bracket (as with a non-finite
    end value) or when the last ``_STALL_STEPS`` steps have not halved the
    bracket.  Stops once hi - lo <= ROOT_BRACKET and returns
    (midpoint, evaluations).
    """
    nudge = 0.5 * ROOT_BRACKET
    moved = 0  # +1: lo moved last, -1: hi moved last
    evals = 0
    widths = [math.inf] * _STALL_STEPS  # bracket widths of the last steps
    while hi - lo > ROOT_BRACKET:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats
        span = f_lo - f_hi  # 0 only if a weight underflowed onto f_hi = 0
        t = lo + (hi - lo) * (f_lo / span) if span > 0.0 else math.nan
        if hi - lo > 0.5 * widths[evals % _STALL_STEPS] or not lo <= t <= hi:
            t = mid
        else:
            t = min(max(t, lo + nudge), hi - nudge)
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


@dataclass(frozen=True)
class PlanarLinearSystem:
    """A 2x2 linear system with its spectral classification."""

    a11: float
    a12: float
    a21: float
    a22: float
    spectral_type: str
    alpha: Optional[float] = None
    beta: Optional[float] = None

    @classmethod
    def from_entries(cls, a11: float, a12: float, a21: float, a22: float,
                     spectrum: Optional[tuple] = None) -> "PlanarLinearSystem":
        """[[a11, a12], [a21, a22]]; ``spectrum`` is its ``classify_2x2``."""
        kind, eigs = spectrum or classify_2x2(a11, a12, a21, a22)
        if kind == "complex_stable":
            alpha, beta = eigs[0].real, eigs[0].imag
        else:
            alpha = beta = None
        return cls(a11, a12, a21, a22, kind, alpha, beta)

    def apply(self, x) -> tuple:
        return (self.a11 * x[0] + self.a12 * x[1],
                self.a21 * x[0] + self.a22 * x[1])


#: Relative rounding of k . x0 that the stay checks forgive on top of
#: tol: a point built on the line is on it only up to rounding.
_ROUNDING = 4.0 * math.ulp(1.0)


def _on_line(k_vec, x, tol):
    """(k1, k2, |k|, x1, x2) as floats for a point x of {k . x = 1}:
    ZeroNormal for k = 0, OffLine for an x off the line by more than tol
    (relative to |k| |x|) and its rounding."""
    k1, k2 = float(k_vec[0]), float(k_vec[1])
    norm = math.hypot(k1, k2)
    if norm == 0.0:
        raise ZeroNormal("line normal must be nonzero")
    u, v = float(x[0]), float(x[1])
    on_line = k1 * u + k2 * v
    if abs(on_line - 1.0) > (tol + _ROUNDING) * max(1.0,
                                                    norm * math.hypot(u, v)):
        raise OffLine(f"point is off the line: k.x0 = {on_line!r}")
    return k1, k2, norm, u, v


def node_stay_check(sys: PlanarLinearSystem, k_vec, x0,
                    tol: float = DEFAULT_TOL) -> tuple:
    """(stays, margin) of a stable-node system at a point x0 of
    {k . x = 1}: the forward orbit remains in {k . x < 1} iff the field at
    x0 does not push outward.  margin = -(k_hat . A x0), k_hat = k / |k|,
    and stays is the closed band margin >= -tol * max(1, |A x0|), so a
    tangential point stays.  OffLine for an x0 off the line by more than
    tol (relative to |k| |x0|) and its rounding.
    """
    if sys.spectral_type != "real_stable":
        raise WrongSpectralType(
            f"node criterion needs a real stable spectrum, got {sys.spectral_type}")
    k1, k2, norm, u, v = _on_line(k_vec, x0, tol)
    a1, a2 = sys.apply((u, v))
    margin = -(k1 / norm * a1 + k2 / norm * a2)
    return margin >= -tol * max(1.0, math.hypot(a1, a2)), margin


@dataclass(frozen=True)
class SpiralWindow:
    """Half-open stay window [x_star_in, x_star_out) on the line {k.x = 1}
    for a stable-focus system: x_star_in is the point where the field is
    parallel to the line, x_star_out the first backward return of its
    orbit to the line, reached at t_star_out after ``evaluations``
    closed-form flow evaluations."""

    x_star_in: tuple
    x_star_out: tuple
    k_vec: tuple
    t_star_out: float
    evaluations: int = 0


def focus_stay_window(sys: PlanarLinearSystem, k_vec) -> SpiralWindow:
    """Stay window of a stable-focus system on the line {k . x = 1}.

    The tangency point is ``model.window_tangency``; the window's far end
    is the first intersection of its backward (expanding) spiral with the
    line.  That return is bracketed in closed form within the spiral's
    next backward turn and refined to 1e-12 in time.  RootSearchError
    when the spiral leaves the float range before it returns.
    """
    if sys.spectral_type != "complex_stable":
        raise WrongSpectralType(
            f"focus window needs a complex stable spectrum, got {sys.spectral_type}")
    k1, k2 = float(k_vec[0]), float(k_vec[1])
    if k1 == 0.0 and k2 == 0.0:
        raise ZeroNormal("line normal must be nonzero")
    x_in = window_tangency(sys.a11, sys.a12, sys.a21, sys.a22, (k1, k2))
    exp_ta = block_exp(sys.a11, sys.a12, sys.a21, sys.a22)
    u, v = x_in

    def flow(t):
        m11, m12, m21, m22 = exp_ta(t)
        return (m11 * u + m12 * v, m21 * u + m22 * v)

    def value(t):
        try:
            x1, x2 = flow(t)
        except OverflowError:
            return math.inf  # only beyond the root, where e^{alpha t} grows
        return k1 * x1 + k2 * x2 - 1.0

    # Along the orbit, k . x(t) = e^{alpha t} C cos(beta t - phi) with
    # C cos(phi) = 1 and tan(phi) = -alpha / beta (x_in is on the line and
    # the field is parallel to it there).  Backward from t = 0, the value
    # first exceeds 1 on the monotone branch between t_near, where the
    # cosine turns positive again (k . x = 0), and the next maximum at
    # t_far = -2 pi / beta (k . x = e^{-2 pi alpha / beta} > 1).
    alpha, beta = sys.alpha, sys.beta
    t_near = (-math.atan(alpha / beta) - 1.5 * math.pi) / beta
    growth = -2.0 * math.pi * alpha / beta  # log of k . x at t_far
    try:
        # the return lies beyond t_near: e^{alpha t} overflowing there
        # overflows it at the return too
        math.exp(alpha * t_near)
        t_out, steps = _refine(
            value, -2.0 * math.pi / beta,
            math.expm1(growth) if growth < 709.0 else math.inf, t_near, -1.0)
        x_out = flow(t_out)
    except OverflowError as exc:
        # e^{alpha t} (alpha < 0) grows by e^{2 pi |alpha| / beta} per
        # backward turn; for a slowly rotating focus it passes the float
        # range (about e^709) before the spiral comes back to the line
        raise RootSearchError(
            "the backward spiral leaves float range before returning to "
            f"the line (alpha={sys.alpha!r}, beta={sys.beta!r})") from exc
    # project the refined return exactly onto the line (residual is already
    # ~1e-12 * field speed)
    resid = k1 * x_out[0] + k2 * x_out[1] - 1.0
    nsq = k1 * k1 + k2 * k2
    x_out = (x_out[0] - resid * k1 / nsq, x_out[1] - resid * k2 / nsq)
    return SpiralWindow(tuple(x_in), x_out, (k1, k2), t_out, steps + 1)


def focus_stay_check(window: SpiralWindow, y, tol: float = DEFAULT_TOL) -> tuple:
    """(stays, lam) of a point y of the window's line {k . x = 1}: lam is
    y's parameter along [x_star_in, x_star_out), and y stays iff
    -tol / len <= lam < 1 - tol / len (len = |x_star_out - x_star_in|), so
    the tangency end is closed and the return end open.  DegenerateInterval
    when len <= tol, before lam is formed; OffLine as ``node_stay_check``.
    """
    u, v = _on_line(window.k_vec, y, tol)[3:]
    a0, a1 = window.x_star_in
    d0, d1 = window.x_star_out[0] - a0, window.x_star_out[1] - a1
    dd = d0 * d0 + d1 * d1
    length = math.sqrt(dd)
    if length <= tol:
        raise DegenerateInterval("window endpoints coincide within tolerance")
    lam = ((u - a0) * d0 + (v - a1) * d1) / dd
    band = tol / length
    return -band <= lam < 1.0 - band, lam
