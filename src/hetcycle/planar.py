"""Planar stay-set machinery on the two zone restrictions.

Two questions drive the cycle certification and both are planar:

* For the limit-cycle oscillator, which points of a vertical line
  L = {x1 = k} (k > sqrt(rho), so L clears the cycle) have forward orbits
  that never re-enter {x1 >= k}?  The answer is a dichotomy on the
  tangency quadratic k y^2 + omega y + k (k^2 - rho) = 0: with no real
  roots every point of L flows into {x1 < k} and stays; with two real
  roots the stay set is an explicit interval (or complement of one)
  bounded by the upper tangency point u1 and the first backward return
  x_star of the orbit through u1.

* For a stable planar linear system and a line {k . x = 1}, when does the
  forward orbit of a line point stay in {k . x < 1}?  Node case: exactly
  when the field at the point does not push outward (k . A x0 <= 0).
  Focus case: exactly on the half-open window [x_star_in, x_star_out)
  between the field-tangency point and its first backward return.

Root finding here runs on the closed-form flows: crossings are bracketed
by sampling 64 points per revolution and refined by bisection to 1e-12 in
time.  The scan starts a sliver before zero because the seed points
themselves sit on the line (tangentially), and near-tangent returns are
classified as an explicit 'ungeneric' branch instead of being forced into
the generic dichotomy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateWindow,
    InvalidLine,
    OffLine,
    RootSearchError,
    SingularMatrix,
    UngenericBranch,
    WrongSpectralType,
    ZeroNormal,
)
# planar_left_flow and planar_matrix_exp are unused here but stay in this
# module's namespace: the per-call kernels are looked up on it by name
# (perfbench/tracing.py counts calls through them).
from .flows import (  # noqa: F401
    block_exp,
    planar_left_flow,
    planar_left_orbit,
    planar_matrix_exp,
    radial_blowup_time,
)
from .model import DEFAULT_TOL, classify_2x2


@dataclass(frozen=True)
class VdpLineAnalysis:
    """Tangency data of the oscillator against the vertical line x1 = k.

    ``regime`` is 'supercritical' when the tangency quadratic has no two
    distinct real roots (every point of the line flows inside and stays)
    and 'subcritical' otherwise.  In the subcritical regime ``u1``/``u2``
    are the tangency points (ordinates ``varrho_plus`` >= ``varrho_minus``),
    ``x_star`` is the first intersection of the backward orbit of u1 with
    the line, and ``branch`` records whether its ordinate lies above
    varrho_plus or below varrho_minus ('ungeneric' within tolerance of
    either).
    """

    rho: float
    omega: float
    k: float
    regime: str
    discriminant: float
    varrho_plus: Optional[float] = None
    varrho_minus: Optional[float] = None
    u1: Optional[tuple] = None
    u2: Optional[tuple] = None
    x_star: Optional[tuple] = None
    t_star: Optional[float] = None
    branch: Optional[str] = None


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
    disc = omega * omega - 4.0 * k * k * (k * k - rho)
    if disc <= 0.0:
        return VdpLineAnalysis(rho, omega, k, "supercritical", disc)

    root = math.sqrt(disc)
    vp = (-omega + root) / (2.0 * k)
    vm = (-omega - root) / (2.0 * k)
    u1 = (k, vp)
    u2 = (k, vm)
    # The backward orbit escapes to infinity in finite time; when its total
    # rotation before the escape is too small it never returns to the line
    # at all (possible for strong radial rates), which the classical
    # dichotomy does not cover: branch 'no_backward_return'.
    x_star, t_star = _first_backward_line_crossing(
        planar_left_orbit(u1, rho, omega),
        line_value=lambda p: p[0] - k,
        period=2.0 * math.pi / omega,
        t_floor=radial_blowup_time(k * k + vp * vp, rho),
        scale=max(1.0, k),
        allow_missing=True,
    )
    if x_star is None:
        return VdpLineAnalysis(rho, omega, k, "subcritical", disc, vp, vm,
                               u1, u2, None, None, "no_backward_return")
    span = max(1.0, abs(vp), abs(vm))
    if abs(x_star[1] - vp) <= tol * span or abs(x_star[1] - vm) <= tol * span:
        branch = "ungeneric"
    elif x_star[1] > vp:
        branch = "x2star_above"
    elif x_star[1] < vm:
        branch = "x2star_below"
    else:
        raise UngenericBranch(
            f"first backward return ordinate {x_star[1]!r} lies strictly "
            f"between the tangency ordinates ({vm!r}, {vp!r})")
    return VdpLineAnalysis(rho, omega, k, "subcritical", disc, vp, vm,
                           u1, u2, x_star, t_star, branch)


def _first_backward_line_crossing(flow, line_value, period, t_floor, scale,
                                  samples_per_rev: int = 64,
                                  max_revs: float = 40.0,
                                  allow_missing: bool = False):
    """First t < 0 with line_value(flow(t)) = 0, excluding the seed at t=0.

    The seed sits tangentially on the line, so its residual is machine
    noise; the scan therefore starts at -dt*1e-6 and looks for the first
    sample decisively past the line (value > guard), bracketing against the
    latest earlier sample at or below zero.  Bisection refines to 1e-12 in t.

    When the scan floor (backward escape time or revolution cap) is reached
    without a crossing: (None, None) if ``allow_missing``, else
    RootSearchError.
    """
    dt = period / samples_per_rev
    eps = dt * 1e-6
    guard = 1e-10 * scale
    t_stop = t_floor + dt * 1e-9 if t_floor > -math.inf else -max_revs * period

    t_prev = -eps
    t_neg = t_prev if line_value(flow(t_prev)) <= 0.0 else None
    j = 1
    hit_floor = False
    while True:
        t_cur = -eps - j * dt
        if t_cur <= t_stop:
            if hit_floor:
                if allow_missing:
                    return None, None
                raise RootSearchError(
                    "no backward line crossing found before the scan floor")
            # one last probe at the floor itself: near the escape time the
            # radius explodes within a fraction of dt
            t_cur = t_stop
            hit_floor = True
        f_cur = line_value(flow(t_cur))
        if f_cur > guard:
            if t_neg is None:
                t_neg = t_prev
            lo, hi = t_cur, t_neg  # lo < hi <= 0; value(lo) > 0 >= value(hi)
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                if line_value(flow(mid)) > 0.0:
                    lo = mid
                else:
                    hi = mid
            t_root = 0.5 * (lo + hi)
            return flow(t_root), t_root
        if f_cur <= 0.0:
            t_neg = t_cur
        t_prev = t_cur
        j += 1


@dataclass(frozen=True)
class StaySet:
    """Subset of a line (parameterized by the free ordinate) whose forward
    orbits satisfy a stay requirement.

    kind 'all': the whole line.  kind 'all_except_point': the whole line
    minus one tangency ordinate.  kind 'interval': ordinates between lo and
    hi with endpoint flags.  kind 'complement': everything at or beyond lo
    and hi (the flags say whether lo/hi themselves belong).
    """

    kind: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    lo_in: bool = False
    hi_in: bool = False
    excluded_point: Optional[float] = None

    def contains(self, ordinate: float) -> bool:
        y = float(ordinate)
        if self.kind == "all":
            return True
        if self.kind == "all_except_point":
            return y != self.excluded_point
        if self.kind == "interval":
            lo_ok = y >= self.lo if self.lo_in else y > self.lo
            hi_ok = y <= self.hi if self.hi_in else y < self.hi
            return lo_ok and hi_ok
        if self.kind == "complement":
            lo_ok = y <= self.lo if self.lo_in else y < self.lo
            hi_ok = y >= self.hi if self.hi_in else y > self.hi
            return lo_ok or hi_ok
        raise ValueError(f"unknown stay-set kind {self.kind!r}")


def forward_stay_set(analysis: VdpLineAnalysis, strict: bool,
                     transversal: bool = False) -> StaySet:
    """Stay set of the line per the tangency dichotomy.

    ``strict`` selects forward orbits confined to the open side {x1 < k};
    non-strict allows touching the line.  ``transversal`` additionally
    demands a transversal intersection at the starting point itself, which
    drops the tangency endpoints (and, in the boundary supercritical case,
    the single tangency ordinate -omega/(2k)).
    """
    if analysis.regime == "supercritical":
        if transversal and analysis.discriminant == 0.0:
            return StaySet("all_except_point",
                           excluded_point=-analysis.omega / (2.0 * analysis.k))
        return StaySet("all")
    if analysis.branch == "no_backward_return":
        raise UngenericBranch(
            "the backward orbit of the tangency point escapes before "
            "returning to the line; the dichotomy does not cover this")
    if analysis.branch == "ungeneric":
        raise UngenericBranch(
            "first backward return is within tolerance of a tangency "
            "ordinate; the generic dichotomy does not apply")
    vp = analysis.varrho_plus
    xs = analysis.x_star[1]
    if analysis.branch == "x2star_above":
        # stay interval between the upper tangency (below) and the first
        # backward return (above)
        if transversal:
            return StaySet("interval", lo=vp, hi=xs, lo_in=False, hi_in=False)
        if strict:
            return StaySet("interval", lo=vp, hi=xs, lo_in=True, hi_in=False)
        return StaySet("interval", lo=vp, hi=xs, lo_in=True, hi_in=True)
    # x2star_below: the excluded window runs from the return (below) up to
    # the upper tangency
    if transversal:
        return StaySet("complement", lo=xs, hi=vp, lo_in=False, hi_in=False)
    if strict:
        return StaySet("complement", lo=xs, hi=vp, lo_in=False, hi_in=True)
    return StaySet("complement", lo=xs, hi=vp, lo_in=True, hi_in=True)


def reduce_general_line(k_vec) -> tuple:
    """Rotation taking the vertical-line analysis onto a general line
    {k . x = 1}.

    Returns (R, k_tilde) where R is the rotation with columns
    (k1, k2)/|k| and (-k2, k1)/|k|, k_tilde = 1/|k|, and R maps the
    vertical line {x1 = k_tilde} onto {k . x = 1} isometrically.
    """
    k1, k2 = float(k_vec[0]), float(k_vec[1])
    norm = math.hypot(k1, k2)
    if norm == 0.0:
        raise ZeroNormal("line normal must be nonzero")
    kt = 1.0 / norm
    r = np.array([[k1 * kt, -k2 * kt], [k2 * kt, k1 * kt]])
    r.flags.writeable = False
    return r, kt


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
    def from_matrix(cls, m) -> "PlanarLinearSystem":
        m = np.asarray(m, dtype=float)
        a11, a12, a21, a22 = float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), float(m[1, 1])
        kind, eigs = classify_2x2(a11, a12, a21, a22)
        if kind == "complex_stable":
            alpha, beta = eigs[0].real, eigs[0].imag
        else:
            alpha = beta = None
        return cls(a11, a12, a21, a22, kind, alpha, beta)

    def apply(self, x) -> tuple:
        return (self.a11 * x[0] + self.a12 * x[1],
                self.a21 * x[0] + self.a22 * x[1])


def node_stay_check(sys: PlanarLinearSystem, k_vec, x0,
                    tol: float = DEFAULT_TOL) -> bool:
    """Stay criterion for a stable-node system at a point of {k . x = 1}:
    the forward orbit remains in {k . x < 1} iff the field at the point
    does not push outward, k . (A x0) <= 0 (tangential counts as staying).
    """
    if sys.spectral_type != "real_stable":
        raise WrongSpectralType(
            f"node criterion needs a real stable spectrum, got {sys.spectral_type}")
    k1, k2 = float(k_vec[0]), float(k_vec[1])
    x0 = (float(x0[0]), float(x0[1]))
    on_line = k1 * x0[0] + k2 * x0[1]
    scale = max(1.0, math.hypot(k1, k2) * math.hypot(*x0))
    if abs(on_line - 1.0) > tol * scale:
        raise OffLine(f"point is off the line: k.x0 = {on_line!r}")
    ax = sys.apply(x0)
    return k1 * ax[0] + k2 * ax[1] <= 0.0


@dataclass(frozen=True)
class SpiralWindow:
    """Half-open stay window [x_star_in, x_star_out) on the line {k.x = 1}
    for a stable-focus system: x_star_in is the point where the field is
    parallel to the line, x_star_out the first backward return of its
    orbit to the line."""

    x_star_in: tuple
    x_star_out: tuple
    k_vec: tuple
    t_star_out: float


def focus_stay_window(sys: PlanarLinearSystem, k_vec,
                      tol: float = DEFAULT_TOL) -> SpiralWindow:
    """Stay window of a stable-focus system on the line {k . x = 1}.

    The tangency point is A^{-1} k-perp / (k . A^{-1} k-perp) with
    k-perp = (-k2, k1); the window's far end is the first intersection of
    its backward (expanding) spiral with the line, bracketed at 64 samples
    per turn and bisected to 1e-12 in time.
    """
    if sys.spectral_type != "complex_stable":
        raise WrongSpectralType(
            f"focus window needs a complex stable spectrum, got {sys.spectral_type}")
    k1, k2 = float(k_vec[0]), float(k_vec[1])
    if k1 == 0.0 and k2 == 0.0:
        raise ZeroNormal("line normal must be nonzero")
    x_in = _window_tangency(sys.a11, sys.a12, sys.a21, sys.a22, (k1, k2))
    exp_ta = block_exp(sys.a11, sys.a12, sys.a21, sys.a22)
    u, v = x_in

    def flow(t):
        m11, m12, m21, m22 = exp_ta(t)
        return (m11 * u + m12 * v, m21 * u + m22 * v)

    period = 2.0 * math.pi / sys.beta
    try:
        x_out, t_out = _first_backward_line_crossing(
            flow,
            line_value=lambda p: k1 * p[0] + k2 * p[1] - 1.0,
            period=period,
            t_floor=-math.inf,
            scale=1.0,
            max_revs=10.0,
        )
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
    return SpiralWindow(tuple(x_in), x_out, (k1, k2), t_out)


def _window_tangency(a11, a12, a21, a22, k):
    """Point of {k.x = 1} where the field A x is parallel to the line."""
    det = a11 * a22 - a12 * a21
    if det == 0.0:
        raise SingularMatrix("planar system matrix is singular")
    kp = (-k[1], k[0])
    # w = A^{-1} k-perp
    w = ((a22 * kp[0] - a12 * kp[1]) / det, (-a21 * kp[0] + a11 * kp[1]) / det)
    denom = k[0] * w[0] + k[1] * w[1]
    scale = math.hypot(*k) * math.hypot(*w)
    # Unreachable for a genuinely complex spectrum (the zero set of the
    # denominator requires a real discriminant); kept as a guard.
    if abs(denom) <= 1e-14 * max(1.0, scale):
        raise DegenerateWindow("k . A^{-1} k-perp vanishes")
    return (w[0] / denom, w[1] / denom)
