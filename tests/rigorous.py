"""Reference answers in mpmath at 60 digits, independent of the package's
float arithmetic: the first pieces of a rigorous reference verdict.

``radial_sq`` is the left zone's radial law r' = r (rho - r^2) from the
float start (x1, x2), exact from its float inputs:

    r(t)^2 = rho / (1 - b e^{-2 rho t}),   b = (r0^2 - rho) / r0^2,

with b formed in 60 digits from the exact r0^2 = x1^2 + x2^2.  60 digits
leave more than 40 where 1 - b e^{-2 rho t} cancels by up to 1e15, and
mpmath's exponent range has no overflow or underflow.

``first_return`` is the first backward return to the line x1 = k of the
oscillator orbit through the line point u1 = (k, v), exact from its float
inputs.  In polar coordinates r' = r (rho - r^2), theta' = omega, so

    r(t)^2 = rho / (1 - b e^{-2 rho t}),   b = 1 - rho / r0^2,

and for r0 > sqrt(rho) the radius grows backward and escapes at
t_esc = log(b) / (2 rho).  The angle is measured from the centre
t_c = -(2 pi + theta0) / omega of the first backward revolution,
psi = omega (t - t_c), so theta = psi - 2 pi, t = 0 is psi = 2 pi + theta0
and

    x1 - k = (r^2 - k^2) / (r + k) - 2 r sin^2(psi / 2),
    r^2 - k^2 = r^2 (r0^2 - rho) / rho expm1(-2 rho t) + v^2,

both exact identities, so that a return a fraction 1e-150 of the radius
past the line still has 60 significant digits.  At t_c, x1 = r(t_c) > k,
so the first return lies in (max(t_c, t_esc), 0) or the orbit escapes
first.  Only where cos(psi) > 0 can x1 exceed k:

* psi in (3 pi / 2, 2 pi + theta0), next to the tangential seed: the
  package proves that x1 - k changes sign there at most once, and only
  where the orbit escapes within this arc; the reference samples the
  part where cos(psi) > k / r anyway, at 64 points and geometrically
  towards both ends, so that it stays independent of that argument (the
  bound cos(psi) = k / r is read from the exact r^2 - k^2);
* psi in (0, pi / 2), just after t_c: r and cos(psi) both fall as psi
  grows, so x1 does, and there is exactly one return when x1 > k at the
  lower end (t_c, or the escape, where x1 grows without bound).

The first sign change is refined to 18 digits by bisection, then
false position (Illinois).

``focus_return`` is the far end of the stay window of a stable focus
y' = A y on the line y1 = c, exact from the float entries of A.  With
spectrum alpha +/- i beta, g = alpha / beta and s = beta t + 2 pi, the
orbit of the tangency point (c, -a11 c / a12) reads y1 / c = u(s) =
e^{g (s - 2 pi)} (cos s - g sin s).  log u is concave ((log u)'' <= -1),
flat at s = 0 where it equals growth = -2 pi g, so it falls through 0
exactly once in (0, min(pi / 2 - atan g, sqrt(2 growth))).  It is read in
the form g (s - 2 pi) + log1p(-2 sin^2(s / 2) - g sin s), whose terms keep
their digits for any g, bisected until log u > -1 at the bracket's upper
end (it is -inf where u = 0), then refined to 40 digits by Newton's
method from that end, which concavity keeps at or past the root.

``spectrum_branch`` is exact: the sign of a block's discriminant from its
float entries in ``fractions.Fraction``.  So are ``strict_signs``, the
sign of each strict algebraic entry of a verdict, and ``node_margin``, the
node theorem's margin at a point of L2, each written out here from the
paper's inequality and not from the package's forms.
"""

import math
from fractions import Fraction
from typing import NamedTuple, Optional

import mpmath as mp

DPS = 60


def radial_sq(x1, x2, rho, t) -> Optional[float]:
    """r(t)^2 of the radial law from (x1, x2), rounded to a float (0.0 or
    inf past the float range); None at or past the backward escape."""
    with mp.workdps(DPS):
        x1, x2, rho, t = (mp.mpf(x) for x in (x1, x2, rho, t))
        r0_sq = x1 * x1 + x2 * x2
        if r0_sq == 0:
            return 0.0
        den = 1 - (r0_sq - rho) / r0_sq * mp.exp(-2 * rho * t)
        if den <= 0:
            return None
        return float(rho / den)


class FirstReturn(NamedTuple):
    """``t`` and ordinate ``x2`` of the first backward return (None when
    the orbit escapes first), and the centre ``t_c`` of the first backward
    revolution, all rounded to floats."""

    t_c: float
    t: Optional[float]
    x2: Optional[float]


def first_return(rho, omega, k, v) -> FirstReturn:
    """The first backward return of the orbit of (k, v) to x1 = k."""
    with mp.workdps(DPS):
        rho, omega, k, v = (mp.mpf(x) for x in (rho, omega, k, v))
        r0_sq = k * k + v * v
        b = (r0_sq - rho) / r0_sq
        assert b > 0, "the line point must lie outside the cycle"
        turn = 2 * mp.pi + mp.atan2(v, k)  # psi at t = 0
        t_c = -turn / omega
        psi_esc = omega * (mp.log(b) / (2 * rho) - t_c)
        gain = (r0_sq - rho) / rho

        def radius(psi):  # (r^2, r^2 - k^2) at t = t_c + psi / omega
            x = -2 * rho * (t_c + psi / omega)
            # exp(x) - 1 keeps 54 digits at |x| >= 1e-6, in a third the time
            m = mp.exp(x) - 1 if abs(x) >= 1e-6 else mp.expm1(x)
            den = 1 - b * (1 + m)
            assert den > 0, "sampled past the escape"
            r_sq = rho / den
            return r_sq, r_sq * gain * m + v * v

        def value(psi):  # x1 - k at psi
            r_sq, excess = radius(psi)
            r = mp.sqrt(r_sq)
            return excess / (r + k) - 2 * r * mp.sin(psi / 2) ** 2

        def crossing(lo, hi, f_lo=None):  # the one return in (lo, hi)
            f_hi = None  # x1 - k, unknown at the seed, t_c and the escape
            side = 0
            while hi - lo > mp.mpf(10) ** -18 * hi:
                if lo == 0:
                    mid = hi / 10 ** 8
                elif hi > 4 * lo:  # geometric while the ends differ in scale
                    mid = mp.sqrt(lo * hi)
                elif f_lo is None or f_hi is None:
                    mid = (lo + hi) / 2
                else:  # false position, Illinois: halve a value kept twice
                    mid = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
                f = value(mid)
                if f > 0:
                    lo, f_lo = mid, f
                    if side == 1 and f_hi is not None:
                        f_hi /= 2
                    side = 1
                else:
                    hi, f_hi = mid, f
                    if side == -1 and f_lo is not None:
                        f_lo /= 2
                    side = -1
            psi = (lo + hi) / 2
            r = mp.sqrt(radius(psi)[0])
            return FirstReturn(float(t_c), float(t_c + psi / omega),
                               float(r * mp.sin(psi)))

        # x1 > k needs cos(psi) > k / r, and r falls as psi grows; the
        # angle of cos = k / r is read from the exact excess r^2 - k^2, as
        # r itself can round below k where v^2 / k^2 and the growth per
        # turn lie below 60 digits
        low = max(3 * mp.pi / 2, psi_esc)
        if psi_esc < low:
            low = max(low, 2 * mp.pi - mp.atan2(mp.sqrt(radius(low)[1]), k))
        if low < turn:
            span = turn - low
            grid = {turn - span * i / 64 for i in range(1, 64)}
            # x1 - k ~ -c t^2 next to the seed, whose sign 60 digits
            # resolve down to a relative |t| of about 1e-25; stop at 1e-6
            grid.update(turn - span / mp.mpf(2) ** j for j in range(1, 20))
            if psi_esc > 3 * mp.pi / 2:
                grid.update(low + span / mp.mpf(2) ** j for j in range(1, 60))
            hi = turn  # the seed, on the line
            for psi in sorted(grid, reverse=True):
                f = value(psi)
                if f > 0:
                    return crossing(psi, hi, f)
                hi = psi
        if psi_esc < mp.pi / 2:
            return crossing(max(mp.mpf(0), psi_esc), mp.pi / 2)
        return FirstReturn(float(t_c), None, None)


class FocusReturn(NamedTuple):
    """The first backward return of a focus spiral to its line, rounded to
    floats: the ratio ``g`` = alpha / beta, the angle ``s`` of the return,
    its time ``t`` = (s - 2 pi) / beta, the ends ``y_in`` and ``y_out``
    and the window's ``span`` y_out - y_in (both infinite past the float
    range); ``slope`` = d log|span| / ds and ``rate`` = |d log u / ds| at
    s, and ``drift`` = |g| (2 pi + |d log(cos s - g sin s) / dg|), the
    size of log u's terms and of their change per relative change of g."""

    g: float
    s: float
    t: float
    y_in: float
    y_out: float
    span: float
    slope: float
    rate: float
    drift: float


def focus_return(a11, a12, a21, a22, c) -> FocusReturn:
    """The far end of the focus window on y1 = c of the block [[a11, a12],
    [a21, a22]] (a stable focus, c != 0)."""
    with mp.workdps(DPS):
        a11, a12, a21, a22, c = (mp.mpf(x) for x in (a11, a12, a21, a22, c))
        disc = (a11 - a22) ** 2 + 4 * a12 * a21
        assert disc < 0 and a11 + a22 < 0, "the block must be a stable focus"
        alpha, beta = (a11 + a22) / 2, mp.sqrt(-disc) / 2
        g = alpha / beta

        def log_u(s):
            z = -2 * mp.sin(s / 2) ** 2 - g * mp.sin(s)  # cos s - g sin s - 1
            if z <= -1:  # past the zero of u, or within 60 digits of it
                return mp.ninf
            return g * (s - 2 * mp.pi) + mp.log1p(z)

        # bisection until the upper end's value is above -1 (it is -inf
        # where u = 0), then Newton's method from that end: log u is concave
        # and falling, so each tangent step lands at or right of the root
        lo = mp.mpf(0)
        hi = min(mp.pi / 2 - mp.atan(g), mp.sqrt(-4 * mp.pi * g))
        f_hi, tiny = log_u(hi), mp.mpf(10) ** -40
        while not f_hi > -1 and hi - lo > tiny * hi:
            mid = (lo + hi) / 2
            f = log_u(mid)
            if f > 0:
                lo = mid
            else:
                hi, f_hi = mid, f
        while f_hi > -1:
            sin = mp.sin(hi)
            step = f_hi * (mp.cos(hi) - g * sin) / ((1 + g * g) * sin)
            if abs(step) <= tiny * hi:
                break
            hi += step
            f_hi = log_u(hi)
        s = hi
        sin, lin = mp.sin(s), mp.cos(s) - g * mp.sin(s)
        y_in = -a11 * c / a12
        span = (-c * beta * (1 + g * g) * mp.exp(g * (s - 2 * mp.pi))
                * sin / a12)

        def rounded(x):  # inf past the float range
            return float(x) if abs(x) < mp.mpf(2) ** 1024 else \
                math.copysign(math.inf, x)

        return FocusReturn(
            float(g), float(s), float((s - 2 * mp.pi) / beta), float(y_in),
            rounded(y_in + span), rounded(span),
            float(g + mp.cos(s) / sin), float((1 + g * g) * sin / lin),
            float(abs(g) * (2 * mp.pi + abs(sin / lin))))


def spectrum_branch(a11, a12, a21, a22) -> str:
    """The flow formula of the block [[a11, a12], [a21, a22]] named by the
    exact sign of disc = (a11 - a22)^2 + 4 a12 a21 of its float entries:
    'real' (> 0), 'repeated' (= 0) or 'complex' (< 0)."""
    f11, f12, f21, f22 = map(Fraction, (a11, a12, a21, a22))
    disc = (f11 - f22) ** 2 + 4 * f12 * f21
    return "real" if disc > 0 else "repeated" if disc == 0 else "complex"


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class StrictSigns(NamedTuple):
    """The exact sign, -1, 0 or 1, of each strict algebraic entry of a
    verdict: the block's discriminant (the spectrum's family), d^2 - rho
    (h3's d > sqrt(rho)), q1 + q3 - d (h3's q1 + q3 > d), omega^2 -
    4 d^2 (d^2 - rho) (the L1 regime: subcritical iff > 0) and
    mu^2 (d^2 - rho) - omega^2 rho (the cone: passes iff > 0)."""

    disc: int
    sqrt_rho_lt_d: int
    cq_gt_d: int
    regime: int
    cone: int


def strict_signs(params) -> StrictSigns:
    """The ``StrictSigns`` of ``params``, from its floats in Fraction."""
    f = {k: Fraction(getattr(params, k)) for k in (
        "rho", "omega", "mu", "b11", "b12", "b21", "b22", "q1", "q3", "d")}
    rho, omega, mu, d = f["rho"], f["omega"], f["mu"], f["d"]
    d_sq = d * d
    return StrictSigns(
        _sign((f["b11"] - f["b22"]) ** 2 + 4 * f["b12"] * f["b21"]),
        _sign(d_sq - rho), _sign(f["q1"] + f["q3"] - d),
        _sign(omega ** 2 - 4 * d_sq * (d_sq - rho)),
        _sign(mu ** 2 * (d_sq - rho) - omega ** 2 * rho))


def node_margin(params, p2) -> Fraction:
    """The node theorem's margin -sign(c) (b11 c + b12 (p2 - q2)), c = d -
    q3 - q1, at the point of L2 with the float ordinate p2, exactly."""
    c = Fraction(params.d) - Fraction(params.q3) - Fraction(params.q1)
    inward = -(Fraction(params.b11) * c + Fraction(params.b12)
               * (Fraction(p2) - Fraction(params.q2)))
    return inward if c > 0 else -inward
