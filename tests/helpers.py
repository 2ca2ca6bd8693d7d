"""Brute-force oracles shared by the unit and acceptance tests.

The brute checks go through the numeric integrator on raw vector fields
and use neither the closed forms nor the stay-set formulas being tested.
``reference_crosscheck`` keeps an earlier form of the package's own
self-test as a reference for the current one.
"""

import csv
import importlib.util
import math
import pathlib
import time
from dataclasses import replace

import numpy as np

from hetcycle.errors import BackwardBlowup
from hetcycle.flows import left_flow, right_flow
from hetcycle.hybrid import (
    CrosscheckReport,
    StepControl,
    _draw_start,
    left_field,
    right_field,
    rk45,
)
from hetcycle.model import CONFIG_KEYS, SystemParams

BRUTE_CTL = StepControl(rtol=1e-10, atol=1e-13)

#: Excursions above this count as "leaves the half-plane" in brute checks.
EXIT_THRESHOLD = 1e-9

#: A node block in a set whose rates span 1e-280 to 1e-118, q3 on the top
#: rim: its halfplane_p1 margin is -7.54e-118, so no cycle (it once passed
#: an absolute floor of -1e-9).
WIDE_DECADES_SET = SystemParams(
    rho=2.7494991552796795, omega=4.8189404004761046e-250,
    mu=8.811513560637065e-123, b11=-5.236571851390653e-155,
    b12=1.7459727817998844e-118, b21=1.6732419312487412e-280,
    b22=-2.175560379146909e-243, lam=5.363872064758833e-231,
    q1=15.083844040981553, q2=4.317537572183681, q3=16.742005418917874,
    d=15.083844040981553)
#: Its mirror in q2, whose halfplane_p1 margin is +7.54e-118: one cycle,
#: whose forward segment from p1 would need 5e38 samples, past the cap
#: (once a raw OverflowError, e^{(a + w) t} at the horizon t = 6e243).
WIDE_DECADES_MIRROR = replace(WIDE_DECADES_SET, q2=-4.317537572183681)


def csv_rows(path) -> list:
    """Every row of the CSV file at ``path``, read with the file closed
    after."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class Budget:
    """Asserts that the ``with`` block ends within ``seconds``."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name}: runtime {elapsed:.2f}s exceeds {self.seconds}s"
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.name}: FAIL ({elapsed:.2f}s)")
        return False


# The planar fields below act on 3-component states with x3' = 0, the
# shape ``rk45`` integrates; x3 stays exactly 0 along their orbits.


def vdp_planar_field(rho, omega):
    def f(x):
        rr = x[0] * x[0] + x[1] * x[1]
        return (rho * x[0] - omega * x[1] - x[0] * rr,
                omega * x[0] + rho * x[1] - x[1] * rr, 0.0)

    return f


def linear_field(a11, a12, a21, a22):
    def f(x):
        return (a11 * x[0] + a12 * x[1], a21 * x[0] + a22 * x[1], 0.0)

    return f


def affine_field(a11, a12, a21, a22, c1, c2):
    def f(x):
        y1, y2 = x[0] - c1, x[1] - c2
        return (a11 * y1 + a12 * y2, a21 * y1 + a22 * y2, 0.0)

    return f


def max_functional(f, x0, t_end, g, ctl=BRUTE_CTL, n_sub=8):
    """Max of g over the trajectory of the planar field f (one of the
    fields above) from the planar point x0 on (0, t_end], evaluated on the
    accepted mesh plus Hermite subsamples (the start itself is excluded:
    these checks are about the forward orbit).  g reads (x1, x2); each
    subsample is ``hermite(..., h, j / n_sub)`` bit for bit in x1, x2."""
    res = rk45(f, (*x0, 0.0), 0.0, t_end, control=ctl)
    # hermite's basis weights at s = j / n_sub, computed once
    weights = []
    for j in range(1, n_sub + 1):
        s = j / n_sub
        s2 = s * s
        s3 = s2 * s
        weights.append((2.0 * s3 - 3.0 * s2 + 1.0, s3 - 2.0 * s2 + s,
                        -2.0 * s3 + 3.0 * s2, s3 - s2))
    ts, xs = res.ts, res.xs
    fs = [f(x) for x in xs]
    best = -math.inf
    for i in range(len(ts) - 1):
        h = ts[i + 1] - ts[i]
        a1, a2, _ = xs[i]
        fa1, fa2, _ = fs[i]
        b1, b2, _ = xs[i + 1]
        fb1, fb2, _ = fs[i + 1]
        for h00, h10, h01, h11 in weights:
            c10 = h10 * h
            c11 = h11 * h
            v = g((h00 * a1 + c10 * fa1 + h01 * b1 + c11 * fb1,
                   h00 * a2 + c10 * fa2 + h01 * b2 + c11 * fb2))
            if v > best:
                best = v
    return best


def brute_vdp_stays(rho, omega, k, x2_ordinate, horizon=None):
    """Does the forward planar orbit from (k, x2) stay in {x1 < k}?"""
    if horizon is None:
        horizon = math.log(1e4) / (2.0 * rho) + 5.0 * 2.0 * math.pi / omega
    f = vdp_planar_field(rho, omega)
    peak = max_functional(f, (k, x2_ordinate), horizon, lambda p: p[0] - k)
    return peak <= EXIT_THRESHOLD


def brute_linear_stays(a, k_vec, x0, slow_rate, target=1e-6):
    """Does the forward orbit of the linear system stay in {k.x < 1}?"""
    horizon = math.log(1.0 / target) / slow_rate
    f = linear_field(*a)
    g = lambda p: k_vec[0] * p[0] + k_vec[1] * p[1] - 1.0  # noqa: E731
    return max_functional(f, x0, horizon, g) <= EXIT_THRESHOLD


def brute_affine_stays_above(a, center, line_x1, x0, slow_rate, target=1e-6):
    """Does the forward orbit of the affine planar system stay in
    {x1 > line_x1}?  (The spiral-window claims are about the side of the
    in-plane line containing the equilibrium, which is the upper side.)"""
    horizon = math.log(1.0 / target) / slow_rate
    f = affine_field(a[0], a[1], a[2], a[3], center[0], center[1])
    return max_functional(f, x0, horizon,
                          lambda p: line_x1 - p[0]) <= EXIT_THRESHOLD


def random_real_stable_2x2(rng):
    """Random matrix with eigenvalues drawn in [-3, -0.2], conjugated by a
    random well-conditioned similarity."""
    l1, l2 = rng.uniform(-3.0, -0.2, size=2)
    th = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(th), math.sin(th)
    shear = rng.uniform(-0.6, 0.6)
    p = np.array([[c, -s], [s, c]]) @ np.array([[1.0, shear], [0.0, 1.0]])
    m = p @ np.diag([l1, l2]) @ np.linalg.inv(p)
    return m, min(abs(l1), abs(l2))


def semigroup_max_rel_err(params, side, n, seed):
    """Worst relative violation of flow(x0, s+t) = flow(flow(x0, s), t)
    over n accepted random draws (draws hitting backward blow-up or leaving
    a sane radius are rejected and redrawn)."""
    rng = np.random.default_rng(seed)
    flow = left_flow if side == "left" else right_flow
    sr = params.sqrt_rho
    worst = 0.0
    accepted = 0
    while accepted < n:
        if side == "left":
            r = sr * rng.uniform(0.2, 1.5)
            th = rng.uniform(0.0, 2.0 * math.pi)
            x0 = np.array([r * math.cos(th), r * math.sin(th),
                           rng.uniform(-0.5, 0.5)])
            s, t = rng.uniform(-1.0, 3.0, size=2)
        else:
            x0 = params.q + rng.uniform(-2.0, 2.0, size=3)
            s, t = rng.uniform(-1.0, 1.0, size=2)
        try:
            mid = np.asarray(flow(x0, s, params))
            two_leg = np.asarray(flow(mid, t, params))
            direct = np.asarray(flow(x0, s + t, params))
        except BackwardBlowup:
            continue
        if max(np.max(np.abs(mid)), np.max(np.abs(direct))) > 10.0 * max(1.0, sr, np.max(np.abs(params.q))):
            continue
        rel = float(np.max(np.abs(two_leg - direct)) /
                    max(1.0, float(np.max(np.abs(direct)))))
        worst = max(worst, rel)
        accepted += 1
    return worst


def reference_crosscheck(params, trials, seed, horizon=5.0, control=None):
    """``hybrid.crosscheck_closed_forms`` as it stood with the per-sample
    error taken by ``max`` over a generator; the written-out maximum must
    give the same report bit for bit."""
    if trials <= 0:
        return CrosscheckReport(0, 0.0)
    rng = np.random.default_rng(seed)
    ctl = control or StepControl()
    d = params.d
    margin = 0.05 * max(1.0, d)
    sr = params.sqrt_rho
    fields = {"left": left_field(params), "right": right_field(params)}
    max_err = 0.0
    worst = None
    for i in range(trials):
        side = "left" if i % 2 == 0 else "right"
        x0 = _draw_start(params, side, rng, margin, sr)
        res = rk45(fields[side], x0, 0.0, horizon, control=ctl, plane=d,
                   event_side=-1.0 if side == "left" else 1.0)
        flow = left_flow if side == "left" else right_flow
        for t, x in zip(res.ts, res.xs):
            ref = flow(x0, t, params)
            err = max(abs(a - b) for a, b in zip(x, ref))
            if err > max_err:
                max_err = err
                worst = {"trial": i, "side": side, "t": float(t),
                         "x0": [float(v) for v in x0]}
    return CrosscheckReport(trials, max_err, worst)


def rim_sets(seed, n):
    """Generated sets with q3 on a cylinder rim or between the rims, where
    the connection point is built on the cycle; the other draws follow the
    ranges that the hypotheses allow.  Even entries have a node block, odd
    ones a focus block."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        rho = rng.uniform(0.3, 2.0)
        sr = math.sqrt(rho)
        d = sr * rng.uniform(1.02, 1.6)
        if i % 2 == 0:  # node block
            b11, b22 = -rng.uniform(0.2, 4.0), -rng.uniform(0.2, 4.0)
            b12, b21 = rng.uniform(-6.0, 6.0), 0.0
        else:  # focus block alpha +/- i beta
            alpha, beta = -rng.uniform(0.2, 4.0), rng.uniform(0.5, 8.0)
            b11, b12, b21, b22 = alpha, beta, -beta, alpha
        q3 = (d - sr, d + sr, rng.uniform(d - sr, d + sr))[i % 3]
        out.append(SystemParams(
            rho=rho, omega=math.exp(rng.uniform(math.log(0.5), math.log(8.0))),
            mu=math.exp(rng.uniform(math.log(0.5), math.log(4.0))),
            b11=b11, b12=b12, b21=b21, b22=b22, lam=rng.uniform(0.5, 4.0),
            q1=d, q2=rng.uniform(-5.0, 5.0), q3=q3, d=d))
    return out


def bench_sets(seed, n):
    """``perfbench/gen.py``'s ``param_sets(seed, n)``, the benchmark's own
    seeded draw, as config dicts: seed 1 at n = 3000 is part of the
    identity batch."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("gen", path / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [values for values, _, _ in gen.param_sets(seed, n)]


def wide_sets(seed, n):
    """n config dicts over many decades: rho, omega, mu and lambda
    log-uniform on [1e-3, 1e3], node and focus blocks (alternating) with
    rates log-uniform on [1e-4, 1e3], q3 on a rim, between the rims or
    above them; every set satisfies the placement hypothesis h3."""
    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    out = []
    for i in range(n):
        rho, omega, mu, lam = (log_uniform(1e-3, 1e3) for _ in range(4))
        sr = math.sqrt(rho)
        d = sr * log_uniform(1.001, 10.0)
        if i % 2 == 0:  # node -l1, -l2, coupled one way or both ways
            l1, l2 = log_uniform(1e-4, 1e3), log_uniform(1e-4, 1e3)
            b12 = log_uniform(1e-4, 1e3) * rng.choice([-1.0, 1.0])
            b21 = (l1 * l2 / b12 * rng.uniform(0.0, 0.9)
                   if rng.random() < 0.5 else 0.0)  # det > 0, disc >= 0
            block = (-l1, b12, b21, -l2)
        else:  # focus alpha +/- i beta, sheared by s
            alpha, beta = -log_uniform(1e-4, 1e3), log_uniform(1e-4, 1e3)
            s = log_uniform(1e-2, 1e2) * rng.choice([-1.0, 1.0])
            block = (alpha, beta * s, -beta / s, alpha)
        q3 = (d - sr, d + sr, rng.uniform(d - sr, d + sr),
              d + sr * log_uniform(1.001, 10.0))[int(rng.integers(4))]
        out.append(dict(zip(CONFIG_KEYS, map(float, (
            rho, omega, mu, *block, lam, d, sr * rng.uniform(-5.0, 5.0),
            q3, d)))))
    return out
