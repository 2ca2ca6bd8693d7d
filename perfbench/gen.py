"""Seeded input generator shared by the benchmark workloads.

Everything the program under test sees is made here from the seed: the
parameter sets of ``certify-sweep`` (and, filtered to the certified ones,
of ``cycle-build``) and the simulation starts of ``simulate-oracle``.
Only plain numbers come out; ``workloads.py`` turns them into library objects
or config files.
"""

from __future__ import annotations

import math

import numpy as np

#: q3 placements relative to the cylinder rims d -/+ sqrt(rho).  The rims
#: are drawn exactly (not near them) because that is where rounding of
#: sqrt decides subcase a/b and where the known certificate holes live.
Q3_KINDS = ("rim_lo", "rim_hi", "inside", "above")

CONFIG_KEYS = ("rho", "omega", "mu", "b11", "b12", "b21", "b22",
               "lambda", "q1", "q2", "q3", "d")


def _node_block(rng):
    """Random real-stable 2x2 block.  The off-diagonal coupling b12*b21
    can come close to b11*b22, which makes the slowest stable rate tiny
    (long forward horizons): that corner is kept, not avoided."""
    while True:
        b11 = -rng.uniform(0.2, 4.0)
        b22 = -rng.uniform(0.2, 4.0)
        b12 = rng.uniform(-6.0, 6.0)
        b21 = b12 * rng.uniform(-0.1, 0.1) if rng.random() < 0.5 else 0.0
        tr = b11 + b22
        det = b11 * b22 - b12 * b21
        if tr < 0.0 and det > 0.0 and tr * tr - 4.0 * det >= 0.0:
            return b11, b12, b21, b22


def _focus_block(rng):
    """Random complex-stable 2x2 block alpha +/- i beta, sheared by s."""
    alpha = -rng.uniform(0.2, 4.0)
    beta = rng.uniform(0.5, 8.0)
    s = rng.uniform(0.5, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
    return alpha, beta * s, -beta / s, alpha


def param_sets(seed: int, n: int) -> list:
    """``n`` parameter dicts (config keys) plus the generator's intent.

    Half the sets have a node block, half a focus block; all satisfy the
    placement hypothesis h3 (d > sqrt(rho), q1 = d, q3 > 0).  omega and mu
    are log-uniform over a wide range so the root scans of the planar
    layer need from a fraction of a revolution to many.  Each entry is
    ``(values, block, q3_kind)``.
    """
    rng = np.random.default_rng([seed, 1])
    out = []
    for i in range(n):
        block = "node" if i % 2 == 0 else "focus"
        rho = rng.uniform(0.3, 2.0)
        sr = math.sqrt(rho)
        d = sr * rng.uniform(1.02, 1.6)
        omega = math.exp(rng.uniform(math.log(0.5), math.log(15.0)))
        mu = math.exp(rng.uniform(math.log(0.5), math.log(8.0)))
        b11, b12, b21, b22 = (_node_block(rng) if block == "node"
                              else _focus_block(rng))
        lam = rng.uniform(0.5, 4.0)
        q2 = rng.uniform(-5.0, 5.0)
        kind = Q3_KINDS[int(rng.integers(len(Q3_KINDS)))]
        if kind == "rim_lo":
            q3 = d - sr
        elif kind == "rim_hi":
            q3 = d + sr
        elif kind == "inside":
            q3 = rng.uniform(d - sr, d + sr)
        else:
            q3 = rng.uniform(d + sr, d + sr + 2.0)
        values = dict(zip(CONFIG_KEYS, (rho, omega, mu, b11, b12, b21, b22,
                                        lam, d, q2, q3, d)))
        out.append(({k: float(v) for k, v in values.items()}, block, kind))
    return out


def config_text(values: dict) -> str:
    """Config file body; ``repr`` keeps every float exact."""
    return "".join(f"{k} = {values[k]!r}\n" for k in CONFIG_KEYS)


def sim_starts(seed: int, example: int, n: int, sqrt_rho: float,
               d: float, q: tuple) -> list:
    """``n`` seeded starts for ``hetcycle simulate`` on built-in example
    ``example``, alternating between a ring around the limit cycle at small
    positive height and a box just below the equilibrium ``q``."""
    rng = np.random.default_rng([seed, 2, example])
    out = []
    for i in range(n):
        if i % 2 == 0:
            r = sqrt_rho * rng.uniform(0.5, 1.3)
            th = rng.uniform(0.0, 2.0 * math.pi)
            x3 = rng.uniform(0.05, 0.4) * d
            out.append((r * math.cos(th), r * math.sin(th), x3))
        else:
            out.append((q[0] + rng.uniform(-0.3, 0.3),
                        q[1] + rng.uniform(-0.5, 0.5),
                        q[2] - rng.uniform(0.05, 0.3)))
    return [tuple(float(v) for v in x) for x in out]
