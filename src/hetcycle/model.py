"""Model parameters, structural hypotheses, and switching-plane geometry.

The system has two zones split by the plane x1 + x3 = d.  The left zone
(x1 + x3 <= d) carries a planar limit-cycle oscillator (rotation rate
``omega``, cycle radius ``sqrt(rho)``) extended by an expanding vertical
axis (rate ``mu``); the right zone is affine with equilibrium ``q``, a
stable planar block ``B0`` and an unstable vertical rate ``lambda``.

Three structural hypotheses gate everything downstream:

* h1 - the right planar block has two negative real eigenvalues (node),
* h2 - the right planar block has a complex pair with negative real part
  (focus); h1 and h2 are mutually exclusive,
* h3 - placement: 0 < sqrt(rho) < d, q1 + q3 > d, and q1 = d, which puts
  the equilibrium strictly in the right zone and the limit cycle strictly
  in the left zone, with the plane geometrically between them.

The plane objects of the certification are stated here, once: q3's
subcase and connection points (``rim_subcase``), the discriminant and
tangency ordinates on a line x1 = k (``tangency_ordinates``, which the
verifier's regime reads too) and the tangency point of a planar linear
field on {k . x = 1} (``window_tangency``, on L2 at ``l2_normal``); the
geometry (``derive_geometry``) and the verdict read the same floats.
``validate_hypotheses`` is the one gate every certification passes, and
the one check of the tolerance.

The fields of ``SystemParams`` are the parameter schema: they name
``CONFIG_KEYS`` (``lam`` as ``lambda``), and constructing one is the one
check of the values.  ``read_assignment`` is the one reader of a
``key = value`` item, for config lines and ``--set`` alike, and
``point`` the one reader of a point a caller passes (a start, q0, p),
which it makes a float 3-tuple; ``SystemParams.q`` is one too.

Everything here is an immutable value; every function is pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import Optional

from .errors import (
    ConfigError,
    DegenerateWindow,
    HypothesisFailure,
    SingularMatrix,
)

#: Fixed switching-plane normal: the plane is {x : x1 + x3 = d}.
C_NORMAL = (1.0, 0.0, 1.0)

#: Default absolute tolerance for equality-type checks on normalized values.
DEFAULT_TOL = 1e-9


def point(x) -> tuple:
    """The point ``x``, any sequence of three numbers, as a float 3-tuple:
    the one reader of a point a caller passes.  Any other length raises
    ValueError."""
    if len(x) != 3:
        raise ValueError(f"a point has 3 components, got {len(x)}")
    x1, x2, x3 = x
    return (float(x1), float(x2), float(x3))


@dataclass(frozen=True)
class SystemParams:
    """All scalars defining the two-zone system.

    The left zone is fixed-form (rotation + radial cubic + exponential
    axis); the right zone is affine with a block-diagonal matrix: planar
    block [[b11, b12], [b21, b22]] and vertical eigenvalue ``lam`` > 0.
    """

    rho: float
    omega: float
    mu: float
    b11: float
    b12: float
    b21: float
    b22: float
    lam: float
    q1: float
    q2: float
    q3: float
    d: float

    def __post_init__(self):
        for name, key in _FIELD_KEYS:
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ConfigError(f"non-finite value for {key!r}: {v!r}")
            object.__setattr__(self, name, v)
        for name, key in _POSITIVE_FIELD_KEYS:
            if not getattr(self, name) > 0:
                raise ConfigError(
                    f"{key} must be positive, got {getattr(self, name)!r}")

    @property
    def q(self) -> tuple:
        return (self.q1, self.q2, self.q3)

    @property
    def sqrt_rho(self) -> float:
        return math.sqrt(self.rho)

    def plane_residual(self, x) -> float:
        """Signed offset of x from the switching plane (positive = right zone)."""
        x1, _, x3 = point(x)
        return x1 + x3 - self.d


#: Config key of each field whose name differs from it.
_RENAMED = {"lam": "lambda"}
#: (field, config key) of each field, in order, and of the positive ones.
_FIELD_KEYS = tuple((f.name, _RENAMED.get(f.name, f.name))
                    for f in fields(SystemParams))
_POSITIVE_FIELD_KEYS = tuple(
    fk for fk in _FIELD_KEYS if fk[1] in ("rho", "omega", "mu", "lambda", "d"))
#: The config keys, in field order: the schema of the text format.
CONFIG_KEYS = tuple(key for _, key in _FIELD_KEYS)


def classify_2x2(a11: float, a12: float, a21: float, a22: float):
    """Spectral classification of a 2x2 real matrix from trace/determinant.

    Returns (spectral_type, (ev1, ev2)) with eigenvalues as complex numbers;
    a complex pair is reported with positive imaginary part first.  The
    quadratic formula is used (never an iterative solver) so the result is
    deterministic and exact up to rounding.
    """
    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        l1 = 0.5 * (tr - root)
        l2 = 0.5 * (tr + root)
        kind = "real_stable" if (l1 < 0.0 and l2 < 0.0) else "other"
        return kind, (complex(l1, 0.0), complex(l2, 0.0))
    alpha = 0.5 * tr
    beta = 0.5 * math.sqrt(-disc)
    kind = "complex_stable" if alpha < 0.0 else "other"
    return kind, (complex(alpha, beta), complex(alpha, -beta))


@dataclass(frozen=True)
class H3Check:
    name: str
    passed: bool
    margin: float


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the structural hypothesis checks; failure is data here,
    not an error."""

    h1_holds: bool
    h2_holds: bool
    h3_holds: bool
    h3_details: tuple
    eigenvalues: tuple
    spectral_type: str


def validate_hypotheses(params: SystemParams, tol: float = DEFAULT_TOL) -> HypothesisReport:
    """Check the three structural hypotheses of the model.

    h1/h2 classify the right planar block's spectrum; h3 bundles three
    placement sub-checks, each reported with its margin:

    * ``sqrt_rho_lt_d``: d - sqrt(rho) > 0 (strict, zero slack),
    * ``cq_gt_d``: q1 + q3 - d > 0 (strict, zero slack),
    * ``q1_eq_d``: |q1 - d| <= tol * max(1, |d|).

    Every certification passes through here, so this is where a ``tol``
    that is negative or not finite is rejected (ConfigError).
    """
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"tol must be finite and non-negative, got {tol!r}")
    kind, eigs = classify_2x2(params.b11, params.b12, params.b21, params.b22)
    h1 = kind == "real_stable"
    h2 = kind == "complex_stable"

    m1 = params.d - params.sqrt_rho
    m2 = params.q1 + params.q3 - params.d
    m3 = abs(params.q1 - params.d)
    checks = (
        H3Check("sqrt_rho_lt_d", m1 > 0.0, m1),
        H3Check("cq_gt_d", m2 > 0.0, m2),
        H3Check("q1_eq_d", m3 <= tol * max(1.0, abs(params.d)), m3),
    )
    h3 = all(c.passed for c in checks)
    return HypothesisReport(h1, h2, h3, checks, eigs, kind)


@dataclass(frozen=True)
class DerivedGeometry:
    """Named points on the switching plane.

    ``p0``/``p1`` are where the cycle's unstable cylinder meets the plane
    at its lowest/highest vertical height; ``q0`` is where the equilibrium's
    unstable line meets the plane; ``p_plus``/``p_minus`` are the cylinder-
    plane-stable-plane intersections, present exactly in ``rim_subcase``
    'c', which builds them; ``x_minus`` is the tangency point of the
    right-zone spiral on L2 = {x3 = q3}.  sigma_plus/minus are the
    ``tangency_ordinates`` of L1 = {x1 = d, x3 = 0}, when real.  Points are
    float 3-tuples.
    """

    p0: tuple
    p1: tuple
    q0: tuple
    sigma_plus: Optional[float]
    sigma_minus: Optional[float]
    v1: Optional[tuple]
    p_plus: Optional[tuple]
    p_minus: Optional[tuple]
    x_minus: Optional[tuple]


def derive_geometry(params: SystemParams, tol: float = DEFAULT_TOL,
                    report: Optional[HypothesisReport] = None) -> DerivedGeometry:
    """Compute every switching-plane object by its closed formula.

    Requires the placement hypothesis (h3); raises HypothesisFailure
    otherwise.  ``report`` is ``validate_hypotheses(params, tol)`` when the
    caller already holds it.  ``x_minus`` is the ``window_tangency`` of
    the planar block on L2 (``l2_normal``), lifted: the point the verdict's
    spiral window starts at.  For a block that is not a focus it is None
    where that solve is undefined; for a focus it always exists, and the
    solve's SingularMatrix/DegenerateWindow guards propagate.
    """
    if report is None:
        report = validate_hypotheses(params, tol)
    if not report.h3_holds:
        failed = [c.name for c in report.h3_details if not c.passed]
        raise HypothesisFailure(f"placement hypothesis fails: {', '.join(failed)}")

    d = params.d
    sr = params.sqrt_rho
    p0 = (sr, 0.0, d - sr)
    p1 = (-sr, 0.0, d + sr)
    q0 = (d, params.q2, 0.0)

    _, sigma_plus, sigma_minus = tangency_ordinates(params.rho, params.omega, d)
    v1 = None if sigma_plus is None else (d, sigma_plus, 0.0)

    rim_points = dict(rim_subcase(params, tol)[3])
    p_plus, p_minus = rim_points.get("p_plus"), rim_points.get("p_minus")

    try:
        u, v = window_tangency(params.b11, params.b12, params.b21,
                               params.b22, l2_normal(params))
        x_minus = (u + params.q1, v + params.q2, params.q3)
    except (SingularMatrix, DegenerateWindow):
        if report.h2_holds:
            raise
        x_minus = None

    return DerivedGeometry(p0, p1, q0, sigma_plus, sigma_minus, v1,
                           p_plus, p_minus, x_minus)


def tangency_ordinates(rho: float, omega: float, k: float) -> tuple:
    """(disc, y_plus, y_minus): discriminant and roots y_plus >= y_minus
    (None if disc < 0) of k y^2 + omega y + k (k^2 - rho) = 0, the
    ordinates where the left planar field is tangent to the line x1 = k
    (omega, k > 0).  y_minus = (-omega - sqrt(disc)) / (2k) and y_plus =
    (k^2 - rho) / y_minus, so neither root cancels at large omega."""
    disc = omega * omega - 4.0 * k * k * (k * k - rho)
    if disc < 0.0:
        return disc, None, None
    y_minus = (-omega - math.sqrt(disc)) / (2.0 * k)
    return disc, (k * k - rho) / y_minus, y_minus


def rim_subcase(params: SystemParams, tol: float = DEFAULT_TOL) -> tuple:
    """(subcase, lo, hi, points) of q3 against the rim heights lo, hi =
    d -/+ sqrt(rho): 'a' within the band tol * max(1, |lo|, |hi|) of lo,
    'b' within it of hi, else 'c' strictly between them, else 'none'.
    ``points`` pairs each connection point the subcase implies (p0, p1,
    or p_plus and p_minus) with its label, as a float 3-tuple."""
    d, sr, q3 = params.d, params.sqrt_rho, params.q3
    lo, hi = d - sr, d + sr
    band = tol * max(1.0, abs(lo), abs(hi))
    if abs(q3 - lo) <= band:
        return "a", lo, hi, (("p0", (sr, 0.0, lo)),)
    if abs(q3 - hi) <= band:
        return "b", lo, hi, (("p1", (-sr, 0.0, hi)),)
    if not lo < q3 < hi:
        return "none", lo, hi, ()
    y = math.sqrt(max(params.rho - (d - q3) * (d - q3), 0.0))
    return "c", lo, hi, (("p_plus", (d - q3, y, q3)),
                         ("p_minus", (d - q3, -y, q3)))


def l2_normal(params: SystemParams) -> tuple:
    """Normal k of L2 as the line {k . y = 1} in the right block's planar
    coordinates y = (x1 - q1, x2 - q2) at height q3."""
    return (1.0 / (params.d - params.q3 - params.q1), 0.0)


def window_tangency(a11, a12, a21, a22, k) -> tuple:
    """Point of {k.x = 1} where the planar field A x is parallel to the
    line: A^{-1} k-perp / (k . A^{-1} k-perp) with k-perp = (-k2, k1)."""
    det = a11 * a22 - a12 * a21
    if det == 0.0:
        raise SingularMatrix("planar system matrix is singular")
    kp = (-k[1], k[0])
    # w = A^{-1} k-perp
    w = ((a22 * kp[0] - a12 * kp[1]) / det, (-a21 * kp[0] + a11 * kp[1]) / det)
    denom = k[0] * w[0] + k[1] * w[1]
    scale = math.hypot(*k) * math.hypot(*w)
    # Unreachable for a genuinely complex spectrum (the zero set of the
    # denominator requires a real discriminant); kept as a guard, relative
    # so that it does not depend on the units of x and t.
    if abs(denom) <= 1e-14 * scale:
        raise DegenerateWindow("k . A^{-1} k-perp vanishes")
    return (w[0] / denom, w[1] / denom)


#: A value ``read_assignment`` reads: an ASCII decimal literal, or nan or
#: inf (which ``SystemParams`` then refuses, naming the key).
_NUMBER = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                     r"|nan|inf)")


def read_assignment(text: str, where: str) -> tuple:
    """(key, value) of one ``key = value`` item, the key one of
    ``CONFIG_KEYS`` and the value a ``_NUMBER`` (no digit separators, no
    other digits than 0-9, '.' as the decimal separator regardless of
    locale); every ConfigError starts with ``where``."""
    key, eq, val = text.partition("=")
    if not eq:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    key, val = key.strip(), val.strip()
    if key not in CONFIG_KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if not _NUMBER.fullmatch(val):
        raise ConfigError(f"{where}: invalid number for {key!r}: {val!r}")
    return key, float(val)


def parse_config(text: str) -> SystemParams:
    """Parse the flat config format: one ``read_assignment`` per line,
    ``#`` starting a comment, each of the twelve keys exactly once."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = read_assignment(line, f"line {lineno}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return params_from_dict(values)


def params_from_dict(values: dict) -> SystemParams:
    """Build SystemParams from a config-key dict (a config file, ``--set``);
    an unknown or missing key is a ConfigError here, a bad value one from
    ``SystemParams``."""
    unknown = [k for k in values if k not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}")
    missing = [k for k in CONFIG_KEYS if k not in values]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")
    return SystemParams(*[values[k] for k in CONFIG_KEYS])


def load_config(path) -> SystemParams:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def params_to_dict(params: SystemParams) -> dict:
    return {key: getattr(params, name) for name, key in _FIELD_KEYS}
