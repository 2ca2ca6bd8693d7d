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
verifier's regime reads too) and the tangency ordinate -a11 c / a12 of a
planar linear field on a vertical line {y1 = c} (``window_tangency``, on
L2 at ``l2_offset``; a12 != 0 for every focus), which the verdict
reads as they are.  So is the right block's spectrum
(``PlanarLinearSystem``, held by ``SystemParams.block`` for the theorem,
flows, window and horizons).
``validate_hypotheses`` is the one gate every certification passes, and
the one check of the tolerance.  The one rule for the sign of a strict
inequality is stated here too (``SIGN_REL``, ``exact_value``): every
strict entry of a verdict reads its exact sign in the float parameters.

The fields of ``SystemParams`` are the parameter schema: they name
``CONFIG_KEYS`` (``lam`` as ``lambda``), and constructing one is the one
check of the values.  The one readers: ``read_assignment`` of a
``key = value`` item (config lines, ``--set``), ``read_number`` of a
number from text (there and in the CLI's options), and ``point`` of a
point a caller passes (a start, q0, p), as a float 3-tuple, which
``SystemParams.q`` is too.

Everything here is an immutable value; every function is pure.  The
records every certification builds are ``NamedTuple``s
(``validate_hypotheses`` builds its own through ``_make``);
``SystemParams`` is a frozen dataclass, which checks its values; its
``block`` is computed on first use and kept.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, fields
from typing import NamedTuple

from .errors import ConfigError

#: Default absolute tolerance for equality-type checks on normalized values.
DEFAULT_TOL = 1e-9

#: The one rule for the sign of a strict entry: its float form m decides
#: when abs(m) > SIGN_REL * size + SIGN_TINY, size the sum of its terms'
#: magnitudes; otherwise ``exact_value`` decides.  Each form here rounds
#: at most 7 u = 7 * 2^-53 of its size, and its underflow adds at most
#: 2^-1020: where a product underflows, every factor that later scales it
#: is below 2^52 (for the tangency discriminant where k^2 > rho; below
#: that both of its terms are positive).  So a float form that decides
#: has the exact sign.  An inf or NaN form never decides.  SIGN_TINY only
#: sends an entry to the exact path; it decides none.
SIGN_REL = 2.0 ** -49
SIGN_TINY = 2.0 ** -1000
#: The least magnitude whose float is not finite: 2^1024 - 2^970.
_FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970


def exact_value(form, *args) -> float:
    """The value of ``form`` at ``args`` in rational arithmetic, as a float
    with the exact sign: each argument a float, or a tuple of floats
    standing for their exact sum, is read exactly, and ``form`` is the
    entry's expression (after Shewchuk's adaptive predicates, 1997).  Its
    float is returned; where that underflows, the least subnormal of its
    sign, and where it overflows, an infinity of its sign."""
    from fractions import Fraction  # loads decimal: only on this path
    x = form(*[sum(map(Fraction, a)) if type(a) is tuple else Fraction(a)
               for a in args])
    if abs(x) >= _FLOAT_OVERFLOW:
        return math.inf if x > 0 else -math.inf
    v = float(x)
    if v == 0.0 and x:
        return 5e-324 if x > 0 else -5e-324
    return v


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

    @functools.cached_property
    def block(self) -> "PlanarLinearSystem":
        """The right planar block with its spectrum, derived once."""
        return PlanarLinearSystem.from_entries(self.b11, self.b12, self.b21,
                                               self.b22)

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


class PlanarLinearSystem(NamedTuple):
    """The 2x2 matrix [[a11, a12], [a21, a22]] and its spectrum, which only
    ``from_entries`` derives, in closed form: disc = (a11 - a22)^2 +
    4 a12 a21 (no cancellation when a12 a21 = 0; its sign is exact by the
    ``SIGN_REL`` rule), a = tr / 2 and w = sqrt(|disc|) / 2.  The sign of
    disc alone names the family and so the theorem: disc >= 0, real
    ``eigenvalues`` low first (a triangular block's diagonal, exactly),
    'real_stable' when both are negative; disc < 0, a +/- i w,
    'complex_stable' when a < 0; else 'other'.  The same sign names
    ``branch``, the formula of ``flows.block_exp``: 'real' for disc > 0,
    'repeated' for disc == 0, 'complex' for disc < 0.
    """

    a11: float
    a12: float
    a21: float
    a22: float
    spectral_type: str
    branch: str
    a: float
    w: float
    eigenvalues: tuple

    @classmethod
    def from_entries(cls, a11, a12, a21, a22) -> "PlanarLinearSystem":
        tr, h = a11 + a22, a11 - a22
        disc = h * h + 4.0 * a12 * a21
        size = h * h + 4.0 * abs(a12 * a21)
        if not abs(disc) > SIGN_REL * size + SIGN_TINY:
            disc = exact_value(lambda a11, a12, a21, a22: (a11 - a22) ** 2
                               + 4 * a12 * a21, a11, a12, a21, a22)
        a, w = 0.5 * tr, 0.5 * math.sqrt(abs(disc))
        if disc >= 0.0:  # a11 + s, a22 - s; s^2 + h s = a12 a21, |s| least
            den = h + math.copysign(2.0 * w, h)
            s = 2.0 * a12 * a21 / den if den else 0.0
            lo, hi = a11 + s, a22 - s
            if hi < lo:
                lo, hi = hi, lo
            eigs = (complex(lo), complex(hi))
            kind = "real_stable" if hi < 0.0 else "other"
        else:
            eigs = (complex(a, w), complex(a, -w))
            kind = "complex_stable" if a < 0.0 else "other"
        branch = ("real" if disc > 0.0 else
                  "repeated" if disc == 0.0 else "complex")
        return cls(a11, a12, a21, a22, kind, branch, a, w, eigs)


class H3Check(NamedTuple):
    name: str
    passed: bool
    margin: float


class HypothesisReport(NamedTuple):
    """Outcome of the structural hypothesis checks, with its ``H3Check``
    rows and the ``block`` h1/h2 read; failure is data, not an error."""

    h1_holds: bool
    h2_holds: bool
    h3_holds: bool
    h3_details: tuple
    block: PlanarLinearSystem


def validate_hypotheses(params: SystemParams, tol: float = DEFAULT_TOL) -> HypothesisReport:
    """Check the three structural hypotheses of the model.

    h1/h2 classify the right planar block's spectrum; h3 bundles three
    placement sub-checks, each reported with its margin:

    * ``sqrt_rho_lt_d``: d > sqrt(rho), decided as the exact sign of
      d^2 - rho (``SIGN_REL``), with margin d - sqrt(rho), which can read
      0.0 where d^2 > rho holds;
    * ``cq_gt_d``: q1 + q3 - d > 0, its exact sign, with that margin;
    * ``q1_eq_d``: |q1 - d| <= tol * max(1, |d|).

    Every certification passes through here, so this is where a ``tol``
    that is negative or not finite is rejected (ConfigError).
    """
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"tol must be finite and non-negative, got {tol!r}")
    d, rho, q1, q3 = params.d, params.rho, params.q1, params.q3
    m1 = d - math.sqrt(rho)
    m2 = q1 + q3 - d
    m3 = abs(q1 - d)
    d2 = d * d
    s1 = d2 - rho
    if not abs(s1) > SIGN_REL * (d2 + rho) + SIGN_TINY:
        s1 = exact_value(lambda d, rho: d * d - rho, d, rho)
    if not abs(m2) > SIGN_REL * (abs(q1) + abs(q3) + d) + SIGN_TINY:
        m2 = exact_value(lambda q1, q3, d: q1 + q3 - d, q1, q3, d)
    p1, p2 = s1 > 0.0, m2 > 0.0
    p3 = m3 <= tol * (abs(d) if abs(d) > 1.0 else 1.0)  # tol max(1, |d|)
    checks = (H3Check._make(("sqrt_rho_lt_d", p1, m1)),
              H3Check._make(("cq_gt_d", p2, m2)),
              H3Check._make(("q1_eq_d", p3, m3)))
    block = params.block
    kind = block.spectral_type
    return HypothesisReport._make((kind == "real_stable",
                                   kind == "complex_stable",
                                   p1 and p2 and p3, checks, block))


def tangency_ordinates(rho: float, omega: float, k: float) -> tuple:
    """(disc, y_plus, y_minus): discriminant and roots y_plus >= y_minus
    (None if disc < 0) of k y^2 + omega y + k (k^2 - rho) = 0, the
    ordinates where the left planar field is tangent to the line x1 = k
    (omega, k > 0).  disc = omega^2 - 4 k^2 (k^2 - rho) has the exact
    sign (``SIGN_REL``; inf past the float range), which both the roots
    and the L1 regime read.  y_minus = (-omega - sqrt(disc)) / (2k) and
    y_plus = (k^2 - rho) / y_minus, so neither root cancels at large
    omega."""
    w2, k4, k2 = omega * omega, 4.0 * k * k, k * k
    disc = w2 - k4 * (k2 - rho)
    if not abs(disc) > SIGN_REL * (w2 + k4 * (k2 + rho)) + SIGN_TINY:
        disc = exact_value(lambda rho, omega, k: omega * omega
                           - 4 * k * k * (k * k - rho), rho, omega, k)
    if disc < 0.0:
        return disc, None, None
    y_minus = (-omega - math.sqrt(disc)) / (2.0 * k)
    return disc, (k2 - rho) / y_minus, y_minus


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


def l2_offset(params: SystemParams) -> float:
    """c < 0 (under h3) of L2 = {y1 = c} in the right block's planar
    coordinates y = (x1 - q1, x2 - q2) at height q3."""
    return params.d - params.q3 - params.q1


def window_tangency(a11, a12, c) -> float:
    """Ordinate -a11 c / a12 where the planar field A y is parallel to the
    line {y1 = c}, for a12 != 0 (a focus has it: its disc < 0 needs
    a12 a21 < 0).  It is infinite where the quotient overflows."""
    return -a11 * c / a12


#: A number as text: an ASCII decimal literal, or nan or inf (which
#: ``SystemParams`` and the CLI's checks then refuse as not finite).
_NUMBER = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                     r"|nan|inf)")


def read_number(text: str, where: str) -> float:
    """The float of ``text``, which less surrounding whitespace must be a
    ``_NUMBER`` (no digit separators, only the digits 0-9, '.' as the
    decimal separator whatever the locale), else ConfigError
    ``{where}: {text!r}``."""
    text = text.strip()
    if not _NUMBER.fullmatch(text):
        raise ConfigError(f"{where}: {text!r}")
    return float(text)


def read_assignment(text: str, where: str) -> tuple:
    """(key, value) of one ``key = value`` item, the key one of
    ``CONFIG_KEYS`` and the value a ``read_number``; every ConfigError
    starts with ``where``."""
    key, eq, val = text.partition("=")
    if not eq:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    key = key.strip()
    if key not in CONFIG_KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    return key, read_number(val, f"{where}: invalid number for {key!r}")


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
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def params_to_dict(params: SystemParams) -> dict:
    return {key: getattr(params, name) for name, key in _FIELD_KEYS}
