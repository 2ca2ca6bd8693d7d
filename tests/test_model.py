import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from hetcycle.errors import ConfigError, HypothesisFailure
from hetcycle.flows import left_flow, right_flow
from hetcycle.hybrid import integrate_hybrid
from hetcycle.model import (
    CONFIG_KEYS,
    SystemParams,
    derive_geometry,
    load_config,
    parse_config,
    params_from_dict,
    params_to_dict,
    point,
    read_assignment,
    tangency_ordinates,
    validate_hypotheses,
)
from hetcycle.orbits import build_gamma_up
from hetcycle.planar import analyze_vdp_line
from hetcycle.verifier import certify


def test_construction_rejects_nonpositive_rates(ex1):
    # a direct construction is the one value check: it fails as a config
    # does, naming the config key, and is still a ValueError
    for field, value, message in (
            ("lam", -1.0, "lambda must be positive, got -1.0"),
            ("rho", 0.0, "rho must be positive, got 0.0"),
            ("lam", 0.0, "lambda must be positive, got 0.0"),
            ("q2", math.nan, "non-finite value for 'q2': nan")):
        with pytest.raises(ConfigError) as info:
            dataclasses.replace(ex1, **{field: value})
        assert isinstance(info.value, ValueError)
        assert str(info.value) == message


def test_config_keys_are_the_fields_with_lambda():
    assert CONFIG_KEYS == ("rho", "omega", "mu", "b11", "b12", "b21", "b22",
                           "lambda", "q1", "q2", "q3", "d")


@pytest.mark.parametrize("text, result", [
    ("rho = 1.5", ("rho", 1.5)),
    ("  lambda=2 ", ("lambda", 2.0)),
    ("q2 = nan", ("q2", math.nan)),
    ("rho", "here: expected 'key = value', got 'rho'"),
    ("lam = 2", "here: unknown key 'lam'"),
    ("rho = 1 # c", "here: invalid number for 'rho': '1 # c'"),
    ("rho = ", "here: invalid number for 'rho': ''"),
    ("q2 = -inf", ("q2", -math.inf)),
    ("mu = 1e400", ("mu", math.inf)),
    ("rho = +.5E+1", ("rho", 5.0)),
    ("rho = 5.", ("rho", 5.0)),
    # only an ASCII decimal literal, nan or inf: no digit separators, no
    # other spellings of nan and inf, no digits outside 0-9
    ("rho = 1_0", "here: invalid number for 'rho': '1_0'"),
    ("rho = infinity", "here: invalid number for 'rho': 'infinity'"),
    ("rho = NaN", "here: invalid number for 'rho': 'NaN'"),
    ("rho = \u0661", "here: invalid number for 'rho': '\u0661'"),
    ("rho = 0x10", "here: invalid number for 'rho': '0x10'"),
    ("rho = 1e", "here: invalid number for 'rho': '1e'"),
    ("rho = .", "here: invalid number for 'rho': '.'"),
])
def test_read_assignment(text, result):
    if isinstance(result, str):
        with pytest.raises(ConfigError) as info:
            read_assignment(text, "here")
        assert str(info.value) == result
    else:
        key, value = read_assignment(text, "here")
        assert key == result[0] and type(value) is float
        assert value == result[1] or math.isnan(value) and math.isnan(result[1])


def test_config_that_is_not_utf8_cannot_be_read(tmp_path):
    path = tmp_path / "bin.cfg"
    path.write_bytes(b"\xff\xfe rho = 1")
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(path)


def test_hypotheses_example1(ex1):
    rep = validate_hypotheses(ex1)
    assert rep.h1_holds and not rep.h2_holds and rep.h3_holds
    eigs = sorted(e.real for e in rep.eigenvalues)
    assert eigs == [-2.0, -1.0]
    assert all(e.imag == 0 for e in rep.eigenvalues)


def test_hypotheses_example2(ex2):
    rep = validate_hypotheses(ex2)
    assert rep.h2_holds and not rep.h1_holds and rep.h3_holds
    e = rep.eigenvalues[0]
    assert e.real == pytest.approx(-0.5) and abs(e.imag) == pytest.approx(4.0)


def test_hypotheses_mutually_exclusive(ex1, ex2, ex3):
    for p in (ex1, ex2, ex3):
        rep = validate_hypotheses(p)
        assert not (rep.h1_holds and rep.h2_holds)


def test_h3_details_margins(ex1):
    rep = validate_hypotheses(ex1)
    by_name = {c.name: c for c in rep.h3_details}
    assert by_name["sqrt_rho_lt_d"].margin == pytest.approx(0.2)
    assert by_name["cq_gt_d"].margin == pytest.approx(0.2)
    assert by_name["q1_eq_d"].margin == 0.0


def test_h3_fails_when_d_equals_sqrt_rho():
    p = SystemParams(rho=1, omega=10, mu=5, b11=-2, b12=1, b21=0, b22=-1,
                     lam=2, q1=1.0, q2=0, q3=0.5, d=1.0)
    rep = validate_hypotheses(p)
    assert not rep.h3_holds
    with pytest.raises(HypothesisFailure):
        derive_geometry(p)


def test_geometry_example1(ex1):
    geo = derive_geometry(ex1)
    assert geo.sigma_plus == pytest.approx(-0.05314, abs=1e-4)
    np.testing.assert_allclose(geo.q0, [1.2, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(geo.p0, [1.0, 0.0, 0.2], atol=1e-14)
    np.testing.assert_allclose(geo.v1, [1.2, geo.sigma_plus, 0.0], atol=1e-14)
    assert geo.p_plus is None  # q3 sits on the bottom rim, not inside


def test_geometry_example3_x_minus(ex3):
    geo = derive_geometry(ex3)
    np.testing.assert_allclose(geo.x_minus, [0.0, -1.1667, 2.0], atol=1e-3)
    # no real tangency ordinates in the strong-contraction regime
    assert geo.sigma_plus is None and geo.v1 is None
    np.testing.assert_allclose(geo.p_plus, [0.0, 1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(geo.p_minus, [0.0, -1.0, 2.0], atol=1e-12)


def test_geometry_points_on_plane(ex1, ex2, ex3):
    for p in (ex1, ex2, ex3):
        geo = derive_geometry(p)
        pts = [geo.p0, geo.p1, geo.q0, geo.v1, geo.p_plus, geo.p_minus,
               geo.x_minus]
        for x in pts:
            if x is None:
                continue
            assert abs(x[0] + x[2] - p.d) <= 1e-12 * max(1.0, abs(p.d))


def test_geometry_plane_membership_random_params():
    rng = np.random.default_rng(1234)
    count = 0
    while count < 50:
        rho = rng.uniform(0.2, 4.0)
        d = math.sqrt(rho) * rng.uniform(1.05, 3.0)
        q3 = rng.uniform(0.05, 2.0 * d)
        p = SystemParams(rho=rho, omega=rng.uniform(0.5, 12.0),
                         mu=rng.uniform(0.5, 6.0),
                         b11=rng.uniform(-3, -0.5), b12=rng.uniform(-2, 2),
                         b21=rng.uniform(-2, 2), b22=rng.uniform(-3, -0.5),
                         lam=rng.uniform(0.5, 4.0),
                         q1=d, q2=rng.uniform(-3, 3), q3=q3, d=d)
        geo = derive_geometry(p)
        for x in (geo.p0, geo.p1, geo.q0, geo.v1, geo.p_plus, geo.p_minus,
                  geo.x_minus):
            if x is None:
                continue
            assert abs(x[0] + x[2] - p.d) <= 1e-12 * max(1.0, abs(p.d))
        count += 1


def test_sigma_vieta_identities():
    # product d^2 - rho and sum -omega/d, whenever the roots are real
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 50:
        rho = rng.uniform(0.2, 2.0)
        d = math.sqrt(rho) * rng.uniform(1.02, 1.5)
        omega = rng.uniform(2.0, 15.0)
        if omega * omega < 4 * d * d * (d * d - rho):
            continue
        p = SystemParams(rho=rho, omega=omega, mu=1.0, b11=-2, b12=1, b21=0,
                         b22=-1, lam=1.0, q1=d, q2=0.0, q3=0.1, d=d)
        geo = derive_geometry(p)
        prod = geo.sigma_plus * geo.sigma_minus
        tot = geo.sigma_plus + geo.sigma_minus
        assert prod == pytest.approx(d * d - rho, rel=1e-10)
        assert tot == pytest.approx(-omega / d, rel=1e-10)
        checked += 1


def _exact_tangency_ordinates(rho, omega, k):
    """(y_plus, y_minus) of k y^2 + omega y + k (k^2 - rho) = 0 in rational
    arithmetic on the float inputs, sqrt(disc) to 400 bits, then rounded."""
    rho, omega, k = Fraction(rho), Fraction(omega), Fraction(k)
    disc = omega * omega - 4 * k * k * (k * k - rho)
    bits = 400
    root = Fraction(math.isqrt(disc.numerator * disc.denominator * 4 ** bits),
                    disc.denominator * 2 ** bits)
    y_minus = (-omega - root) / (2 * k)
    return float((k * k - rho) / y_minus), float(y_minus)


@pytest.mark.parametrize("omega", [1e3, 1e6, 1e12])
def test_tangency_ordinates_are_stable_at_large_omega(omega):
    # the small root is about -k (k^2 - rho) / omega; (-omega + root) / (2k)
    # cancelled to 1.5e-5 relative at omega = 1e6 and to 0.0 at 1e12
    disc, y_plus, y_minus = tangency_ordinates(1.0, omega, 1.2)
    want_plus, want_minus = _exact_tangency_ordinates(1.0, omega, 1.2)
    assert abs(y_plus - want_plus) <= 4 * math.ulp(want_plus)
    assert abs(y_minus - want_minus) <= 4 * math.ulp(want_minus)
    assert y_plus != 0.0
    assert analyze_vdp_line(1.0, omega, 1.2).varrho_plus == y_plus


def test_x_minus_reproduces_formula(ex2):
    geo = derive_geometry(ex2)
    x = geo.x_minus
    assert abs(x[0] + x[2] - ex2.d) <= 1e-12
    # direct re-evaluation of the defining formula with the full matrix
    b = np.array([[ex2.b11, ex2.b12, 0], [ex2.b21, ex2.b22, 0], [0, 0, ex2.lam]])
    w = np.linalg.solve(b, np.array([0.0, 1.0, 0.0]))
    s = (ex2.d - (ex2.q1 + ex2.q3)) / (w[0] + w[2])
    np.testing.assert_allclose(x, ex2.q + s * w, rtol=1e-12)


def test_p_pm_on_cylinder(ex3):
    geo = derive_geometry(ex3)
    for x in (geo.p_plus, geo.p_minus):
        assert abs(x[0] ** 2 + x[1] ** 2 - ex3.rho) <= 1e-12 * ex3.rho


CONFIG_TEXT = """
# comments are allowed
rho = 1.0
omega = 10.0
mu = 5.0
b11 = -2.0
b12 = 1.0
b21 = 0.0
b22 = -1.0
lambda = 2.0
q1 = 1.2
q2 = 0.0
q3 = 0.2
d = 1.2
"""


def test_parse_config_round_trip(ex1):
    p = parse_config(CONFIG_TEXT)
    assert p == ex1
    assert params_from_dict(params_to_dict(p)) == p


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(CONFIG_TEXT + "\nnope = 3\n")


def test_parse_config_missing_key():
    text = "\n".join(line for line in CONFIG_TEXT.splitlines()
                     if not line.startswith("d ="))
    with pytest.raises(ConfigError, match="missing"):
        parse_config(text)


def test_parse_config_bad_number():
    with pytest.raises(ConfigError, match="invalid number"):
        parse_config(CONFIG_TEXT.replace("10.0", "ten"))


@pytest.mark.parametrize("key, line, value", [("q2", "q2 = 0.0", "nan"),
                                              ("rho", "rho = 1.0", "inf"),
                                              ("mu", "mu = 5.0", "1e400")])
def test_nonfinite_value_named(key, line, value):
    # one rule for a config file and for a dict (the --set path)
    named = f"non-finite value for '{key}'"
    with pytest.raises(ConfigError, match=named):
        parse_config(CONFIG_TEXT.replace(line, f"{key} = {value}"))
    values = params_to_dict(parse_config(CONFIG_TEXT))
    values[key] = float(value)
    with pytest.raises(ConfigError, match=named):
        params_from_dict(values)


def test_parse_config_nonpositive_named():
    with pytest.raises(ConfigError, match="lambda"):
        parse_config(CONFIG_TEXT.replace("lambda = 2.0", "lambda = 0.0"))


#: Calls passing a point of other than three components, by the reader
#: they reach; each once dropped a component or raised IndexError.
_MALFORMED_POINTS = {
    "left_flow-2": lambda p: left_flow((1.0, 2.0), 0.5, p),
    "left_flow-4-list": lambda p: left_flow([1, 0, 0, 9], 0.5, p),
    "left_flow-4-tuple": lambda p: left_flow((1.0, 0.0, 0.0, 9.0), 0.5, p),
    "right_flow-4-ndarray": lambda p: right_flow(np.array([1.3, 0, 0.1, 7]),
                                                 0.5, p),
    "integrate_hybrid-2": lambda p: integrate_hybrid(p, (0.5, 0.0),
                                                     (0.0, 1.0)),
    "build_gamma_up-2": lambda p: build_gamma_up(p, certify(p), (1.0, 0.0)),
}


@pytest.mark.parametrize("call", _MALFORMED_POINTS.values(),
                         ids=_MALFORMED_POINTS)
def test_point_of_other_than_three_components_raises(ex1, call):
    assert ex1.q == (ex1.q1, ex1.q2, ex1.q3)
    got = point(np.array([1, 2, 3]))
    assert got == (1.0, 2.0, 3.0) and all(type(v) is float for v in got)
    with pytest.raises(ValueError):
        call(ex1)
