import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import Budget, bench_sets
from rigorous import spectrum, spectrum_branch, stability

from hetcycle.errors import ConfigError, HypothesisFailure
from hetcycle.flows import left_flow, right_flow
from hetcycle.hybrid import integrate_hybrid, numeric_flow, rk45
from hetcycle.model import (
    CONFIG_KEYS,
    PlanarLinearSystem,
    SystemParams,
    clearance,
    l2_offset,
    load_config,
    parse_config,
    params_from_dict,
    params_to_dict,
    point,
    read_assignment,
    read_number,
    rim_subcase,
    tangency_ordinates,
    window_tangency,
    validate_hypotheses,
)
from hetcycle.orbits import build_gamma_up, default_horizons
from hetcycle.planar import analyze_vdp_line
from hetcycle.presets import example_params
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


@pytest.mark.parametrize("text, value", [
    ("2", 2.0), (" -0.5\t", -0.5), (".5", 0.5), ("1e-3", 1e-3),
    ("-inf", -math.inf), ("1_0", None), ("\uff12", None), ("\u0660", None),
    ("0x10", None), ("Infinity", None), ("", None), ("1 2", None),
])
def test_read_number(text, value):
    # the number format of config values, shared by the CLI's options
    if value is None:
        with pytest.raises(ConfigError) as info:
            read_number(text, "here")
        assert str(info.value) == f"here: {text.strip()!r}"
    else:
        got = read_number(text, "here")
        assert type(got) is float and got == value


def test_window_tangency_is_where_the_field_is_parallel_to_the_line():
    # (A y)_1 = a11 c + a12 y vanishes at the ordinate, to rounding, on
    # both sides of the equilibrium, however small a12 is against a11
    rng = np.random.default_rng(24)
    for _ in range(200):
        a11, a12 = rng.uniform(-5.0, 5.0, 2)
        c = float(rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0]))
        y = window_tangency(a11, a12, c)
        assert abs(a11 * c + a12 * y) <= 4e-16 * (abs(a11 * c) + abs(a12 * y))
    for scale in (1e-200, 1.0, 1e200):
        y = window_tangency(-scale, 1e-15 * scale, 1.0)
        assert y == scale / (1e-15 * scale)
        assert y == pytest.approx(1e15, rel=1e-15)
        assert window_tangency(-scale, 1e-13 * scale, 1.0) == pytest.approx(
            1e13, rel=1e-15)


def test_config_that_is_not_utf8_cannot_be_read(tmp_path):
    path = tmp_path / "bin.cfg"
    path.write_bytes(b"\xff\xfe rho = 1")
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(path)


def test_hypotheses_example1(ex1):
    rep = validate_hypotheses(ex1)
    assert rep.h1_holds and not rep.h2_holds and rep.h3_holds
    eigs = sorted(e.real for e in rep.block.eigenvalues)
    assert eigs == [-2.0, -1.0]
    assert all(e.imag == 0 for e in rep.block.eigenvalues)


def test_hypotheses_example2(ex2):
    rep = validate_hypotheses(ex2)
    assert rep.h2_holds and not rep.h1_holds and rep.h3_holds
    e = rep.block.eigenvalues[0]
    assert e.real == pytest.approx(-0.5) and abs(e.imag) == pytest.approx(4.0)


def test_triangular_block_spectrum_is_its_diagonal():
    # (a11 - a22)^2 + 4 a12 a21 does not cancel when a12 a21 = 0: diagonal
    # entries a few ulp apart give a real spectrum that is exactly
    # {b11, b22} (tr^2 - 4 det reads a negative discriminant on some), and
    # the flow formula of distinct real roots, the repeated one only when
    # the diagonal entries are equal
    rng = np.random.default_rng(26)
    for _ in range(500):
        b11 = -math.exp(rng.uniform(math.log(1e-8), math.log(1e8)))
        b22 = b11
        for _ in range(int(rng.integers(1, 9))):
            b22 = math.nextafter(b22, math.copysign(math.inf, rng.normal()))
        off = b11 * float(rng.uniform(-8.0, 8.0))
        for entries in ((b11, 0.0, off, b22), (b11, off, 0.0, b22),
                        (b11, -0.0, off, b22), (b22, off, -0.0, b11)):
            block = PlanarLinearSystem.from_entries(*entries)
            assert block.spectral_type == "real_stable", entries
            assert {e.real for e in block.eigenvalues} == {b11, b22}
            assert all(e.imag == 0.0 for e in block.eigenvalues)
            assert block.branch == ("repeated" if b11 == b22 else "real")


def test_a_focus_never_has_a_zero_off_diagonal_entry():
    # disc = (a11 - a22)^2 + 4 a12 a21 < 0 needs fl(4 a12 a21) < 0 (the
    # square is >= 0, and a rounded product keeps its sign or is 0), so a
    # focus has nonzero a12 and a21 of opposite signs, and window_tangency
    # never meets a12 = 0 (even where fl(a12 a21) itself underflows to
    # -0.0).  Entries over many decades, down to ulp-level and subnormal.
    rng = np.random.default_rng(27)
    kinds = {"real": 0, "repeated": 0, "complex": 0}
    for _ in range(4000):
        s = math.exp(rng.uniform(math.log(1e-150), math.log(1e150)))
        a11 = -s
        a22 = a11
        for _ in range(int(rng.integers(0, 4))):
            a22 = math.nextafter(a22, math.copysign(math.inf, rng.normal()))

        def entry():
            pick = int(rng.integers(0, 4))
            size = (math.ulp(s) * int(rng.integers(1, 5)), s * rng.uniform(),
                    5e-324, 0.0)[pick]
            return math.copysign(size, rng.normal())

        a12, a21 = entry(), entry()
        block = PlanarLinearSystem.from_entries(a11, a12, a21, a22)
        kinds[block.branch] += 1
        if block.branch == "complex":
            assert a12 != 0.0 and a21 != 0.0 and (a12 > 0.0) != (a21 > 0.0), (
                a11, a12, a21, a22)
            assert block.spectral_type == "complex_stable"
    assert min(kinds.values()) > 100, kinds


def test_blocks_inside_the_repeated_root_band():
    # the sign of the discriminant names the family (and so the theorem)
    # and the flow formula alike, at any rate and however small |disc|
    # (no repeated-root band)
    for s in (1.0, 2.0 ** -20, 2.0 ** 20):
        node = PlanarLinearSystem.from_entries(-s, s, 0.5e-12 * s, -s)
        focus = PlanarLinearSystem.from_entries(-s, s, -0.5e-12 * s, -s)
        assert (node.spectral_type, node.branch) == ("real_stable", "real")
        assert (focus.spectral_type, focus.branch) == ("complex_stable",
                                                       "complex")
        assert focus.w <= 1e-6 * abs(focus.a)
        far = PlanarLinearSystem.from_entries(-s, s, -2e-12 * s, -s)
        assert (far.spectral_type, far.branch) == ("complex_stable",
                                                   "complex")
        on = PlanarLinearSystem.from_entries(-s, s, 0.0, -s)
        assert (on.spectral_type, on.branch) == ("real_stable", "repeated")


def test_near_repeated_blocks_follow_the_exact_discriminant_sign():
    # a21 = -h^2 (1 + eps) / (4 a12) puts the exact disc within a relative
    # 1e-12 of 0, where the rounded one can carry the wrong sign; the
    # family and the flow formula follow the exact sign
    rng = random.Random(45)
    kinds = {"real": 0, "repeated": 0, "complex": 0}
    with Budget("exact discriminant sign", 10.0):
        for _ in range(20_000):
            a11 = -rng.uniform(0.1, 4.0)
            h = (rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 2.0)
                 * 10.0 ** rng.uniform(-8.0, 0.0))
            a12 = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 5.0)
            eps = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-17.0, -12.0)
            entries = (a11, a12, -h * h * (1.0 + eps) / (4.0 * a12), a11 - h)
            block = PlanarLinearSystem.from_entries(*entries)
            assert block.branch == spectrum_branch(*entries), entries
            if block.a < 0.0:  # a stable focus exactly when complex
                assert ((block.spectral_type == "complex_stable")
                        == (block.branch == "complex")), entries
            kinds[block.branch] += 1
    assert min(kinds["real"], kinds["complex"]) > 5000, kinds


def test_rounded_discriminant_of_the_wrong_sign_is_a_focus(ex1):
    # disc rounds to 0.0 here (a repeated eigenvalue), exactly it is
    # -1.8e-18: a complex pair (beta 6.8e-10), so h1 (a real saddle) fails
    p = dataclasses.replace(
        ex1, b11=-1.5449091657235188, b12=-4.707058610506759,
        b21=0.0083234848556282, b22=-1.94078354508701)
    block = p.block
    assert (block.spectral_type, block.branch) == ("complex_stable", "complex")
    assert 6e-10 < block.w < 7e-10
    assert not validate_hypotheses(p).h1_holds


def test_near_singular_blocks_follow_the_exact_determinant(ex1):
    # a22 = a12 a21 / a11 (1 + eps) puts the exact det within a relative
    # 1e-12 of 0, where the rounded smaller eigenvalue a11 + s can carry
    # the wrong sign (about 7% of draws); the kind follows tr < 0 and the
    # exact det (rigorous's own Fraction decision), every real pair's
    # product has det's sign, and certify in example 1's geometry routes
    # by that kind.  The first 20,000 draws of the 200,000-draw batch
    rng = random.Random(5)
    routes = {"real_stable": "real_saddle", "complex_stable": "saddle_focus",
              "other": "none"}
    kinds = {"real_stable": 0, "other": 0}
    with Budget("exact determinant sign", 25.0):
        for _ in range(20_000):
            a11 = -10.0 ** rng.uniform(-3.0, 3.0)
            a12 = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
            a21 = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
            a22 = a12 * a21 / a11 * (1.0 + rng.choice((1.0, -1.0))
                                     * 10.0 ** rng.uniform(-17.0, -12.0))
            entries = (a11, a12, a21, a22)
            if not all(map(math.isfinite, entries)):
                continue
            block = PlanarLinearSystem.from_entries(*entries)
            kind, det_sign = stability(*entries)
            assert block.spectral_type == kind, entries
            kinds[kind] += 1
            if block.branch != "complex":
                lo, hi = (e.real for e in block.eigenvalues)
                product = lo * hi
                assert (product > 0.0) - (product < 0.0) == det_sign, entries
            p = dataclasses.replace(ex1, b11=a11, b12=a12, b21=a21, b22=a22)
            assert certify(p).theorem == routes[kind], entries
    assert min(kinds.values()) > 5_000, kinds


def test_singular_node_reads_the_exact_determinant():
    # the rounded a11 + s is -2.8e-17; the exact det is -8.0e-15, so the
    # block is a planar saddle, and its smaller eigenvalue det / -552.8
    block = PlanarLinearSystem.from_entries(
        -0.1278200608836935, 3.4752528883375913, 20.327846978465907,
        -552.6863970897278)
    assert block.spectral_type == "other"
    assert block.eigenvalues == (-552.8142171506115 + 0j,
                                 1.4498161484295127e-17 + 0j)


def test_spectrum_past_the_float_range_is_finite():
    # disc = 4.4e400: the pair comes from the block scaled by a power of
    # two, within a few ulp of the 40-digit eigenvalues, and the node is
    # a node (once NaN eigenvalues and 'other')
    block = PlanarLinearSystem.from_entries(-3e200, 1e200, 1e199, -1e200)
    assert (block.spectral_type, block.branch) == ("real_stable", "real")
    want = (-3.0488088481701515e200, -9.5119115182984842e199)
    for got, ref in zip(block.eigenvalues, want):
        assert got.imag == 0.0 and abs(got.real - ref) <= 4 * math.ulp(ref)
    assert math.isfinite(block.w) and block.a == -2e200
    # a triangular block past it keeps its diagonal, exactly
    tri = PlanarLinearSystem.from_entries(-1e200, 0.0, 1e300, -3e200)
    assert tri.spectral_type == "real_stable"
    assert tri.eigenvalues == (-3e200 + 0j, -1e200 + 0j)
    # a nilpotent block whose disc is 0 but whose 2 a12 a21 overflows:
    # eigenvalues 0, 0 (once +-inf, then an OverflowError)
    nil = PlanarLinearSystem.from_entries(1e200, 1e200, -1e200, -1e200)
    assert (nil.spectral_type, nil.branch) == ("other", "repeated")
    assert nil.eigenvalues == (0j, 0j)


def test_eigenvalue_past_the_float_range_keeps_the_exact_kind():
    # the fast eigenvalue -2.5e308 overflows: it reads -inf, the slow one
    # is still det over it in exact arithmetic, and the kind is the exact
    # one (once an OverflowError from the quotient)
    entries = (-1.5e308, 1e308, 1e308, -1.5e308)
    block = PlanarLinearSystem.from_entries(*entries)
    assert (block.spectral_type, 1) == stability(*entries)
    lo, hi = (e.real for e in block.eigenvalues)
    assert lo == -math.inf and abs(hi + 5e307) <= 4 * math.ulp(5e307)


def _is_normal(x):
    return x == 0.0 or 2.0 ** -1022 <= abs(x) < math.inf


def _spectrum_numbers(block):
    return [block.a, block.w] + [p for e in block.eigenvalues
                                 for p in (e.real, e.imag)]


def test_spectrum_commutes_with_power_of_two_scaling():
    # the blocks of the benchmark's seed-1 draw and of examples 1-3, scaled
    # by 2^k: wherever the entries and the numbers stay normal, 2^k A has
    # A's kind and branch and exactly 2^k times its a, w and eigenvalues
    # (63,863 of the 243,243 scaled blocks differed when A's own forms
    # were read first and a power of two only where they overflowed)
    keys = ("b11", "b12", "b21", "b22")
    blocks = [tuple(v[k] for k in keys) for v in bench_sets(1, 3000)]
    blocks += [tuple(getattr(example_params(n), k) for k in keys)
               for n in (1, 2, 3)]
    compared = 0
    with Budget("spectrum under 2^k scaling", 20.0):
        for entries in blocks:
            block = PlanarLinearSystem.from_entries(*entries)
            numbers = _spectrum_numbers(block)
            for k in range(-1000, 1001, 25):
                scaled = [math.ldexp(x, k) for x in entries]
                want = [math.ldexp(x, k) for x in numbers]
                if not all(map(_is_normal, scaled + want)):
                    continue
                got = PlanarLinearSystem.from_entries(*scaled)
                assert (got.spectral_type, got.branch) == (
                    block.spectral_type, block.branch), (entries, k)
                assert _spectrum_numbers(got) == want, (entries, k)
                compared += 1
    assert compared > 200_000, compared


def _extreme_blocks(n):
    """n draws of ``random.Random(12)`` over six families of blocks at the
    ends of the float range (those with an entry past it dropped): a
    common scale 2^k, k in [-1070, 1020]; independent entries
    +/-10^U(-320, 307); the same, triangular; a diagonal ratio up to
    1e300; an off-diagonal ratio up to 1e300 at a fixed product; and
    stable foci scaled by 2^k, k in [-1000, 1000]."""
    rng = random.Random(12)

    def sign():
        return rng.choice((-1.0, 1.0))

    for i in range(n):
        family = i % 6
        if family == 0:
            k = rng.randint(-1070, 1020)
            entries = [math.ldexp(rng.uniform(-2.0, 2.0), k) for _ in range(4)]
        elif family in (1, 2):
            entries = [sign() * 10.0 ** rng.uniform(-320.0, 307.0)
                       for _ in range(4)]
            if family == 2:
                entries[rng.choice((1, 2))] = 0.0
        elif family in (3, 4):
            s = 10.0 ** rng.uniform(-150.0, 150.0)
            entries = [sign() * s * rng.uniform(0.1, 1.0) for _ in range(4)]
            if family == 3:
                entries[rng.choice((0, 3))] *= 10.0 ** (
                    sign() * rng.uniform(100.0, 300.0))
            else:
                r = 10.0 ** rng.uniform(-300.0, 300.0)
                entries[1] *= r
                entries[2] /= r
        else:
            alpha, beta = -rng.uniform(0.01, 1.0), rng.uniform(0.01, 10.0)
            delta = rng.uniform(-0.5, 0.5) * beta
            a12 = sign() * beta * 10.0 ** rng.uniform(-3.0, 3.0)
            k = rng.randint(-1000, 1000)
            entries = [math.ldexp(x, k) for x in (
                alpha + delta, a12, -(beta * beta + delta * delta) / a12,
                alpha - delta)]
        if all(map(math.isfinite, entries)):
            yield tuple(entries)


def test_spectrum_matches_the_60_digit_reference_on_extreme_blocks():
    # the kind is exact, and each part of each eigenvalue is within 1e-12
    # of the 60-digit reference, or within 2^-1074 of it: below 2^-1022 a
    # float holds few digits.  The first 12,000 of the battery's 60,000
    # draws, for time (all of them take about 16 s).  Of all 57,959 finite
    # draws, 5,106 pairs were off by more when A's own forms were read
    # first; one is now, draw 21,870, whose small root is off 1.1e-12:
    # there det's float cancels 7,758-fold but decides its sign, and the
    # root b11 + s keeps only the digits the cancellation leaves
    tiny = 2.0 ** -1074
    with Budget("spectrum against the 60-digit reference", 20.0):
        for entries in _extreme_blocks(12_000):
            block = PlanarLinearSystem.from_entries(*entries)
            kind, pair = spectrum(*entries)
            assert block.spectral_type == kind, entries
            for got, ref in zip(block.eigenvalues, pair):
                for g, r in ((got.real, ref.real), (got.imag, ref.imag)):
                    if abs(r) >= 2 ** 1024 - 2 ** 970:  # its float is inf
                        assert g == math.copysign(math.inf, r), entries
                    else:
                        assert abs(g - r) <= max(1e-12 * abs(r), tiny), (
                            entries, got, ref)


@pytest.mark.parametrize("entries, kind, eigenvalues", [
    # example 2's focus at 1e-200: its products underflow, and its
    # imaginary part once read 1.1e-162, the root of the least subnormal
    ((-5e-201, 4e-200, -4e-200, -5e-201), "complex_stable",
     (-5e-201 + 4e-200j, -5e-201 - 4e-200j)),
    # a node at 1e-200 (once -2e-200 and -7.5e-201, its diagonal)
    ((-2e-200, 1e-200, 0.5e-200, -1e-200), "real_stable",
     (-2.3660254037844386e-200 + 0j, -6.3397459621556136e-201 + 0j)),
    # a focus whose imaginary part is 2^996 below its real part: its disc
    # is subnormal on B, and read from 2^2000 times the exact one
    ((-1.0, 1e-300, -1e-300, -1.0), "complex_stable",
     (-1 + 1e-300j, -1 - 1e-300j)),
    ((-1e300, 1e-10, -1e-10, -1e300), "complex_stable",
     (-1e300 + 1e-10j, -1e300 - 1e-10j)),
    # tr read on A, not on B, where the diagonal underflows
    ((-1e-300, 1e300, 0.0, -1e-300), "real_stable",
     (-1e-300 + 0j, -1e-300 + 0j)),
    # a triangular block's small eigenvalue is its diagonal entry, det
    # over the other in A's units (not a quotient on B scaled back)
    ((-7.6e-284, 5.0, 0.0, -1.8e107), "real_stable",
     (-1.8e107 + 0j, -7.6e-284 + 0j)),
    # a read on A, where the diagonal lies 1e400 below the off-diagonal
    ((-1e-200, 1e200, -1e200, -1e-200), "complex_stable",
     (-1e-200 + 1e200j, -1e-200 - 1e200j)),
    # a planar saddle whose (4 a12) a21 overflowed to -inf while
    # |a12 a21| = 3.7e45 did not: the rounded disc read -inf, decided, and
    # the block was a stable focus
    ((-6.885860261849214e+22, 6.583596773858469e+307,
      -5.597063934658088e-263, 6.884322888549574e+22), "other",
     (-3.249718353170847e+22 + 0j, 3.248180979871207e+22 + 0j)),
], ids=["tiny_focus", "tiny_node", "flat_focus", "huge_flat_focus",
        "underflowing_diagonal", "far_triangular", "far_diagonal",
        "overflowing_product"])
def test_spectrum_of_blocks_whose_products_leave_the_float_range(
        entries, kind, eigenvalues):
    block = PlanarLinearSystem.from_entries(*entries)
    assert (block.spectral_type, block.eigenvalues) == (kind, eigenvalues)
    assert stability(*entries)[0] == kind


def test_l1_guard_and_l2_offset_read_h3_exact_signs(ex1, ex2):
    # fl(sqrt(2))^2 > 2: h3 and L1's guard read d > sqrt(rho) alike
    d = 1.4142135623730951
    assert d == math.sqrt(2.0) and clearance(d, 2.0) > 0.0
    p = dataclasses.replace(ex1, rho=2.0, d=d, q1=d, q3=0.5)
    assert validate_hypotheses(p).h3_holds
    assert analyze_vdp_line(p.rho, p.omega, p.d).regime == "subcritical"
    assert clearance(1.0, 1.0) == 0.0 and clearance(2.0, 4.0) == 0.0
    # d - q3 - q1 rounds to 0.0; exactly it is -5e-9, the sign h3 gave
    # q1 + q3 - d
    p = dataclasses.replace(ex2, rho=9999999980000002.0, d=1e8, q1=1e8,
                            q3=5e-9, q2=0.0)
    assert validate_hypotheses(p).h3_holds
    assert l2_offset(p) == -5e-9


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
    v = certify(p)
    assert v.theorem == "none" and v.cycle_count == 0


def test_zero_eigenvalue_is_neither_node_nor_focus(ex1):
    # eigenvalues -1 and 0: h1 needs both strictly negative
    p = dataclasses.replace(ex1, b11=-1.0, b12=1.0, b21=0.0, b22=0.0)
    rep = validate_hypotheses(p)
    assert rep.block.eigenvalues == (-1.0, 0.0)
    assert rep.block.spectral_type == "other"
    assert not rep.h1_holds and not rep.h2_holds
    assert certify(p).theorem == "none"


def test_centre_is_neither_node_nor_focus(ex1):
    # eigenvalues +-i: h2 needs a strictly negative real part
    p = dataclasses.replace(ex1, b11=0.0, b12=1.0, b21=-1.0, b22=0.0)
    rep = validate_hypotheses(p)
    assert (rep.block.branch, rep.block.a) == ("complex", 0.0)
    assert rep.block.spectral_type == "other"
    assert not rep.h1_holds and not rep.h2_holds
    assert certify(p).theorem == "none"


def test_h3_fails_when_d_squared_equals_rho(ex1):
    # rho = 4, d = 2: d^2 - rho is 0 exactly, so d > sqrt(rho) fails
    p = dataclasses.replace(ex1, rho=4.0, d=2.0, q1=2.0, q3=1.0)
    rep = validate_hypotheses(p)
    by_name = {c.name: c for c in rep.h3_details}
    assert not rep.h3_holds
    assert [c.name for c in rep.h3_details if not c.passed] == [
        "sqrt_rho_lt_d"]
    assert by_name["sqrt_rho_lt_d"].margin == 0.0


def test_h3_reads_d_past_sqrt_rho_exactly(ex1):
    # d = fl(sqrt(2)), rho = 2: fl(sqrt(2))^2 = 2 + 4.4e-16 > 2 exactly,
    # so d > sqrt(rho) holds, though the margin d - fl(sqrt(rho)) is 0.0
    d = math.sqrt(2.0)
    assert Fraction(d) ** 2 > 2
    p = dataclasses.replace(ex1, rho=2.0, d=d, q1=d, q3=1.0)
    rep = validate_hypotheses(p)
    by_name = {c.name: c for c in rep.h3_details}
    assert rep.h3_holds
    assert by_name["sqrt_rho_lt_d"].passed
    assert by_name["sqrt_rho_lt_d"].margin == 0.0


def test_h3_fails_when_q1_plus_q3_equals_d(ex1):
    # q3 = 0 puts q1 + q3 on d exactly: the strict sub-check fails at 0.0
    rep = validate_hypotheses(dataclasses.replace(ex1, q3=0.0))
    by_name = {c.name: c for c in rep.h3_details}
    assert not rep.h3_holds
    assert not by_name["cq_gt_d"].passed and by_name["cq_gt_d"].margin == 0.0


@pytest.mark.parametrize("offset, passed", [(3e-9, True), (5e-9, False)])
def test_q1_eq_d_band_scales_with_d(ex1, offset, passed):
    # at d = 4 the band is tol |d| = 4e-9, not tol
    p = dataclasses.replace(ex1, rho=1.0, d=4.0, q1=4.0 + offset, q3=3.5)
    rep = validate_hypotheses(p, 1e-9)
    (check,) = [c for c in rep.h3_details if c.name == "q1_eq_d"]
    assert check.passed is passed and rep.h3_holds is passed


def test_geometry_example1(ex1):
    _, sigma_plus, _ = tangency_ordinates(ex1.rho, ex1.omega, ex1.d)
    assert sigma_plus == pytest.approx(-0.05314, abs=1e-4)
    a = analyze_vdp_line(ex1.rho, ex1.omega, ex1.d)
    assert (a.k, a.varrho_plus) == (ex1.d, sigma_plus)
    np.testing.assert_allclose(certify(ex1).q0, [1.2, 0.0, 0.0], atol=1e-14)
    # q3 sits on the bottom rim, not inside: p0 is the only point
    ((label, p0),) = rim_subcase(ex1)[3]
    assert label == "p0"
    np.testing.assert_allclose(p0, [1.0, 0.0, 0.2], atol=1e-14)


def test_geometry_example3_x_minus(ex3):
    np.testing.assert_allclose(certify(ex3).window[0], [0.0, -1.1667, 2.0],
                               atol=1e-3)
    # no real tangency ordinates in the strong-contraction regime
    assert tangency_ordinates(ex3.rho, ex3.omega, ex3.d)[1:] == (None, None)
    points = dict(rim_subcase(ex3)[3])
    np.testing.assert_allclose(points["p_plus"], [0.0, 1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(points["p_minus"], [0.0, -1.0, 2.0],
                               atol=1e-12)


def _plane_points(p):
    """Every switching-plane point of ``p`` with a closed formula: the rim
    points of q3 at p.q3, at the bottom rim and at the top rim, q0, the L1
    tangency point (d, sigma_plus, 0) and the L2 tangency point x_minus."""
    sr = p.sqrt_rho
    pts = [x for q3 in (p.q3, p.d - sr, p.d + sr)
           for _, x in rim_subcase(dataclasses.replace(p, q3=q3))[3]]
    pts.append((p.d, p.q2, 0.0))
    sigma_plus = tangency_ordinates(p.rho, p.omega, p.d)[1]
    if sigma_plus is not None:
        pts.append((p.d, sigma_plus, 0.0))
    if p.b12 != 0.0:
        y = window_tangency(p.b11, p.b12, l2_offset(p))
        pts.append((p.d - p.q3, y + p.q2, p.q3))
    return pts


def test_geometry_points_on_plane(ex1, ex2, ex3):
    for p in (ex1, ex2, ex3):
        assert certify(p).q0 == (p.d, p.q2, 0.0)
        for x in _plane_points(p):
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
        for x in _plane_points(p):
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
        _, sigma_plus, sigma_minus = tangency_ordinates(rho, omega, d)
        prod = sigma_plus * sigma_minus
        tot = sigma_plus + sigma_minus
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


def test_double_tangency_has_one_ordinate():
    # rho = 0.75, omega = k = 1: disc = 1 - 4 (1 - 0.75) is 0 exactly, so
    # both roots are -omega / (2k) = -0.5, and the line is supercritical
    assert tangency_ordinates(0.75, 1.0, 1.0) == (0.0, -0.5, -0.5)
    assert analyze_vdp_line(0.75, 1.0, 1.0).regime == "supercritical"


def test_x_minus_reproduces_formula(ex2):
    x = certify(ex2).window[0]
    assert abs(x[0] + x[2] - ex2.d) <= 1e-12
    # direct re-evaluation of the defining formula with the full matrix
    b = np.array([[ex2.b11, ex2.b12, 0], [ex2.b21, ex2.b22, 0], [0, 0, ex2.lam]])
    w = np.linalg.solve(b, np.array([0.0, 1.0, 0.0]))
    s = (ex2.d - (ex2.q1 + ex2.q3)) / (w[0] + w[2])
    np.testing.assert_allclose(x, ex2.q + s * w, rtol=1e-12)


def test_p_pm_on_cylinder(ex3):
    subcase, _, _, points = rim_subcase(ex3)
    assert subcase == "c"
    for _, x in points:
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


#: Guards on a caller's arguments, one call each, with the error it raises
#: and the start of its message.
_BAD_ARGUMENTS = {
    "rk45-empty-span": (
        lambda p: rk45(lambda x: x, (1.0, 0.0, 0.0), 1.0, 1.0),
        ValueError, "rk45 requires t1 > t0"),
    "numeric_flow-side": (
        lambda p: numeric_flow((1.0, 0.0, 0.0), 1.0, "up", p),
        ValueError, "side must be 'left' or 'right', got 'up'"),
    "params_from_dict-extra-key": (
        lambda p: params_from_dict({**params_to_dict(p), "nope": 3.0}),
        ConfigError, "unknown keys: nope"),
    "analyze_vdp_line-rho": (
        lambda p: analyze_vdp_line(0.0, 1.0, 2.0),
        ValueError, "rho and omega must be positive"),
    "example_params-4": (
        lambda p: example_params(4),
        ValueError, "no built-in example 4"),
    # eigenvalues 0 and -1: no horizon contracts the zero mode
    "default_horizons-zero-rate": (
        lambda p: default_horizons(dataclasses.replace(p, b11=0.0)),
        HypothesisFailure, "right planar block has a non-contracting mode"),
}


@pytest.mark.parametrize("call, error, message", _BAD_ARGUMENTS.values(),
                         ids=_BAD_ARGUMENTS)
def test_bad_argument_is_refused(ex1, call, error, message):
    with pytest.raises(error) as info:
        call(ex1)
    assert type(info.value) is error
    assert str(info.value).startswith(message)
