"""Typed exits with shrinking: hypothesis draws admissible parameter sets
whose rates, block rates and shears span 1e-150 to 1e150, far past the
decades of ``helpers.wide_sets``, and shrinks any failing set to a minimal
one.  Runs are deterministic (``derandomize``, no example database)."""

import json
import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import WIDE_DECADES_MIRROR, WIDE_DECADES_SET, Budget
from rigorous import node_margin, spectrum_branch, strict_signs

from hetcycle import errors
from hetcycle.cli import main
from hetcycle.model import (SystemParams, params_to_dict, rim_subcase,
                            tangency_ordinates, validate_hypotheses)
from hetcycle.verifier import CycleVerdict, certify, cone_condition

#: Decades either side of 1 that each rate, block rate and shear spans.
DECADES = 150.0

_MAGNITUDE = st.floats(-DECADES, DECADES).map(lambda e: 10.0 ** e)
_SIGN = st.sampled_from((1.0, -1.0))


@st.composite
def admissible_sets(draw):
    """A ``SystemParams`` with h3 true by construction: q1 = d, d past
    sqrt(rho), q3 on a rim, between the rims or above them; a node block
    (-l1, -l2, coupled one way or both ways, det > 0 and disc >= 0) or a
    focus block (alpha +/- i beta, sheared by s)."""
    rho, omega, mu, lam = (draw(_MAGNITUDE) for _ in range(4))
    sr = math.sqrt(rho)
    d = sr * draw(st.floats(1.001, 10.0))
    if draw(st.booleans()):
        alpha, beta = -draw(_MAGNITUDE), draw(_MAGNITUDE)
        s = draw(_MAGNITUDE) * draw(_SIGN)
        block = (alpha, beta * s, -beta / s, alpha)
    else:
        l1, l2 = draw(_MAGNITUDE), draw(_MAGNITUDE)
        b12 = draw(_MAGNITUDE) * draw(_SIGN)
        b21 = l1 * l2 / b12 * draw(st.floats(0.0, 0.9))
        assume(math.isfinite(b21))
        block = (-l1, b12, b21, -l2)
    lo, hi = d - sr, d + sr
    q3 = draw(st.one_of(
        st.just(lo), st.just(hi), st.floats(lo, hi),
        st.floats(1.001, 10.0).map(lambda f: d + sr * f)))
    q2 = sr * draw(st.floats(-5.0, 5.0))
    return SystemParams(rho, omega, mu, *block, lam, d, q2, q3, d)


def _deterministic(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


def test_certify_answers_every_admissible_set():
    # a verdict, or a refusal typed as a HetcycleError: never a raw
    # exception or a warning
    @_deterministic(300)
    @given(admissible_sets())
    def answers(p):
        assert validate_hypotheses(p).h3_holds, p
        try:
            verdict = certify(p)
        except errors.HetcycleError:
            return
        assert isinstance(verdict, CycleVerdict)

    with Budget("property: certify answers", 20.0):
        answers()


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def test_strict_entries_agree_with_the_exact_reference():
    # every strict algebraic entry, in every verdict and also where a
    # later entry refuses, decides as rigorous.py's own Fraction decision
    # of it; each signed value has the sign of its passed
    @_deterministic(1000)
    @given(admissible_sets())
    def agrees(p):
        ref = strict_signs(p)
        report = validate_hypotheses(p)
        assert report.block.branch == spectrum_branch(
            p.b11, p.b12, p.b21, p.b22), p
        h3 = {c.name: c for c in report.h3_details}
        for name in ("sqrt_rho_lt_d", "cq_gt_d"):
            assert h3[name].passed == (getattr(ref, name) > 0), (name, p)
        assert h3["cq_gt_d"].passed == (h3["cq_gt_d"].margin > 0.0), p
        assert _sign(tangency_ordinates(p.rho, p.omega, p.d)[0]) == (
            ref.regime), p
        assert cone_condition(p).passed == (ref.cone > 0), p
        try:
            verdict = certify(p)
        except errors.HetcycleError:
            return
        assert verdict.regime == ("case_ii" if ref.regime > 0 else "case_i")
        evidence = {e.name: e for e in verdict.evidence}
        if "cone" in evidence:
            assert evidence["cone"].passed == (ref.cone > 0), p
        for label, point in rim_subcase(p)[3]:
            e = evidence.get(f"halfplane_{label}")
            if e is not None:
                exact = node_margin(p, point[1])
                assert e.passed == (exact >= 0) == (e.value >= 0.0), p
                assert _sign(e.value) == _sign(exact), p

    with Budget("property: strict entries are exact", 20.0):
        agrees()


def test_check_exits_typed_on_every_admissible_set(tmp_path, capsys):
    # exit 0 or 2 with stderr empty, or exit 1 with exactly one JSON
    # object naming a HetcycleError
    path, out = tmp_path / "set.cfg", str(tmp_path / "r.json")

    @_deterministic(100)
    @given(admissible_sets())
    def exits_typed(p):
        path.write_text("".join(f"{k} = {v!r}\n"
                                for k, v in params_to_dict(p).items()))
        code = main(["check", str(path), "--out", out])
        err = capsys.readouterr().err
        if code == 1:
            failure = json.loads(err)
            assert set(failure) == {"error", "message"}, p
            assert issubclass(getattr(errors, failure["error"]),
                              errors.HetcycleError), p
        else:
            assert code in (0, 2) and err == "", p

    with Budget("property: check exits typed", 20.0):
        exits_typed()


def test_check_certify_exits_typed_on_every_admissible_set(tmp_path, capsys):
    # as check does, with the certificates built and their segment CSVs
    # written: exit 0 or 2 with stderr empty, or exit 1 with exactly one
    # JSON object naming a HetcycleError
    path, out = tmp_path / "set.cfg", str(tmp_path / "r.json")
    csv_dir = str(tmp_path / "csv")

    @_deterministic(100)
    @given(admissible_sets())
    @example(WIDE_DECADES_SET)  # past the draws' decades: exit 2
    @example(WIDE_DECADES_MIRROR)  # and exit 1, a typed refusal
    def certifies_typed(p):
        path.write_text("".join(f"{k} = {v!r}\n"
                                for k, v in params_to_dict(p).items()))
        code = main(["check", str(path), "--certify", "--out", out,
                     "--csv-dir", csv_dir])
        err = capsys.readouterr().err
        if code == 1:
            failure = json.loads(err)
            assert set(failure) == {"error", "message"}, p
            assert issubclass(getattr(errors, failure["error"]),
                              errors.HetcycleError), p
        else:
            assert code in (0, 2) and err == "", p

    with Budget("property: check --certify exits typed", 20.0):
        certifies_typed()
