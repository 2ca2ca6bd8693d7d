"""Typed exits with shrinking: hypothesis draws admissible parameter sets
whose rates, block rates and shears span 1e-150 to 1e150, far past the
decades of ``helpers.wide_sets``, and shrinks any failing set to a minimal
one.  Runs are deterministic (``derandomize``, no example database)."""

import json
import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import WIDE_DECADES_SET, Budget

from hetcycle import errors
from hetcycle.cli import main
from hetcycle.model import SystemParams, params_to_dict, validate_hypotheses
from hetcycle.verifier import CycleVerdict, certify

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
    @example(WIDE_DECADES_SET)  # past the draws' decades
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
