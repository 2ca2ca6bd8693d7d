import csv
import math

import numpy as np
import pytest

from helpers import rim_sets

from hetcycle import orbits
from hetcycle.errors import CertificateFailure, ConfigError, HypothesisFailure
from hetcycle.flows import left_flow, right_flow
from hetcycle.orbits import (
    CSV_CHUNK_ROWS,
    CSV_HEADER,
    _cycle_distance,
    assemble_cycle,
    build_gamma1,
    build_gamma_up,
    default_horizons,
    write_csv,
    write_segments_csv,
    write_segments_csv_dir,
)
from hetcycle.verifier import certify


@pytest.fixture(scope="module")
def verdicts(ex1, ex2, ex3):
    return {1: certify(ex1), 2: certify(ex2), 3: certify(ex3)}


def test_gamma1_backward_is_straight_segment(ex1, verdicts):
    back, _ = build_gamma1(ex1, verdicts[1])
    # the backward piece runs along the unstable line of q: all samples
    # collinear with q and q0
    assert np.abs(back.xs[:, 0] - ex1.q1).max() <= 1e-10
    assert np.abs(back.xs[:, 1] - ex1.q2).max() <= 1e-10
    assert back.xs[:, 2].min() >= -1e-12 and back.xs[:, 2].max() <= ex1.q3


def test_gamma1_endpoint_residuals(ex1, verdicts):
    back, fwd = build_gamma1(ex1, verdicts[1])
    assert np.linalg.norm(back.xs[0] - ex1.q) <= 1e-6
    assert _cycle_distance(ex1, fwd.xs[-1]) <= 1e-3


def test_gamma1_forward_residual_at_12_over_rho(ex1, verdicts):
    _, fwd = build_gamma1(ex1, verdicts[1], t_fwd=12.0 / ex1.rho)
    assert _cycle_distance(ex1, fwd.xs[-1]) <= 1e-3


def test_gamma1_forward_containment(ex1, verdicts):
    _, fwd = build_gamma1(ex1, verdicts[1])
    assert np.max(fwd.xs[:, 0] + fwd.xs[:, 2] - ex1.d) <= 1e-9


def test_gamma1_requires_certified_verdict(ex1):
    from dataclasses import replace

    bad = certify(replace(ex1, q3=3.0))
    with pytest.raises(HypothesisFailure):
        build_gamma1(ex1, bad)


def test_gamma_up_forward_containment_and_vertical_law(ex1, verdicts):
    p0 = verdicts[1].connecting_points[0]
    back, fwd = build_gamma_up(ex1, verdicts[1], p0)
    assert np.min(fwd.xs[1:, 0] + fwd.xs[1:, 2] - ex1.d) > -1e-9
    # backward vertical coordinate follows (d - sqrt(rho)) e^{mu t} exactly
    expected = (ex1.d - math.sqrt(ex1.rho)) * np.exp(ex1.mu * back.ts)
    assert np.abs(back.xs[:, 2] - expected).max() <= 1e-12


def test_gamma_up_cylinder_invariance(ex2, verdicts):
    p1 = verdicts[2].connecting_points[0]
    back, _ = build_gamma_up(ex2, verdicts[2], p1)
    dev = np.abs(back.xs[:, 0] ** 2 + back.xs[:, 1] ** 2 - ex2.rho)
    assert dev.max() <= 1e-6 * ex2.rho


def test_assemble_counts(ex1, ex2, ex3, verdicts):
    assert len(assemble_cycle(ex1, verdicts[1])) == 1
    assert len(assemble_cycle(ex2, verdicts[2])) == 1
    certs3 = assemble_cycle(ex3, verdicts[3])
    assert len(certs3) == 2
    # distinct connection points give distinct cylinder segments
    a = certs3[0].orbit_segments[2].xs
    b = certs3[1].orbit_segments[2].xs
    assert np.abs(a[-1] - b[-1]).max() > 0.5


def test_assemble_empty_for_failed_verdict(ex1):
    from dataclasses import replace

    bad = certify(replace(ex1, q3=3.0))
    assert assemble_cycle(ex1, bad) == []


def test_certificate_margins_and_residuals(ex1, ex2, ex3, verdicts):
    for n, p in ((1, ex1), (2, ex2), (3, ex3)):
        for cert in assemble_cycle(p, verdicts[n]):
            assert cert.containment_ok
            for seg in cert.orbit_segments:
                if seg.requirement.endswith("strict"):
                    assert seg.containment_margin > 0.0
                else:
                    assert seg.containment_margin >= -1e-9
            for name, r in cert.endpoint_residuals.items():
                assert r <= 1e-3, (n, name, r)


def test_gamma1_forward_starts_on_the_plane(ex1, ex2, ex3, verdicts):
    # the forward piece starts at q0, on the switching plane: its first
    # sample is q0 bit for bit, so its closed margin is 0 (a start rebuilt
    # from its radius and angle read -2.2e-16 on example 2)
    for n, p in ((1, ex1), (2, ex2), (3, ex3)):
        _, fwd = build_gamma1(p, verdicts[n])
        assert tuple(fwd.xs[0]) == tuple(verdicts[n].q0)
        assert fwd.containment_margin == 0.0


def test_strict_margin_at_zero_is_not_ok(ex1, verdicts, monkeypatch):
    # a strict margin of -1e-12 is within TOL_CONTAINMENT, so the segment
    # is built, but a strict containment it does not prove
    margin = orbits._margin

    def dipped(params, ts, xs, requirement, flow, x0):
        if requirement == "minus_strict":
            return -1e-12
        return margin(params, ts, xs, requirement, flow, x0)

    monkeypatch.setattr(orbits, "_margin", dipped)
    (cert,) = assemble_cycle(ex1, verdicts[1])
    assert [s.containment_margin for s in cert.orbit_segments
            if s.requirement == "minus_strict"] == [-1e-12]
    assert cert.containment_ok is False


def test_endpoint_residuals_are_plain_floats(ex1, ex2, ex3, verdicts):
    # reports serialize these without conversion, so no numpy scalar
    for n, p in ((1, ex1), (2, ex2), (3, ex3)):
        for cert in assemble_cycle(p, verdicts[n]):
            for name, r in cert.endpoint_residuals.items():
                assert type(r) is float, (n, name, type(r))


def test_sampling_contract(ex2, verdicts):
    for cert in assemble_cycle(ex2, verdicts[2]):
        for seg in cert.orbit_segments:
            assert np.all(np.diff(seg.ts) > 0)
            gaps = np.linalg.norm(np.diff(seg.xs, axis=0), axis=1)
            assert gaps.max() <= 0.05 + 1e-12


def test_certificate_failure_for_wrong_point(ex1, verdicts):
    # a cylinder point away from the stable plane of q is carried across
    # the plane by the forward right flow: containment must fail loudly
    wrong = np.array([-1.0, 0.0, 0.2])
    with pytest.raises(CertificateFailure):
        build_gamma_up(ex1, verdicts[1], wrong)


def test_default_horizons_positive(ex1, ex2, ex3):
    for p in (ex1, ex2, ex3):
        for v in default_horizons(p).values():
            assert v > 0


def test_horizon_overrides(ex1, verdicts):
    back, fwd = build_gamma1(ex1, verdicts[1], t_back=1.5, t_fwd=2.5)
    assert back.ts[0] == pytest.approx(-1.5) and back.ts[-1] == 0.0
    assert fwd.ts[0] == 0.0 and fwd.ts[-1] == pytest.approx(2.5)
    certs = assemble_cycle(ex1, verdicts[1], t_back=1.5, t_fwd=6.0)
    for cert in certs:
        assert cert.horizons["gamma1_back"] == 1.5
        assert cert.horizons["gamma_up_fwd"] == 6.0


@pytest.mark.parametrize("value", [math.inf, 0.0, math.nan, -1.0])
def test_horizon_overrides_must_be_positive_and_finite(ex3, verdicts, value):
    v = verdicts[3]
    calls = (lambda **kw: assemble_cycle(ex3, v, **kw),
             lambda **kw: build_gamma1(ex3, v, **kw),
             lambda **kw: build_gamma_up(ex3, v, v.connecting_points[0], **kw))
    for call in calls:
        for name in ("t_back", "t_fwd"):
            with pytest.raises(ConfigError, match=f"horizon {name} must be "
                               "a positive finite time"):
                call(**{name: value})


# Closed-form flow calls of assemble_cycle per example (left, right): one
# call per sample, refinement and tangency samples included.
ORBIT_FLOW_CALLS = {1: (4585, 386), 2: (7943, 5770), 3: (3342, 2973)}


def test_assemble_cycle_flow_call_counts(ex1, ex2, ex3, verdicts,
                                         monkeypatch):
    calls = {"left": 0, "right": 0}

    def counted(side, flow):
        def wrapper(x0, t, params):
            calls[side] += 1
            return flow(x0, t, params)
        return wrapper

    monkeypatch.setattr(orbits, "left_flow",
                        counted("left", orbits.left_flow))
    monkeypatch.setattr(orbits, "right_flow",
                        counted("right", orbits.right_flow))
    for n, params in ((1, ex1), (2, ex2), (3, ex3)):
        calls.update(left=0, right=0)
        assemble_cycle(params, verdicts[n])
        assert (calls["left"], calls["right"]) == ORBIT_FLOW_CALLS[n]


def _rows_are_flow_values(seg, x0, params) -> bool:
    """Whether each row of ``seg`` is flow(x0, t, params) at its t, bit for
    bit, the flow being the closed form of the segment's side."""
    flow = right_flow if seg.side == "right" else left_flow
    want = np.array([flow(x0, t, params) for t in seg.ts.tolist()])
    return seg.xs.tobytes() == want.tobytes()


def test_segment_rows_are_the_flow_values(ex1, ex2, ex3, verdicts):
    # each segment's rows are the closed form at its times; the starts are
    # those build_gamma1/build_gamma_up bind
    for n, params in ((1, ex1), (2, ex2), (3, ex3)):
        verdict = verdicts[n]
        for cert, p in zip(assemble_cycle(params, verdict),
                           verdict.connecting_points):
            p = tuple(np.asarray(p, dtype=float).tolist())
            starts = ((params.q1, params.q2, 0.0),
                      tuple(np.asarray(verdict.q0, dtype=float).tolist()),
                      p, (p[0], p[1], params.q3))
            for seg, x0 in zip(cert.orbit_segments, starts):
                assert _rows_are_flow_values(seg, x0, params), (n, seg.role)
    # a forward segment of 12,441 samples, a long one
    _, fwd = build_gamma1(ex1, verdicts[1], t_fwd=60.0)
    q0 = tuple(np.asarray(verdicts[1].q0, dtype=float).tolist())
    assert len(fwd.ts) == 12441
    assert _rows_are_flow_values(fwd, q0, ex1)


def test_tangency_rescan_calls_the_flow_once_per_fine_time(ex1):
    # the forward segment from a cylinder point off the stable plane of q
    # (test_certificate_failure_for_wrong_point) crosses the plane: its
    # coarse strict margin is <= 0, so _margin re-evaluates the flow on a
    # 33-point grid spanning the worst sample's neighbours, t = 0 excluded
    x0 = (-1.0, 0.0, ex1.q3)
    t1 = default_horizons(ex1)["gamma_up_fwd"]
    ts, xs = orbits._sample_times(right_flow, x0, ex1, 0.0, t1, 257, "test")
    kept = ts != 0.0
    vals = (xs[:, 0] + xs[:, 2] - ex1.d)[kept]
    assert vals.min() <= 0.0
    seen = []

    def counted(x, t, params):
        seen.append(t)
        return right_flow(x, t, params)

    margin = orbits._margin(ex1, ts, xs, "plus_strict", counted, x0)
    i = int(vals.argmin())
    kept_ts = ts[kept]
    fine = np.linspace(kept_ts[max(0, i - 1)],
                       kept_ts[min(len(kept_ts) - 1, i + 1)], 33)
    fine = fine[fine != 0.0].tolist()
    assert seen == fine
    fine_vals = [x[0] + x[2] - ex1.d for x in (right_flow(x0, t, ex1)
                                                for t in fine)]
    assert margin == min(float(vals.min()), min(fine_vals))


def test_csv_schema_round_trip(tmp_path, ex1, verdicts):
    certs = assemble_cycle(ex1, verdicts[1])
    segments = list(certs[0].orbit_segments)
    path = tmp_path / "orbits.csv"
    write_segments_csv(segments, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "x2", "x3", "side", "role"]
    n_expected = sum(len(s.ts) for s in segments)
    assert len(rows) - 1 == n_expected
    roles = {r[5] for r in rows[1:]}
    assert roles == {"gamma1_back", "gamma1_fwd", "gamma_up_back",
                     "gamma_up_fwd"}
    # numbers round-trip exactly through repr
    t0, x1 = float(rows[1][0]), float(rows[1][1])
    assert t0 == segments[0].ts[0] and x1 == segments[0].xs[0][0]

    paths = write_segments_csv_dir(segments, tmp_path / "segs")
    assert len(paths) == 4


def test_example3_certificates_share_gamma1(ex3, verdicts):
    certs = assemble_cycle(ex3, verdicts[3])
    assert certs[0].orbit_segments[0] is certs[1].orbit_segments[0]


def _csv_writer_bytes(path, blocks, header):
    """What ``csv.writer`` writes for the same rows (repr of each number)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for ts, xs, labels in blocks:
            writer.writerows(
                [repr(t), repr(x1), repr(x2), repr(x3), *labels]
                for t, (x1, x2, x3) in zip(np.asarray(ts, dtype=float).tolist(),
                                           np.asarray(xs, dtype=float).tolist()))
    return path.read_bytes()


EDGE_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0, 2.0,
               math.inf, -math.inf, 0.1, 123456789.125, 2.0 ** -1074 * 3)


@pytest.mark.parametrize("header,labels", [
    (CSV_HEADER, [("right", "gamma1_back"), ("left", "gamma1_fwd"),
                  ("left", "gamma_up_back"), ("right", "gamma_up_fwd")]),
    (CSV_HEADER, [("left", "hybrid"), ("right", "hybrid")]),
    (CSV_HEADER[:4] + ("direction",),
     [("left_to_right",), ("right_to_left",), ("graze_left",),
      ("graze_right",)]),
])
def test_write_csv_bytes_match_csv_writer(tmp_path, header, labels):
    rng = np.random.default_rng(7)
    blocks = []
    for i, lab in enumerate(labels):
        n = (0, 1, 5, 40)[i % 4]
        ts = rng.choice(EDGE_VALUES, size=n)
        xs = rng.choice(EDGE_VALUES, size=(n, 3))
        # ndarrays, lists of floats and tuples of numpy scalars alike
        if i % 3 == 1:
            ts, xs = ts.tolist(), xs.tolist()
        elif i % 3 == 2:
            ts = tuple(np.float64(t) for t in ts)
            xs = [tuple(np.float64(v) for v in x) for x in xs]
        blocks.append((ts, xs, lab))
    blocks.append((EDGE_VALUES, [EDGE_VALUES[j:j + 3] for j in range(11)]
                   + [EDGE_VALUES[-3:], EDGE_VALUES[:3]], labels[0]))
    blocks.append(([], [], labels[-1]))
    path = tmp_path / "new.csv"
    write_csv(path, blocks, header=header)
    want = _csv_writer_bytes(tmp_path / "ref.csv", blocks, header)
    assert path.read_bytes() == want


# Columns whose values share one bit pattern are formatted once; 0.0 and
# -0.0 are equal as values but not as patterns.
SPECIAL_COLUMNS = {
    "neg_zero": lambda n: np.full(n, -0.0),
    "mixed_zero": lambda n: np.where(np.arange(n) % 2 == 0, 0.0, -0.0),
    "mixed_zero_neg_first": lambda n: np.where(np.arange(n) % 3 == 0, -0.0,
                                               0.0),
    "nan": lambda n: np.full(n, math.nan),
    "inf": lambda n: np.full(n, -math.inf),
}


@pytest.mark.parametrize("n", [1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
@pytest.mark.parametrize("column", sorted(SPECIAL_COLUMNS))
def test_write_csv_constant_columns_match_csv_writer(tmp_path, column, n):
    special = SPECIAL_COLUMNS[column](n)
    rng = np.random.default_rng(n)
    blocks = []
    for j in range(4):
        # the special column in each position, beside a varying and a
        # constant column
        cols = [rng.uniform(-1.0, 1.0, n), np.full(n, 2.5),
                np.linspace(0.0, 1.0, n), special]
        cols = cols[j:] + cols[:j]
        blocks.append((cols[0], np.column_stack(cols[1:]),
                       ("left", f"block{j}")))
    path = tmp_path / "new.csv"
    write_csv(path, blocks)
    assert path.read_bytes() == _csv_writer_bytes(tmp_path / "ref.csv",
                                                  blocks, CSV_HEADER)


@pytest.mark.parametrize("label", ["a,b", 'say "x"', "a\nb", "a\rb", 3])
def test_write_csv_refuses_labels_csv_would_quote(tmp_path, label):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", [((0.0,), ((1.0, 2.0, 3.0),),
                                        ("left", label))])


def test_write_csv_percent_label(tmp_path):
    blocks = [((0.5,), ((1.0, 2.0, 3.0),), ("left", "100%r"))]
    path = tmp_path / "p.csv"
    write_csv(path, blocks)
    assert path.read_bytes() == _csv_writer_bytes(tmp_path / "ref.csv",
                                                  blocks, CSV_HEADER)


def test_write_csv_refuses_a_block_of_unequal_lengths(tmp_path):
    # 3 times against 2 states: no row is dropped silently
    block = ((0.0, 0.5, 1.0), ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)), ("left",))
    with pytest.raises(ValueError, match="3 times and 2 states"):
        write_csv(tmp_path / "x.csv", [block])


def test_forward_failure_message_has_plain_floats(ex1, verdicts):
    # p starts on the cycle side of the plane, so the forward right-zone
    # segment fails its containment; the message names p as plain floats
    with pytest.raises(CertificateFailure) as info:
        build_gamma_up(ex1, verdicts[1], np.array([-1.0, 0.0, 0.2]))
    msg = str(info.value)
    assert "forward segment from (-1.0, 0.0, 0.2)" in msg
    assert "np.float64" not in msg


# Hole (c): a rim set whose connection point sits a rounding error off the
# cycle.  With 2 rho / mu > 2 the backward horizon ln(1e6) / mu would grow
# that offset past 1e12-fold, to a gamma_up_back_to_cycle of about 5e-3.
HOLE_C = dict(rho=1.681778615395399, omega=6.832316448056439,
              mu=1.4862551450148846, b11=-3.846188764775684,
              b12=-1.069824779259898, b21=0.0, b22=-2.60648400206475,
              lam=3.912252603773707, q1=1.3290438572550978,
              q2=0.5115104807437101, q3=0.03220978329058366,
              d=1.3290438572550978)


def test_backward_cylinder_segment_stays_on_the_cycle():
    from hetcycle.model import SystemParams

    params = SystemParams(**HOLE_C)
    assert 2.0 * params.rho / params.mu > 2.0
    verdict = certify(params)
    assert verdict.certified
    certs = assemble_cycle(params, verdict)
    assert certs
    for cert in certs:
        assert cert.containment_ok
        assert cert.endpoint_residuals["gamma_up_back_to_cycle"] <= 1e-6
        up_back = cert.orbit_segments[2]
        radius = np.hypot(up_back.xs[:, 0], up_back.xs[:, 1])
        assert np.abs(radius - params.sqrt_rho).max() <= 1e-12


def test_certified_verdicts_yield_certificates():
    from hetcycle.errors import HetcycleError

    certified = built = 0
    for params in rim_sets(50, 400):
        try:
            verdict = certify(params)
        except HetcycleError:
            continue
        if not verdict.certified:
            continue
        certified += 1
        try:
            certs = assemble_cycle(params, verdict)
        except HetcycleError:
            continue
        assert certs
        for cert in certs:
            assert cert.containment_ok, params
            assert max(cert.endpoint_residuals.values()) <= 1e-3, params
        built += 1
    # typed errors are allowed, but they must stay rare
    assert certified >= 50 and built >= 0.95 * certified


def test_slow_vertical_rate_certified_sets_build():
    # gamma1's backward horizon is log(1e6) / lambda; for a slow vertical
    # rate it takes e^{Bt} past the float range, which the start on the
    # unstable line of q (planar offset 0) must never evaluate
    from dataclasses import replace

    rng = np.random.default_rng(7)
    certified = 0
    for params in rim_sets(52, 120):
        params = replace(params, lam=10.0 ** rng.uniform(-4.0, -1.0))
        verdict = certify(params)
        if not verdict.certified:
            continue
        certified += 1
        certs = assemble_cycle(params, verdict)
        assert certs and all(c.containment_ok for c in certs), params
    assert certified >= 15


def test_horizons_resolved_once_per_cycle(ex1, ex3, verdicts, monkeypatch):
    # assemble_cycle computes the default horizons once and hands them on;
    # with both overrides given they are not computed at all
    calls = []
    defaults = orbits.default_horizons

    def counted(params):
        calls.append(params)
        return defaults(params)

    monkeypatch.setattr(orbits, "default_horizons", counted)
    certs = assemble_cycle(ex3, verdicts[3])
    assert len(certs) == 2 and calls == [ex3]
    assert certs[0].horizons == defaults(ex3)
    calls.clear()
    assemble_cycle(ex1, verdicts[1], t_back=1.5, t_fwd=2.5)
    build_gamma1(ex1, verdicts[1], t_back=1.5, t_fwd=2.5)
    build_gamma_up(ex1, verdicts[1], verdicts[1].connecting_points[0],
                   t_back=1.5, t_fwd=2.5)
    assert calls == []
    build_gamma1(ex1, verdicts[1], t_back=1.5)
    assert calls == [ex1]
