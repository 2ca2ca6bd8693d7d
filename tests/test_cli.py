import json
import math
import os
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from helpers import (WIDE_DECADES_MIRROR, WIDE_DECADES_SET, Budget,
                     csv_rows, wide_sets)
from rigorous import first_return

from hetcycle import cli, errors
from hetcycle.cli import main, make_parser
from hetcycle.model import CONFIG_KEYS, load_config, params_to_dict
from hetcycle.orbits import HORIZON_TARGET
from hetcycle.planar import ROOT_BRACKET, analyze_vdp_line
from hetcycle.presets import example_params

CONFIG = """
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


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text(CONFIG)
    return str(path)


def test_check_certifies(cfg, tmp_path):
    out = tmp_path / "report.json"
    assert main(["check", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"]["cycle_count"] == 1
    assert report["verdict"]["theorem"] == "real_saddle"
    assert report["certificates"] is None  # no --certify


def test_check_certify_builds_certificates(cfg, tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", cfg, "--certify", "--out", str(out),
                 "--csv", str(tmp_path / "orbits.csv")])
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["certificates"]) == 1
    cert = report["certificates"][0]
    assert cert["containment_ok"]
    assert {s["role"] for s in cert["segments"]} == {
        "gamma1_back", "gamma1_fwd", "gamma_up_back", "gamma_up_fwd"}
    rows = csv_rows(tmp_path / "orbits.csv")
    assert rows[0] == ["t", "x1", "x2", "x3", "side", "role"]


def _plain_leaves(obj):
    """Every leaf of a report: a str, int, float, bool or None, nothing
    numpy or otherwise typed."""
    if isinstance(obj, dict):
        return [v for x in obj.values() for v in _plain_leaves(x)]
    if isinstance(obj, list):
        return [v for x in obj for v in _plain_leaves(x)]
    return [obj]


def test_report_round_trips_losslessly(cfg, tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    # each report as built, before serialization, to see its leaf types
    built = []
    emit = cli._emit_report
    monkeypatch.setattr(cli, "_emit_report",
                        lambda report, path: built.append(report)
                        or emit(report, path))
    for argv in (["check", cfg, "--certify"],
                 ["simulate", cfg, "--x0", "0.5,0,0", "--t1", "3",
                  "--oracle", "4", "--out-traj", str(tmp_path / "t.csv"),
                  "--out-events", str(tmp_path / "e.csv")]):
        built.clear()
        assert main(argv + ["--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert json.loads(json.dumps(report)) == report
        assert len(built) == 1
        assert all(type(v) in (str, int, float, bool, type(None))
                   for v in _plain_leaves(built[0])), argv[0]


def test_check_not_certified_exit_2(cfg, tmp_path):
    assert main(["check", cfg, "--set", "q3=3.0",
                 "--out", str(tmp_path / "r.json")]) == 2


def test_example_commands(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for n, cycles in ((1, 1), (2, 1), (3, 2)):
        out = tmp_path / f"ex{n}.json"
        assert main(["example", str(n), "--out", str(out),
                     "--csv-dir", str(tmp_path / f"ex{n}_data")]) == 0
        report = json.loads(out.read_text())
        assert report["verdict"]["cycle_count"] == cycles


def test_example1_emits_four_segments(tmp_path):
    data = tmp_path / "data"
    assert main(["example", "1", "--out", str(tmp_path / "r.json"),
                 "--csv-dir", str(data)]) == 0
    names = sorted(p.name for p in data.iterdir())
    assert [n.split("_", 1)[1] for n in names] == [
        "gamma1_back.csv", "gamma1_fwd.csv", "gamma_up_back.csv",
        "gamma_up_fwd.csv"]


def test_example3_emits_six_segments(tmp_path):
    data = tmp_path / "data"
    assert main(["example", "3", "--out", str(tmp_path / "r.json"),
                 "--csv-dir", str(data)]) == 0
    # shared equilibrium-to-cycle pair plus two cycle-to-equilibrium pairs
    assert len(list(data.iterdir())) == 6


def test_reused_csv_dir_holds_only_this_runs_segments(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    foreign = ("notes.txt", "07_other.csv", "4_gamma1_fwd.csv",
               "04_gamma_up_back.csv.bak")
    for name in foreign:
        (data / name).write_text("keep\n")
    assert main(["example", "3", "--out", str(tmp_path / "r3.json"),
                 "--csv-dir", str(data)]) == 0
    assert main(["example", "1", "--out", str(tmp_path / "r1.json"),
                 "--csv-dir", str(data)]) == 0
    names = sorted(p.name for p in data.iterdir() if p.name not in foreign)
    assert names == ["00_gamma1_back.csv", "01_gamma1_fwd.csv",
                     "02_gamma_up_back.csv", "03_gamma_up_fwd.csv"]
    for name in foreign:
        assert (data / name).read_text() == "keep\n"


@pytest.mark.parametrize("value", ["inf", "0", "nan", "-1"])
@pytest.mark.parametrize("option", ["--tback", "--tfwd"])
def test_bad_horizon_exit_1(cfg, tmp_path, capsys, option, value):
    # refused as --tol is, whatever the verdict: on a certified set, on one
    # that certifies nothing (exit 2 with a good horizon) and without
    # --certify, where no orbit is built
    out = tmp_path / "r.json"
    for argv in (["example", "1", "--csv-dir", str(tmp_path / "data")],
                 ["check", cfg, "--certify", "--set", "q3=5.0"],
                 ["check", cfg]):
        assert main(argv + ["--out", str(out), f"{option}={value}"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "must be a positive finite time" in err["message"]
        assert not out.exists()
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_bad_tol_exit_1(cfg, tmp_path, capsys, value):
    # an infinite tol widens every band and would certify q3 = 5
    out = tmp_path / "r.json"
    assert main(["check", cfg, "--set", "q3=5.0", f"--tol={value}",
                 "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "tol" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["1", "--tback", "400"], ["3", "--tback", "250"],
    ["2", "--tback", "1500"], ["1", "--set", "lambda=1e-300"]])
def test_example_long_backward_horizon_no_overflow(tmp_path, argv):
    # gamma1 runs backward on the unstable line of q past where e^{Bt}
    # overflows
    out = tmp_path / "r.json"
    assert main(["example"] + argv + ["--out", str(out), "--csv-dir",
                                      str(tmp_path / "data")]) == 0
    certs = json.loads(out.read_text())["certificates"]
    assert certs and all(c["containment_ok"] for c in certs)


def test_run_validates_hypotheses_once(cfg, tmp_path, monkeypatch):
    # the report's hypothesis check is the one certify uses
    import hetcycle.model as model
    import hetcycle.verifier as verifier

    calls = []
    validate = model.validate_hypotheses

    def counted(params, tol=model.DEFAULT_TOL):
        calls.append(params)
        return validate(params, tol)

    for mod in (cli, model, verifier):
        monkeypatch.setattr(mod, "validate_hypotheses", counted)
    out = str(tmp_path / "r.json")
    for argv in (["check", cfg, "--certify"], ["check", cfg, "--set=q3=5"],
                 ["example", "2", "--csv-dir", str(tmp_path / "d")],
                 ["example", "3", "--csv-dir", str(tmp_path / "d")]):
        calls.clear()
        assert main(argv + ["--out", out]) in (0, 2)
        assert len(calls) == 1, argv


def test_example_override_window_failure(tmp_path):
    assert main(["example", "3", "--set", "q2=10",
                 "--out", str(tmp_path / "r.json"),
                 "--csv-dir", str(tmp_path / "d")]) == 2


def test_config_error_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG.replace("lambda = 2.0", "lambda = 0.0"))
    assert main(["check", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "lambda" in err["message"]


def test_config_with_byte_order_mark(tmp_path, cfg):
    # editors on some platforms save UTF-8 with a leading BOM
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + CONFIG.lstrip().encode("utf-8"))
    assert load_config(path) == load_config(cfg)
    assert main(["check", str(path), "--out", str(tmp_path / "r.json")]) == 0


def test_unknown_key_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG + "\nmystery = 1\n")
    assert main(["check", str(path)]) == 1
    assert "mystery" in json.loads(capsys.readouterr().err)["message"]


def test_duplicate_key_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG + "rho = 1.0\n")
    assert main(["check", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConfigError",
                   "message": "line 14: duplicate key 'rho'"}


def test_missing_file_exit_1(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.cfg")]) == 1


def test_simulate_constant_at_q(cfg, tmp_path):
    out = tmp_path / "sim.json"
    code = main(["simulate", cfg, "--x0", "1.2,0,0.2", "--t1", "2",
                 "--out", str(out),
                 "--out-traj", str(tmp_path / "t.csv"),
                 "--out-events", str(tmp_path / "e.csv")])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["n_events"] == 0
    rows = csv_rows(tmp_path / "t.csv")
    assert all(float(r[1]) == 1.2 for r in rows[1:])


def test_simulate_with_oracle(cfg, tmp_path):
    out = tmp_path / "sim.json"
    code = main(["simulate", cfg, "--x0", "0.5,0,0", "--t1", "10",
                 "--oracle", "20", "--seed", "5", "--out", str(out),
                 "--out-traj", str(tmp_path / "t.csv"),
                 "--out-events", str(tmp_path / "e.csv")])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["oracle"]["trials"] == 20
    assert report["oracle"]["max_error"] <= 1e-6
    # converges toward the cycle
    rows = csv_rows(tmp_path / "t.csv")
    last = rows[-1]
    r_end = math.hypot(float(last[1]), float(last[2]))
    assert abs(r_end - 1.0) <= 1e-4


def test_simulate_reversed_span_exit_1(cfg, tmp_path, capsys):
    # refused by integrate_hybrid once the config is read: the one JSON
    # ConfigError object on stderr, and no output written
    before = sorted(tmp_path.iterdir())
    code = main(["simulate", cfg, "--x0", "0.5,0,0", "--t0", "1",
                 "--t1", "0.5", "--out", str(tmp_path / "sim.json"),
                 "--out-traj", str(tmp_path / "t.csv"),
                 "--out-events", str(tmp_path / "e.csv")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConfigError",
                   "message": "integrate_hybrid requires t1 > t0 "
                              "(forward only)"}
    assert sorted(tmp_path.iterdir()) == before


def test_simulate_takes_no_tol(cfg, tmp_path):
    # only the certifying commands have a tolerance to set
    with pytest.raises(SystemExit) as info:
        main(["simulate", cfg, "--x0", "0.5,0,0", "--t1", "1", "--tol", "1e-9",
              "--out", str(tmp_path / "sim.json"),
              "--out-traj", str(tmp_path / "t.csv"),
              "--out-events", str(tmp_path / "e.csv")])
    assert info.value.code == 2


@pytest.mark.parametrize("option", [["--oracle", "-3"],
                                    ["--oracle", "2", "--seed", "-1"],
                                    ["--oracle", "x"],
                                    ["--oracle", "2", "--seed", "1.5"]])
def test_simulate_negative_count_is_a_usage_error(cfg, tmp_path, capsys,
                                                   option):
    with pytest.raises(SystemExit) as info:
        main(["simulate", cfg, "--x0", "0.5,0,0", "--t1", "1", *option,
              "--out", str(tmp_path / "sim.json"),
              "--out-traj", str(tmp_path / "t.csv"),
              "--out-events", str(tmp_path / "e.csv")])
    assert info.value.code == 2
    value = option[-1]
    want = ("must be >= 0" if value.startswith("-")
            else f"invalid non_negative_int value: {value!r}")
    err = capsys.readouterr().err
    assert f"argument {option[-2]}: {want}" in err
    assert "_count" not in err
    assert not (tmp_path / "sim.json").exists()


@pytest.mark.parametrize("sets", [
    # ln(1e6) / mu ~ 127,700 at 64 samples per revolution: ~13M samples
    ["mu=0.000108157206071524", "b12=0.00020812073504237238"],
    # a sample count past the float range
    ["mu=1e-306"],
    # a 204-digit sample count, written in 6 significant digits
    ["mu=1e-200"],
])
def test_oversized_orbit_segment_exit_1(tmp_path, capsys, sets):
    # a slow vertical rate stretches the backward cylinder horizon to
    # ln(1e6) / mu: refused before any grid is built, as a typed error
    t0 = time.perf_counter()
    code = main(["example", "1", *(f"--set={v}" for v in sets),
                 "--out", str(tmp_path / "r.json"),
                 "--csv-dir", str(tmp_path / "d")])
    assert code == 1
    assert time.perf_counter() - t0 < 2.0
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CertificateFailure"
    assert "backward cylinder segment" in err["message"]
    assert len(err["message"]) < 200


@pytest.mark.parametrize("n", ["1", "2", "3"])
def test_unsampleable_spiral_exit_1(tmp_path, capsys, n):
    # b21 = -1e300 makes the right block a focus turning at ~1e150 rad per
    # unit time: a certified verdict, whose forward segment in the stable
    # plane would need ~1e152 samples; refused from the length of its first
    # grid, not after doubling the grid up to the cap
    t0 = time.perf_counter()
    code = main(["example", n, "--set", "b21=-1e300",
                 "--out", str(tmp_path / "r.json"),
                 "--csv-dir", str(tmp_path / "d")])
    assert code == 1
    assert time.perf_counter() - t0 < 2.0
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CertificateFailure"
    assert err["message"].startswith("forward segment from")
    assert "needs at least" in err["message"]


def test_simulate_bad_x0(cfg, capsys):
    assert main(["simulate", cfg, "--x0", "1,2", "--t1", "1"]) == 1
    assert "x0" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("x0", ["0_5,0,0", "0.5,0,\u0660", "0.5,1_0,0",
                                "\uff10.5,0,0"])
def test_simulate_x0_reads_the_config_number_format(cfg, tmp_path, capsys,
                                                    x0):
    # a start component is read as a config value is: float() alone took
    # '0_5' as 5.0, and an Arabic-Indic or a full-width digit as its value
    assert main(["simulate", cfg, "--x0", x0, "--t1", "1",
                 "--out", str(tmp_path / "sim.json"),
                 "--out-traj", str(tmp_path / "t.csv"),
                 "--out-events", str(tmp_path / "e.csv")]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ConfigError" and "x0" in error["message"]
    assert not (tmp_path / "sim.json").exists()


def test_simulate_x0_components_may_be_spaced(cfg, tmp_path):
    out = tmp_path / "sim.json"
    assert main(["simulate", cfg, "--x0", "0.5, 0, 0", "--t1", "0.1",
                 "--out", str(out), "--out-traj", str(tmp_path / "t.csv"),
                 "--out-events", str(tmp_path / "e.csv")]) == 0
    assert json.loads(out.read_text())["x0"] == [0.5, 0.0, 0.0]


@pytest.mark.parametrize("argv, x0, t_span", [
    (["--x0=-0.5,0,0", "--t1", "1"], [-0.5, 0.0, 0.0], [0.0, 1.0]),
    (["--x0", "0.5,0,0", "--t0=-1e-3", "--t1", "1"], [0.5, 0.0, 0.0],
     [-1e-3, 1.0]),
], ids=["x0", "t0"])
def test_simulate_negative_values_in_the_equals_form(cfg, tmp_path, argv, x0,
                                                     t_span):
    # argparse reads a separate '-0.5,0,0' or '-1e-3' as an option on some
    # Pythons; joined by '=' it is the option's value on all of them
    out, traj = tmp_path / "sim.json", tmp_path / "t.csv"
    assert main(["simulate", cfg, *argv, "--out", str(out),
                 "--out-traj", str(traj),
                 "--out-events", str(tmp_path / "e.csv")]) == 0
    report = json.loads(out.read_text())
    assert report["x0"] == x0 and report["t_span"] == t_span
    assert len(csv_rows(traj)) - 1 == report["n_samples"] > 1


@pytest.mark.parametrize("argv", [
    ["example", "1", "--tol", "1_0e-9"],
    ["example", "1", "--tback", "\uff12"],
    ["check", "CFG", "--tfwd", "1e"],
    ["check", "CFG", "--tol", "0x0"],
    ["simulate", "CFG", "--x0", "0.5,0,0", "--t1", "\uff12"],
    ["simulate", "CFG", "--x0", "0.5,0,0", "--t1", "1", "--t0", "Infinity"],
], ids=["tol_separator", "tback_fullwidth", "tfwd_exponent", "tol_hex",
        "t1_fullwidth", "t0_spelling"])
def test_numeric_option_reads_the_config_number_format(cfg, tmp_path, capsys,
                                                       argv):
    # --tol, --tback, --tfwd, --t0 and --t1 read one number format with
    # config lines and --set: anything else is a usage error naming the
    # option (float() alone took '1_0e-9' as 1e-08 and a full-width 2 as 2)
    argv = [cfg if a == "CFG" else a for a in argv]
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(tmp_path / "r.json"),
              "--out-traj" if argv[0] == "simulate" else "--csv-dir",
              str(tmp_path / "t"), *(["--out-events", str(tmp_path / "e")]
                                     if argv[0] == "simulate" else [])])
    assert info.value.code == 2
    option, value = argv[-2], argv[-1]
    assert (f"argument {option}: invalid number value: {value!r}"
            in capsys.readouterr().err)
    assert not (tmp_path / "r.json").exists()


def test_check_without_out_prints_the_report(cfg, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["check", cfg, "--certify", "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    capsys.readouterr()
    assert main(["check", cfg, "--certify"]) == 0
    printed = json.loads(capsys.readouterr().out)
    written.pop("timing")
    printed.pop("timing")
    assert printed == written


def test_reports_are_deterministic(cfg, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["check", cfg, "--certify", "--out", str(a)])
    main(["check", cfg, "--certify", "--out", str(b)])
    ra = json.loads(a.read_text())
    rb = json.loads(b.read_text())
    ra.pop("timing")
    rb.pop("timing")
    assert ra == rb


def test_simulate_oracle_undrawable_start_exit_1(tmp_path, capsys):
    # h3 holds, but no right-zone start 0.05 d from the plane fits the
    # oracle's draw box around q: a typed error, not a traceback
    path = tmp_path / "far.cfg"
    path.write_text("rho = 1\nomega = 3\nmu = 4\nb11 = -3.5\nb12 = 6\n"
                    "b21 = -6\nb22 = -3.5\nlambda = 2\nq1 = 20\nq2 = 0\n"
                    "q3 = 0.5\nd = 20\n")
    code = main(["simulate", str(path), "--x0", "0.5,0,0", "--t1", "1",
                 "--oracle", "2", "--out", str(tmp_path / "sim.json"),
                 "--out-traj", str(tmp_path / "t.csv"),
                 "--out-events", str(tmp_path / "e.csv")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "HetcycleError" and "right zone" in err["message"]


def test_check_certify_slow_stable_block_no_overflow(tmp_path, capsys):
    # node block with a tiny slowest stable rate: the gamma_up_fwd horizon
    # is about 722, past where exp(lambda t) overflows; the snapped start
    # sits on x3 = q3, so the certificate is built, not a traceback
    path = tmp_path / "slow.cfg"
    path.write_text(
        "rho = 1.663478517453099\nomega = 11.88700412079646\n"
        "mu = 3.7225731281970327\nb11 = -0.6671102548207155\n"
        "b12 = -5.719677999307166\nb21 = -0.057196779993071656\n"
        "b22 = -0.5239972379697723\nlambda = 2.6735900665775407\n"
        "q1 = 1.4081048818266706\nq2 = 0.8738271740816232\n"
        "q3 = 0.11834578902945414\nd = 1.4081048818266706\n")
    out = tmp_path / "report.json"
    assert main(["check", str(path), "--certify", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"]["cycle_count"] >= 1
    assert report["certificates"]
    assert all(c["containment_ok"] for c in report["certificates"])


def test_check_certify_rim_point_on_cycle_builds_certificates(tmp_path,
                                                               capsys):
    # hole (a): the connection point sits a rounding error outside the
    # cycle; the radial law treats it as on the cycle, so the backward
    # cylinder segment winds down at radius sqrt(rho) instead of passing
    # a spurious escape time
    path = tmp_path / "rim.cfg"
    path.write_text(
        "rho = 1.9004247445208617\nomega = 2.352318023969346\n"
        "mu = 0.9706928032968544\nb11 = -1.442104934913899\n"
        "b12 = -2.619717922297823\nb21 = 0\n"
        "b22 = -3.0669601247005716\nlambda = 2.2681717795125236\n"
        "q1 = 1.5995872181210298\nq2 = 1.9194542129300656\n"
        "q3 = 0.22102828049055545\nd = 1.5995872181210298\n")
    out = tmp_path / "report.json"
    assert main(["check", str(path), "--certify", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["certificates"]
    for cert in report["certificates"]:
        assert cert["containment_ok"]
        assert max(cert["endpoint_residuals"].values()) <= 1e-3


def test_example1_long_forward_horizon_no_overflow(tmp_path):
    # gamma1's forward start q0 has x3 = 0, and at this horizon e^{mu t}
    # overflows: the left zone must not evaluate it
    out = tmp_path / "r.json"
    assert main(["example", "1", "--tfwd", "150", "--out", str(out),
                 "--csv-dir", str(tmp_path / "data")]) == 0
    cert = json.loads(out.read_text())["certificates"][0]
    assert cert["containment_ok"]
    assert cert["horizons"]["gamma1_fwd"] == 150.0


def test_uncertified_check_clears_stale_segment_files(cfg, tmp_path):
    data = tmp_path / "data"
    assert main(["example", "1", "--out", str(tmp_path / "r1.json"),
                 "--csv-dir", str(data)]) == 0
    assert len(list(data.iterdir())) == 4
    # q3 far above the rims: nothing is certified (exit 2)
    assert main(["check", cfg, "--set", "q3=5.0", "--certify",
                 "--out", str(tmp_path / "r2.json"), "--csv-dir", str(data),
                 "--csv", str(tmp_path / "all.csv")]) == 2
    assert list(data.iterdir()) == []
    rows = csv_rows(tmp_path / "all.csv")
    assert rows == [["t", "x1", "x2", "x3", "side", "role"]]


@pytest.mark.parametrize("alpha,beta", [(-4.0, 0.01), (-1.0, 0.001)])
def test_check_certify_slow_focus_no_overflow(tmp_path, capsys, focus_refines,
                                              alpha, beta):
    # example 2 with a slowly rotating focus block: the backward spiral
    # grows by e^{2 pi |alpha| / beta} per turn and leaves float range
    # before it returns to L2; a typed error, not an OverflowError, and
    # decided before the window's refine, as e^{pi |alpha| / beta} overflows
    d = math.sqrt(35.0 / 11.0)
    path = tmp_path / "slow_focus.cfg"
    path.write_text(
        f"rho = 1.0\nomega = {math.sqrt(35.0)!r}\nmu = 5.0\n"
        f"b11 = {alpha!r}\nb12 = {beta!r}\nb21 = {-beta!r}\n"
        f"b22 = {alpha!r}\nlambda = 2.0\nq1 = {d!r}\nq2 = -4.5\n"
        f"q3 = {d + 1.0!r}\nd = {d!r}\n")
    out = tmp_path / "report.json"
    assert main(["check", str(path), "--certify", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "RootSearchError"
    assert "float range" in err["message"]
    assert focus_refines == []


def test_check_unwritable_out_exit_1(cfg, tmp_path, capsys):
    out = tmp_path / "missing_dir" / "r.json"
    assert main(["check", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"
    assert str(out) in err["message"]


def test_out_with_a_nul_byte_exit_1(cfg, tmp_path, capsys):
    # the OS refuses the path with a ValueError, printed under its own
    # class name by the clause that prints every refusal
    before = sorted(tmp_path.iterdir())
    assert main(["check", cfg, "--out", str(tmp_path / "a\x00b")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": "embedded null byte"}
    assert sorted(tmp_path.iterdir()) == before


def test_example_csv_dir_is_a_file_exit_1(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["example", "1", "--out", str(tmp_path / "r.json"),
                 "--csv-dir", str(taken)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileExistsError"
    assert str(taken) in err["message"]


def test_simulate_out_traj_is_a_directory_exit_1(cfg, tmp_path, capsys):
    assert main(["simulate", cfg, "--x0", "0.5,0,0", "--t1", "1",
                 "--out", str(tmp_path / "sim.json"),
                 "--out-traj", str(tmp_path),
                 "--out-events", str(tmp_path / "e.csv")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IsADirectoryError"
    assert str(tmp_path) in err["message"]


@pytest.mark.parametrize("argv, kept", [
    (["example", "1", "--csv", "r.json", "--out", "r.json"], "r.json"),
    (["simulate", "system.cfg", "--x0", "0.5,0,0", "--t1", "1",
      "--out-traj", "t.csv", "--out-events", "t.csv"], "t.csv"),
    # the stale-segment cleanup of D would delete the report
    (["example", "1", "--csv-dir", "D", "--out", "D/05_gamma_up_fwd.csv"],
     "D/05_gamma_up_fwd.csv"),
    # one file by a relative and an absolute spelling
    (["check", "system.cfg", "--certify", "--out", "same.csv",
      "--csv", "{tmp}/same.csv"], "same.csv"),
], ids=["csv_is_out", "traj_is_events", "out_in_csv_dir",
        "relative_and_absolute"])
def test_outputs_naming_one_file_exit_1(cfg, tmp_path, capsys, monkeypatch,
                                        argv, kept):
    # refused before any work: one ConfigError object on stderr, a file
    # already at the path byte-unchanged and nothing else written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "D").mkdir()
    (tmp_path / kept).write_bytes(b"kept\n")
    before = sorted(tmp_path.rglob("*"))
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert (tmp_path / kept).read_bytes() == b"kept\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_main_builds_its_parser_once(cfg, tmp_path, monkeypatch):
    built = []

    def counting():
        built.append(1)
        return make_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "make_parser", counting)
    for _ in range(3):
        assert main(["check", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert len(built) == 1
    assert make_parser() is not make_parser()


def test_import_builds_no_parser():
    code = ("import hetcycle.cli as cli, sys; "
            "sys.exit(0 if cli._parser is None else 3)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _run_fresh(argv):
    """``main`` with a parser built for this call alone."""
    args = make_parser().parse_args(argv)
    return args.fn(args)


def test_reused_parser_leaks_no_state(cfg, tmp_path, capsys, monkeypatch):
    # one parser for the whole sequence: an override, the same command
    # without it, a usage error and another command must each give what a
    # parser built for that call alone gives
    monkeypatch.setattr(cli, "_parser", None)
    out = tmp_path / "r.json"
    calls = [
        ["check", cfg, "--set", "rho=1.2", "--out", str(out)],
        ["check", cfg, "--out", str(out)],
        ["check", "--out", str(out)],
        ["simulate", cfg, "--x0", "0.5,0,0", "--t1", "2", "--oracle", "2",
         "--out", str(out), "--out-traj", str(tmp_path / "t.csv"),
         "--out-events", str(tmp_path / "e.csv")],
    ]
    outcomes = []
    for argv in calls:
        got = []
        for run in (main, _run_fresh):
            out.unlink(missing_ok=True)
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            report = json.loads(out.read_text()) if out.exists() else None
            if report is not None:
                report.pop("timing", None)
            got.append((code, report, capsys.readouterr().err))
        assert got[0] == got[1]
        outcomes.append(got[0])
    assert cli._parser is not None
    (_, over, _), (_, plain, _), (usage, none, err), (sim, report, _) = outcomes
    assert over["params_echo"]["rho"] == 1.2
    assert plain["params_echo"]["rho"] == 1.0
    assert usage == 2 and none is None and "config" in err
    assert sim == 0 and report["oracle"]["trials"] == 2


@pytest.mark.parametrize("example, q3", [
    ("1", "2.1999999978"), ("2", "0.7837651728154547"),
    ("2", "2.783765167247924"), ("3", "1.000000003")])
def test_example_at_rim_band_edge_reports_json(tmp_path, example, q3):
    # q3 at the edge of the rim band: subcase c with both connection
    # points, reported as a verdict rather than a raw traceback
    out = tmp_path / "r.json"
    code = main(["example", example, "--set", f"q3={q3}", "--out", str(out),
                 "--csv-dir", str(tmp_path / "d")])
    assert code in (0, 2)
    verdict = json.loads(out.read_text())["verdict"]
    assert verdict["subcase"] == "c"
    assert (code == 0) == (verdict["cycle_count"] == 2)


@pytest.mark.parametrize("item, message", [
    ("rho", "--set: expected 'key = value', got 'rho'"),
    ("rho= x ", "--set: invalid number for 'rho': 'x'"),
    ("rho=1#2", "--set: invalid number for 'rho': '1#2'"),
    ("rho=1_0", "--set: invalid number for 'rho': '1_0'"),
    ("nope=1", "--set: unknown key 'nope'"),
])
def test_bad_set_item_exit_1(tmp_path, capsys, item, message):
    # one reader for config lines and --set items; '#' is no comment here
    assert main(["example", "1", "--set", item,
                 "--out", str(tmp_path / "r.json")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError", "message": message}


def test_later_set_overrides_earlier(cfg, tmp_path):
    out = tmp_path / "r.json"
    assert main(["check", cfg, "--set", "q2=5", "--set", " q2 = -0.5 ",
                 "--out", str(out)]) in (0, 2)
    assert json.loads(out.read_text())["params_echo"]["q2"] == -0.5


@pytest.mark.parametrize("rho", ["1e-300", "1e-16", "5e-324"])
def test_tiny_radius_declines_through_v_star(tmp_path, capsys, rho):
    # the radius escapes within rounding of the seed: no backward return,
    # so the set is declined, not a BackwardBlowup
    out = tmp_path / "r.json"
    assert main(["example", "1", "--set", f"rho={rho}", "--out", str(out),
                 "--csv-dir", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == ""
    evidence = {e["name"]: e
                for e in json.loads(out.read_text())["verdict"]["evidence"]}
    assert not evidence["v_star_exists"]["passed"]


@pytest.mark.parametrize("omega", ["1e17", "1e20", "1e153", "1.3e154"])
def test_fast_oscillator_exits_with_json(tmp_path, capsys, omega):
    # the tangency point barely moves outward in a revolution, so its orbit
    # returns just after the centre t_c of the first backward revolution,
    # a fraction 1e-17 to 1e-154 of the radius past the line, at an
    # ordinate (the 60-digit reference's) far inside the tangency band:
    # 'ungeneric', refused with one JSON error, not a hang
    with Budget(f"omega={omega} backward-return scan", 1.0):
        code = main(["example", "1", "--set", f"omega={omega}",
                     "--out", str(tmp_path / "r.json"),
                     "--csv-dir", str(tmp_path / "d")])
    assert code == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "UngenericBranch"
    p = example_params(1)
    a = analyze_vdp_line(p.rho, float(omega), p.d)
    ref = first_return(p.rho, float(omega), p.d, a.varrho_plus)
    assert a.branch == "ungeneric" and ref.t_c < a.t_star < 0.0
    assert a.x_star[1] == pytest.approx(ref.x2, rel=1e-12)


#: Example 1 on a slow cycle of radius 1.48e-4 whose L1 lies a fraction
#: 4e-7 of that radius outside it, with q2 = 1e-7.
NEAR_CYCLE = ["--set", "rho=2.2032754357979087e-08",
              "--set", "omega=0.002804815871082732",
              "--set", "d=0.00014843440323535802",
              "--set", "q1=0.00014843440323535802",
              "--set", "q3=0.00014843440323535802",
              "--set", "mu=100", "--set", "q2=1e-7"]


def test_near_cycle_line_reads_its_first_return(cfg, capsys):
    # The first backward return of v1's orbit is at t = -2240.14, just
    # after t_c, at ordinate 1.32e-9: within the tangency band 1.9e-8 of
    # sigma_plus, so the q2 window is not decided and the set is refused.
    # A scan that accepted only crossings past an absolute guard of 1e-10
    # returned one 9,975 revolutions back (t = -2.23e7, ordinate 1.72e-7)
    # and certified 2 cycles, q2 lying in [sigma_plus, v2*].
    assert main(["check", cfg, *NEAR_CYCLE]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "UngenericBranch"
    rho, omega, d = 2.2032754357979087e-08, 0.002804815871082732, \
        0.00014843440323535802
    a = analyze_vdp_line(rho, omega, d)
    ref = first_return(rho, omega, d, a.varrho_plus)
    assert a.branch == "ungeneric" and ref.t_c < a.t_star < 0.0
    assert a.t_star == pytest.approx(ref.t, abs=ROOT_BRACKET / omega)
    assert a.x_star[1] == pytest.approx(ref.x2, rel=1e-9)


def _example1_in_units(s):
    """Example 1 in units s (lengths times s, rates times s^2), q2 = 3 s,
    as a config file."""
    values = dict(rho=s * s, omega=10 * s * s, mu=5 * s * s, b11=-2 * s * s,
                  b12=s * s, b21=0.0, b22=-s * s, q1=1.2 * s, q2=3 * s,
                  q3=0.2 * s, d=1.2 * s)
    values["lambda"] = 2 * s * s
    return "".join(f"{k} = {v!r}\n" for k, v in values.items())


@pytest.mark.parametrize("s", [1.0, 1e-3, 1e-6])
def test_example1_in_small_units_is_not_certified(tmp_path, capsys, s):
    # q2 = 3 s lies past v2* = 2.363 s and outward of the half-plane at
    # every scale: no cycle.  At s = 1e-6 the discriminant 9.7e-23 once lay
    # under the regime's absolute band 5.8e-21 and read case_i, and the
    # half-plane margin -2.6e-6 passed the node's floor: 1 cycle, whose
    # certificate then failed containment
    path, out = tmp_path / "s.cfg", tmp_path / "r.json"
    path.write_text(_example1_in_units(s))
    assert main(["check", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    verdict = json.loads(out.read_text())["verdict"]
    assert verdict["regime"] == "case_ii"
    assert [e["name"] for e in verdict["evidence"] if not e["passed"]] == [
        "q2_window", "halfplane_p0"]


def test_example1_in_tiny_units_is_refused(tmp_path, capsys):
    # at s = 2^-40 the tangency band's own floor tol * max(1, ...) still
    # swallows sigma_plus and v2*: refused as ungeneric, where an error
    # bound on the return would decide 0 cycles
    path = tmp_path / "s.cfg"
    path.write_text(_example1_in_units(2.0 ** -40))
    assert main(["check", str(path), "--out", str(tmp_path / "r.json")]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "UngenericBranch"


def _reject_token(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_non_finite_report_value_is_strict_json(tmp_path):
    # the cone evidence overflows to inf: written as the string "inf"
    out = tmp_path / "r.json"
    assert main(["example", "2", "--set", "omega=1e160", "--out", str(out),
                 "--csv-dir", str(tmp_path / "d")]) == 2
    report = json.loads(out.read_text(), parse_constant=_reject_token)
    values = [e["value"] for e in report["verdict"]["evidence"]]
    assert "inf" in values


def test_extreme_set_values_exit_with_json(cfg, tmp_path, capsys):
    # every key of every example at the ends of the float range: a verdict
    # (exit 0/2) or one JSON error object (exit 1), never a raw exception
    # (the cone condition's squares can overflow, and the spiral window's
    # ends can coincide); a value that is not finite is an input error
    # naming its key
    out, data = str(tmp_path / "r.json"), str(tmp_path / "data")
    with Budget("extreme --set sweep", 15.0):
        for n in ("1", "2", "3"):
            for key in CONFIG_KEYS:
                for value in ("1e300", "-1e300", "1e160", "1e-300",
                              "5e-324", "nan", "inf"):
                    case = (n, key, value)
                    code = main(["example", n, "--set", f"{key}={value}",
                                 "--out", out, "--csv-dir", data])
                    err = capsys.readouterr().err
                    assert code in (0, 1, 2), case
                    assert (code == 1) == bool(err), case
                    if err:
                        error = json.loads(err)
                        assert set(error) == {"error", "message"}, case
                    else:  # a report that strict JSON parsing accepts
                        with open(out) as fh:
                            json.load(fh, parse_constant=_reject_token)
                    if value in ("nan", "inf"):
                        assert error["error"] == "ConfigError", case
                        assert repr(key) in error["message"], case
        # a start or horizon that is not finite: an input error at once,
        # not a run until memory or the step limit gives out
        for case in (["--x0=inf,0,0", "--t1", "1"],
                     ["--x0=nan,0,0", "--t1", "1"],
                     ["--x0=0.5,0,0", "--t1", "inf"],
                     ["--x0=0.5,0,0", "--t1", "nan"],
                     ["--x0=0.5,0,0", "--t0=-inf", "--t1", "1"]):
            code = main(["simulate", cfg, *case, "--out", out,
                         "--out-traj", str(tmp_path / "t.csv"),
                         "--out-events", str(tmp_path / "e.csv")])
            error = json.loads(capsys.readouterr().err)
            assert code == 1 and error["error"] == "ConfigError", case


# A focus block with q3 1.88e-9 below the bottom rim: the spiral window is
# read at the L2 point, one certified cycle.
RIM_BAND_FOCUS = """
rho = 1.494353607382925
omega = 1.4018756184246681
mu = 3.685042833953684
b11 = -1.3310750024284959
b12 = -7.690045123412686
b21 = 2.665721813932171
b22 = -1.3310750024284959
lambda = 3.41328777317732
q1 = 1.5528248197509562
q2 = 0.4415590456794085
q3 = 0.3303872499826238
d = 1.5528248197509562
"""


def _evidence(report):
    return {e["name"]: e for e in report["verdict"]["evidence"]}


def _all_contained(report):
    certs = report["certificates"]
    return bool(certs) and all(c["containment_ok"] for c in certs)


@pytest.mark.parametrize("argv, codes, error, check", [
    # q2 8.28e-9 below the upper tangency ordinate, the closed end of the
    # q2 window: inside the window's tol band, so it passes
    (["example", "1", "--set", "q2=-0.053138856"], (0,), None,
     lambda r: _evidence(r)["q2_window"]["passed"]),
    (["check", "rim_band.cfg", "--certify"], (0,), None, _all_contained),
    # omega on the regime boundary at tol 0: the regime is the sign of the
    # tangency discriminant, a verdict and not UngenericBranch
    (["example", "1", "--set", "omega=1.5919798993705918", "--tol", "0"],
     (0, 2), None, None),
    # q2 far from the spiral window, which is read in planar coordinates
    (["example", "3", "--set", "q2=1e100"], (2,), None, None),
    # a spiral window genuinely shorter than tol
    (["example", "3", "--set", "d=1.000000000001",
      "--set", "q1=1.000000000001", "--set", "q3=1e-12"],
     (1,), "DegenerateInterval", None),
    # a tolerance so wide that v2* is within it of a tangency ordinate
    (["example", "1", "--tol", "0.5"], (1,), "UngenericBranch", None),
    # q3 inside the rim band but off the bottom rim: the node criterion is
    # read at the L2 point, a verdict with one cycle
    (["example", "1", "--set", "q3=0.200000002"], (0,), None,
     lambda r: (r["verdict"]["subcase"], r["verdict"]["cycle_count"])
     == ("a", 1)),
    # a slow focus whose backward spiral returns to L2 past the float
    # range: no window (the return ordinate read as NaN decided the flag)
    (["example", "3", *(f"--set={kv}" for kv in (
        "rho=140.46091047545062", "omega=1.9759279372396619",
        "mu=0.002118765617358894", "b11=-11.06719190451943",
        "b12=-0.07740938625780615", "b21=0.03128756874096285",
        "b22=-11.06719190451943", "lambda=0.01860353724249509",
        "q1=26.916108971616854", "q2=56.151870142410296",
        "q3=15.06448838726424", "d=26.916108971616854"))],
     (1,), "RootSearchError", None),
    # a triangular block (b12 = 0) with diagonal entries 2 ulp apart: once
    # a focus through rounding of tr^2 - 4 det (exit 1, no tangency on L2
    # at b12 = 0), its spectrum is real and it takes the node route
    (["example", "3", "--set", "b11=-1.0292099090649256", "--set", "b12=0",
      "--set", "b21=0.5", "--set", "b22=-1.0292099090649272"],
     (0,), None,
     lambda r: (r["verdict"]["theorem"], r["verdict"]["regime"],
                r["verdict"]["subcase"], r["verdict"]["cycle_count"])
     == ("real_saddle", "case_i", "c", 2) and _all_contained(r)),
    # a focus with rates near 1e-6, once inside an absolute repeated-root
    # band: one certified cycle, as its twin scaled by 16 has
    (["example", "2", *(f"--set={kv}" for kv in (
        "rho=1.7225157317705857", "omega=2.4480501069987852",
        "mu=0.4386184050052798", "b11=-9.694814540121535e-07",
        "b12=-1.804892770862274e-06", "b21=9.852611088887626e-08",
        "b22=-9.694814540121535e-07", "lambda=0.018782423058652915",
        "q1=9.888177507590518", "q2=-0.05141019404000463",
        "q3=8.57573103943626", "d=9.888177507590518"))],
     (0,), None,
     lambda r: r["verdict"]["cycle_count"] == 1 and _all_contained(r)),
    # stiff blocks whose orbit certificate needs infinitely many samples:
    # the refusal is the one JSON object on stderr, with no numpy warning
    # (a node, and a focus with b12 tiny against b11)
    (["example", "1", "--set", "b12=1e-200", "--set", "b21=1e200"],
     (1,), "CertificateFailure", None),
    (["example", "2", "--set", "b12=1e-300", "--set", "b21=-1.6e301"],
     (1,), "CertificateFailure", None),
    # a focus whose tangency ordinate -a11 c / a12 overflows
    (["example", "2", "--set", "b12=2e-310", "--set", "b21=-8e307"],
     (1,), "RootSearchError", lambda e: "tangency ordinate" in e["message"]),
    # a certified set with a rate so slow that its default horizon
    # log(1e6) / rate overflows: refused naming that horizon, not an
    # option nobody set; an override still replaces the default
    (["example", "1", "--set", "b22=-1e-320"], (1,), "CertificateFailure",
     lambda e: "horizon gamma_up_fwd" in e["message"]),
    (["example", "1", "--set", "lambda=1e-320"], (1,), "CertificateFailure",
     lambda e: "horizon gamma1_back" in e["message"]),
    (["example", "1", "--set", "mu=1e-320"], (1,), "CertificateFailure",
     lambda e: "horizon gamma_up_back" in e["message"]),
    (["example", "1", "--set", "b22=-1e-320", "--tfwd", "10"], (0,), None,
     lambda r: r["verdict"]["cycle_count"] == 1 and _all_contained(r)),
    # a near-repeated block whose rounded discriminant is +, its exact one
    # -1.8e-18: a slow focus (beta 6.8e-10), refused, not a real saddle
    (["example", "1", "--set", "b11=-1.5449091657235188",
      "--set", "b12=-4.707058610506759", "--set", "b21=0.0083234848556282",
      "--set", "b22=-1.94078354508701"], (1,), "RootSearchError",
     lambda e: "float range" in e["message"]),
    # a node with rates -1 and -1e17, further apart than 2^53: the slow
    # one carries gamma_up_fwd to q, and the certificate holds
    (["example", "1", "--set", "b11=-1", "--set", "b22=-1e17"], (0,), None,
     lambda r: _all_contained(r) and r["certificates"][0][
         "endpoint_residuals"]["gamma_up_fwd_to_q"] <= HORIZON_TARGET),
    # helpers.WIDE_DECADES_SET: its exact halfplane_p1 margin is
    # negative, so no cycle; its mirror in q2 certifies one and is
    # refused, naming the forward segment
    (["check", "wide.cfg", "--certify"], (2,), None,
     lambda r: [e["name"] for e in r["verdict"]["evidence"]
                if not e["passed"]] == ["halfplane_p1"]),
    (["check", "wide_mirror.cfg", "--certify"], (1,), "CertificateFailure",
     lambda e: "forward segment" in e["message"]),
], ids=["q2_band", "rim_band_focus", "regime_boundary", "q2_far",
        "short_window", "wide_tol", "rim_band_node", "return_overflows",
        "rounding_focus", "small_rate_focus", "stiff_node", "stiff_focus",
        "tangency_overflows", "slow_block_horizon", "slow_lambda_horizon",
        "slow_mu_horizon", "slow_block_override", "rounded_disc_focus",
        "separated_rates_node", "wide_decades", "wide_decades_mirror"])
def test_boundary_inputs_exit_with_json(tmp_path, capsys, argv, codes,
                                        error, check):
    # inputs at the edges of the theorems' conditions: a verdict with
    # stderr empty, or exactly one JSON error object of the expected type;
    # ``check`` reads the report, or the error object
    (tmp_path / "rim_band.cfg").write_text(RIM_BAND_FOCUS)
    for name, p in (("wide", WIDE_DECADES_SET),
                    ("wide_mirror", WIDE_DECADES_MIRROR)):
        (tmp_path / f"{name}.cfg").write_text("".join(
            f"{k} = {v!r}\n" for k, v in params_to_dict(p).items()))
    out = tmp_path / "r.json"
    argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
    code = main([*argv, "--out", str(out), "--csv-dir", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert code in codes
    if error is None:
        assert err == ""
        report = json.loads(out.read_text(), parse_constant=_reject_token)
        assert check is None or check(report)
    else:
        failure = json.loads(err)
        assert failure["error"] == error
        assert check is None or check(failure)


@pytest.mark.parametrize("b12, b21", [("1e-14", "-1.6e15"),
                                      ("1e-15", "-1.6e16")])
def test_focus_with_a_small_b12_certifies(tmp_path, capsys, b12, b21):
    # example 2's spectrum -0.5 +/- 4i with b12 tiny against b11: the
    # window's ordinates scale with 1/b12, and both sets certify one cycle
    # (subcase b), the smaller b12 as its twin does
    path = tmp_path / "ex2.cfg"
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in
                            params_to_dict(example_params(2)).items()))
    out = tmp_path / "r.json"
    code = main(["check", str(path), "--set", f"b12={b12}",
                 "--set", f"b21={b21}", "--out", str(out)])
    assert (code, capsys.readouterr().err) == (0, "")
    verdict = json.loads(out.read_text())["verdict"]
    assert (verdict["subcase"], verdict["cycle_count"]) == ("b", 1)
    scale = 1e-14 / float(b12)
    x_minus, x_plus = verdict["window"]["x_minus"], verdict["window"]["x_plus"]
    assert x_minus[1] == pytest.approx(-1.3919e14 * scale, rel=1e-4)
    assert x_plus[1] == pytest.approx(1.8190e15 * scale, rel=1e-4)


def test_near_undamped_focus_certifies(tmp_path, capsys):
    # example 2 with b11 = b22 = -1e-16 (a / w = -2.5e-17): the spiral's
    # window on L2 reaches 6.0 above q2 (60 digits: 5.999999999999999),
    # past p1's ordinate 4.5, so check certifies one cycle; a refine to an
    # absolute width in t once read 3.5666 and certified none
    path = tmp_path / "ex2.cfg"
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in
                            params_to_dict(example_params(2)).items()))
    out = tmp_path / "r.json"
    code = main(["check", str(path), "--set", "b11=-1e-16",
                 "--set", "b22=-1e-16", "--set", "b12=3.2893968591199364e-08",
                 "--set", "b21=-486411360.0534272", "--out", str(out)])
    assert (code, capsys.readouterr().err) == (0, "")
    verdict = json.loads(out.read_text())["verdict"]
    assert (verdict["subcase"], verdict["cycle_count"]) == ("b", 1)
    x_plus = verdict["window"]["x_plus"]
    assert x_plus[1] + 4.5 == pytest.approx(6.0, rel=1e-12)


def test_wide_draw_exits_typed(tmp_path, capsys):
    # a seeded draw over many decades: each set is a verdict (exit 0 or 2,
    # stderr empty) or exactly one JSON object naming a typed error (exit
    # 1), never a raw exception or a warning
    path, out = tmp_path / "wide.cfg", str(tmp_path / "r.json")
    codes = Counter()
    with Budget("wide draw check", 20.0):
        for values in wide_sets(2028, 1000):
            path.write_text("".join(f"{k} = {v!r}\n"
                                    for k, v in values.items()))
            code = main(["check", str(path), "--out", out])
            err = capsys.readouterr().err
            if code == 1:
                failure = json.loads(err)
                assert set(failure) == {"error", "message"}, values
                assert issubclass(getattr(errors, failure["error"]),
                                  errors.HetcycleError), values
                codes[failure["error"]] += 1
            else:
                assert code in (0, 2) and err == "", values
                codes[code] += 1
    assert codes[0] > 0 and codes[2] > 0, codes
