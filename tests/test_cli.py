import csv
import json
import math

import pytest

from hetcycle.cli import main

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
    rows = list(csv.reader(open(tmp_path / "orbits.csv", newline="")))
    assert rows[0] == ["t", "x1", "x2", "x3", "side", "role"]


def test_report_round_trips_losslessly(cfg, tmp_path):
    out = tmp_path / "report.json"
    main(["check", cfg, "--certify", "--out", str(out)])
    report = json.loads(out.read_text())
    assert json.loads(json.dumps(report)) == report


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


def test_example_override_window_failure(tmp_path):
    assert main(["example", "3", "--set", "q2=10",
                 "--out", str(tmp_path / "r.json")]) == 2


def test_config_error_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG.replace("lambda = 2.0", "lambda = 0.0"))
    assert main(["check", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "lambda" in err["message"]


def test_unknown_key_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG + "\nmystery = 1\n")
    assert main(["check", str(path)]) == 1
    assert "mystery" in json.loads(capsys.readouterr().err)["message"]


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
    rows = list(csv.reader(open(tmp_path / "t.csv", newline="")))
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
    rows = list(csv.reader(open(tmp_path / "t.csv", newline="")))
    last = rows[-1]
    r_end = math.hypot(float(last[1]), float(last[2]))
    assert abs(r_end - 1.0) <= 1e-4


def test_simulate_bad_x0(cfg, capsys):
    assert main(["simulate", cfg, "--x0", "1,2", "--t1", "1"]) == 1
    assert "x0" in json.loads(capsys.readouterr().err)["message"]


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


def test_check_certify_backward_blowup_message_has_plain_floats(tmp_path,
                                                                 capsys):
    # known hole (a): the rim point sits a rounding error outside the
    # cycle, so the backward cylinder segment passes its escape time; the
    # CLI reports it as a typed error whose message prints plain floats
    path = tmp_path / "rim.cfg"
    path.write_text(
        "rho = 1.9004247445208617\nomega = 2.352318023969346\n"
        "mu = 0.9706928032968544\nb11 = -1.442104934913899\n"
        "b12 = -2.619717922297823\nb21 = 0\n"
        "b22 = -3.0669601247005716\nlambda = 2.2681717795125236\n"
        "q1 = 1.5995872181210298\nq2 = 1.9194542129300656\n"
        "q3 = 0.22102828049055545\nd = 1.5995872181210298\n")
    out = tmp_path / "report.json"
    assert main(["check", str(path), "--certify", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BackwardBlowup"
    assert "requested t=" in err["message"]
    assert "np.float64" not in err["message"]


@pytest.mark.parametrize("alpha,beta", [(-4.0, 0.01), (-1.0, 0.001)])
def test_check_certify_slow_focus_no_overflow(tmp_path, capsys, alpha, beta):
    # example 2 with a slowly rotating focus block: the backward spiral
    # grows by e^{2 pi |alpha| / beta} per turn and leaves float range
    # before it returns to L2; a typed error, not an OverflowError
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
