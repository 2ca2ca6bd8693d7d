"""Tests of the benchmark itself: the smoke run of every workload, and the
output checks rejecting outputs they must reject."""

import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_run_emits_every_metric():
    """All three workloads at a tiny size, untraced and traced: each run
    is correct and emits exactly the metrics BENCHMARK.json names."""
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--smoke"], capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert json.loads(out.stdout.splitlines()[-1]) == {"smoke_ok": True}


def _cert(margin=1.0, residual=1e-7, role="gamma_up_back"):
    return {"containment_ok": True,
            "segments": [{"role": role, "requirement": "minus_strict",
                          "containment_margin": margin}],
            "endpoint_residuals": {"gamma1_back_to_q": 1e-8,
                                   f"{role}_to_cycle": residual}}


def test_certificate_checks():
    values = {"rho": 1.0, "mu": 0.5}
    assert workloads._certificate_problem([_cert()], values) is None
    assert workloads._certificate_problem(
        [_cert(margin=0.0)], values).startswith("unexpected")
    # a backward-cylinder residual is the known hole only when
    # 2 rho / mu > 2
    assert workloads._certificate_problem(
        [_cert(residual=2e-3)], values) == "hole_c_backward_residual"
    assert workloads._certificate_problem(
        [_cert(residual=2e-3)], {"rho": 1.0, "mu": 4.0}).startswith("unexpected")
    assert workloads._certificate_problem(
        [_cert(residual=2e-3, role="gamma1_fwd")], values).startswith("unexpected")


def test_report_round_trip_is_exact():
    text = json.dumps({"x": 0.1, "y": [1, 2]}, indent=2) + "\n"
    assert workloads._round_trips(text)
    assert not workloads._round_trips(text.replace("0.1", "0.10"))


def test_generator_is_seeded():
    assert workloads.gen.param_sets(3, 20) == workloads.gen.param_sets(3, 20)
    assert workloads.gen.param_sets(3, 20) != workloads.gen.param_sets(4, 20)


def test_op_count_follows_seconds_not_the_clock():
    """A run's op count, and so its attempted/failed, is fixed by the
    workload and ``--seconds`` alone."""
    assert workloads.op_count("cycle-build", 20) == 540
    assert workloads.op_count("certify-sweep", 0.0) == 1
