"""Tests of the benchmark itself: input determinism, the output check and
the span accounting.  Run with `python -m pytest bench/tests`."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import oracle
import run
import spans
import workloads as wl


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    first = wl.generate(name, 7, tmp_path / "a")
    second = wl.generate(name, 7, tmp_path / "b")
    assert first.keys() == second.keys()
    for role in first:
        assert first[role].read_bytes() == second[role].read_bytes()
    other = wl.generate(name, 8, tmp_path / "c")
    assert other["space"].read_bytes() != first["space"].read_bytes()


@pytest.fixture(scope="module")
def sweep_case(tmp_path_factory):
    """A real `verify --lemma operator-bound` outcome on the sweep input."""
    files = wl.generate("sweep", 3, tmp_path_factory.mktemp("sweep"))
    argv = wl.commands("sweep", files, 3)[-1]
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    res = subprocess.run([sys.executable, "-m", "loravg.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    outcome = oracle.Outcome(argv, res.returncode, res.stdout, res.stderr)
    return outcome, oracle.expected("sweep", files, 3)


def test_check_accepts_a_correct_outcome(sweep_case):
    outcome, expected = sweep_case
    assert oracle.check("sweep", outcome, expected) == []


def test_check_rejects_a_corrupted_artifact(sweep_case):
    outcome, expected = sweep_case
    report = json.loads(outcome.stdout)
    report["checks"][0]["lhs"] *= 1 + 1e-6
    bad = replace(outcome, stdout=json.dumps(report))
    assert oracle.check("sweep", bad, expected)
    assert oracle.check("sweep", replace(outcome, stdout=outcome.stdout[:-20]), expected)


def test_check_rejects_a_nonzero_exit(sweep_case):
    outcome, expected = sweep_case
    assert oracle.check("sweep", replace(outcome, exit_code=1), expected)


def test_check_rejects_a_failed_report(sweep_case):
    outcome, expected = sweep_case
    report = json.loads(outcome.stdout)
    report["pass"] = False
    assert oracle.check("sweep", replace(outcome, stdout=json.dumps(report)), expected)


def test_check_rejects_a_traceback(sweep_case):
    outcome, expected = sweep_case
    stderr = "Traceback (most recent call last):\n  ...\nValueError: x\n"
    assert oracle.check("sweep", replace(outcome, stderr=stderr), expected)


def test_self_times_sum_to_traced_wall_time(tmp_path):
    files = wl.generate("sweep", 5, tmp_path)
    cmds = wl.commands("sweep", files, 5)
    cmds = [cmds[0], cmds[-1]]
    checker = run.Checker("sweep", oracle.expected("sweep", files, 5))
    import loravg.averaging

    original = loravg.averaging.AveragingKernel.__dict__["build"]
    tracer = spans.Tracer()
    wall, _ = run.in_process_pass(cmds, checker, tracer)
    assert checker.failed == 0
    assert loravg.averaging.AveragingKernel.__dict__["build"] is original
    summary = tracer.summary(wall)
    assert summary["spans"]["cli.dispatch"]["calls"] == len(cmds)
    assert summary["spans"]["space.validate_metric"]["calls"] == len(cmds)
    assert abs(summary["self_sum_s"] - summary["covered_s"]) <= 1e-6
    assert abs(summary["self_sum_s"] - wall) <= 0.05 * wall
    assert all(t >= -1e-9 for t in tracer.self_times())


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    empty = spans.Tracer().summary(1.0)
    traced = run.layer_metrics(empty, 0.1, 0.0, 1, 0)
    assert set(traced) == {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
