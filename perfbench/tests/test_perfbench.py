"""Tests of the benchmark itself, at tiny problem sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from checks import Checker, wrapped_rms_reference, reference_amplitudes  # noqa: E402
from workloads import TINY, WORKLOADS, commands  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())


def _spawn(argv):
    outcome = run.spawn(argv, run.child_environment(), run.COMMAND_TIMEOUT_S)
    assert outcome.returncode == 0, outcome.stderr
    return outcome.stdout


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    record, result = run.run(workload, seed=3, seconds=0.1, trace=trace, sizes=TINY)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert record["blas_threads"] == run.BLAS_THREADS and record["nproc"] >= 1
    if not trace:
        for name in ("wall_s", "setup_s", "work_s", "peak_rss_mb", "accuracy_digits"):
            assert result["metrics"][name]["value"] > 0.0


def _perturbed(stdout, key):
    """The JSON output with its first ``key`` value scaled by 1 + 1e-5."""
    record = json.loads(stdout)
    payload = record["payload"]
    target = payload[0] if isinstance(payload, list) else payload
    target[key] *= 1 + 1e-5
    return json.dumps(record)


@pytest.mark.parametrize(
    "argv, key",
    [
        (commands("optimize", 0, TINY)[0], "mean_cost"),
        (commands("optimize", 0, TINY)[1], "mean_cost"),
        (commands("figures", 0, TINY)[0], "delta_t"),
        (commands("figures", 0, TINY)[0], "mean_cost"),
    ],
)
def test_perturbed_json_output_fails_its_check(argv, key):
    stdout = _spawn(argv)
    assert Checker().check(argv, 0, stdout).ok
    verdict = Checker().check(argv, 0, _perturbed(stdout, key))
    assert not verdict.ok and verdict.digits < 6


def test_perturbed_posterior_fails_its_check():
    argv = commands("figures", 5, TINY)[3]
    stdout = _spawn(argv)
    assert Checker().check(argv, 0, stdout).ok
    lines = stdout.splitlines()
    last = lines[-1].split(",")
    lines[-1] = ",".join(last[:2] + [repr(float(last[2]) * 1.01 + 1e-3)])
    assert not Checker().check(argv, 0, "\n".join(lines) + "\n").ok


def test_simulate_checks_histogram_bound_and_repeatability():
    argv = commands("simulate", 7, TINY)[0]
    stdout = _spawn(argv)
    checker = Checker()
    assert checker.check(argv, 0, stdout).ok
    assert checker.check(argv, 0, stdout).ok
    record = json.loads(stdout)
    record["payload"]["histogram"]["counts"][0] += 1
    assert not Checker().check(argv, 0, json.dumps(record)).ok
    record = json.loads(stdout)
    record["payload"]["empirical_mean_cost"] += 0.5
    assert not Checker().check(argv, 0, json.dumps(record)).ok
    # Same command and seed, different bytes: not repeatable.
    assert not checker.check(argv, 0, stdout.replace("\n", "\n ", 1)).ok


def test_nonzero_exit_counts_as_failed_command():
    tally = run.Tally(Checker())
    bad = ["state", "--kind", "optimal", "--n", "5"]  # optimal needs --cost: exit 2
    good = commands("optimize", 0, TINY)[0]
    run.measure_end_to_end([bad, good], 0.1, tally, deadline=float("inf"))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.digits == 0.0


def test_timeout_kills_and_reaps_the_child():
    argv = commands("figures", 0)[0]  # full size: runs for seconds
    outcome = run.spawn(argv, run.child_environment(), timeout=0.3)
    assert outcome.returncode == -signal.SIGKILL
    assert not Checker().check(argv, outcome.returncode, outcome.stdout).ok


def test_rms_reference_matches_test_oracle():
    sys.path.insert(0, str(BENCH.parent / "tests"))
    from oracles import wrapped_rms_series

    for kind, cost in (("product", None), ("phase", None), ("optimal", "sin2")):
        amplitudes = reference_amplitudes(kind, 9, cost)
        expected = wrapped_rms_series([float(a) for a in amplitudes])
        assert wrapped_rms_reference(amplitudes) == pytest.approx(expected, rel=1e-13)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
