"""Smoke tests of the benchmark: tiny inputs, correctness and schema only.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
No timing is asserted.
"""
from __future__ import annotations

import argparse
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _metric_spec(trace: int) -> dict[str, str]:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in SPEC[key]}


def test_spec_matches_the_benchmark():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in workloads.WORKLOADS]
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]} == table
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS, ids=lambda w: w.name)
def test_quick_run_is_correct(workload, trace):
    args = argparse.Namespace(seed=1, seconds=0.1, quick=True)
    res = json.loads(json.dumps(run.run_one(workload, args, bool(trace))))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {m: v["unit"] for m, v in res["metrics"].items()} == _metric_spec(trace)
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_contract_run_prints_one_result_last():
    proc = _run("--workload", "verify-golden", "--seed", "3", "--seconds", "0.1",
                "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    env = json.loads(lines[-2])["env"]
    assert {"python", "numpy", "nproc", "git_commit", "seed", "commands"} <= set(env)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_times_are_scaled_per_pass_to_the_reference_speed():
    def rep(wall, cpu, slower, slower_cpu):
        calibration = run.CmdRun(run.CALIBRATION_REF_S * slower,
                                 run.CALIBRATION_REF_CPU_S * slower_cpu, 1024, 0, None)
        cmd = run.CmdRun(wall, cpu, 2048, 0, None)
        return run.Rep(wall, [cmd], [wall / 10], [calibration] * 3)

    # The middle pass ran while the host was half as fast, and lent the
    # vCPU to other guests for part of that, so wall time grew more than CPU time.
    metrics = run.end_to_end([rep(1.0, 0.8, 1, 1), rep(2.0, 1.2, 2, 1.5), rep(1.1, 0.9, 1, 1)])
    assert metrics["wall_s"] == pytest.approx(1.0)
    assert metrics["cpu_s"] == pytest.approx(0.8)
    assert metrics["slowest_cmd_s"] == pytest.approx(1.0)
    assert metrics["setup_s"] == pytest.approx(0.1)
    assert metrics["peak_rss_mb"] == 2.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "identities", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_inputs_other_seed_other_inputs():
    def argvs(w, seed):
        return [c.argv for c in w.make(random.Random(f"{w.name}:{seed}"), False)]

    golden = workloads.WORKLOADS[0]
    assert argvs(golden, 5) == argvs(golden, 5)
    assert argvs(golden, 5) != argvs(golden, 6)


# The checks must catch a wrong answer, not only accept a right one.

def _power_output(n: int, m: int, entries) -> str:
    return json.dumps({"n": n, "entries": [[str(e) for e in r] for r in entries], "m": m})


def test_power_check_rejects_a_wrong_entry():
    ref = workloads.int_matpow(workloads.pascal_r(4), 5)
    check = workloads._power_check(4, 5)
    assert check(0, _power_output(4, 5, ref)) is None
    assert check(1, _power_output(4, 5, ref)) is not None
    ref[1][2] += 1
    assert check(0, _power_output(4, 5, ref)) is not None


def test_power_check_of_a_negative_power_needs_the_inverse():
    sys.path.insert(0, str(ROOT / "src"))
    from rjpascal import build_r

    inverse = [list(row) for row in build_r(4).inverse_unimodular().rows]
    check = workloads._power_check(4, -1)
    assert check(0, _power_output(4, -1, inverse)) is None
    assert check(0, _power_output(4, -1, workloads.pascal_r(4))) is not None


def test_verify_check_needs_every_report_passing():
    n = 2
    reports = [{"check": "eigen", "n": n, "params": {"p": p, "x": "symbolic"}, "pass": True}
               for p in (1, 2)]
    reports.append({"check": "involution", "n": n, "params": {"x": "symbolic"}, "pass": True})
    check = workloads._verify_check(n, None)
    assert check(0, json.dumps(reports)) is None
    assert check(0, json.dumps(reports[:-1])) is not None
    reports[0]["pass"] = False
    assert check(0, json.dumps(reports)) is not None


def test_identities_check_counts_skipped_points():
    box = {"M": (-2, 1), "N": (-1, 1), "L": (0, 2)}
    assert workloads.expected_skipped("vandermonde", box) == 2 * 1 * 3
    rep = {"identity": "vandermonde", "box": {k: list(v) for k, v in box.items()},
           "cases_checked": 4 * 3 * 3, "failures": [], "skipped": [{}] * 6}
    check = workloads._identities_check({"vandermonde": box})
    assert check(0, json.dumps([rep])) is None
    rep["skipped"] = [{}] * 5
    assert check(0, json.dumps([rep])) is not None
