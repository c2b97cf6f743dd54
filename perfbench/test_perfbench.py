"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They show that wrong outputs are counted as failures, that a tiny version of
each workload completes with every metric the benchmark declares, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny_pass(workload: str, tmp_path: Path) -> run.Pass:
    commands = workloads.build(workload, seed=11, tiny=True)
    launcher = run.Launcher()
    try:
        return run.run_pass(launcher, commands, tmp_path, 0, run.clock() + 120, traced=False,
                            check_memo={})
    finally:
        launcher.close()


def _recheck(done: run.Pass, index: int, stdout: str) -> dict[int, str]:
    done.runs[index].stdout = stdout
    return checks.check_pass(done.runs)


def test_corrupted_jantzen_outputs_are_failures(tmp_path):
    done = _tiny_pass("jantzen", tmp_path)
    assert done.failures == {}
    # a --json total with a term, directly followed by its --trace --json twin
    index = next(
        i for i, r in enumerate(done.runs[:-1])
        if r.argv[0] == "jantzen" and r.argv[-1] == "--json" and "--trace" not in r.argv
        and json.loads(r.stdout)["total"]["terms"]
        and done.runs[i + 1].argv == r.argv[:-1] + ("--trace", "--json")
    )
    original = done.runs[index].stdout

    # an altered total: one coefficient moved by one
    report = json.loads(original)
    term = report["total"]["terms"][0]
    term["coeff"] = str(int(term["coeff"]) + 1)
    assert index in _recheck(done, index, json.dumps(report) + "\n")
    done.runs[index].stdout = original

    # a trace term whose outcome has the wrong sign
    traced = index + 1
    report = json.loads(done.runs[traced].stdout)
    term = next(t for t in report["terms"] if not t["outcome"].get("singular"))
    term["outcome"]["sign"] *= -1
    assert traced in _recheck(done, traced, json.dumps(report) + "\n")


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (("kostka", "--lambda", "2,1", "--mu", "1,1,1"), "3\n"),
        (("schur", "--lambda", "2,1"), "S[2,1] = m[2,1] + m[1,1,1]\n"),
        (("normalize", "--d", "2", "--coords", "-3,3"), "sign=+1 dominant=(1,1)\n"),
        (("identity", "--n", "4", "--which", "second"),
         "n=4 second DIFFER (composite, conjecture instance)\n"),
        (("sweep", "2", "3", "--which", "second", "--jobs", "1"),
         "n=2 second EQUAL (prime, theorem)\n"),
        (("sequence", "--p", "5", "--d", "3"), "lambda_0 = (0,3,1)\nlambda_1 = (1,2,1)\n"),
        (("jantzen", "--p", "3", "--d", "3", "--lambda", "1,0,2", "--trace"),
         "lambda=(1,0,2) p=3 levi=full\n"
         "  a[1,3] m=1 level=3 v=1 t=3 image=(-2,0,-1) -> +1·(0,0,0)\n"
         "  a[2,3] m=1 level=3 v=1 t=1 image=(2,-1,1) -> singular\n"
         "total: +χ(0,0,0)\n"),
        (("selftest",), "MISMATCH kostka-vs-ssyt: kostka([2],[1,1]) != 1\n"),
    ],
)
def test_wrong_outputs_are_rejected(argv, stdout):
    with pytest.raises(checks.CheckError):
        checks.check_output(argv, stdout)


def test_right_outputs_are_accepted():
    checks.check_output(("kostka", "--lambda", "2,1", "--mu", "1,1,1"), "2\n")
    checks.check_output(("schur", "--lambda", "2,1"), "S[2,1] = m[2,1] + 2·m[1,1,1]\n")
    checks.check_output(("normalize", "--d", "2", "--coords", "-3,3"), "sign=-1 dominant=(1,1)\n")
    checks.check_output(
        ("jantzen", "--p", "3", "--d", "3", "--lambda", "1,0,2", "--trace"),
        "lambda=(1,0,2) p=3 levi=full\n"
        "  a[1,3] m=1 level=3 v=1 t=3 image=(-2,0,-1) -> singular\n"
        "  a[2,3] m=1 level=3 v=1 t=1 image=(2,-1,1) -> singular\n"
        "total: 0\n",
    )


def test_exit_codes_and_timeouts_are_failures():
    ok = run.CommandRun(("selftest",), "work", launch=0.0, code=0, stdout="selftest passed\n")
    bad_code = run.CommandRun(("selftest",), "work", launch=0.0, code=4, stdout="selftest passed\n")
    late = run.CommandRun(("selftest",), "work", launch=0.0, code=0, timed_out=True)
    assert checks.check_pass([ok, bad_code, late]) == {1: "exit code 4", 2: "timed out"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_commands_follow_the_seed(workload):
    assert workloads.build(workload, 5) == workloads.build(workload, 5)
    if workload != "identity":  # identity has no free input
        assert workloads.build(workload, 5) != workloads.build(workload, 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_result_samples_repeat_the_first_command(workload):
    commands = workloads.build(workload, 5)
    roles = [c.role for c in commands]
    firsts = [i for i, role in enumerate(roles) if role == "first"]
    assert len(firsts) == workloads.FIRST_SAMPLES[workload]
    assert all(commands[i].argv == commands[0].argv for i in firsts)
    assert roles[0] == "work" and "first" not in roles[roles.index("probe"):]


def test_end_to_end_takes_each_command_mean_over_passes():
    def one_pass(walls, first_line):
        runs = [run.CommandRun((f"c{i}",), "work", launch=10.0 * i, end=10.0 * i + w)
                for i, w in enumerate(walls)]
        runs[0].first_line = runs[0].launch + first_line
        runs.append(run.CommandRun(("p",), "probe", launch=90.0, end=90.5))
        return run.Pass(runs, cache_bytes=0)

    passes = [one_pass([1.0, 2.0, 4.0], 0.5), one_pass([3.0, 2.0, 2.0], 1.5)]
    values, extra = run.end_to_end(passes)
    assert values["wall_s"] == pytest.approx(7.0)
    assert values["first_result_s"] == pytest.approx(1.0)
    assert values["op_p50_s"] == pytest.approx(2.0)  # means 2, 2, 3
    assert values["op_tail_s"] == pytest.approx(3.0)
    assert values["setup_s"] == pytest.approx(0.5)
    assert extra["mean_of"] == 2 and extra["op_samples"] == 3


def test_times_leave_out_pauses_and_follow_the_host_speed():
    slow = run.CommandRun(("c",), "work", launch=1.0, end=3.5, first_line=2.5, paused_s=0.5,
                          paused_before_first_s=0.25, scale=run.host_scale([0.008, 0.008]))
    assert slow.scale == pytest.approx(run.SPEED_REFERENCE_S / 0.008)
    assert slow.wall == pytest.approx(2.0 * slow.scale)
    assert slow.first_result == pytest.approx(1.25 * slow.scale)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_completes(workload, trace):
    result, record = run.measure(workload, seed=3, seconds=1, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(len(argv) > 3 for argv in record["commands"])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace and workload == "jantzen":
        assert values["charring.kostka_calls"] == 0 and values["lattice.calls"] == 0
        assert values["jantzen.terms"] > 0
    if trace and workload == "identity":
        assert values["jantzen.terms"] == 0 and values["weyl.normalize_calls"] == 0
        assert values["charring.kostka_calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "identity", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
