"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402


def one_pass(runner: run.Runner) -> tuple[list, list]:
    runner.run_pass(0)
    assert runner.failed == 0, runner.errors
    return runner.first[0], runner.digests[0]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tracing_leaves_results_identical(workload, tmp_path):
    inputs = run.setup(workload, 3, tmp_path)
    before = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items() if callable(v)}
    plain = one_pass(run.Runner(inputs, None))
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass(run.Runner(inputs, None))
    finally:
        tracer.remove()
    assert traced == plain
    assert tracer.spans, "the traced pass recorded no spans"
    after = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items() if callable(v)}
    assert after == before, "a wrapped function was not restored"


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_counts_repeat_across_setups(workload, tmp_path):
    first = one_pass(run.Runner(run.setup(workload, 5, tmp_path / "a"), None))
    second = one_pass(run.Runner(run.setup(workload, 5, tmp_path / "b"), None))
    assert first == second


def test_default_seed_matches_reference(tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    assert set(reference) == set(wl.WORKLOADS)
    for workload in wl.WORKLOADS:
        inputs = run.setup(workload, wl.DEFAULT_SEED, tmp_path / workload)
        runner = run.Runner(inputs, reference[workload])
        for i in range(len(inputs["sets"])):
            runner.run_pass(i)
        assert runner.failed == 0, runner.errors


def test_checks_reject_a_wrong_output(tmp_path):
    inputs = run.setup("io", 1, tmp_path)
    op = inputs["sets"][0][1]  # json export must reproduce its input
    Path(op["file"]).write_text("[]\n")
    with pytest.raises(wl.CheckFailed):
        wl.check(op, 0, "", "")
    with pytest.raises(wl.CheckFailed):
        wl.check(op, 3, "", "error: no solution")


def test_closure_residuals_match_the_program():
    from rigidfold import fold_models as fm
    from rigidfold.core_geometry import closure_residual

    a, b = 1.0, 0.9
    vec = fm.degree4_fold(a, b, 1, 0.7) + 1e-3
    want = closure_residual(fm.degree4_pattern(a, b), vec)
    assert wl.closure_residuals(wl.sectors("degree4", a, b), [vec])[0] == pytest.approx(want, rel=1e-9)


def test_tail_rule():
    assert run.tail(list(range(1, 101))) == (90, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "interactive", "--seed", "2",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
