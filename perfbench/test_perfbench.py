"""The benchmark's own tests: smoke-size runs, output checks, a broken schedule.

Run from the checkout root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.program_root()

import sim  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402


def run_bench(*args: str, cwd: Path = common.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_run_reports_every_metric_above_zero(workload):
    out = result_of(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", "0", "--size", "smoke"))
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    assert set(out["metrics"]) == set(END_TO_END)
    for name, metric in out["metrics"].items():
        assert metric["unit"] == END_TO_END[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_writes_valid_layers_and_trace(workload):
    out = result_of(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", "1", "--size", "smoke"))
    assert out["correct"] is True
    assert set(out["metrics"]) == set(LAYER_METRICS)
    assert all(m["value"] >= 0 for m in out["metrics"].values())
    assert out["metrics"]["telemetry.overhead_s"]["value"] > 0
    layers = json.loads((common.OUT_DIR / workload / "layers.json").read_text())
    assert all(v >= -1e-6 for v in layers["span_self_s"].values())
    assert (common.OUT_DIR / workload / "trace.json").is_file()


def test_all_runs_every_workload():
    out = result_of(run_bench("--all", "--seed", "2", "--seconds", "1", "--size", "smoke"))
    assert out["correct"] is True
    assert set(out["workloads"]) == set(WORKLOADS)
    assert out["host"]["nproc"] >= 1


@pytest.fixture(scope="module")
def run():
    """One smoke-size engine-cori simulation with its decision log."""
    spec = sim.spec("engine-cori", "smoke")
    return sim.simulate(spec, sim.build_trace(spec, 5, 0), 5, 0)


def test_checks_pass_on_the_programs_schedule(run):
    sim.check_simulation(run.trace, run.result, run.summary, run.interval, run.log)


def test_capacity_sweep_rejects_a_broken_schedule(run):
    jobs = [dataclasses.replace(j) for j in run.result.jobs]
    # Move every job to start at its submission: the machine overflows.
    for j in jobs:
        j.end_time = j.submit_time + j.runtime
        j.start_time = j.submit_time
    broken = dataclasses.replace(run.result, jobs=jobs)
    with pytest.raises(common.CheckFailed, match="in use"):
        sim.check_schedule(run.trace, broken)


def test_accounting_sweep_rejects_a_job_run_twice(run):
    broken = dataclasses.replace(run.result, jobs=run.result.jobs + run.result.jobs[:1])
    with pytest.raises(common.CheckFailed, match="twice"):
        sim.check_schedule(run.trace, broken)


def test_quality_check_rejects_a_wrong_summary(run):
    wrong = dataclasses.replace(run.summary, avg_wait=run.summary.avg_wait * 1.01)
    with pytest.raises(common.CheckFailed, match="avg_wait_s"):
        sim.check_quality(wrong, sim.recompute_quality(run.result, run.interval))


def test_decision_check_rejects_picks_that_do_not_fit(run):
    window, nodes, bb, picks = next(d for d in run.log.decisions if d[3])
    run.log.decisions.append((window, 0, bb, picks))
    try:
        with pytest.raises(common.CheckFailed, match="nodes"):
            sim.check_decisions(run.log)
    finally:
        run.log.decisions.pop()


def test_tail_needs_forty_samples():
    assert common.tail(list(range(40))) == 29
    with pytest.raises(common.CheckFailed):
        common.tail(list(range(39)))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("--workload", "engine-cori", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
