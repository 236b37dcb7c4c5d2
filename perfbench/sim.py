"""The in-process simulation workloads: ``bbsched-theta`` and ``engine-cori``.

Each run generates a fixed number of traces from ``--seed`` (one *round*)
and simulates every one through ``SchedulingEngine.run``.  Rounds repeat
while the time allows; every round simulates the same traces, so the
schedule quality of a run does not depend on how fast the program is, and
each repeat must reproduce round one's schedule exactly.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.backfill import EasyBackfill
from repro.core.problem import MOOProblem, SelectionProblem, SSDSelectionProblem
from repro.errors import ReproError
from repro.experiments.config import get_scale
from repro.methods import make_selector
from repro.policies import FCFS, WFP
from repro.simulator import SchedulingEngine, compute_summary, trimmed_interval
from repro.simulator.validate import validate_schedule
from repro.windows import WindowPolicy
from repro.workloads import (
    CORI,
    THETA,
    Trace,
    cori_profile,
    generate,
    make_bb_suite,
    theta_profile,
)

from common import ROOT, check, chunk_tails, median, repeat, self_peak_mib, span_totals
from layers import Instruments, engine_layers, finish_traced


@dataclass(frozen=True)
class SimSpec:
    """One simulation workload: how to make its traces and its engine."""

    name: str
    method: str
    profile: Callable[..., object]
    machine: object
    label: str           #: make_bb_suite machine label
    variant: str         #: which suite member, e.g. "S4"
    n_jobs: int
    scale: str           #: experiment scale whose window/GA knobs apply
    wfp: bool            #: WFP (Theta) or FCFS (Cori) base policy
    traces: int          #: traces per round


SPECS: Dict[Tuple[str, str], SimSpec] = {
    ("bbsched-theta", "full"): SimSpec(
        "bbsched-theta", "BBSched", theta_profile, THETA.scaled(1), "Theta", "S4",
        600, "default", True, 3),
    ("engine-cori", "full"): SimSpec(
        "engine-cori", "Baseline", cori_profile, CORI.scaled(2), "Cori", "S1",
        4000, "paper", False, 16),
    ("bbsched-theta", "smoke"): SimSpec(
        "bbsched-theta", "BBSched", theta_profile, THETA.scaled(8), "Theta", "S4",
        100, "smoke", True, 1),
    ("engine-cori", "smoke"): SimSpec(
        "engine-cori", "Baseline", cori_profile, CORI.scaled(32), "Cori", "S1",
        300, "smoke", False, 1),
}


def spec(workload: str, size: str) -> SimSpec:
    return SPECS[(workload, size)]


def trace_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th trace of a run."""
    return seed * 1000 + index


def build_trace(spec: SimSpec, seed: int, index: int) -> Trace:
    s = trace_seed(seed, index)
    base = generate(spec.profile(n_jobs=spec.n_jobs, machine=spec.machine), seed=s)
    suite = make_bb_suite(base, seed=s + 1, machine_label=spec.label)
    return suite[f"{spec.label}-{spec.variant}"]


class DecisionLog:
    """Wraps ``selector.select``: times each call and keeps what it decided on."""

    def __init__(self, selector) -> None:
        self.seconds: List[float] = []
        self.decisions: List[tuple] = []
        inner = selector.select

        def select(window, avail):
            t0 = time.perf_counter()
            picks = inner(window, avail)
            self.seconds.append(time.perf_counter() - t0)
            self.decisions.append((window, avail.nodes, avail.bb, picks))
            return picks

        selector.select = select


def build_engine(spec: SimSpec, trace: Trace, seed: int, index: int) -> SchedulingEngine:
    sc = get_scale(spec.scale)
    selector = make_selector(
        spec.method, generations=sc.generations, population=sc.population,
        mutation=sc.mutation, seed=trace_seed(seed, index),
    )
    return SchedulingEngine(
        trace.machine.make_cluster(),
        WFP() if spec.wfp else FCFS(),
        selector,
        WindowPolicy(size=sc.window, starvation_bound=sc.starvation_bound),
        backfill=EasyBackfill(),
    )


def summarize(spec: SimSpec, result):
    sc = get_scale(spec.scale)
    interval = trimmed_interval(0.0, result.makespan, warmup_fraction=sc.warmup,
                                cooldown_fraction=sc.cooldown)
    summary = compute_summary(result.jobs, result.recorder, interval,
                              total_nodes=result.total_nodes,
                              bb_capacity=result.bb_capacity)
    return interval, summary


# --- output checks, computed apart from the program --------------------------------
def check_schedule(trace: Trace, result) -> None:
    """Capacity and accounting sweep over the finished jobs.

    Every trace job finishes exactly once, ``submit <= start``,
    ``end == start + runtime``, and at no instant do the running jobs hold
    more nodes or burst buffer than the machine has.  Ends release before
    starts take at equal times, as in the engine.
    """
    jobs = result.jobs
    ids = [j.jid for j in jobs]
    check(len(ids) == len(set(ids)), "a job appears twice in the result")
    check(sorted(ids) == sorted(j.jid for j in trace.jobs),
          "the result's jobs are not exactly the trace's jobs")
    for j in jobs:
        check(j.start_time is not None and j.end_time is not None,
              f"job {j.jid} never finished")
        check(j.submit_time <= j.start_time, f"job {j.jid} started before submission")
        check(abs(j.end_time - (j.start_time + j.runtime)) <= 1e-6,
              f"job {j.jid} ran {j.end_time - j.start_time}s, runtime {j.runtime}s")
    n = len(jobs)
    times = np.array([j.start_time for j in jobs] + [j.end_time for j in jobs])
    is_start = np.concatenate([np.ones(n), np.zeros(n)])
    nodes = np.array([j.nodes for j in jobs] * 2, dtype=float)
    bb = np.array([j.bb for j in jobs] * 2, dtype=float)
    sign = np.where(is_start == 1, 1.0, -1.0)
    order = np.lexsort((is_start, times))  # ends (0) before starts (1) at a tie
    in_use_nodes = np.cumsum((sign * nodes)[order])
    in_use_bb = np.cumsum((sign * bb)[order])
    check(in_use_nodes.max() <= result.total_nodes,
          f"{in_use_nodes.max():.0f} nodes in use, machine has {result.total_nodes}")
    check(in_use_bb.max() <= result.bb_capacity * (1 + 1e-9) + 1e-6,
          f"{in_use_bb.max():.1f} GB burst buffer in use, machine has {result.bb_capacity:.1f}")


def _usage(starts: np.ndarray, ends: np.ndarray, demand: np.ndarray,
           lo: float, hi: float) -> float:
    """Time-averaged demand held over ``[lo, hi)``."""
    overlap = np.clip(np.minimum(ends, hi) - np.maximum(starts, lo), 0.0, None)
    return float(np.sum(demand * overlap) / (hi - lo))


def recompute_quality(result, interval) -> Dict[str, float]:
    """§4.2 metrics from job start and end times alone."""
    jobs = result.jobs
    start = np.array([j.start_time for j in jobs])
    end = np.array([j.end_time for j in jobs])
    submit = np.array([j.submit_time for j in jobs])
    runtime = np.array([j.runtime for j in jobs])
    lo, hi = interval.start, interval.end
    measured = (submit >= lo) & (submit < hi)
    wait = start - submit
    normal = measured & (runtime >= 60.0)  # §4.2 drops abnormal (<60 s) jobs
    return {
        "node_usage": _usage(start, end, np.array([j.nodes for j in jobs], float), lo, hi)
        / result.total_nodes,
        "bb_usage": _usage(start, end, np.array([j.bb for j in jobs], float), lo, hi)
        / result.bb_capacity,
        "avg_wait_s": float(wait[measured].mean()),
        "avg_slowdown": float(((wait + runtime)[normal] / runtime[normal]).mean()),
    }


def check_quality(summary, own: Dict[str, float]) -> None:
    reported = {"node_usage": summary.node_usage, "bb_usage": summary.bb_usage,
                "avg_wait_s": summary.avg_wait, "avg_slowdown": summary.avg_slowdown}
    for key, value in reported.items():
        check(math.isclose(value, own[key], rel_tol=1e-9, abs_tol=1e-9),
              f"program reports {key}={value!r}, start/end times give {own[key]!r}")


def check_decisions(log: DecisionLog) -> None:
    """Every selection picked distinct window jobs that fit what was free."""
    for window, nodes, bb, picks in log.decisions:
        check(len(set(picks)) == len(picks), "a selection picked a job twice")
        check(all(0 <= p < len(window) for p in picks), "a selection picked outside its window")
        check(sum(window[p].nodes for p in picks) <= nodes,
              f"a selection took {sum(window[p].nodes for p in picks)} nodes, {nodes} were free")
        check(sum(window[p].bb for p in picks) <= bb * (1 + 1e-9) + 1e-6,
              f"a selection took {sum(window[p].bb for p in picks):.1f} GB, {bb:.1f} were free")


def check_simulation(trace: Trace, result, summary, interval, log: DecisionLog) -> None:
    report = validate_schedule(result.jobs, total_nodes=result.total_nodes,
                               bb_capacity=result.bb_capacity)
    check(report.ok, f"simulator/validate.py rejects the schedule: {report.violations[:3]}")
    check_schedule(trace, result)
    check_quality(summary, recompute_quality(result, interval))
    check_decisions(log)


# --- the workload -----------------------------------------------------------------
@dataclass
class SimRun:
    trace: Trace
    result: object
    summary: object
    interval: object
    log: DecisionLog
    wall: float


def simulate(spec: SimSpec, trace: Trace, seed: int, index: int) -> SimRun:
    engine = build_engine(spec, trace, seed, index)
    log = DecisionLog(engine.selector)
    t0 = time.perf_counter()
    result = engine.run(trace.fresh_jobs())
    wall = time.perf_counter() - t0
    interval, summary = summarize(spec, result)
    return SimRun(trace, result, summary, interval, log, wall)


def setup_samples(spec: SimSpec, seed: int) -> List[float]:
    """Times to generate the first trace and build its engine."""
    def once() -> float:
        t0 = time.perf_counter()
        build_engine(spec, build_trace(spec, seed, 0), seed, 0)
        return time.perf_counter() - t0
    return repeat(once, min_reps=3, min_seconds=0.3)


def measure(spec: SimSpec, seed: int, seconds: float) -> Tuple[Dict[str, float], int, int, List[str]]:
    """Untraced run: end-to-end metrics, operations attempted and failed."""
    # Set-up is sampled before and after the rounds, so one slow moment
    # of the host does not set the median.
    setups = setup_samples(spec, seed)
    traces = [build_trace(spec, seed, i) for i in range(spec.traces)]
    attempted = failed = 0
    notes: List[str] = []
    first: Dict[int, SimRun] = {}   # round one's run of each trace
    rates: List[float] = []
    p50s: List[float] = []
    tails: List[float] = []
    started = time.perf_counter()
    for round_no in itertools.count():
        round_start = time.perf_counter()
        jobs = wall = 0.0
        for i, trace in enumerate(traces):
            attempted += 1
            try:
                run = simulate(spec, trace, seed, i)
            except ReproError as exc:
                failed += 1
                notes.append(f"simulation of trace {i} failed: {exc}")
                continue
            jobs += len(trace)
            wall += run.wall
            ms = [s * 1e3 for s in run.log.seconds]
            p50s.append(median(ms))
            tails.extend(chunk_tails(ms))
            if round_no == 0:
                check_simulation(trace, run.result, run.summary, run.interval, run.log)
                first[i] = run
            else:
                check(i in first and [j.start_time for j in run.result.jobs]
                      == [j.start_time for j in first[i].result.jobs],
                      f"trace {i} scheduled differently on a repeat")
        check(wall > 0, "no simulation finished")
        rates.append(jobs / wall)
        took = time.perf_counter() - round_start
        if time.perf_counter() - started + took > seconds:
            break
    setups += setup_samples(spec, seed)

    def mean(key: str) -> float:
        return float(np.mean([getattr(r.summary, key) for r in first.values()]))

    metrics = {
        "setup_s": median(setups),
        "sim_jobs_per_s": median(rates),
        "decision_p50_ms": median(p50s),
        "decision_tail_ms": median(tails),
        "node_usage": mean("node_usage"),
        "bb_usage": mean("bb_usage"),
        "peak_rss_mb": self_peak_mib(),
    }
    notes.append(f"{len(rates)} round(s) of {len(traces)} trace(s), "
                 f"{sum(len(t) for t in traces)} jobs per round")
    notes.append(f"unbounded: avg_wait_s = {mean('avg_wait'):.6g} s, "
                 f"avg_slowdown = {mean('avg_slowdown'):.6g}")
    return metrics, attempted, failed, notes


def traced(spec: SimSpec, seed: int, out) -> Tuple[Dict[str, float], int, int, List[str]]:
    """One more simulation of the first trace, traced layer by layer."""
    inst = Instruments()
    with inst.active():
        generate_probe = inst.probe("generate")
        trace = generate_probe.wrap(build_trace)(spec, seed, 0)
        engine = build_engine(spec, trace, seed, 0)
        log = DecisionLog(engine.selector)
        with inst.patched(engine.policy, "order", "order", span="policies.order"), \
                inst.patched(engine.backfill, "plan", "backfill"), \
                inst.patched(SelectionProblem, "evaluate", "evaluate",
                             rows=lambda a: a[1].shape[0]), \
                inst.patched(SSDSelectionProblem, "evaluate", "evaluate"), \
                inst.patched(MOOProblem, "repair", "repair"):
            solver = getattr(engine.selector, "solver", None)
            if solver is not None:
                engine.selector.solver.solve = inst.probe(
                    "solve", span="solvers.solve").wrap(solver.solve)
            result = engine.run(trace.fresh_jobs())
        summary_probe = inst.probe("summary")
        interval, summary = summary_probe.wrap(summarize)(spec, result)
    check_simulation(trace, result, summary, interval, log)
    counters = {k: c.value for k, c in engine.metrics.counters.items()}
    spans = inst.spans()
    generations = sum(s.attrs.get("generations", 0) for s in spans if s.name == "ga_solve")
    layers = engine_layers(span_totals(spans), counters, inst, generations)
    layers["workloads.generate_s"] = generate_probe.seconds
    layers["simulator.summary_s"] = summary_probe.seconds
    finish_traced(spec.name, out, inst, layers, engine.metrics)
    return layers, 1, 0, [f"traced one simulation of {len(trace)} jobs; "
                          f"files in {out.relative_to(ROOT)}"]
