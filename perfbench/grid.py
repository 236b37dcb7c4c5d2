"""The ``grid-ledger`` workload: ``run_grid`` with a results ledger, then a resume.

A round runs the smoke-scale grid (ten named workloads × every method but
``Constrained_SSD``) on ``nproc`` pool workers, appending each cell to a
``ResultsLedger``, and then calls ``run_grid(resume=True)``, which must
return every cell from the ledger without recomputing any.  ``run_grid``
seeds each cell itself, so ``--seed`` sets the order of the workloads and
methods, which is the order cells are dispatched in.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

import repro.experiments.grid as grid_module
from repro.checkpoint import ResultsLedger
from repro.experiments.config import get_scale
from repro.experiments.grid import grid_telemetry, run_grid
from repro.experiments.workloads import ALL_WORKLOADS
from repro.methods.registry import METHODS_EXTENDED, METHODS_SECTION4
from repro.parallel import parallel_map

from common import (
    ROOT,
    TreeMemorySampler,
    check,
    median,
    nproc,
    out_dir,
    repeat,
    run_tool,
    tail,
)
from layers import Instruments, engine_layers, finish_traced, ratio


@dataclass(frozen=True)
class GridSpec:
    workloads: Tuple[str, ...]
    methods: Tuple[str, ...]
    scale: str


SPECS = {
    "full": GridSpec(ALL_WORKLOADS, METHODS_SECTION4 + METHODS_EXTENDED, "smoke"),
    # 40 quick cells: the fewest a tail is reported over.
    "smoke": GridSpec(ALL_WORKLOADS, ("Baseline", "Bin_Packing", "Plan_Based", "Weighted"),
                      "smoke"),
}


def spec(workload: str, size: str) -> GridSpec:
    return SPECS[size]


def _noop(i: int) -> int:
    return i


def setup_samples(ledger_path) -> List[float]:
    """Times to open a fresh ledger and start a pool that answers."""
    def once() -> float:
        t0 = time.perf_counter()
        ResultsLedger(ledger_path).reset()
        parallel_map(_noop, [(i,) for i in range(nproc())], workers=nproc())
        return time.perf_counter() - t0
    return repeat(once, min_reps=3, min_seconds=0.3)


def one_round(sp: GridSpec, rng: np.random.Generator, ledger_path, telemetry: bool = False):
    """Fresh grid plus resume; returns (fresh results, wall s, resume s)."""
    workloads = [sp.workloads[i] for i in rng.permutation(len(sp.workloads))]
    methods = [sp.methods[i] for i in rng.permutation(len(sp.methods))]
    scale = get_scale(sp.scale)
    kwargs = dict(workloads=workloads, methods=methods, workers=nproc(),
                  ledger=ledger_path, telemetry=telemetry)
    t0 = time.perf_counter()
    fresh = run_grid(scale, **kwargs)
    wall = time.perf_counter() - t0
    size = os.path.getsize(ledger_path)
    t1 = time.perf_counter()
    resumed = run_grid(scale, resume=True, **kwargs)
    resume_s = time.perf_counter() - t1
    cells = {(w, m) for w in workloads for m in methods}
    check(set(fresh) == cells, f"grid returned {len(fresh)} of {len(cells)} cells")
    check(set(resumed) == cells, f"resume returned {len(resumed)} of {len(cells)} cells")
    check(os.path.getsize(ledger_path) == size, "the resume pass appended to the ledger")
    for key in cells:
        check(same_cell(resumed[key], fresh[key]), f"resumed cell {key} differs from the fresh one")
    check_ledger(ledger_path, cells)
    return fresh, wall, resume_s


def same_cell(a, b) -> bool:
    """Field-by-field equality of two RunResults, NaN included."""
    def plain(r):
        # repr shows every field, and NaN as "nan", which == would not match.
        return repr(replace(r, telemetry=None))

    def telemetry(r):
        t = r.telemetry
        return None if t is None else (t.spans, t.metrics.snapshot())

    return plain(a) == plain(b) and repr(telemetry(a)) == repr(telemetry(b))


def check_ledger(ledger_path, cells) -> None:
    run_tool("tools/validate_checkpoint.py", str(ledger_path.relative_to(ROOT)),
             "--kind", "ledger", "--require-complete", "--min-cells", str(len(cells)))
    with open(ledger_path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    seen = Counter((r["workload"], r["method"]) for r in records if r.get("kind") == "cell")
    check(set(seen) == cells and set(seen.values()) == {1},
          "the ledger does not hold each cell exactly once")


def measure(sp: GridSpec, seed: int, seconds: float):
    out = out_dir("grid-ledger")
    ledger_path = out / "ledger.jsonl"
    rng = np.random.default_rng(seed)
    # Sampled before and after the rounds, as on the simulation workloads.
    setups = setup_samples(ledger_path)
    jobs = get_scale(sp.scale).n_jobs
    rounds: List[tuple] = []
    started = time.perf_counter()
    with TreeMemorySampler(os.getpid()) as memory:
        while True:
            fresh, wall, _ = one_round(sp, rng, ledger_path)
            rounds.append((fresh, wall))
            if time.perf_counter() - started + wall > seconds:
                break
    setups += setup_samples(ledger_path)
    first = rounds[0][0].values()

    def mean(key: str) -> float:
        return float(np.mean([getattr(r.summary, key) for r in first]))

    rates, d50s, dtails = [], [], []
    for fresh, wall in rounds:
        decision = [r.mean_selector_time * 1e3 for r in fresh.values()]
        rates.append(len(fresh) * jobs / wall)
        d50s.append(median(decision))
        dtails.append(tail(decision))
    metrics = {
        "setup_s": median(setups),
        "sim_jobs_per_s": median(rates),
        "decision_p50_ms": median(d50s),
        "decision_tail_ms": median(dtails),
        "node_usage": mean("node_usage"),
        "bb_usage": mean("bb_usage"),
        "peak_rss_mb": memory.peak_mib,
    }
    cells = len(sp.workloads) * len(sp.methods)
    notes = [f"{len(rounds)} round(s) of {cells} cells on {nproc()} workers, each resumed",
             f"unbounded: avg_wait_s = {mean('avg_wait'):.6g}, "
             f"avg_slowdown = {mean('avg_slowdown'):.6g}"]
    return metrics, cells * len(rounds), 0, notes


def traced(sp: GridSpec, seed: int, out):
    """One round with per-cell telemetry, the pool map and ledger appends probed."""
    inst = Instruments()
    ledger_path = out / "ledger.jsonl"
    rng = np.random.default_rng(seed)
    with inst.active(), \
            inst.patched(grid_module, "parallel_map", "map", span="parallel.map"), \
            inst.patched(ResultsLedger, "append_result", "append", span="checkpoint.append"):
        fresh, wall, resume_s = one_round(sp, rng, ledger_path, telemetry=True)
    snapshot = grid_telemetry(fresh)
    counters = {k: c.value for k, c in snapshot.metrics.counters.items()}
    # Every GA solve runs the scale's full generation budget.
    generations = snapshot.spans.get("ga_solve", {}).get("count", 0) * get_scale(sp.scale).generations
    layers = engine_layers(snapshot.spans, counters, inst, generations)
    pool = inst.get("map")
    busy = snapshot.spans.get("event_loop", {}).get("total", 0.0)
    layers.update({
        # The fresh pass's map; the resume pass maps no tasks.
        "parallel.map_s": pool.seconds,
        "parallel.busy_ratio": ratio(busy, nproc() * pool.seconds),
        "checkpoint.ledger_append_s": inst.get("append").seconds,
        "checkpoint.ledger_bytes": os.path.getsize(ledger_path),
        "checkpoint.resume_s": resume_s,
    })
    finish_traced("grid-ledger", out, inst, layers, snapshot.metrics,
                  extra={"cell_span_totals": snapshot.spans, "grid_wall_s": wall})
    return layers, len(fresh), 0, [f"traced one round of {len(fresh)} cells"]
