#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the BBSched reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bbsched-theta --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25       # every workload
    python3 perfbench/run.py --workload engine-cori --trace 1   # per-layer run

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the workload once more under the program's tracer and reports the
per-layer metrics, writing ``perfbench/out/<workload>/{layers,trace}.json``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--size smoke`` shrinks every
workload to seconds, for the benchmark's own tests.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from typing import Any, Dict

from common import CheckFailed, fingerprint, out_dir, program_root, reference_seconds

WORKLOADS = ("bbsched-theta", "engine-cori", "service-mix", "grid-ledger")

#: End-to-end metrics: name → unit.  Every workload reports all of them.
#: README.md says why request latency, mean wait and mean slowdown are
#: printed as unbounded notes instead.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "sim_jobs_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_tail_ms": "ms",
    "node_usage": "frac",
    "bb_usage": "frac",
    "peak_rss_mb": "MiB",
}


def _module(workload: str):
    if workload in ("bbsched-theta", "engine-cori"):
        import sim
        return sim
    if workload == "service-mix":
        import service
        return service
    import grid
    return grid


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> Dict[str, Any]:
    """One workload's result object (the benchmark's last output line)."""
    module = _module(workload)
    spec = module.spec(workload, size)
    if trace:
        from layers import LAYER_METRICS
        units = LAYER_METRICS
        metrics, attempted, failed, notes = module.traced(spec, seed, out_dir(workload))
    else:
        units = END_TO_END
        metrics, attempted, failed, notes = module.measure(spec, seed, seconds)
    for note in notes:
        print(f"# {workload}: {note}")
    print(f"# {workload}: attempted {attempted} operations, {failed} failed")
    for name in units:
        print(f"# {workload}: {name} = {metrics[name]:.6g} {units[name]}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    root = program_root()
    os.chdir(root)
    host = fingerprint()
    print("# host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    print("# load average at start: %.2f %.2f %.2f" % os.getloadavg())
    print(f"# reference loop at start: {reference_seconds():.4f} s")
    started = time.perf_counter()
    results: Dict[str, Dict[str, Any]] = {}
    for workload in (WORKLOADS if args.all else (args.workload,)):
        try:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace), args.size)
        except CheckFailed as exc:
            print(f"# {workload}: OUTPUT CHECK FAILED: {exc}")
            traceback.print_exc(file=sys.stderr)
            results[workload] = {"correct": False, "attempted": 1, "failed": 1,
                                 "metrics": {}}
    print("# load average at end: %.2f %.2f %.2f" % os.getloadavg())
    print(f"# reference loop at end: {reference_seconds():.4f} s")
    print(f"# wall time {time.perf_counter() - started:.1f}s")
    correct = all(r["correct"] for r in results.values())
    if args.all:
        print(json.dumps({"correct": correct, "host": host, "workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
