"""The ``service-mix`` workload: one ``repro serve`` daemon, one closed-loop client.

The daemon runs as a subprocess with a journal and ``nproc`` workers.  The
client keeps at most ``nproc`` requests in flight, one per thread: each
thread submits, reads ``status`` once, waits with ``ServiceClient.wait``
(which polls ``status`` every 100 ms) and reads ``stats`` after every
eighth request.  A round submits every (workload, method) pair once, in an
order and with simulation seeds drawn from ``--seed``.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.config import get_scale
from repro.experiments.runner import run_one
from repro.experiments.workloads import ALL_WORKLOADS, get_workload
from repro.methods.registry import METHODS_SECTION4
from repro.service.client import ServiceClient
from repro.service.journal import RequestJournal

from common import (
    ROOT,
    TreeMemorySampler,
    check,
    median,
    nproc,
    out_dir,
    process_tree,
    run_tool,
    tail,
    wait_gone,
)
from layers import Instruments, empty_layers, finish_traced

#: A ``stats`` read follows every this-many requests of a client thread.
STATS_EVERY = 8


@dataclass(frozen=True)
class ServiceSpec:
    workloads: Tuple[str, ...]
    methods: Tuple[str, ...]
    scale: str
    setup_reps: int      #: extra daemon starts timed for setup_s, half before, half after
    samples: int         #: results re-run in-process per run
    repeat: int = 1      #: submits of each (workload, method) pair per round


SPECS = {
    "full": ServiceSpec(ALL_WORKLOADS, METHODS_SECTION4, "smoke", 2, 3),
    # 40 quick requests: the fewest a tail is reported over.
    "smoke": ServiceSpec(("Cori-S1", "Theta-S1"), ("Baseline", "Bin_Packing"), "smoke",
                         1, 1, repeat=10),
}


def spec(workload: str, size: str) -> ServiceSpec:
    return SPECS[size]


class Daemon:
    """A ``repro serve`` subprocess with a fresh journal in the output directory."""

    def __init__(self, out: Path) -> None:
        rel = out.relative_to(ROOT)
        # Relative to the checkout root (the cwd of both sides), so the
        # Unix socket path stays short wherever the checkout lives.
        self.socket = str(rel / "svc.sock")
        self.journal = out / "journal.jsonl"
        self.log = out / "daemon.log"
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> float:
        """Start the daemon; returns seconds until its first answered ping."""
        for stale in (self.journal, ROOT / self.socket):
            if stale.exists():
                stale.unlink()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        t0 = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--socket", self.socket,
                 "--journal", str(self.journal), "--workers", str(nproc())],
                cwd=ROOT, env=env, stdout=log, stderr=log)
        client = ServiceClient(self.socket)
        while not client.alive():
            check(self.proc.poll() is None, f"daemon exited early; see {self.log}")
            check(time.perf_counter() - t0 < 60, "daemon did not answer ping within 60 s")
            time.sleep(0.002)
        return time.perf_counter() - t0

    def stop(self) -> None:
        """Shut the daemon down and wait until it and its workers have exited."""
        if self.proc is None:
            return
        family = process_tree(self.proc.pid)[1:]
        try:
            if self.proc.poll() is None:
                ServiceClient(self.socket).shutdown("graceful")
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=30)
            self.proc = None
            wait_gone(family, timeout=30)


@dataclass
class Request:
    workload: str
    method: str
    seed: int
    latency: float = 0.0
    status: Dict = field(default_factory=dict)


def make_round(sp: ServiceSpec, rng: np.random.Generator) -> List[Request]:
    pairs = [(w, m) for w in sp.workloads for m in sp.methods] * sp.repeat
    order = rng.permutation(len(pairs))
    seeds = rng.integers(0, 2**31 - 1, size=len(pairs))
    return [Request(*pairs[i], int(s)) for i, s in zip(order, seeds)]


def drive(daemon: Daemon, sp: ServiceSpec, requests: List[Request],
          wrap=None) -> float:
    """Run ``requests`` in a closed loop with ``nproc`` threads; returns the wall time."""
    lock = threading.Lock()
    queue = iter(requests)

    def worker() -> None:
        client = ServiceClient(daemon.socket)
        if wrap is not None:
            wrap(client)
        for n in itertools.count(1):
            with lock:
                req = next(queue, None)
            if req is None:
                return
            try:
                t0 = time.perf_counter()
                accepted = client.submit(workload=req.workload, method=req.method,
                                         scale=sp.scale, seed=req.seed)
                client.status(accepted["id"])
                req.status = client.wait(accepted["id"])
                req.latency = time.perf_counter() - t0
                if n % STATS_EVERY == 0:
                    client.stats()
            except Exception as exc:  # counted as a failed request by the caller
                req.status = {"state": "error", "error": repr(exc)}

    threads = [threading.Thread(target=worker) for _ in range(nproc())]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
        check(not t.is_alive(), "a client thread did not finish within 300 s")
    return time.perf_counter() - t0


def warm_up(daemon: Daemon, sp: ServiceSpec) -> None:
    """One request per worker, so each has built its traces before timing."""
    warm = [Request(sp.workloads[0], "Baseline", 0) for _ in range(nproc())]
    drive(daemon, sp, warm)
    check(all(r.status.get("state") == "done" for r in warm), "warm-up requests failed")


def check_journal(daemon: Daemon, sp: ServiceSpec, done: List[Request],
                  rng: np.random.Generator) -> Dict[str, object]:
    """Validate the journal; re-run a seeded sample in-process; return results by id."""
    run_tool("tools/validate_checkpoint.py", str(daemon.journal.relative_to(ROOT)),
             "--kind", "journal", "--require-complete")
    view = RequestJournal(daemon.journal).load(verify_payloads=True)
    results = {r.status["id"]: view.result(r.status["id"]) for r in done}
    scale = get_scale(sp.scale)
    for i in rng.choice(len(done), size=min(sp.samples, len(done)), replace=False):
        req = done[int(i)]
        mine = run_one(get_workload(req.workload, scale), req.method, scale, seed=req.seed)
        theirs = req.status["summary"]
        check(theirs["makespan"] == mine.makespan
              and theirs["selector_calls"] == mine.selector_calls
              and all(theirs["metrics"][k] == v or (math.isnan(v) and math.isnan(theirs["metrics"][k]))
                      for k, v in mine.summary.as_dict().items()),
              f"service result for {req.workload}/{req.method} seed {req.seed} "
              f"differs from an in-process run_one")
    return results


def measure(sp: ServiceSpec, seed: int, seconds: float):
    out = out_dir("service-mix")
    rng = np.random.default_rng(seed)
    daemon = Daemon(out)
    setups: List[float] = []

    def start_stop() -> None:
        setups.append(daemon.start())
        daemon.stop()

    for _ in range(sp.setup_reps // 2):
        start_stop()
    try:
        setups.append(daemon.start())
        warm_up(daemon, sp)
        rounds: List[Tuple[List[Request], float]] = []
        started = time.perf_counter()
        with TreeMemorySampler(daemon.proc.pid) as memory:
            while True:
                requests = make_round(sp, rng)
                wall = drive(daemon, sp, requests)
                rounds.append((requests, wall))
                if time.perf_counter() - started + wall > seconds:
                    break
    finally:
        daemon.stop()
    # Checked now: the timed starts below begin with a fresh journal.
    every = [r for reqs, _ in rounds for r in reqs]
    done = [r for r in every if r.status.get("state") == "done"]
    results = check_journal(daemon, sp, done, rng)
    for _ in range(sp.setup_reps - sp.setup_reps // 2):
        start_stop()
    jobs = get_scale(sp.scale).n_jobs
    rates, p50s, tails, d50s, dtails = [], [], [], [], []
    for reqs, wall in rounds:
        ok = [r for r in reqs if r.status.get("state") == "done"]
        rates.append(len(ok) * jobs / wall)
        latency = [r.latency * 1e3 for r in ok]
        decision = [results[r.status["id"]].mean_selector_time * 1e3 for r in ok]
        p50s.append(median(latency))
        tails.append(tail(latency))
        d50s.append(median(decision))
        dtails.append(tail(decision))

    def mean(key: str) -> float:
        return float(np.mean([r.status["summary"]["metrics"][key] for r in done]))

    metrics = {
        "setup_s": median(setups),
        "sim_jobs_per_s": median(rates),
        "decision_p50_ms": median(d50s),
        "decision_tail_ms": median(dtails),
        "node_usage": mean("node_usage"),
        "bb_usage": mean("bb_usage"),
        "peak_rss_mb": memory.peak_mib,
    }
    notes = [f"{len(rounds)} round(s) of {len(rounds[0][0])} requests, "
             f"{nproc()} in flight; daemon start {', '.join(f'{s:.3f}' for s in setups)} s",
             f"unbounded: request_p50_ms = {median(p50s):.6g}, request_tail_ms = "
             f"{median(tails):.6g}, avg_wait_s = {mean('avg_wait'):.6g}, "
             f"avg_slowdown = {mean('avg_slowdown'):.6g}"]
    notes += [f"request {r.workload}/{r.method} ended {r.status}" for r in every
              if r.status.get("state") != "done"]
    return metrics, len(every), len(every) - len(done), notes


def traced(sp: ServiceSpec, seed: int, out):
    """One round under client-side spans, with the daemon's own stats."""
    inst = Instruments()
    rng = np.random.default_rng(seed)
    daemon = Daemon(out)
    submit = inst.probe("submit", span="submit")
    status = inst.probe("status", span="status")
    wait = inst.probe("wait", span="wait")

    def wrap(client: ServiceClient) -> None:
        # Instance attributes: ServiceClient.wait polls through self.status.
        client.submit = submit.wrap(client.submit)
        client.status = status.wrap(client.status)
        client.wait = wait.wrap(client.wait)

    try:
        daemon.start()
        warm_up(daemon, sp)
        requests = make_round(sp, rng)
        with inst.active():
            drive(daemon, sp, requests, wrap=wrap)
        stats = ServiceClient(daemon.socket).stats()
    finally:
        daemon.stop()
    done = [r for r in requests if r.status.get("state") == "done"]
    check_journal(daemon, sp, done, rng)
    run = stats["metrics"]["histograms"].get("service.run_seconds", {})
    layers = empty_layers()
    layers.update({
        "service.submit_ms": median(submit.durations) * 1e3,
        "service.status_ms": median(status.durations) * 1e3,
        "service.wait_ms": median(wait.durations) * 1e3,
        # One explicit status read per request; the rest are wait's polls.
        "service.polls_per_request": (status.calls - len(requests)) / len(requests),
        "service.worker_run_ms": run.get("p50", 0.0) * 1e3,
        "service.overhead_ms": median([r.latency * 1e3 - r.status["elapsed"] * 1e3
                                       for r in done]),
    })
    finish_traced("service-mix", out, inst, layers,
                  extra={"daemon_metrics": stats["metrics"]})
    return layers, len(requests), len(requests) - len(done), [
        f"traced one round of {len(requests)} requests"]
