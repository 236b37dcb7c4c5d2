"""Instrumentation for the traced run: a self-costing tracer and call probes.

The traced run installs the program's own :class:`~repro.telemetry.Tracer`
(so the engine's ``event_loop``/``schedule_pass``/``window_extract``/
``select``/``ga_solve``/``decision_rule``/``backfill_pass`` spans are
recorded) and wraps a few public calls with :class:`Probe`.  Both time
their own bookkeeping; the sum is ``telemetry.overhead_s``.
"""

from __future__ import annotations

import contextlib
import math
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.telemetry import Tracer, use_tracer
from repro.telemetry.export import write_chrome_trace

from common import check, run_tool, self_times, span_totals, write_json

#: Every per-layer metric, with its unit.  Each workload reports all of
#: them; a layer the workload does not run reads 0.
LAYER_METRICS: Dict[str, str] = {
    "workloads.generate_s": "s",
    "simulator.event_loop_s": "s",
    "simulator.self_s": "s",
    "simulator.events": "count",
    "simulator.passes": "count",
    "simulator.passes_skipped": "count",
    "simulator.summary_s": "s",
    "policies.order_s": "s",
    "policies.order_calls": "count",
    "policies.order_cache_hit_ratio": "ratio",
    "windows.extract_s": "s",
    "backfill.plan_s": "s",
    "backfill.calls": "count",
    "backfill.jobs_backfilled": "count",
    "methods.select_s": "s",
    "methods.select_calls": "count",
    "solvers.solve_s": "s",
    "solvers.solve_calls": "count",
    "core.ga_solve_s": "s",
    "core.evaluate_s": "s",
    "core.evaluate_rows": "count",
    "core.repair_s": "s",
    "core.decision_rule_s": "s",
    "core.generations": "count",
    "core.eval_cache_hit_ratio": "ratio",
    "service.submit_ms": "ms",
    "service.status_ms": "ms",
    "service.wait_ms": "ms",
    "service.polls_per_request": "count",
    "service.worker_run_ms": "ms",
    "service.overhead_ms": "ms",
    "parallel.map_s": "s",
    "parallel.busy_ratio": "ratio",
    "checkpoint.ledger_append_s": "s",
    "checkpoint.ledger_bytes": "bytes",
    "checkpoint.resume_s": "s",
    "telemetry.overhead_s": "s",
}


class CostTracer(Tracer):
    """The program's tracer, also timing the time it spends on itself.

    Costs go into a list, whose appends are atomic, because client
    threads share the tracer on service-mix.
    """

    def __init__(self) -> None:
        super().__init__()
        self._costs: List[float] = []

    @property
    def cost(self) -> float:
        return math.fsum(self._costs)

    def span(self, name: str, **attrs: Any):
        t0 = perf_counter()
        span = super().span(name, **attrs)
        self._costs.append(perf_counter() - t0)
        return span

    def _open(self, span) -> None:
        t0 = perf_counter()
        super()._open(span)
        self._costs.append(perf_counter() - t0)

    def _close(self, span) -> None:
        t0 = perf_counter()
        super()._close(span)
        self._costs.append(perf_counter() - t0)


class Probe:
    """Counts and times the calls of one wrapped callable.

    ``span`` names a span opened around each call (its cost lands in the
    tracer's); without one, the probe's own bookkeeping time is kept in
    ``own`` so it can be charged to telemetry overhead.  ``rows`` extracts
    a work count from the call's positional arguments.  Results go into
    lists, whose appends are atomic, so threads may share a probe.
    """

    def __init__(self, tracer: CostTracer, span: Optional[str] = None,
                 rows: Optional[Callable[[tuple], int]] = None) -> None:
        self.tracer = tracer
        self.span_name = span
        self.rows_of = rows
        self.durations: List[float] = []
        self.row_counts: List[int] = []
        self.own_times: List[float] = []

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def seconds(self) -> float:
        return math.fsum(self.durations)

    @property
    def rows(self) -> int:
        return sum(self.row_counts)

    @property
    def own(self) -> float:
        return math.fsum(self.own_times)

    def wrap(self, fn: Callable) -> Callable:
        tracer, name, durations = self.tracer, self.span_name, self.durations

        if name is not None:
            def spanned(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(name):
                    t0 = perf_counter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        durations.append(perf_counter() - t0)
            return spanned

        rows_of, row_counts, own_times = self.rows_of, self.row_counts, self.own_times

        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            if rows_of is not None:
                row_counts.append(rows_of(args))
            t1 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                durations.append(t2 - t1)
                own_times.append((t1 - t0) + (perf_counter() - t2))
        return timed


class Instruments:
    """The tracer plus every probe of one traced run."""

    def __init__(self) -> None:
        self.tracer = CostTracer()
        self.probes: Dict[str, Probe] = {}

    def probe(self, key: str, **kwargs: Any) -> Probe:
        """The probe named ``key``, made on first use (several calls may share one)."""
        if key not in self.probes:
            self.probes[key] = Probe(self.tracer, **kwargs)
        return self.probes[key]

    def get(self, key: str) -> Probe:
        """A registered probe, or an idle one when the workload never made it."""
        return self.probes.get(key) or Probe(self.tracer)

    @contextlib.contextmanager
    def patched(self, owner: Any, attr: str, key: str, **kwargs: Any) -> Iterator[Probe]:
        """Wrap ``owner.attr`` with a new probe for the duration of the block."""
        probe = self.probe(key, **kwargs)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, probe.wrap(getattr(owner, attr)))
        try:
            yield probe
        finally:
            if isinstance(owner, type):
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextlib.contextmanager
    def active(self) -> Iterator[CostTracer]:
        with use_tracer(self.tracer) as tracer:
            yield tracer

    def overhead_s(self) -> float:
        return self.tracer.cost + sum(p.own for p in self.probes.values())

    def spans(self) -> List:
        return list(self.tracer.spans)


def empty_layers() -> Dict[str, float]:
    return {name: 0.0 for name in LAYER_METRICS}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def engine_layers(totals: Dict[str, Dict[str, float]], counters: Dict[str, float],
                  inst: Instruments, generations: float) -> Dict[str, float]:
    """Per-layer figures of simulations from span totals, counters and probes.

    ``totals`` maps span name to its ``count`` and summed ``total`` seconds;
    probes the workload did not install read 0.
    """
    def total(name: str) -> float:
        return totals.get(name, {}).get("total", 0.0)

    def count(name: str) -> float:
        return totals.get(name, {}).get("count", 0)

    layers = empty_layers()
    children = total("window_extract") + total("select") + total("backfill_pass")
    order, backfill, solve = inst.get("order"), inst.get("backfill"), inst.get("solve")
    evaluate, repair = inst.get("evaluate"), inst.get("repair")
    hits = counters.get("ga.eval_cache.hits", 0)
    misses = counters.get("ga.eval_cache.misses", 0)
    order_hits = counters.get("engine.order.cache_hits", 0)
    # Orderings computed: the probe's count where it ran, else the engine's
    # own counters (which skip the short-queue reference sorts).
    ordered = order.calls or (counters.get("engine.order.vectorized", 0)
                              + counters.get("engine.order.fallback", 0))
    layers.update({
        "simulator.event_loop_s": total("event_loop"),
        "simulator.self_s": total("event_loop") - children,
        "simulator.events": counters.get("engine.events", 0),
        "simulator.passes": counters.get("engine.passes", 0),
        "simulator.passes_skipped": counters.get("engine.passes_skipped", 0),
        "policies.order_s": order.seconds,
        "policies.order_calls": order.calls,
        "policies.order_cache_hit_ratio": ratio(order_hits, order_hits + ordered),
        "windows.extract_s": total("window_extract"),
        "backfill.plan_s": backfill.seconds if backfill.calls else total("backfill_pass"),
        "backfill.calls": backfill.calls if backfill.calls else count("backfill_pass"),
        "backfill.jobs_backfilled": counters.get("engine.jobs_backfilled", 0),
        "methods.select_s": total("select"),
        "methods.select_calls": count("select"),
        "solvers.solve_s": solve.seconds,
        "solvers.solve_calls": solve.calls,
        "core.ga_solve_s": total("ga_solve"),
        "core.evaluate_s": evaluate.seconds,
        "core.evaluate_rows": evaluate.rows,
        "core.repair_s": repair.seconds,
        "core.decision_rule_s": total("decision_rule"),
        "core.generations": generations,
        "core.eval_cache_hit_ratio": ratio(hits, hits + misses),
    })
    return layers


def finish_traced(workload: str, out, inst: Instruments, layers: Dict[str, float],
                  registry=None, extra: Optional[Dict[str, Any]] = None) -> None:
    """Check self times, add the tracing overhead, write and validate the outputs."""
    spans = inst.spans()
    own = self_times(spans)  # raises on a negative self time
    check(layers["simulator.self_s"] >= -1e-6,
          f"simulator self time is negative: {layers['simulator.self_s']:.6f}s")
    layers["telemetry.overhead_s"] = inst.overhead_s()
    trace_path = out / "trace.json"
    write_chrome_trace(str(trace_path), inst.tracer, registry, meta={"workload": workload})
    expect: List[str] = []
    for name in sorted({s.name for s in spans}):
        expect += ["--expect", name]
    run_tool("tools/validate_trace.py", str(trace_path), "--format", "chrome", *expect)
    write_json(out / "layers.json", {
        "workload": workload,
        "metrics": {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in layers.items()},
        "span_totals": span_totals(spans),
        "span_self_s": own,
        "extra": extra or {},
    })
