"""The service's binding of the supervised worker pool.

:class:`ServicePool` is the :class:`~repro.parallel.pool.Supervisor`
that :func:`repro.parallel.parallel_map` also runs on — heartbeat
claims, per-request deadlines with SIGKILL of the wedged pid, free
requeue and isolation of crash victims, quarantine of poison requests,
and deterministic backoff jitter all live there.  This module adds only
what is specific to the service:

* the task function, :func:`repro.service.tasks.execute_request`,
  called with the request's dispatch ordinal so chaos directives replay
  deterministically;
* a *forkserver* multiprocessing context with the task module preloaded,
  so workers inherit no daemon file descriptors;
* the :class:`PoolConfig` → supervisor mapping, with the ``service.*``
  metric names.

Outcomes (also in ``docs/service.md``): a request's future resolves with
its :class:`~repro.experiments.runner.RunResult`, or with a
:class:`~repro.errors.ServiceError` coded 500 (failed), 408 (deadline),
409 (cancelled) or 503 (shut down), or with
:class:`~repro.errors.PoisonRequestError` when quarantined.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..parallel.pool import Supervisor, _Task, deterministic_jitter
from ..telemetry import MetricsRegistry
from .tasks import execute_request

__all__ = ["PoolConfig", "ServicePool", "deterministic_jitter"]


@dataclass
class PoolConfig:
    """Supervision knobs for the service worker pool."""

    workers: int = 2
    #: seconds a *claimed* request may run before its worker is declared
    #: wedged and SIGKILLed; None disables hang detection.
    deadline: Optional[float] = None
    #: extra attempts after the first for raising or timed-out requests.
    retries: int = 2
    #: isolated-crash convictions before a request is quarantined.
    quarantine_after: int = 2
    #: honour chaos directives carried by requests (tests/harness only).
    allow_chaos: bool = False


def _worker_context():
    """A multiprocessing context whose workers inherit no daemon fds.

    A plain ``fork()``-ed worker inherits every open file descriptor,
    including *accepted client connections*: the daemon closing its
    copy of a socket then never delivers EOF, because the worker's
    inherited copy keeps the connection established — a client the io
    deadline "disconnected" observes a connection held open for the
    worker's lifetime.  Workers are (re)spawned lazily and after
    crash-replacement, so this races with whatever connections happen
    to be open at that moment.

    The *forkserver* start method forks workers from a clean server
    process instead, started (see :meth:`ServicePool.start`) before the
    daemon opens any listener.  Preloading the task module keeps a
    respawn near ``fork()`` cost.
    """
    try:
        ctx = multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - platform without forkserver
        return multiprocessing.get_context()
    ctx.set_forkserver_preload(["repro.service.tasks"])
    return ctx


class ServicePool(Supervisor):
    """Supervised, self-healing executor for service requests."""

    def __init__(
        self,
        config: PoolConfig,
        metrics: Optional[MetricsRegistry] = None,
        on_dispatch: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        #: ``on_dispatch(request_id, attempt)`` runs on the supervisor
        #: thread right before each dispatch — the daemon journals
        #: ``running`` there.
        super().__init__(
            execute_request,
            workers=config.workers,
            mp_context=_worker_context(),
            deadline=config.deadline,
            retries=config.retries,
            quarantine_after=config.quarantine_after,
            metrics=metrics if metrics is not None else MetricsRegistry(),
            on_dispatch=on_dispatch,
        )
        self.config = config

    def start(self) -> None:
        if self._ctx.get_start_method() == "forkserver":
            # Start the fork server now, while no connections exist yet.
            from multiprocessing import forkserver

            forkserver.ensure_running()
        super().start()

    def _call_args(self, task: _Task) -> Tuple:
        # Chaos directives key off the dispatch ordinal, which a free
        # crash requeue still advances.
        return (task.key, task.payload, task.dispatches, self.config.allow_chaos)
