"""One supervised process pool for experiment grids and the service.

§3.2.2 notes the MOO solve "can be accelerated by leveraging parallel
processing"; at the harness level the natural parallel axis is the
experiment grid itself — 80 independent (method, workload) simulations in
§4 — and the simulation service runs the same simulations on demand.
Both run on :class:`Supervisor`, a :class:`ProcessPoolExecutor` plus a
supervising loop that keeps it healthy no matter what the tasks do — on
the daemon's background thread, or in the caller's thread for a grid:

* **heartbeat claims** — each attempt's first act on a worker is to
  write a ``(key, attempt, pid, t)`` claim into a shared pipe.  The claim tells
  the supervisor which pid owns which task, arming the per-task
  **deadline**: a claimed task still unfinished ``deadline`` seconds
  after its claim has a wedged worker, and the supervisor SIGKILLs that
  pid — turning an invisible hang into an observable pool break.
* **pool breaks never charge the retry budget** — a dead worker fails
  every future in flight (``BrokenProcessPool``), and at that instant
  the crasher is indistinguishable from its co-resident victims.  Every
  task in flight is requeued for free and marked *suspect*; suspects
  are re-dispatched at most one at a time; a clean completion
  exonerates, while a break during an isolated run convicts.  A break
  that follows the supervisor's own SIGKILL (deadline or cancel) is
  explained by it and marks or convicts no one.
  Convictions count toward **quarantine** (``quarantine_after``),
  ending a poison task with :class:`~repro.errors.PoisonRequestError`
  instead of letting it break the pool forever.
* **backoff with deterministic jitter** — re-dispatches are damped by
  the shared :class:`~repro.resilience.BackoffPolicy`; the jitter term
  is a hash of ``(key, attempt)``, not a live RNG, so a chaos run's
  retry timeline is reproducible run over run.
* **no fixed tick** — the supervisor blocks in
  :func:`concurrent.futures.wait` on the in-flight futures plus a
  wake-up future that ``submit``/``cancel``/``shutdown`` resolve.  Its
  timeout is the earliest retry or deadline; a short tick runs only
  while a deadline or cancel waits for a worker's heartbeat claim.

Failure taxonomy (also in ``docs/service.md``): an *exception* or a
*deadline kill* charges one attempt of the ``retries`` budget; a *crash*
charges the quarantine budget instead.  A task's future resolves with
its value or with a :class:`~repro.errors.ServiceError` whose code names
the outcome — 500 failed, 408 deadline, 409 cancelled, 503 shut down —
or with :class:`~repro.errors.PoisonRequestError` when quarantined.
:func:`parallel_map` turns those into :class:`~repro.errors.TaskError`;
the service (:mod:`repro.service.pool`) journals them as they are.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple, TypeVar

from ..errors import ConfigurationError, PoisonRequestError, ServiceError, TaskError
from ..resilience import BackoffPolicy
from ..telemetry import MetricsRegistry

T = TypeVar("T")

#: Wall-clock damping between re-dispatches of a failed task.  Much
#: tighter than the simulated-time requeue default — a grid retry should
#: not stall the harness for a minute.
DEFAULT_POOL_BACKOFF = BackoffPolicy(initial=0.25, factor=2.0, max_delay=30.0)

#: Jitter fraction applied to each backoff delay (deterministic, hashed
#: from task key + attempt — never a live RNG).
BACKOFF_JITTER = 0.25

#: Supervisor tick while a deadline or cancel waits for a heartbeat claim.
CLAIM_POLL = 0.005


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` env var, else CPU count − 1 (min 1)."""
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            n = int(env)
        except ValueError as exc:
            raise ConfigurationError(
                f"REPRO_WORKERS={env!r} is not an integer"
            ) from exc
        if n < 1:
            raise ConfigurationError("REPRO_WORKERS must be >= 1")
        return n
    return max((os.cpu_count() or 1) - 1, 1)


def deterministic_jitter(key: Hashable, attempt: int) -> float:
    """A stable uniform in [0, 1) keyed by (task, attempt)."""
    digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


# --- worker side -------------------------------------------------------------------
#: Write end of the claim pipe, installed by the executor's initializer.
_CLAIMS = None


def _worker_init(claims) -> None:
    """Executor initializer: reset signal plumbing, stash the claim pipe.

    Fork-context workers inherit the parent's signal handlers — the
    daemon's asyncio ``add_signal_handler`` state, whose wakeup fd is the
    parent loop's own socketpair, or a checkpointed CLI run's SIGTERM
    handler.  Left in place, a signal delivered to a worker would be
    written into the shared wakeup fd and dispatched *in the parent*, or
    run a handler meant for the parent's run.  Workers therefore drop the
    wakeup fd and restore default dispositions before anything else.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover
            pass
    global _CLAIMS
    _CLAIMS = claims


def _run_claimed(fn: Callable[..., T], key: Hashable, attempt: int,
                 args: Tuple[Any, ...]) -> T:
    """Claim ``(key, attempt)`` for this pid, then run the task.

    A claim is one write far below ``PIPE_BUF``, so it reaches the pipe
    whole or not at all and needs no lock — a worker killed mid-claim
    cannot leave one held for the others.
    """
    if _CLAIMS is not None:
        _CLAIMS.send((key, attempt, os.getpid(), time.monotonic()))
    return fn(*args)


# --- parent side -------------------------------------------------------------------
def _shutdown(pool: ProcessPoolExecutor, *, terminate: bool) -> None:
    """Stop a pool; ``terminate`` SIGKILLs its workers (wedged/abandoned).

    ``_processes`` is executor-internal, but killing a provably hung
    worker is the whole point of supervision — guarded so a stdlib
    layout change degrades to abandonment instead of crashing.  SIGKILL,
    not SIGTERM: a task may ignore SIGTERM, and a worker being torn down
    holds nothing worth saving (results travel back to the parent).
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=not terminate, cancel_futures=terminate)
    if terminate:
        for proc in processes:
            try:
                proc.kill()
            except Exception:  # pragma: no cover - already-dead worker
                pass


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # pragma: no cover - worker already gone
        pass


@dataclass
class _Task:
    key: Hashable
    payload: Any
    future: Future               #: resolved exactly once with the outcome
    attempts: int = 0            #: charged dispatches (retry budget)
    dispatches: int = 0          #: total dispatches, never refunded — the
                                 #: attempt ordinal workers and the journal
                                 #: see (chaos directives key off it, so a
                                 #: free crash requeue still advances it)
    crashes: int = 0             #: isolated-crash convictions (quarantine budget)
    suspect: bool = False        #: was in flight during an unattributed break
    hung: bool = False           #: its worker was SIGKILLed by the deadline
    cancelled: bool = False      #: withdrawal requested; resolve 409, not retry
    ready_at: float = 0.0        #: earliest next dispatch (monotonic)
    inner: Optional[Future] = None
    claim_pid: Optional[int] = None
    claim_t: Optional[float] = None
    started_t: float = 0.0       #: monotonic time of the latest dispatch


class Supervisor:
    """Supervised, self-healing executor of keyed tasks.

    ``fn`` is a picklable task function, run as ``fn(*payload)`` unless a
    binding overrides :meth:`_call_args`.  ``deadline`` is the seconds a
    *claimed* attempt may run before its worker is SIGKILLed (None: no
    hang detection); ``retries`` the extra attempts for raising or
    timed-out tasks; ``quarantine_after`` the isolated-crash convictions
    that end a task.  Counters land in ``metrics`` under the daemon's
    ``service.*`` names; without a registry (the grid) nothing is recorded.
    ``on_dispatch(key, attempt)`` runs on the supervising thread right
    before each dispatch, and ``on_settle(key, future)`` right after a
    task's future resolves; an exception it raises stops the pool and
    propagates out of :meth:`run`.

    The supervisor runs on its own thread between :meth:`start` and
    :meth:`shutdown`, or in the calling thread for one :meth:`run`.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        *,
        workers: int,
        mp_context,
        deadline: Optional[float] = None,
        retries: int = 0,
        quarantine_after: int = 1,
        backoff: BackoffPolicy = DEFAULT_POOL_BACKOFF,
        metrics: Optional[MetricsRegistry] = None,
        on_dispatch: Optional[Callable[[Hashable, int], None]] = None,
        on_settle: Optional[Callable[[Hashable, Future], None]] = None,
    ) -> None:
        self.fn = fn
        self.workers = workers
        self.deadline = deadline
        self.retries = retries
        self.quarantine_after = quarantine_after
        self.backoff = backoff
        self.metrics = metrics
        self.on_dispatch = on_dispatch
        self.on_settle = on_settle
        self._ctx = mp_context
        self._claims, self._claims_writer = mp_context.Pipe(duplex=False)
        self._intake: deque = deque()
        self._lock = threading.Lock()
        self._wakeup: Future = Future()  #: resolved to interrupt the wait
        self._stop = threading.Event()
        self._drain = threading.Event()  #: finish queued work, then stop
        self._thread: Optional[threading.Thread] = None
        self._executor: Optional[ProcessPoolExecutor] = None
        # Supervisor-owned state (touched only by the supervising thread
        # once it runs, except for the lock-protected fields below).
        self._waiting: List[_Task] = []
        self._inflight: Dict[Hashable, _Task] = {}
        self._active = 0  #: lock-protected mirror for active()
        self._cancels: set = set()  #: lock-protected cancel requests
        self._killed = False  #: a SIGKILL of ours since the last rebuild

    # --- public API (any thread) -------------------------------------------------
    def start(self) -> None:
        """Supervise on a background thread until :meth:`shutdown`."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._supervise, name="pool-supervisor",
            daemon=True)
        self._thread.start()

    def submit(self, key: Hashable, payload: Any) -> Future:
        """Queue a task; the returned future resolves with its outcome."""
        if self._stop.is_set() or self._drain.is_set():
            raise ServiceError("pool is shutting down", code=503)
        future: Future = Future()
        with self._lock:
            self._intake.append(_Task(key, payload, future))
            self._active += 1
        self._wake()
        return future

    def active(self) -> int:
        """Tasks inside the pool (queued, retrying, or in flight)."""
        with self._lock:
            return self._active

    def cancel(self, key: Hashable) -> None:
        """Withdraw a task from the pool (any thread; best-effort).

        A waiting/backing-off task resolves with a 409
        :class:`ServiceError` at once; an in-flight task has its claimed
        worker SIGKILLed and resolves 409 from the break handler instead
        of being requeued.  A task that completes first keeps its result
        — cancellation can lose to the race, never corrupt it.
        """
        with self._lock:
            self._cancels.add(key)
        self._wake()

    def run(self) -> None:
        """Supervise in the calling thread until every submitted task settles."""
        self._drain.set()
        self._supervise()

    def shutdown(self, wait: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the pool; ``wait`` drains outstanding work first."""
        if self._thread is None:
            return
        if wait:
            self._drain.set()
            self._wake()
            self._thread.join(timeout)
        self._stop.set()
        self._wake()
        self._thread.join(5.0)

    # --- binding hook ------------------------------------------------------------
    def _call_args(self, task: _Task) -> Tuple[Any, ...]:
        """Arguments ``fn`` is called with for this dispatch of ``task``."""
        return task.payload

    # --- supervisor internals (supervising thread only) --------------------------
    def _wake(self) -> None:
        with self._lock:
            if not self._wakeup.done():
                self._wakeup.set_result(None)

    def _make_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._ctx,
            initializer=_worker_init,
            initargs=(self._claims_writer,),
        )

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(f"service.{name}")

    def _settle(self, task: _Task, value: Any = None,
                error: Optional[BaseException] = None) -> None:
        """Resolve a task's future exactly once and release its slot."""
        with self._lock:
            self._active -= 1
        if error is None:
            task.future.set_result(value)
        else:
            task.future.set_exception(error)
        if self.on_settle is not None:
            self.on_settle(task.key, task.future)

    def _delay(self, task: _Task, attempt: int) -> float:
        base = self.backoff.delay(max(attempt, 1))
        return base * (1.0 + BACKOFF_JITTER * deterministic_jitter(task.key, attempt))

    def _dispatch(self, now: float) -> bool:
        """Fill free workers; False when the pool turned out broken."""
        executor = self._executor
        assert executor is not None
        suspect_flying = any(t.suspect for t in self._inflight.values())
        for task in [t for t in self._waiting if t.ready_at <= now]:
            if len(self._inflight) >= self.workers:
                break
            if task.suspect and suspect_flying:
                continue  # isolate suspects: one at a time names the crasher
            self._waiting.remove(task)
            task.attempts += 1
            task.dispatches += 1
            task.hung = False
            task.claim_pid = task.claim_t = None
            task.started_t = time.monotonic()
            if self.on_dispatch is not None:
                try:
                    self.on_dispatch(task.key, task.dispatches)
                except Exception:  # pragma: no cover - journal I/O failure
                    pass
            try:
                task.inner = executor.submit(
                    _run_claimed, self.fn, task.key, task.dispatches,
                    self._call_args(task))
            except BrokenProcessPool:
                # A worker died while the pool sat idle; undo this
                # dispatch and let the break handler rebuild first.
                task.attempts -= 1
                task.dispatches -= 1
                task.ready_at = now
                self._waiting.append(task)
                self._handle_break()
                return False
            self._inflight[task.key] = task
            suspect_flying = suspect_flying or task.suspect
        return True

    def _read_claims(self) -> None:
        while self._claims.poll():
            key, attempt, pid, t = self._claims.recv()
            task = self._inflight.get(key)
            # A claim from an earlier attempt (its worker died before the
            # claim was read) must not arm this attempt's deadline.
            if task is not None and task.dispatches == attempt:
                task.claim_pid, task.claim_t = pid, t

    def _complete(self, task: _Task, value: Any) -> None:
        task.suspect = False
        if self.metrics is not None:
            self.metrics.observe(
                "service.run_seconds", time.monotonic() - task.started_t)
        self._count("completed")
        self._settle(task, value)

    def _fail(self, task: _Task, error: ServiceError,
              cause: Optional[BaseException] = None) -> None:
        error.attempts = task.attempts  # type: ignore[attr-defined]
        error.__cause__ = cause
        self._count("failed")
        self._settle(task, error=error)

    def _cancel_now(self, task: _Task) -> None:
        """Resolve a withdrawn task with 409, charging no budgets."""
        self._count("cancelled")
        self._settle(task, error=ServiceError(
            f"request {task.key} cancelled", code=409))

    def _process_cancels(self) -> None:
        with self._lock:
            if not self._cancels:
                return
            cancels, self._cancels = self._cancels, set()
        for key in cancels:
            task = next((t for t in self._waiting if t.key == key), None)
            if task is not None:
                self._waiting.remove(task)
                self._cancel_now(task)
                continue
            task = self._inflight.get(key)
            if task is not None:
                # Killed via its heartbeat claim; resolved 409 by the
                # break handler.  Unknown keys are dropped: the task
                # either never reached the pool or already finished.
                task.cancelled = True

    def _kill_claimed(self, now: float) -> None:
        """SIGKILL the claimed workers of cancelled or overdue tasks.

        Runs every wake-up, so a cancel or deadline that fires before
        the worker's heartbeat claim still lands once the claim does.
        """
        for task in self._inflight.values():
            if task.claim_pid is None:
                continue
            if task.cancelled:
                self._killed = True
                _kill(task.claim_pid)
            elif (self.deadline is not None and not task.hung
                  and now - task.claim_t >= self.deadline):
                task.hung = True
                self._killed = True
                _kill(task.claim_pid)

    def _requeue(self, task: _Task, delay: float) -> None:
        task.claim_pid = task.claim_t = None
        task.ready_at = time.monotonic() + delay
        self._waiting.append(task)

    def _charge_failure(self, task: _Task, exc: BaseException,
                        code: int, what: str) -> None:
        """An attempt failed for a *charged* reason (raise or hang)."""
        if task.attempts > self.retries:
            self._fail(task, ServiceError(
                f"request {task.key} {what} after "
                f"{task.attempts} attempt(s): {exc}", code=code), cause=exc)
            return
        self._count("retries")
        self._requeue(task, self._delay(task, task.attempts))

    def _handle_break(self) -> None:
        """Classify every in-flight task after a pool break, rebuild.

        Attempts that finished before the break keep their outcome.  A
        break that followed a SIGKILL of ours is explained by it, so it
        neither casts suspicion on the tasks beside the killed one nor
        convicts a suspect running among them.
        """
        self._collect()
        self._count("pool_rebuilds")
        explained, self._killed = self._killed, False
        for task in list(self._inflight.values()):
            del self._inflight[task.key]
            task.inner.cancel()
            if task.cancelled:
                # We killed its worker on request; the withdrawal wins
                # over every other classification and charges nothing.
                self._cancel_now(task)
            elif task.hung:
                # We killed its worker at the deadline: a charged timeout.
                self._count("hangs")
                self._charge_failure(
                    task, TimeoutError(
                        f"no result within the {self.deadline}s deadline"),
                    code=408, what="exceeded its deadline")
            elif explained:
                # A bystander of our own kill: free requeue, no suspicion.
                task.attempts -= 1
                self._requeue(task, 0.0)
            elif task.suspect:
                # It broke the pool while running in isolation: convicted.
                task.attempts -= 1  # crashes charge quarantine, not retries
                task.crashes += 1
                self._count("crashes")
                if task.crashes >= self.quarantine_after:
                    self._count("quarantined")
                    error = PoisonRequestError(
                        f"request {task.key} quarantined after "
                        f"{task.crashes} isolated worker crash(es)",
                        crashes=task.crashes)
                    error.attempts = task.attempts  # type: ignore[attr-defined]
                    self._settle(task, error=error)
                else:
                    self._requeue(task, self._delay(task, task.crashes))
            else:
                # A victim of someone else's crash: free requeue, but
                # isolate it until a clean completion exonerates it.
                task.attempts -= 1
                task.suspect = True
                self._requeue(task, 0.0)
        assert self._executor is not None
        _shutdown(self._executor, terminate=True)
        self._executor = self._make_executor()

    def _collect(self) -> bool:
        """Resolve every finished attempt; True when the pool broke.

        Attempts the break failed stay in flight for :meth:`_handle_break`.
        """
        broke = False
        for task in list(self._inflight.values()):
            if not task.inner.done():
                continue
            exc = task.inner.exception()
            if isinstance(exc, BrokenProcessPool):
                broke = True
                continue
            del self._inflight[task.key]
            if exc is None:
                self._complete(task, task.inner.result())
            else:
                self._charge_failure(task, exc, code=500, what="failed")
        return broke

    def _wait_timeout(self, now: float) -> Optional[float]:
        """How long the supervisor may block before it has work to do."""
        times = [t.ready_at - now for t in self._waiting if t.ready_at > now]
        for task in self._inflight.values():
            if task.claim_t is None:
                if task.cancelled or self.deadline is not None:
                    times.append(CLAIM_POLL)  # the kill waits for a claim
            elif self.deadline is not None and not task.hung:
                times.append(task.claim_t + self.deadline - now)
        return max(0.0, min(times)) if times else None

    def _supervise(self) -> None:
        drained = False
        self._executor = self._make_executor()
        try:
            while not self._stop.is_set():
                with self._lock:
                    if self._wakeup.done():
                        self._wakeup = Future()
                    wakeup = self._wakeup
                    self._waiting.extend(self._intake)
                    self._intake.clear()
                if (self._drain.is_set() and not self._waiting
                        and not self._inflight):
                    drained = True
                    break
                self._process_cancels()
                if not self._dispatch(time.monotonic()):
                    continue
                self._read_claims()
                self._kill_claimed(time.monotonic())
                if self.metrics is not None:
                    self.metrics.set_gauge("service.inflight", len(self._inflight))
                futures = [t.inner for t in self._inflight.values()]
                wait([wakeup, *futures], timeout=self._wait_timeout(time.monotonic()),
                     return_when=FIRST_COMPLETED)
                if self._collect():
                    self._handle_break()
        finally:
            # Stopped (or the loop failed): refuse whatever is outstanding.
            # These refusals are no outcome a caller acts on, and one
            # exception is already on its way out when the loop failed.
            self.on_settle = None
            with self._lock:
                self._waiting.extend(self._intake)
                self._intake.clear()
            for task in self._waiting + list(self._inflight.values()):
                if not task.future.done():
                    self._settle(task, error=ServiceError(
                        "pool shut down before completion", code=503))
            self._waiting.clear()
            self._inflight.clear()
            _shutdown(self._executor, terminate=not drained)
            self._claims.close()
            self._claims_writer.close()


# --- the grid binding ----------------------------------------------------------------
def _task_error(
    index: int,
    task: Tuple[Any, ...],
    attempts: int,
    exc: Optional[BaseException] = None,
    reason: Optional[str] = None,
) -> TaskError:
    detail = reason if reason is not None else f"{type(exc).__name__}: {exc}"
    return TaskError(
        f"task {index} {tuple(task)!r} failed after {attempts} attempt(s): {detail}",
        index=index,
        task=tuple(task),
        attempts=attempts,
        traceback_text="".join(traceback.format_exception(exc)) if exc else "",
    )


def _grid_error(index: int, task: Tuple[Any, ...], error: ServiceError,
                timeout: Optional[float]) -> TaskError:
    """The supervisor's verdict on one grid task, as a :class:`TaskError`."""
    attempts = getattr(error, "attempts", 0)
    if isinstance(error, PoisonRequestError):
        return _task_error(index, task, attempts + error.crashes,
                           reason="worker process died mid-task (isolated re-run)")
    if error.code == 408:
        return _task_error(index, task, attempts,
                           reason=f"attempt exceeded timeout of {timeout}s")
    return _task_error(index, task, attempts, exc=error.__cause__ or error)


def _serial_map(
    fn: Callable[..., T],
    tasks: Sequence[Tuple[Any, ...]],
    retries: int,
    backoff: BackoffPolicy,
    on_result: Optional[Callable[[int, T], None]],
) -> List[T]:
    results: List[T] = []
    for index, task in enumerate(tasks):
        attempts = 0
        while True:
            attempts += 1
            try:
                value = fn(*task)
            except Exception as exc:
                if attempts > retries:
                    raise _task_error(index, task, attempts, exc) from exc
                time.sleep(backoff.delay(attempts))
            else:
                results.append(value)
                if on_result is not None:
                    on_result(index, value)
                break
    return results


def parallel_map(
    fn: Callable[..., T],
    tasks: Sequence[Tuple[Any, ...]],
    *,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: Optional[BackoffPolicy] = None,
    on_result: Optional[Callable[[int, T], None]] = None,
) -> List[T]:
    """Apply ``fn(*task)`` to every task, preserving input order.

    Runs serially in-process when ``workers == 1`` (or for a single
    task) and on a :class:`Supervisor` otherwise; results are
    bit-identical either way because every task carries its own seed.
    ``fn`` and all task elements must be picklable when ``workers > 1``.

    Parameters
    ----------
    timeout:
        Wall-clock seconds allowed per attempt, counted from the
        worker's claim of the task.  An overdue attempt's worker is
        SIGKILLed and the attempt counts as failed.  Unenforceable in
        serial mode (``workers=1`` cannot pre-empt itself) and therefore
        ignored there.
    retries:
        Extra attempts after the first for a raising or timed-out task.
        ``0`` preserves fail-fast semantics for tasks that *raise*.
        Worker crashes never charge this budget: every task in flight on
        the broken pool is requeued for free and re-dispatched in
        isolation, and only a task whose isolated run breaks the pool
        again — the proven crasher — is convicted.  ``retries + 1``
        convictions fail the task, so even ``retries=0`` survives a
        one-off worker crash.
    backoff:
        Delay schedule between attempts of one task
        (:data:`DEFAULT_POOL_BACKOFF` when None).
    on_result:
        ``on_result(index, result)`` runs in the caller's thread as each
        task completes — in *completion* order — for durable incremental
        persistence (see the results ledger).

    Raises
    ------
    TaskError
        When a task exhausts its budget; carries the failing index,
        arguments, attempt count, and worker traceback.  Tasks already
        completed will have reached ``on_result``.
    """
    n = workers if workers is not None else default_workers()
    if n < 1:
        raise ConfigurationError(f"workers must be >= 1, got {n}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ConfigurationError(f"timeout must be positive, got {timeout}")
    schedule = backoff if backoff is not None else DEFAULT_POOL_BACKOFF
    if not tasks:
        return []
    if n == 1 or len(tasks) <= 1:
        return _serial_map(fn, tasks, retries, schedule, on_result)
    results: List[Any] = [None] * len(tasks)

    def settle(index: int, future: Future) -> None:
        try:
            value = future.result()
        except ServiceError as exc:
            raise _grid_error(index, tasks[index], exc, timeout) from exc
        results[index] = value
        if on_result is not None:
            on_result(index, value)

    supervisor = Supervisor(
        fn, workers=min(n, len(tasks)), mp_context=multiprocessing.get_context(),
        deadline=timeout, retries=retries, quarantine_after=retries + 1,
        backoff=schedule, on_settle=settle)
    for index, task in enumerate(tasks):
        supervisor.submit(index, task)
    supervisor.run()
    return results
