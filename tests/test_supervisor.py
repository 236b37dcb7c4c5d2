"""The one supervised pool, seen from both of its callers."""

import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ServiceError, TaskError
from repro.parallel import parallel_map
from repro.parallel.pool import Supervisor, _Task
from repro.resilience import BackoffPolicy
from tests.test_service import SMOKE, DaemonHarness

FAST = BackoffPolicy(initial=0.01, factor=1.0, max_delay=0.01)


def stubborn(path, hang):
    """Ignores SIGTERM, records its pid, then hangs (or returns at once)."""
    if not hang:
        return path
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    with open(os.path.join(path, "pid"), "w") as fh:
        fh.write(str(os.getpid()))
    time.sleep(30.0)
    return path


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestGridDeadline:
    def test_sigterm_ignoring_task_is_killed(self, tmp_path):
        """A timed-out worker that ignores SIGTERM is still gone at once."""
        tasks = [(str(tmp_path), True), (str(tmp_path), False)]
        with pytest.raises(TaskError) as excinfo:
            parallel_map(stubborn, tasks, workers=2, timeout=0.5, backoff=FAST)
        assert "timeout" in str(excinfo.value)
        assert excinfo.value.index == 0
        pid = int((tmp_path / "pid").read_text())
        end = time.monotonic() + 2.0
        while _alive(pid) and time.monotonic() < end:
            time.sleep(0.02)
        assert not _alive(pid)


def square(x):
    return x * x


class TestSupervisor:
    def test_idle_supervisor_answers_without_a_tick(self):
        """A submit wakes the supervisor; it does not wait for a tick."""
        sup = Supervisor(square, workers=1, mp_context=multiprocessing.get_context())
        sup.start()
        try:
            assert sup.submit("warm", (2,)).result(timeout=30) == 4
            time.sleep(0.2)  # idle: nothing to wait for, no timer armed
            t0 = time.monotonic()
            assert sup.submit("k", (3,)).result(timeout=30) == 9
            assert time.monotonic() - t0 < 0.15
        finally:
            sup.shutdown()
        assert sup.active() == 0

    def test_concurrent_submits_and_cancels_settle_every_task(self):
        """Racing clients lose no task and leave no slot counted."""
        sup = Supervisor(square, workers=3, mp_context=multiprocessing.get_context())
        futures = {}
        lock = threading.Lock()

        def client(c):
            for i in range(20):
                future = sup.submit((c, i), (i,))
                with lock:
                    futures[(c, i)] = future
                if i % 4 == 0:
                    sup.cancel((c, i))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            sup.start()
            threads = [threading.Thread(target=client, args=(c,)) for c in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
            for (c, i), future in futures.items():
                try:
                    assert future.result(timeout=60) == i * i
                except ServiceError as exc:
                    assert exc.code == 409 and i % 4 == 0
        finally:
            sys.setswitchinterval(old)
            sup.shutdown()
        assert len(futures) == 80
        assert sup.active() == 0


def nap(seconds):
    time.sleep(seconds)
    return seconds


class _NoWorkers:
    """Executor stand-in for driving the break handler by hand."""

    _processes: dict = {}

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _Offline(Supervisor):
    def _make_executor(self):
        return _NoWorkers()


def _flying(sup, key, outcome, **state):
    """Put ``key`` in flight with an attempt already resolved to ``outcome``."""
    task = _Task(key, (), Future(), attempts=1, dispatches=1, **state)
    task.inner = Future()
    if isinstance(outcome, BaseException):
        task.inner.set_exception(outcome)
    else:
        task.inner.set_result(outcome)
    sup._inflight[key] = task
    sup._active += 1
    return task


class TestBlame:
    def _offline(self):
        sup = _Offline(square, workers=2, mp_context=multiprocessing.get_context())
        sup._executor = _NoWorkers()
        return sup

    def test_finished_suspect_is_not_convicted_by_a_concurrent_crash(self):
        """An isolated suspect whose attempt finished keeps its result."""
        sup = self._offline()
        crasher = _flying(sup, "crasher", BrokenProcessPool("worker died"))
        suspect = _flying(sup, "suspect", 4, suspect=True)
        assert sup._collect()
        sup._handle_break()
        assert suspect.future.result(timeout=0) == 4
        assert crasher.suspect and sup._waiting == [crasher]
        assert crasher.attempts == 0 and crasher.crashes == 0

    def test_victim_of_a_deadline_kill_is_not_suspect(self):
        """A break our own SIGKILL caused casts no suspicion on bystanders."""
        sup = self._offline()
        hung = _flying(sup, "hung", BrokenProcessPool("killed"), hung=True)
        victim = _flying(sup, "victim", BrokenProcessPool("killed"))
        sup._killed = True
        sup._handle_break()
        assert not victim.suspect and victim.attempts == 0
        assert sup._waiting == [victim]
        assert hung.future.exception(timeout=0).code == 408  # charged

    def test_later_kill_does_not_convict_a_bystander(self):
        """Two deliberate kills in a row leave the co-running task unharmed."""
        dispatched = {}
        lock = threading.Lock()

        def record(key, attempt):
            with lock:
                dispatched.setdefault((key, attempt), threading.Event()).set()

        def await_dispatch(key, attempt):
            end = time.monotonic() + 30
            while time.monotonic() < end:
                with lock:
                    event = dispatched.get((key, attempt))
                if event is not None:
                    return
                time.sleep(0.005)
            raise AssertionError(f"{key} attempt {attempt} never dispatched")

        sup = Supervisor(nap, workers=2, mp_context=multiprocessing.get_context(),
                         quarantine_after=1, on_dispatch=record)
        sup.start()
        try:
            first = sup.submit("first", (30.0,))
            slow = sup.submit("slow", (1.5,))
            await_dispatch("first", 1)
            await_dispatch("slow", 1)
            sup.cancel("first")
            await_dispatch("slow", 2)  # requeued by the break, running again
            second = sup.submit("second", (30.0,))
            await_dispatch("second", 1)
            sup.cancel("second")
            assert slow.result(timeout=30) == 1.5
            for future in (first, second):
                with pytest.raises(ServiceError) as excinfo:
                    future.result(timeout=30)
                assert excinfo.value.code == 409
        finally:
            sup.shutdown(wait=False)


class TestClientWait:
    def test_wait_makes_no_status_call(self, tmp_path, monkeypatch):
        """ServiceClient.wait blocks in the daemon's wait op; it never polls."""
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        with DaemonHarness(tmp_path, allow_chaos=True) as h:
            accepted = h.client.submit(
                chaos={"hang_attempts": 1, "hang_seconds": 1.0}, **SMOKE)
            calls = []
            monkeypatch.setattr(
                h.client, "status", lambda rid: calls.append(rid))
            status = h.client.wait(accepted["id"], timeout=120.0)
            assert status["state"] == "done"
            assert calls == []
