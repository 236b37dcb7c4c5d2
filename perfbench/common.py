"""Shared pieces of the benchmark: paths, statistics, host facts, memory, spans.

Nothing here imports the program; the workload modules do, after
:func:`program_root` has put the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: Directory of the benchmark; the checkout root is its parent.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Files a run leaves behind (journal, ledger, traces); ignored by git.
OUT_DIR = BENCH_DIR / "out"

#: Samples that must lie beyond a reported tail value.
TAIL_BEYOND = 10
#: Fewest samples over which a tail is reported.
TAIL_MIN_SAMPLES = 40


class CheckFailed(Exception):
    """An output check failed: the program produced a wrong result."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


def program_root() -> Path:
    """Make the checkout's program importable; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return ROOT


def out_dir(workload: str) -> Path:
    """A fresh per-workload output directory under :data:`OUT_DIR`."""
    path = OUT_DIR / workload
    path.mkdir(parents=True, exist_ok=True)
    return path


# --- statistics ------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    check(len(values) > 0, "median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    That is the eleventh-largest sample.  Fewer than forty samples give
    no tail at all, so the caller must collect enough.
    """
    check(len(values) >= TAIL_MIN_SAMPLES,
          f"a tail needs {TAIL_MIN_SAMPLES} samples, got {len(values)}")
    return float(sorted(values)[len(values) - TAIL_BEYOND - 1])


def chunk_tails(values: Sequence[float], size: int = 400) -> List[float]:
    """Tails of ``values`` cut into consecutive, near-equal chunks of about ``size``.

    Over thousands of samples the eleventh-largest is a rare hiccup (a
    garbage collection, an interrupt); per chunk of ~400 it is about the
    97th percentile, which repeats from run to run.
    """
    parts = max(1, len(values) // size)
    step = len(values) / parts
    return [tail(values[round(i * step):round((i + 1) * step)]) for i in range(parts)]


def repeat(fn: Callable[[], float], *, min_reps: int, min_seconds: float) -> List[float]:
    """``fn()`` called at least ``min_reps`` times and for ``min_seconds``."""
    samples: List[float] = []
    started = time.perf_counter()
    while len(samples) < min_reps or time.perf_counter() - started < min_seconds:
        samples.append(fn())
    return samples


# --- host ------------------------------------------------------------------------
def fingerprint() -> Dict[str, object]:
    """Host facts a reader needs to compare figures between machines."""
    import numpy

    try:
        import scipy
        scipy_version: Optional[str] = scipy.__version__
        import scipy.optimize  # noqa: F401  (the MILP backend needs it)
        scipy_ok = True
    except ImportError:
        scipy_version, scipy_ok = None, False
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "scipy_imports": scipy_ok,
        "machine": platform.machine(),
    }


def reference_seconds() -> float:
    """Best of three runs of a fixed pure-Python loop: how fast the host is now.

    Printed at the start and end of a run, so a reader can tell a slow
    host from a slow program when comparing figures.
    """
    def loop() -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        return time.perf_counter() - t0
    return min(loop() for _ in range(3))


def nproc() -> int:
    return max(1, len(os.sched_getaffinity(0)))


# --- memory ----------------------------------------------------------------------
def self_peak_mib() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_table() -> Dict[int, int]:
    """pid → parent pid for every process visible in /proc."""
    table: Dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited between listdir and open
        table[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
    return table


def _hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant of it."""
    children: Dict[int, List[int]] = {}
    for pid, ppid in _proc_table().items():
        children.setdefault(ppid, []).append(pid)
    tree, stack = [], [root]
    while stack:
        pid = stack.pop()
        tree.append(pid)
        stack.extend(children.get(pid, ()))
    return tree


def wait_gone(pids: Iterable[int], timeout: float) -> None:
    """Wait until every pid has exited; SIGKILL what is left at the deadline."""
    pending = set(pids)
    deadline = time.monotonic() + timeout
    while pending:
        pending = {pid for pid in pending if os.path.exists(f"/proc/{pid}")}
        if pending and time.monotonic() > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout
        time.sleep(0.01)


def tree_peak_kib(root: int) -> int:
    """Summed peak RSS of ``root`` and every live descendant."""
    return sum(_hwm_kib(pid) for pid in process_tree(root))


class TreeMemorySampler:
    """Samples a process tree's summed peak RSS in a background thread.

    Each sample sums the peak RSS of the processes alive at that moment;
    the result is the largest sample, in MiB.
    """

    def __init__(self, root: int, interval: float = 0.5) -> None:
        self.root = root
        self.interval = interval
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            self.sample()
            if self._stop.wait(self.interval):
                return

    def sample(self) -> None:
        self.peak_kib = max(self.peak_kib, tree_peak_kib(self.root))

    def __enter__(self) -> "TreeMemorySampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self.sample()

    @property
    def peak_mib(self) -> float:
        return self.peak_kib / 1024.0


# --- tools shipped with the program ------------------------------------------------
def run_tool(*args: str) -> str:
    """Run one of the program's stdlib-only validators; CheckFailed on exit != 0."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    check(proc.returncode == 0,
          f"{' '.join(args)} failed: {(proc.stdout + proc.stderr).strip()}")
    return proc.stdout.strip()


# --- spans -------------------------------------------------------------------------
def self_times(spans: Iterable) -> Dict[str, float]:
    """Per span name, total duration minus the part its child spans cover.

    Children are the spans one level deeper on the same thread whose
    interval lies inside the parent's.  A negative result means spans
    overlap in a way nesting cannot produce, so it is a CheckFailed.
    """
    by_thread: Dict[int, list] = {}
    for span in spans:
        by_thread.setdefault(span.tid, []).append(span)
    out: Dict[str, float] = {}
    for group in by_thread.values():
        # Parents open before their children; equal starts put the parent first.
        group.sort(key=lambda s: (s.ts, s.depth))
        stack: list = []
        child_time: Dict[int, float] = {}
        for span in group:
            while stack and (stack[-1].depth >= span.depth
                             or span.ts >= stack[-1].ts + stack[-1].dur):
                stack.pop()
            if stack and stack[-1].depth == span.depth - 1:
                key = id(stack[-1])
                child_time[key] = child_time.get(key, 0.0) + span.dur
            stack.append(span)
        for span in group:
            own = span.dur - child_time.get(id(span), 0.0)
            out[span.name] = out.get(span.name, 0.0) + own
    for name, value in out.items():
        check(value >= -1e-6, f"span {name!r} has negative self time {value:.6f}s")
    return out


def span_totals(spans: Iterable) -> Dict[str, Dict[str, float]]:
    """Per span name: count and summed duration."""
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.name, {"count": 0, "total": 0.0})
        row["count"] += 1
        row["total"] += span.dur
    return out


def write_json(path: Path, payload: object) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
