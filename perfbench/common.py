"""Shared machinery of the benchmark: statistics, spans, CPU/RSS accounting,
teardown leak checks, and the phase result every workload returns.

Everything here lives on the benchmark's side of the API boundary: spans are
recorded around calls into ``repro``'s public functions and inside the
region bodies the benchmark itself supplies, never inside ``src/``.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

pc = time.perf_counter
pc_ns = time.perf_counter_ns

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------- statistics


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in 0..100); NaN for no samples."""
    xs = sorted(values)
    if not xs:
        return float("nan")
    k = (len(xs) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def spin(us: float) -> None:
    """Busy-wait, holding the GIL, until this thread has used *us*
    microseconds of CPU: a CPU-bound handler body of fixed work.

    The work is counted in CPU time, not wall time, so a body does the same
    work however much of the CPU the host's other tenants take meanwhile.
    """
    end = time.thread_time_ns() + int(us * 1000)
    while time.thread_time_ns() < end:
        pass


def sleep_until(t: float) -> None:
    """Sleep until ``pc() >= t``.

    Never spins: a spinning generator would hold the GIL against the very
    threads it is timing.  The sleep's overshoot shows as generator lag.
    """
    dt = t - pc()
    if dt > 0:
        time.sleep(dt)


# ----------------------------------------------------------------------- spans


class Tracer:
    """In-memory span recorder: ``(id, name, op, parent, t0_ns, t1_ns)``.

    Spans of one operation share its *op* id; *parent* is the span that
    caused this one.  ``list.append`` and ``next(count)`` are atomic under
    the GIL, so any thread may record without a lock.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, name: str, op, parent, t0: int, t1: int, sid: int | None = None) -> int:
        if sid is None:
            sid = next(self._ids)
        self.spans.append((sid, name, op, parent, t0, t1))
        return sid

    def named(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[1] == name]

    def durations_us(self, name: str) -> list[float]:
        return [(s[5] - s[4]) / 1e3 for s in self.spans if s[1] == name]

    def self_times_ns(self, names: set[str], waits: set[str]) -> int:
        """Summed self time of spans named in *names*.

        A span's self time is its duration minus the part of it covered by
        its child spans named in *waits* (time the thread spent blocked on
        another layer rather than working).
        """
        children: dict[int, list[tuple[int, int]]] = {}
        for s in self.spans:
            if s[1] in waits and s[3] is not None:
                children.setdefault(s[3], []).append((s[4], s[5]))
        total = 0
        for s in self.spans:
            if s[1] not in names:
                continue
            covered, cursor = 0, s[4]
            for a, b in sorted(children.get(s[0], ())):
                a, b = max(a, cursor), min(b, s[5])
                if b > a:
                    covered += b - a
                    cursor = b
            total += (s[5] - s[4]) - covered
        return total

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "op", "parent", "t0_ns", "t1_ns"],
                       "spans": self.spans}, fh)


# ------------------------------------------------------------ process metering


def _children_of(pid: int) -> list[int]:
    # The kernel lists a child under the thread that forked it, so every
    # thread's list is read.
    out: list[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(x) for x in fh.read().split())
        except OSError:
            continue
    return out


def descendants(pid: int | None = None) -> list[int]:
    """Every live descendant process of *pid* (default: this process)."""
    out, todo = [], [os.getpid() if pid is None else pid]
    while todo:
        for child in _children_of(todo.pop()):
            out.append(child)
            todo.append(child)
    return out


def _cpu_ticks(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])  # utime + stime
    except (OSError, IndexError, ValueError):
        return 0


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Summed ``VmHWM`` of this process and its live descendants."""
    pids = [os.getpid(), *descendants()]
    return sum(_vm_hwm_kb(p) for p in pids) / 1024.0


class CpuMeter:
    """CPU seconds spent by the program under test during a phase.

    This process's CPU, minus the sections the benchmark marks as its own
    work (load generation, output checks) with :meth:`exclude`, plus the CPU
    of child processes read from ``/proc`` while they are still alive.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._excluded = 0.0
        self._t0 = 0.0
        self._kids0: dict[int, int] = {}

    def start(self) -> None:
        self._t0 = time.process_time()
        self._kids0 = {p: _cpu_ticks(p) for p in descendants()}
        with self._lock:
            self._excluded = 0.0

    def exclude(self, thread_seconds: float) -> None:
        """Subtract *thread_seconds* of ``time.thread_time()`` measured by
        a benchmark-owned section of some thread."""
        with self._lock:
            self._excluded += thread_seconds

    def stop(self) -> float:
        own = time.process_time() - self._t0
        ticks = 0
        for p in descendants():
            ticks += _cpu_ticks(p) - self._kids0.get(p, 0)
        with self._lock:
            excluded = self._excluded
        return max(0.0, own - excluded) + ticks / _CLK_TCK


# ----------------------------------------------------------------- leak checks


def _resource_tracker_pid() -> int | None:
    """The interpreter's multiprocessing resource tracker, if it started.

    Spawn-started workers start it once per process; it is shared by every
    pool and exits with this process, so it is not a leak of the program.
    """
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_pid", None)


def stop_resource_tracker() -> None:
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def reap_leaks(grace: float = 5.0) -> list[str]:
    """Wait up to *grace* seconds for children and non-daemon threads to end.

    Returns a description of each one still alive afterwards; those
    processes are then killed and reaped, so the benchmark never leaves one
    behind even when it reports the leak.
    """
    deadline = pc() + grace
    main = threading.main_thread()
    tracker = _resource_tracker_pid()
    while pc() < deadline:
        threads = [t for t in threading.enumerate()
                   if t is not main and not t.daemon and t.is_alive()]
        kids = [p for p in descendants() if p != tracker and not _is_zombie(p)]
        if not threads and not kids:
            return []
        time.sleep(0.05)
    leaks = [f"thread {t.name}" for t in threads]
    for p in kids:
        leaks.append(f"process {p} ({_cmdline(p)})")
        try:
            os.kill(p, signal.SIGKILL)
            os.waitpid(p, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # gone already, or a grandchild its own parent reaps
    return leaks


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return "?"


# -------------------------------------------------------------- phase results

WINDOW_NS = 500_000_000

# A window is ``(t0_ns, t1_ns, samples)``: the samples of the ops that were
# due (or issued) in ``[t0_ns, t1_ns)``.


def bucket(pairs, t0: int) -> list[tuple[int, int, list[float]]]:
    """Group ``(stamp_ns, value)`` pairs into consecutive windows from *t0*."""
    out: dict[int, list[float]] = {}
    for t, v in pairs:
        out.setdefault((t - t0) // WINDOW_NS, []).append(v)
    return [(t0 + k * WINDOW_NS, t0 + (k + 1) * WINDOW_NS, out[k]) for k in sorted(out)]


def rates(stamps, t0: int, t1: int) -> list[tuple[int, int, list[float]]]:
    """Completions per second in each whole window of ``[t0, t1)``."""
    counts = [0] * int((t1 - t0) // WINDOW_NS)
    for t in stamps:
        k = (t - t0) // WINDOW_NS
        if 0 <= k < len(counts):
            counts[k] += 1
    return [(t0 + k * WINDOW_NS, t0 + (k + 1) * WINDOW_NS, [c * 1e9 / WINDOW_NS])
            for k, c in enumerate(counts)]


# A child process that keeps one CPU busy for a second.
_SPIN_CHILD = "import time\nend = time.perf_counter() + 1.0\nwhile time.perf_counter() < end:\n    pass"


def _host_steal() -> int:
    """Jiffies the hypervisor ran something else while this VM wanted a CPU."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


class StealClock:
    """Samples the host's stolen CPU time every 0.1 s during a phase.

    On a shared host, other tenants take the CPUs for stretches of tens of
    seconds; a GIL holder descheduled by the hypervisor stalls every thread,
    so wall-clock metrics swing several-fold while CPU per op hardly moves.
    Windows are ranked by the steal they saw, and the wall-clock metrics
    come from the least-disturbed ones (:func:`clean_median`).
    """

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-steal")

    def __enter__(self) -> "StealClock":
        self.samples.append((pc_ns(), _host_steal()))
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append((pc_ns(), _host_steal()))

    def _run(self) -> None:
        while not self._stop.wait(0.1):
            self.samples.append((pc_ns(), _host_steal()))

    @staticmethod
    def wait_quiet(max_s: float, nproc: int, quiet_share: float = 0.10) -> float:
        """Wait, up to *max_s*, for a second in which the host took at most
        *quiet_share* of this VM's *nproc* CPUs; returns the seconds waited.

        A VM is stolen from only while it wants a CPU, so every CPU is kept
        busy meanwhile (this thread and ``nproc - 1`` spinning children): an
        idle second would look quiet however busy the host is.
        """
        t0 = pc()
        while pc() - t0 < max_s:
            s0, end = _host_steal(), pc() + 1.0
            kids = [subprocess.Popen([sys.executable, "-c", _SPIN_CHILD])
                    for _ in range(nproc - 1)]
            while pc() < end:
                pass
            for kid in kids:
                kid.wait()
            if (_host_steal() - s0) / _CLK_TCK <= quiet_share * nproc:
                break
        return pc() - t0

    def _at(self, t: int) -> int:
        k = bisect.bisect_right(self.samples, (t, float("inf"))) - 1
        return self.samples[max(k, 0)][1]

    def between(self, t0: int, t1: int) -> int:
        return self._at(t1) - self._at(t0)

    def share(self, nproc: int) -> float:
        """Stolen share of this VM's CPU time over the whole phase."""
        (t0, s0), (t1, s1) = self.samples[0], self.samples[-1]
        return (s1 - s0) / _CLK_TCK / (nproc * (t1 - t0) / 1e9)


CLEAN_SHARE = 0.5
QUIET_WINDOW = 0.02  # stolen share of a window's CPU time that still counts as clean


def clean_median(runs, nproc: int, min_samples: int = 5) -> float:
    """Median of per-window medians over the windows the host left alone.

    *runs* holds one ``(windows, clock)`` pair per measured phase; the
    windows of every phase are pooled and ranked by the share of this VM's
    *nproc* CPUs the host stole during them, as their own phase's clock
    saw it, never by their own values, so a stall the program causes (a
    collection, a respawn) still counts.  The least-stolen half is kept,
    and every other window with at most ``QUIET_WINDOW`` stolen: on a
    quiet host, a cut by rank alone would drop half of the equally clean
    windows and double the sampling noise.
    """
    usable = [(clock.between(w[0], w[1]) / _CLK_TCK / (nproc * (w[1] - w[0]) / 1e9), w[2])
              for windows, clock in runs
              for w in windows if len(w[2]) >= min_samples or len(w[2]) == 1]
    ranked = sorted(usable, key=lambda u: u[0])
    half = max(3, math.ceil(CLEAN_SHARE * len(ranked)))
    keep = [u for k, u in enumerate(ranked) if k < half or u[0] <= QUIET_WINDOW]
    return median([median(samples) for _, samples in keep])


@dataclass
class Phase:
    """What one measured phase of a workload produced.

    Latency and loop-response samples (ms) come grouped into windows of
    due or issue time (or burst cycles); ``rates`` holds closed-loop
    completions per second, one window each.
    """

    attempted: int = 0
    completed: int = 0
    failed: int = 0          # exceptions, non-200s, dropped arrivals
    wrong: int = 0           # completed with an incorrect output
    wall_s: float = 0.0
    lat: list[tuple] = field(default_factory=list)
    loop: list[tuple] = field(default_factory=list)
    rates: list[tuple] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)
    offered: int = 0         # open-loop arrivals issued
    open_s: float = 0.0
    cpu_s: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
