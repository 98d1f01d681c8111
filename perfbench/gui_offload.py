"""gui_offload: the paper's Fig. 6/7 GUI pattern on the real runtime.

An EDT (``start_edt("edt")``) receives events from one generator thread at
a fixed rate (open loop), then with ``nproc`` events outstanding (closed
loop).  Each event runs one of four compiled handler shapes: offload to the
``cpu`` worker with ``await``, with ``nowait`` plus a ``virtual(edt) nowait``
continuation, with the blocking default clause, or a ``virtual(edt)`` block
that Algorithm 1 runs inline on the EDT.  Bodies are GIL-holding spins of
20-200 us.

An event's latency runs from its due time to its last step on the EDT; its
loop response from its due time to its handler starting on the EDT.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array

from common import (CpuMeter, Phase, Tracer, bucket, median, pc, pc_ns, rates,
                    sleep_until, spin)

from repro.compiler import exec_omp
from repro.core import PjRuntime

# Handlers as the paper writes them: sequential code with target pragmas.
# ``rec`` stamps each step; it is the only addition to the handler bodies.
HANDLERS = '''
def make_handlers(rec, spin):
    def on_await(n, us):
        rec.begin(n)
        t = rec.call_begin(n, "await")
        #omp target virtual(cpu) await
        if True:
            rec.body(n, us, spin, "await")
        rec.call_end(n, t, "await")
        rec.finish(n)
        rec.end(n)

    def on_default(n, us):
        rec.begin(n)
        t = rec.call_begin(n, "default")
        #omp target virtual(cpu)
        if True:
            rec.body(n, us, spin, "default")
        rec.call_end(n, t, "default")
        rec.finish(n)
        rec.end(n)

    def on_inline(n, us):
        rec.begin(n)
        t = rec.call_begin(n, "inline")
        #omp target virtual(edt)
        if True:
            rec.body(n, us, spin, "inline")
        rec.call_end(n, t, "inline")
        rec.finish(n)
        rec.end(n)

    def on_nowait(n, us):
        rec.begin(n)
        t = rec.call_begin(n, "nowait")
        #omp target virtual(cpu) nowait
        if True:
            rec.body(n, us, spin, "nowait")
            #omp target virtual(edt) nowait
            rec.continuation(n)
        rec.call_end(n, t, "nowait")
        rec.end(n)

    return {"await": on_await, "default": on_default,
            "inline": on_inline, "nowait": on_nowait}
'''

_WAITS = {"core.runtime.await", "core.runtime.default"}

# Closed-loop events per second the stamp arrays leave room for.  The
# arrays are sized up front so that the benchmark's own bookkeeping does
# not grow with the program's throughput and show up in peak_rss_mb.
MAX_RATE = 40_000


def _stamps(n: int) -> array:
    return array("q", [0]) * n


class Recorder:
    """Per-event stamps, written from the EDT and the worker lanes.

    Events are numbered from 0 in each phase.  Every event's slots are
    written by one thread at a time (the handler and its continuation run on
    the EDT, a body on one lane), so they need no lock, and neither do the
    counters the EDT alone bumps; ``wrong`` is bumped from any thread.  A
    zero stamp means "not yet".
    """

    def __init__(self, edt_ident: int) -> None:
        self.edt = edt_ident
        self.tracer: Tracer | None = None
        self.on_done = None
        self.wrong = 0
        self._wrong_lock = threading.Lock()
        self.in_await = 0
        self.reset(16)

    def reset(self, capacity: int) -> None:
        self.start = _stamps(capacity)
        self.done = _stamps(capacity)
        self.post_sid: dict[int, int] = {}
        self._sid: dict[tuple[int, str], int] = {}
        self.handlers = self.pumped = 0

    def begin(self, n: int) -> None:
        self.start[n] = pc_ns()
        self.handlers += 1
        if self.in_await:
            self.pumped += 1  # pumped by an enclosing await barrier
        if self.tracer is not None:
            self._sid[n, "h"] = self.tracer.new_id()
            self._sid[n, "c"] = self.tracer.new_id()

    def call_begin(self, n: int, mode: str) -> int:
        if mode == "await":
            self.in_await += 1
        return pc_ns()

    def body(self, n: int, us: int, spin_fn, kind: str) -> None:
        t0 = pc_ns()
        spin_fn(us)
        t1 = pc_ns()
        # A virtual(edt) block from the EDT runs inline on the EDT; a
        # virtual(cpu) block runs on a cpu lane, never on the EDT.
        inline = kind == "inline"
        if inline != (threading.get_ident() == self.edt):
            self._mark_wrong()
        if self.tracer is not None:
            self.tracer.add("kernels.body.inline" if inline else "kernels.body",
                            n, self._sid.get((n, "c")), t0, t1)

    def call_end(self, n: int, t0: int, mode: str) -> None:
        t1 = pc_ns()
        if mode == "await":
            self.in_await -= 1
        if self.tracer is not None:
            self.tracer.add(f"core.runtime.{mode}", n, self._sid[n, "h"], t0, t1,
                            sid=self._sid[n, "c"])

    def finish(self, n: int) -> None:
        """The event's last step; must run on the EDT, exactly once."""
        if threading.get_ident() != self.edt or self.done[n]:
            self._mark_wrong()
        self.done[n] = pc_ns()
        if self.on_done is not None:
            self.on_done()

    def _mark_wrong(self) -> None:
        with self._wrong_lock:
            self.wrong += 1

    def continuation(self, n: int) -> None:
        t0 = pc_ns()
        self.finish(n)
        if self.tracer is not None:
            self.tracer.add("edt.continuation", n, self._sid.get((n, "c")), t0, pc_ns())

    def end(self, n: int) -> None:
        if self.tracer is not None:
            self.tracer.add("edt.handler", n, self.post_sid.get(n), self.start[n],
                            pc_ns(), sid=self._sid[n, "h"])


class GuiOffload:
    name = "gui_offload"
    setups = 31

    def __init__(self, plan: dict, nproc: int) -> None:
        self.plan = plan
        self.nproc = nproc
        self.rt: PjRuntime | None = None

    # ------------------------------------------------------------- lifecycle

    def setup(self) -> None:
        rt = self.rt = PjRuntime()
        self.edt = rt.start_edt("edt")
        self.cpu = rt.create_worker("cpu", self.nproc)
        self.rec = Recorder(self.edt.edt_thread.ident)
        ns = exec_omp(HANDLERS, runtime=rt, filename="<gui_offload handlers>")
        self.handlers = ns["make_handlers"](self.rec, spin)
        # First op: one event of every shape, back to back.
        done = threading.Semaphore(0)
        self.rec.on_done = done.release
        for n, kind in enumerate(("await", "nowait", "default", "inline")):
            self.edt.post(functools.partial(self.handlers[kind], n, 20))
            if not done.acquire(timeout=10):
                raise RuntimeError(f"first {kind} event did not complete")
        self.rec.on_done = None

    def teardown(self) -> None:
        if self.rt is not None:
            self.rt.shutdown(wait=True)
            self.rt = None

    def _post(self, n: int, tracer: Tracer | None) -> tuple[int, int]:
        i = n % len(self.plan["kinds"])
        fn = functools.partial(self.handlers[self.plan["kinds"][i]], n,
                               self.plan["spin_us"][i])
        if tracer is not None:
            self.rec.post_sid[n] = sid = tracer.new_id()
        t0 = pc_ns()
        self.edt.post(fn)
        t1 = pc_ns()
        if tracer is not None:
            tracer.add("core.targets.post", n, None, t0, t1, sid=sid)
        return t0, t1

    # --------------------------------------------------------------- measure

    def run(self, seconds: float, tracer: Tracer | None, cpu: CpuMeter) -> Phase:
        rec = self.rec
        rec.tracer = tracer
        ph = Phase()
        open_s = seconds / 2
        period = 1.0 / self.plan["rate"]
        n_open = int(open_s / period)
        capacity = n_open + int((seconds - open_s) * MAX_RATE)
        rec.reset(capacity)
        due = _stamps(capacity)
        posted_end = _stamps(capacity)
        cpu.start()
        gen_cpu0 = time.thread_time()
        wall0 = pc_ns()

        # Open loop: event n is due at t0 + n / rate, whatever came before.
        t0 = pc() + 0.002
        for n in range(n_open):
            due_s = t0 + n * period
            sleep_until(due_s)
            due[n] = int(due_s * 1e9)
            p0, posted_end[n] = self._post(n, tracer)
            ph.lags_ms.append((p0 - due[n]) / 1e6)
        ph.offered = n_open
        ph.open_s = pc() - t0

        # Closed loop: nproc events outstanding, the next posted on a completion.
        window = threading.Semaphore(self.nproc)
        rec.on_done = window.release
        n = n_open
        c0 = pc()
        c0_ns = pc_ns()
        while pc() - c0 < seconds - open_s and n < capacity:
            if not window.acquire(timeout=10):
                break
            due[n] = pc_ns()
            p0, posted_end[n] = self._post(n, tracer)
            n += 1
        c1_ns = pc_ns()
        events = range(n)
        for _ in range(self.nproc):
            window.acquire(timeout=10)
        rec.on_done = None
        deadline = pc() + 10
        while pc() < deadline and not all(rec.done[k] for k in events):
            time.sleep(0.005)
        cpu.exclude(time.thread_time() - gen_cpu0)
        ph.cpu_s = cpu.stop()
        ph.wall_s = (pc_ns() - wall0) / 1e9

        ph.attempted = len(events)
        ph.completed = sum(1 for k in events if rec.done[k])
        ph.failed = ph.attempted - ph.completed
        ph.wrong, rec.wrong = rec.wrong, 0
        ph.rates = rates([rec.done[k] for k in events[n_open:] if rec.done[k]], c0_ns, c1_ns)
        finished = [k for k in events[:n_open] if rec.done[k]]
        t0_ns = int(t0 * 1e9)
        ph.lat = bucket([(due[k], (rec.done[k] - due[k]) / 1e6) for k in finished], t0_ns)
        ph.loop = bucket([(due[k], (rec.start[k] - due[k]) / 1e6) for k in finished], t0_ns)
        if tracer is not None:
            ph.layers = self._layers(tracer, ph, posted_end)
        rec.tracer = None
        return ph

    def _layers(self, tr: Tracer, ph: Phase, posted_end: array) -> dict:
        rec = self.rec
        ends = {s[2]: s for s in tr.spans if s[1] in
                ("core.runtime.nowait", "core.runtime.await", "core.runtime.default")}
        handoff, complete = [], []
        for s in tr.named("kernels.body"):
            call = ends.get(s[2])
            if call is None:
                continue
            if call[1] == "core.runtime.nowait":
                handoff.append((s[4] - call[5]) / 1e3)
            else:
                complete.append((call[5] - s[5]) / 1e3)
        inline = tr.durations_us("kernels.body.inline")
        bodies = tr.durations_us("kernels.body") + inline
        lanes_busy = sum(tr.durations_us("kernels.body")) / 1e6
        response = [(s[4] - posted_end[s[2]]) / 1e3 for s in tr.named("edt.handler")]
        edt_busy = tr.self_times_ns({"edt.handler", "edt.continuation"}, _WAITS) / 1e9
        return {
            "core.runtime.nowait_call_us": median(tr.durations_us("core.runtime.nowait")),
            "core.runtime.inline_share": len(inline) / max(1, len(bodies)),
            "core.targets.post_us": median(tr.durations_us("core.targets.post")),
            "core.targets.handoff_us": median(handoff),
            "core.targets.depth_max": max(self.edt.high_water_mark, self.cpu.high_water_mark),
            "core.targets.busy_frac": lanes_busy / (self.nproc * ph.wall_s),
            "core.region.complete_us": median(complete),
            "edt.response_us": median(response),
            "edt.busy_frac": edt_busy / ph.wall_s,
            "edt.pumped_during_await": rec.pumped / max(1, rec.handlers),
            "kernels.body_us": median(bodies),
        }
