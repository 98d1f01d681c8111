"""fanout_burst: deep backlogs through ``name_as`` and ``wait(tag)``.

One application thread posts a burst of B ``name_as(tag)`` regions of
2-10 us spin bodies to an ``nproc``-lane worker, then joins the tag, and
repeats (closed loop).  B follows the plan's cycle over 16..4096, so every
run sees the same mix of shallow and deep queues.  Throughput counts
regions; latency is the fan-out's, from a burst's first post to the join
that returns it.

The application also owns an EDT, as a GUI program does.  After each join
the application thread posts the burst's result to the EDT and takes the
next burst once a handler there has taken it; the loop response is the time
from the join to that handler starting.  (An EDT probed at a fixed rate
beside the bursts answers either at once or after a GIL switch interval,
about half the time each, so its median jumps between the two from run to
run.)
"""

from __future__ import annotations

import queue
import time

from common import CpuMeter, Phase, Tracer, median, pc, pc_ns, spin
from plan import BURST_SIZES

from repro.core import PjRuntime, TargetRegion

TAG = "burst"


class FanoutBurst:
    name = "fanout_burst"
    setups = 25

    def __init__(self, plan: dict, nproc: int) -> None:
        self.plan = plan
        self.nproc = nproc
        self.rt: PjRuntime | None = None
        self.spins = plan["spin_us"]

    def setup(self) -> None:
        rt = self.rt = PjRuntime()
        self.cpu = rt.create_worker("cpu", self.nproc)
        self.edt = rt.start_edt("edt")
        self._shown: queue.SimpleQueue = queue.SimpleQueue()
        marks = [0] * 16
        _, joined = self._burst(0, 16, marks, None)  # first op
        self._show(0, joined, None)
        if sum(marks) != 16:
            raise RuntimeError("first burst lost regions")

    def teardown(self) -> None:
        if self.rt is not None:
            self.rt.shutdown(wait=True)
            self.rt = None

    def _body(self, marks: list, i: int, tracer: Tracer | None, op) -> None:
        t0 = pc_ns()
        spin(self.spins[i])
        marks[i] += 1
        if tracer is not None:
            tracer.add("kernels.body", op, None, t0, pc_ns())

    def _burst(self, b: int, size: int, marks: list, tracer: Tracer | None) -> tuple[int, int]:
        """Post *size* tagged regions and join the tag; returns when the
        first post started and when the join returned."""
        rt = self.rt
        start = pc_ns()
        for i in range(size):
            region = TargetRegion(self._body, marks, i, tracer, (b, i))
            if tracer is None:
                rt.invoke_target_block("cpu", region, "name_as", tag=TAG)
                continue
            t0 = pc_ns()
            rt.invoke_target_block("cpu", region, "name_as", tag=TAG)
            tracer.add("core.runtime.name_as", (b, i), None, t0, pc_ns())
        w0 = pc_ns()
        rt.wait_tag(TAG)
        joined = pc_ns()
        if tracer is not None:
            tracer.add("core.tags.wait", b, None, w0, joined)
            tracer.add(f"core.tags.burst.{size}", b, None, start, joined)
        return start, joined

    def _handler(self, b: int, tracer: Tracer | None) -> None:
        t0 = pc_ns()
        self._shown.put((b, t0))
        if tracer is not None:
            tracer.add("edt.handler", b, None, t0, pc_ns())

    def _show(self, b: int, joined: int, tracer: Tracer | None) -> float:
        """Post burst *b*'s result to the EDT and wait until a handler there
        has taken it; returns the loop response (ms), from the join to the
        handler's start."""
        p0 = pc_ns()
        self.edt.post(lambda: self._handler(b, tracer))
        p1 = pc_ns()
        shown, started = self._shown.get(timeout=30)
        if shown != b:
            raise RuntimeError(f"the EDT took burst {shown}'s result for burst {b}'s")
        if tracer is not None:
            tracer.add("core.targets.post", b, None, p0, p1)
            tracer.add("edt.response", b, None, p1, started)
        return (started - joined) / 1e6

    def run(self, seconds: float, tracer: Tracer | None, cpu: CpuMeter) -> Phase:
        ph = Phase()
        cpu.start()
        wall0 = pc()
        bursts = self.plan["bursts"]
        cycle = len(BURST_SIZES)
        b = 0
        # Windows are whole cycles (every burst size once), so each holds
        # the same mix of shallow and deep queues.
        while pc() - wall0 < seconds or b % cycle:
            if b % cycle == 0:
                lat: list[float] = []
                loop: list[float] = []
                c0_ns, done = pc_ns(), 0
            size = bursts[b % len(bursts)]
            marks = [0] * size
            start, joined = self._burst(b + 1, size, marks, tracer)
            lat.append((joined - start) / 1e6)
            loop.append(self._show(b + 1, joined, tracer))
            t0 = time.thread_time()
            # The join must have seen every region exactly once.
            missing = sum(1 for m in marks if m != 1)
            cpu.exclude(time.thread_time() - t0)
            ph.attempted += size
            ph.wrong += missing
            ph.completed += size - missing
            done += size - missing
            b += 1
            if b % cycle == 0:
                ph.lat.append((c0_ns, joined, lat))
                ph.loop.append((c0_ns, joined, loop))
                ph.rates.append((c0_ns, joined, [done * 1e9 / (joined - c0_ns)]))
        ph.wall_s = pc() - wall0
        ph.cpu_s = cpu.stop()
        if tracer is not None:
            ph.layers.update(self._layers(tracer, ph))
        return ph

    def _layers(self, tr: Tracer, ph: Phase) -> dict:
        posts = {s[2]: s for s in tr.named("core.runtime.name_as")}
        bodies = tr.named("kernels.body")
        handoff = [(s[4] - posts[s[2]][5]) / 1e3 for s in bodies if s[2] in posts]
        last_end: dict[int, int] = {}
        for s in bodies:
            burst = s[2][0]
            last_end[burst] = max(last_end.get(burst, 0), s[5])
        complete = [(s[5] - last_end[s[2]]) / 1e3 for s in tr.named("core.tags.wait")
                    if s[2] in last_end]
        out = {
            "core.runtime.nowait_call_us": median(tr.durations_us("core.runtime.name_as")),
            "core.targets.post_us": median(tr.durations_us("core.targets.post")),
            "core.targets.handoff_us": median(handoff),
            "core.targets.depth_max": self.cpu.high_water_mark,
            "core.targets.busy_frac": sum(tr.durations_us("kernels.body")) / 1e6
            / (self.nproc * ph.wall_s),
            "core.region.complete_us": median(complete),
            "core.tags.wait_us": median(tr.durations_us("core.tags.wait")),
            "edt.response_us": median(tr.durations_us("edt.response")),
            "edt.busy_frac": sum(tr.durations_us("edt.handler")) / 1e6 / ph.wall_s,
            "kernels.body_us": median(tr.durations_us("kernels.body")),
        }
        for size in BURST_SIZES:
            if size in (16, 256, 4096):
                out[f"core.tags.makespan_ms.{size}"] = median(
                    tr.durations_us(f"core.tags.burst.{size}")) / 1e3
        return out
