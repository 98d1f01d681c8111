"""remote_ship: regions shipped to a process target and a cluster target.

Regions go, by the plan, to a 1-worker ``ProcessTarget`` or to a 1-lane
``ClusterTarget`` on an agent started with ``spawn_agent_process()``.  One
application thread keeps ``nproc`` regions outstanding (closed loop),
posting each with ``nowait`` and taking its completion callback as the
moment the waiter wakes.  Payloads are about 70% 64 B and 30% 256 KiB or
1 MiB uint8 arrays; bodies echo the payload or return its SHA-256.  A
region's latency runs from its post to that completion.

The callback hands the result on to the application's EDT, as a
``target virtual(edt) nowait`` continuation does, and the handler there
frees the region's slot.  The loop response is the time from the
completion to that handler starting.
"""

from __future__ import annotations

import collections
import hashlib
import threading
import time

import bodies
import cloudpickle
import numpy as np
from common import CpuMeter, Phase, Tracer, bucket, median, pc, pc_ns, rates
from metrics import SIZES
from plan import SIZE_CLASSES, payload_array, payload_bytes

from repro.cluster import spawn_agent_process
from repro.core import PjRuntime, TargetRegion

TARGETS = {"process": "proc", "cluster": "clu"}


class RemoteShip:
    name = "remote_ship"
    setups = 5

    def __init__(self, plan: dict, nproc: int) -> None:
        self.plan = plan
        self.nproc = nproc
        self.rt: PjRuntime | None = None
        self.agent = None
        self.payloads = []
        for cls, seed in zip(plan["payload_classes"], plan["payload_seeds"]):
            n = SIZE_CLASSES[cls]
            self.payloads.append(payload_bytes(n, seed) if cls == "64B"
                                 else payload_array(n, seed))
        self.digests = [hashlib.sha256(p).hexdigest() for p in self.payloads]
        cloudpickle.register_pickle_by_value(bodies)

    def setup(self) -> None:
        rt = self.rt = PjRuntime()
        self.proc = rt.create_process_worker("proc", 1)
        self.agent = spawn_agent_process()
        self.clu = rt.create_cluster("clu", [self.agent.endpoint], shards=1)
        self.edt = rt.start_edt("edt")
        for target in TARGETS.values():  # first op on each target
            out = rt.invoke_target_block(
                target, TargetRegion(bodies.digest, self.payloads[0]), "default").result()
            if out[0] != self.digests[0]:
                raise RuntimeError(f"first op on {target} returned a wrong digest")

    def teardown(self) -> None:
        if self.rt is not None:
            self.rt.shutdown(wait=True)
            self.rt = None
        if self.agent is not None:
            self.agent.close()
            self.agent = None

    def run(self, seconds: float, tracer: Tracer | None, cpu: CpuMeter) -> Phase:
        p = self.plan
        ph = Phase()
        window = threading.Semaphore(self.nproc)
        finished: collections.deque = collections.deque()
        posted: dict[int, tuple[int, int]] = {}         # op -> post call stamps
        done: dict[int, tuple[int, int, int]] = {}      # op -> (wake, body0, body1)
        handed: dict[int, tuple[int, int]] = {}         # op -> post call stamps to the EDT
        shown: dict[int, tuple[int, int]] = {}          # op -> (wake, handler start)

        def on_shown(op: int, wake: int) -> None:
            t0 = pc_ns()
            shown[op] = (wake, t0)
            window.release()
            if tracer is not None:
                tracer.add("edt.handler", op, None, t0, pc_ns())

        def on_done(region: TargetRegion, op: int) -> None:
            wake = pc_ns()
            finished.append((op, wake, region))
            self.edt.post(lambda: on_shown(op, wake))
            handed[op] = (wake, pc_ns())

        def check_finished() -> None:
            # Results are checked and dropped at once: echoed arrays are big.
            c0 = time.thread_time()
            while finished:
                op, wake, region = finished.popleft()
                if region.exception is not None:
                    continue  # counted as failed below
                value, b0, b1 = region.result()
                if self._check(op, value):
                    ph.completed += 1
                    done[op] = (wake, b0, b1)
                else:
                    ph.wrong += 1
            cpu.exclude(time.thread_time() - c0)

        cpu.start()
        w0 = pc()
        w0_ns = pc_ns()
        op = 0
        while pc() - w0 < seconds:
            if not window.acquire(timeout=30):
                break
            j = op % len(p["targets"])
            fn = bodies.echo if p["bodies"][j] == "echo" else bodies.digest
            region = TargetRegion(fn, self.payloads[p["payload_of"][j]])
            region.add_done_callback(lambda r, op=op: on_done(r, op))
            t0 = pc_ns()
            self.rt.invoke_target_block(TARGETS[p["targets"][j]], region, "nowait")
            posted[op] = (t0, pc_ns())
            op += 1
            check_finished()
        w1_ns = pc_ns()
        for _ in range(self.nproc):
            window.acquire(timeout=30)
        ph.wall_s = pc() - w0
        check_finished()
        # Every completed region's result must have reached the EDT once.
        ph.wrong += sum(1 for o in done if o not in shown)
        ph.cpu_s = cpu.stop()
        ph.attempted += len(posted)
        ph.failed += len(posted) - len(done) - ph.wrong  # raised or never finished
        ph.rates = rates([w for w, _, _ in done.values()], w0_ns, w1_ns)
        ph.loop = bucket([(w, (t - w) / 1e6) for w, t in shown.values()], w0_ns)
        ph.lat = bucket([(posted[o][0], (w - posted[o][0]) / 1e6)
                         for o, (w, _, _) in done.items()], w0_ns)
        if tracer is not None:
            ph.layers.update(self._layers(tracer, posted, done, ph.wall_s))
            ph.layers.update({
                "core.targets.post_us": median([(p1 - p0) / 1e3 for p0, p1 in handed.values()]),
                "edt.response_us": median([(shown[o][1] - p1) / 1e3
                                           for o, (_, p1) in handed.items() if o in shown]),
                "edt.busy_frac": sum(tracer.durations_us("edt.handler")) / 1e6 / ph.wall_s,
            })
        return ph

    def _check(self, op: int, value) -> bool:
        p = self.plan
        j = op % len(p["targets"])
        i = p["payload_of"][j]
        if p["bodies"][j] == "digest":
            return value == self.digests[i]
        want = self.payloads[i]
        return value == want if isinstance(want, bytes) else np.array_equal(value, want)

    def _layers(self, tr: Tracer, posted: dict, done: dict, wall_s: float) -> dict:
        p = self.plan
        rt_us = {(t, s): [] for t in TARGETS for s in SIZES}
        ship_us = {(t, s): [] for t in TARGETS for s in SIZES}
        complete, body = [], []
        for op, (wake, b0, b1) in done.items():
            t0, t1 = posted[op]
            j = op % len(p["targets"])
            key = (p["targets"][j], p["payload_classes"][p["payload_of"][j]])
            call = tr.add("core.runtime.nowait", op, None, t0, t1)
            span = tr.add(f"{key[0]}.roundtrip.{key[1]}", op, call, t0, wake)
            tr.add(f"{key[0]}.body", op, span, b0, b1)
            rt_us[key].append((wake - t0) / 1e3)
            ship_us[key].append((b0 - t0) / 1e3)
            complete.append((wake - b1) / 1e3)
            body.append((b1 - b0) / 1e3)
        out = {
            "core.runtime.nowait_call_us": median(tr.durations_us("core.runtime.nowait")),
            "core.region.complete_us": median(complete),
            "core.targets.depth_max": max(self.proc.high_water_mark,
                                          self.clu.high_water_mark),
            "core.targets.busy_frac": sum(body) / 1e6 / (len(TARGETS) * wall_s),
            "kernels.body_us": median(body),
        }
        for (t, s), xs in rt_us.items():
            prefix = "dist.process" if t == "process" else "cluster"
            out[f"{prefix}.roundtrip_us.{s}"] = median(xs)
            out[f"{prefix}.ship_us.{s}"] = median(ship_us[t, s])
        return out
