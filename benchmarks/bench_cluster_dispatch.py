"""Cluster dispatch: loopback-TCP latency and shard-scaling throughput.

What the socket hop costs, measured against the backends it generalizes:
the same no-op/sleep regions dispatched to a thread pool (one GIL, no
serialization), a process pool (pipes + pickle), and a cluster target
(TCP frames + pickle to a separate agent process on loopback).  Two views:

* **dispatch latency** — a ``default``-mode (await) round trip per backend;
  the cluster row is the paper-model dispatch cost plus one pickle and two
  localhost socket hops;
* **shard scaling** — wall time for a batch of 10 ms sleep regions as the
  cluster target widens from 1 to 4 lanes over two agents; sleeps release
  everything, so scaling here isolates the *protocol's* concurrency (lanes
  ship and await independently) from kernel compute.

Results are archived as ``benchmarks/results/bench_cluster_dispatch.json``
(plus the paper-style text table); the registered ``cluster_dispatch_tcp``
benchmark feeds ``python -m repro bench --filter cluster`` so CI can gate
regressions with ``--compare`` against
``benchmarks/results/bench_cluster_dispatch_baseline.json``.

``process_echo_1m`` and ``cluster_echo_1m`` time the data plane instead: a
``default``-mode round trip of a 1 MiB uint8 array that the remote body
echoes back, so the payload crosses the channel twice
(``benchmarks/results/remote_echo_before.json`` / ``remote_echo_after.json``
archive them before and after the out-of-band buffer change).
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro import bench as hbench
from repro.cluster import spawn_agent_process
from repro.core import PjRuntime
from repro.core.region import TargetRegion

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_SLEEP_S = 0.01
_BATCH = 12
SHARD_POINTS = (1, 2)  # lanes per endpoint over two agents -> 2 and 4 lanes


def _nop() -> int:
    """Module-level (picklable) no-op body for latency probes."""
    return 0


def _nap() -> float:
    """Module-level (picklable) fixed sleep for throughput probes."""
    time.sleep(_SLEEP_S)
    return _SLEEP_S


def _echo(value):
    """Module-level (picklable) body that ships its argument back."""
    return value


def _await_roundtrip(rt: PjRuntime, name: str) -> None:
    rt.invoke_target_block(name, TargetRegion(_nop))


def _echo_1m(rt: PjRuntime, name: str, cleanup):
    """The timed op of a 1 MiB echo on target *name*, checked once first."""
    payload = np.random.default_rng(0).integers(0, 256, 1 << 20, dtype=np.uint8)

    def op():
        return rt.invoke_target_block(name, TargetRegion(_echo, payload)).result()

    if not np.array_equal(op(), payload):  # first use; also the check
        cleanup()
        raise RuntimeError(f"1 MiB echo on {name!r} came back different")
    return op, cleanup


@hbench.benchmark("process_echo_1m", group="cluster", slow=True, tags=("cluster", "dist"))
def _process_echo_1m_registered():
    """Default-mode round trip of a 1 MiB uint8 array echoed by a one-worker
    process target (worker spawn happens in setup)."""
    rt = PjRuntime()
    rt.create_process_worker("bench-echo", 1)
    return _echo_1m(rt, "bench-echo", lambda: rt.shutdown(wait=False))


@hbench.benchmark("cluster_echo_1m", group="cluster", slow=True, tags=("cluster", "dist"))
def _cluster_echo_1m_registered():
    """Default-mode round trip of a 1 MiB uint8 array echoed by a one-lane
    cluster target over loopback TCP (agent spawn + connect in setup)."""
    agent = spawn_agent_process()
    rt = PjRuntime()
    rt.create_cluster("bench-echo", [agent.endpoint])

    def cleanup() -> None:
        rt.shutdown(wait=False)
        agent.close()

    return _echo_1m(rt, "bench-echo", cleanup)


@hbench.benchmark(
    "cluster_dispatch_tcp", group="cluster", slow=True,
    tags=("cluster", "dist"),
)
def _cluster_dispatch_registered():
    """Await-mode round trip to a single-lane cluster target over loopback
    TCP (agent spawn + connect happen in setup, outside the timed window)."""
    agent = spawn_agent_process()
    rt = PjRuntime()
    rt.create_cluster("bench-cluster", [agent.endpoint])
    _await_roundtrip(rt, "bench-cluster")  # connect + first-use costs

    def cleanup() -> None:
        rt.shutdown(wait=False)
        agent.close()

    return (lambda: _await_roundtrip(rt, "bench-cluster")), cleanup


def _latency_ns(rt: PjRuntime, name: str, repeats: int = 30) -> list[float]:
    _await_roundtrip(rt, name)  # warm the lane
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        _await_roundtrip(rt, name)
        samples.append(float(time.perf_counter_ns() - t0))
    return samples


def _batch_seconds(rt: PjRuntime, name: str) -> float:
    start = time.perf_counter()
    handles = [
        rt.invoke_target_block(name, TargetRegion(_nap), "nowait")
        for _ in range(_BATCH)
    ]
    for h in handles:
        h.result(timeout=120.0)
    return time.perf_counter() - start


def test_cluster_dispatch(report):
    agents = [spawn_agent_process(), spawn_agent_process()]
    endpoints = [a.endpoint for a in agents]
    runs: list[dict] = []
    lines = [f"{'case':<28} {'p50 ms':>8} {'batch s':>8} {'note':>24}"]
    entries: dict[str, dict] = {}
    try:
        # ---- dispatch latency per backend (await round trip)
        for backend in ("thread", "process", "cluster"):
            rt = PjRuntime()
            try:
                if backend == "thread":
                    rt.create_worker("lat", 1)
                elif backend == "process":
                    rt.create_process_worker("lat", 1)
                else:
                    rt.create_cluster("lat", endpoints[:1])
                samples = _latency_ns(rt, "lat")
                p50 = hbench.percentile(samples, 50.0)
                runs.append({
                    "case": f"latency_{backend}",
                    "p50_ns": round(p50, 1),
                    "samples": len(samples),
                })
                entries[f"cluster_suite_latency_{backend}"] = {
                    "group": "cluster",
                    "number": 1,
                    "repeats": len(samples),
                    "trimmed": 0,
                    "samples_ns": [round(s, 1) for s in samples],
                    "min_ns": round(min(samples), 1),
                    "mean_ns": round(sum(samples) / len(samples), 1),
                    "p50_ns": round(p50, 1),
                    "p95_ns": round(hbench.percentile(samples, 95.0), 1),
                    "max_ns": round(max(samples), 1),
                }
                lines.append(
                    f"{'latency ' + backend:<28} {p50 / 1e6:>8.3f} {'--':>8} "
                    f"{'await round trip':>24}"
                )
            finally:
                rt.shutdown(wait=False)

        # ---- shard scaling: 2 endpoints, widening lanes
        base_s = None
        for shards in SHARD_POINTS:
            rt = PjRuntime()
            try:
                rt.create_cluster("wide", endpoints, shards=shards)
                # Warm every lane before timing.
                warm = [
                    rt.invoke_target_block("wide", TargetRegion(_nop), "nowait")
                    for _ in range(len(endpoints) * shards)
                ]
                for h in warm:
                    h.result(timeout=120.0)
                seconds = _batch_seconds(rt, "wide")
                lanes = len(endpoints) * shards
                if base_s is None:
                    base_s = seconds
                runs.append({
                    "case": f"shards_{shards}x{len(endpoints)}",
                    "lanes": lanes,
                    "batch": _BATCH,
                    "sleep_s": _SLEEP_S,
                    "seconds": round(seconds, 4),
                    "speedup_vs_min_lanes": round(base_s / seconds, 3),
                })
                lines.append(
                    f"{f'shards {shards}x{len(endpoints)} ({lanes} lanes)':<28} "
                    f"{'--':>8} {seconds:>8.3f} "
                    f"{f'{base_s / seconds:.2f}x vs {len(endpoints)} lanes':>24}"
                )
            finally:
                rt.shutdown(wait=False)
    finally:
        for a in agents:
            a.close()

    doc = {
        "schema": "repro.bench/v1",
        "created": None,  # stamped by CI artifacts, not the run
        "env": hbench.environment_fingerprint(),
        "protocol": {"warmup": 1, "repeats": 30, "trim": 0.0},
        "benchmarks": entries,
        "cluster": {"runs": runs, "endpoints": len(endpoints)},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_cluster_dispatch.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    report("bench_cluster_dispatch", lines)

    # Sanity floor, not a performance gate: the batch must beat serial
    # execution (lanes overlap their sleeps), and latency must be sane.
    serial_s = _BATCH * _SLEEP_S
    widest = runs[-1]
    assert widest["seconds"] < serial_s, (
        f"{widest['lanes']} lanes took {widest['seconds']:.3f}s for "
        f"{serial_s:.2f}s of serial sleep — no overlap at all"
    )
