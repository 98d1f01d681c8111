"""Every metric the benchmark prints, with its unit.

``BENCHMARK.json`` declares the same names (the benchmark's tests check
that they agree).  ``OWNER`` names, for each per-layer metric, the workload
whose traced run measures it when the workload being run does not exercise
that layer; ``floor`` marks the host floors and probes of ``floors.py``.
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "loop_response_p50_ms": "ms",
    "cpu_us_per_op": "us",
    "peak_rss_mb": "MB",
}

SIZES = ("64B", "256K", "1M")

_GUI = {
    "core.runtime.nowait_call_us": "us",
    "core.runtime.inline_share": "frac",
    "core.targets.post_us": "us",
    "core.targets.handoff_us": "us",
    "core.targets.depth_max": "count",
    "core.targets.busy_frac": "frac",
    "core.region.complete_us": "us",
    "edt.response_us": "us",
    "edt.busy_frac": "frac",
    "edt.pumped_during_await": "frac",
}
_FANOUT = {
    "core.tags.makespan_ms.16": "ms",
    "core.tags.makespan_ms.256": "ms",
    "core.tags.makespan_ms.4096": "ms",
    "core.tags.wait_us": "us",
}
_SERVE = {
    "serve.healthz_ms": "ms",
    "serve.glue_ms": "ms",
    "serve.rejected": "count",
    "serve.timeouts": "count",
    "serve.failures": "count",
}
_REMOTE = {
    **{f"dist.process.roundtrip_us.{s}": "us" for s in SIZES},
    **{f"dist.process.ship_us.{s}": "us" for s in SIZES},
    **{f"cluster.roundtrip_us.{s}": "us" for s in SIZES},
    **{f"cluster.ship_us.{s}": "us" for s in SIZES},
}
_FLOOR = {
    "floor.pingpong_us": "us",
    **{f"floor.pickle_us.{s}": "us" for s in SIZES},
    **{f"floor.socket_echo_us.{s}": "us" for s in SIZES},
    "core.default_roundtrip_us": "us",
    "core.default_over_floor": "ratio",
    "dist.process_over_floor": "ratio",
    "cluster.over_floor": "ratio",
    **{f"dist.wire.dumps_us.{s}": "us" for s in SIZES},
    **{f"dist.wire.loads_us.{s}": "us" for s in SIZES},
    **{f"cluster.transport.echo_us.{s}": "us" for s in SIZES},
}
# Measured by the traced run of every workload with an open-loop generator
# (fanout_burst and remote_ship are closed loop only).
_LOADGEN = {
    "loadgen.lag_p99_ms": "ms",
    "loadgen.achieved_rate": "1/s",
}
# Measured by every workload's own traced run.
_EVERY = {
    "kernels.body_us": "us",
    "tail.latency_p99_ms": "ms",
    "tail.latency_n": "count",
    "tail.loop_response_p99_ms": "ms",
    "tail.loop_response_n": "count",
    "trace.overhead_frac": "ratio",
    "host.steal_frac": "frac",
}

PER_LAYER = {**_GUI, **_FANOUT, **_SERVE, **_REMOTE, **_FLOOR, **_LOADGEN, **_EVERY}

OWNER = {
    **{m: "gui_offload" for m in {**_GUI, **_LOADGEN}},
    **{m: "fanout_burst" for m in _FANOUT},
    **{m: "serve_encrypt" for m in _SERVE},
    **{m: "remote_ship" for m in _REMOTE},
    **{m: "floor" for m in _FLOOR},
    **{m: "every" for m in _EVERY},
}
