#!/usr/bin/env python3
"""The repository's benchmark: one seeded workload of the virtual-target
runtime, measured end to end (``--trace 0``) or layer by layer (``--trace 1``).

Run from the root of a checkout::

    python3 perfbench/run.py --workload gui_offload --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names, units
and bounds are declared in ``BENCHMARK.json``; which layer metric should
move which end-to-end metric is in ``perfbench/layer_map.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Shell settings that would change what is measured: the adaptive policies
# stay at their defaults and tracing inside the program stays off.
_CLEARED = ("REPRO_STEAL", "REPRO_BATCH_MAX", "REPRO_AUTOSCALE")

OWNER_SECONDS = 1.5  # traced run of another workload that fills its layers
QUIET_WAIT_S = 4.0   # longest wait for a quiet host before a measured phase
REDO_WAIT_S = 8.0    # ... and before measuring a contended phase again
CONTENDED = 0.10     # stolen share of CPU time that makes a phase worth redoing


def _hygiene() -> None:
    for key in list(os.environ):
        if key in _CLEARED or key.startswith("REPRO_TRACE"):
            del os.environ[key]
    sys.path.insert(0, SRC)
    # Children (server, workers, agents) import the same sources.
    os.environ["PYTHONPATH"] = SRC


def _workload_class(name: str):
    from fanout_burst import FanoutBurst
    from gui_offload import GuiOffload
    from remote_ship import RemoteShip
    from serve_encrypt import ServeEncrypt

    return {c.name: c for c in (GuiOffload, FanoutBurst, ServeEncrypt, RemoteShip)}[name]


def _metric(name: str, value: float, unit: str) -> dict:
    if not math.isfinite(value):
        raise RuntimeError(f"metric {name} has no value ({value}); too few samples?")
    return {"value": float(value), "unit": unit}


def _measure(w, seconds: float, tracer, quiet_wait: float = QUIET_WAIT_S):
    """One measured phase, with the host's CPU steal sampled beside it.

    Other tenants of a shared host take its CPUs for stretches of tens of
    seconds; the phase starts once a second passes quietly, or after
    *quiet_wait* seconds whatever the host does.
    """
    from common import CpuMeter, StealClock

    StealClock.wait_quiet(quiet_wait, w.nproc)
    with StealClock() as clock:
        ph = w.run(seconds, tracer, CpuMeter())
    return ph, clock


def run_end_to_end(name: str, plan: dict, seconds: float, nproc: int) -> dict:
    from common import clean_median, median, pc, peak_rss_mb, reap_leaks
    from metrics import END_TO_END

    w = _workload_class(name)(plan, nproc)
    setup_times = []
    live = False
    try:
        for k in range(w.setups):
            t0 = pc()
            live = True
            w.setup()
            setup_times.append(pc() - t0)
            if k < w.setups - 1:
                w.teardown()
                live = False
        runs = [_measure(w, seconds, None)]
        stolen = runs[0][1].share(nproc)
        if stolen > CONTENDED:
            # The host was busy through the phase: measure once more on a
            # fresh set-up, and pool the windows of both phases.
            print(f"perfbench: the host stole {stolen:.0%} of CPU time; "
                  "measuring again", file=sys.stderr)
            w.teardown()
            live = False
            w.setup()
            live = True
            runs.append(_measure(w, seconds, None, REDO_WAIT_S))
        rss = peak_rss_mb()
    finally:
        if live:
            w.teardown()
    leaks = reap_leaks()
    for leak in leaks:
        print(f"perfbench: leaked at teardown: {leak}", file=sys.stderr)
    phases = [ph for ph, _ in runs]
    values = {
        "setup_s": median(setup_times),
        "throughput_ops_s": clean_median([(ph.rates, clock) for ph, clock in runs], nproc),
        "latency_p50_ms": clean_median([(ph.lat, clock) for ph, clock in runs], nproc),
        "loop_response_p50_ms": clean_median([(ph.loop, clock) for ph, clock in runs], nproc),
        "cpu_us_per_op": (sum(ph.cpu_s for ph in phases)
                          / max(1, sum(ph.completed for ph in phases)) * 1e6),
        "peak_rss_mb": rss,
    }
    return {
        "correct": all(ph.wrong == 0 for ph in phases) and not leaks,
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed + ph.wrong for ph in phases),
        "metrics": {k: _metric(k, values[k], END_TO_END[k]) for k in END_TO_END},
    }


def _owner_phase(owner: str, seed: int, nproc: int):
    """A short traced run of *owner*, for the layers it measures."""
    from common import CpuMeter, Tracer
    from plan import make_plan

    w = _workload_class(owner)(make_plan(owner, seed), nproc)
    w.setup()
    try:
        return w.run(OWNER_SECONDS, Tracer(), CpuMeter())
    finally:
        w.teardown()


def _loadgen(ph) -> dict:
    """The open-loop generator's lateness and rate, if the phase had one."""
    from common import percentile

    if not ph.offered:
        return {}
    return {
        "loadgen.lag_p99_ms": percentile(ph.lags_ms, 99),
        "loadgen.achieved_rate": ph.offered / ph.open_s,
    }


def run_per_layer(name: str, seed: int, plan: dict, seconds: float, nproc: int) -> dict:
    """Untraced half, then traced half, on one set-up; then the layers this
    workload does not exercise, since the result lists every per-layer metric."""
    import floors
    from common import Tracer, clean_median, percentile, reap_leaks
    from metrics import OWNER, PER_LAYER

    w = _workload_class(name)(plan, nproc)
    w.setup()
    try:
        base, base_clock = _measure(w, seconds / 2, None)
        tracer = Tracer()
        traced, traced_clock = _measure(w, seconds / 2, tracer, 0.0)
    finally:
        w.teardown()
    leaks = reap_leaks()
    tracer.write(os.path.join(ROOT, ".bench_build", "perfbench",
                              f"spans-{name}-seed{seed}.json"))
    lat = [x for win in base.lat for x in win[2]]
    loop = [x for win in base.loop for x in win[2]]
    layers = {**traced.layers, **_loadgen(base)}
    layers.update({
        "tail.latency_p99_ms": percentile(lat, 99),
        "tail.latency_n": len(lat),
        "tail.loop_response_p99_ms": percentile(loop, 99),
        "tail.loop_response_n": len(loop),
        "trace.overhead_frac": (clean_median([(traced.lat, traced_clock)], nproc)
                                / clean_median([(base.lat, base_clock)], nproc)),
        "host.steal_frac": base_clock.share(nproc),
    })
    attempted = base.attempted + traced.attempted
    failed = base.failed + base.wrong + traced.failed + traced.wrong
    wrong = base.wrong + traced.wrong
    # Layers this workload does not exercise come from a short traced run
    # of the workload that owns them; host floors from their own probes.
    for owner in sorted({OWNER[m] for m in PER_LAYER if m not in layers} - {"floor"}):
        ph = _owner_phase(owner, seed, nproc)
        leaks += reap_leaks()
        attempted += ph.attempted
        failed += ph.failed + ph.wrong
        wrong += ph.wrong
        for m, v in {**ph.layers, **_loadgen(ph)}.items():
            if OWNER[m] == owner:
                layers.setdefault(m, v)
    layers.update(floors.measure(layers))
    missing = [m for m in PER_LAYER if m not in layers]
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {missing}")
    for leak in leaks:
        print(f"perfbench: leaked at teardown: {leak}", file=sys.stderr)
    return {
        "correct": wrong == 0 and not leaks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: _metric(m, layers[m], PER_LAYER[m]) for m in PER_LAYER},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing; "
              "run from the root of a repro checkout", file=sys.stderr)
        return 2
    _hygiene()
    from plan import WORKLOADS, make_plan, plan_hash

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    plan = make_plan(args.workload, args.seed)
    print(f"plan workload={args.workload} seed={args.seed} sha256={plan_hash(plan)}",
          flush=True)
    try:
        if args.trace:
            result = run_per_layer(args.workload, args.seed, plan, args.seconds, nproc)
        else:
            result = run_end_to_end(args.workload, plan, args.seconds, nproc)
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        from common import reap_leaks

        reap_leaks(grace=1.0)
        return 1
    from common import stop_resource_tracker

    stop_resource_tracker()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
