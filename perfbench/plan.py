"""Seeded input plans.

A plan is a plain, JSON-serialisable description of every input a workload
feeds the program: event kinds and body lengths, burst sizes, payload sizes
and routing.  It depends on the workload name and the seed only (never on
the host or the run length): workloads cycle through it for as long as they
measure.  Payload bytes are derived from the plan's per-payload seeds.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

# gui_offload: share of each handler shape (Fig. 6/7 of the paper).
GUI_KINDS = ("await", "nowait", "default", "inline")
GUI_WEIGHTS = (0.35, 0.35, 0.10, 0.20)
GUI_RATE = 1000.0           # open-loop events/s, about a third of closed-loop capacity
GUI_EVENTS = 4096

# fanout_burst: every cycle posts each burst size once, in seeded order, so
# the mix is the same in every run whatever the seed.
BURST_SIZES = (16, 64, 256, 1024, 4096)
FANOUT_CYCLES = 64

# serve_encrypt: fixed open-loop rate, a share of /healthz probes.  The
# encrypt requests come at about 40% of the closed-loop encrypt rate, which
# this workload's closed loop measured at 457-503/s (medians of five
# ten-seed sets, 2 connections, 2-vCPU host): 250 x 0.75 = 188/s.
SERVE_RATE = 250.0          # open-loop requests/s (encrypt + healthz)
SERVE_HEALTHZ_SHARE = 0.25
SERVE_PAYLOADS = 192
SERVE_OPS = 4096

# remote_ship: 70% small payloads, 30% arrays.
SIZE_CLASSES = {"64B": 64, "256K": 256 * 1024, "1M": 1024 * 1024}
REMOTE_PAYLOADS = 48
REMOTE_OPS = 1024

WORKLOADS = ("gui_offload", "fanout_burst", "serve_encrypt", "remote_ship")


def _exact(rng, values, weights, n: int) -> list:
    """*n* draws with exactly the given shares, in seeded order.

    The seed decides the order, not the mix, so runs with different seeds
    measure the same workload and their spread is the host's, not the dice's.
    """
    counts = np.floor(np.asarray(weights) * n).astype(int)
    counts[: n - counts.sum()] += 1
    out = np.repeat(np.arange(len(values)), counts)
    return [values[i] for i in rng.permutation(out)]


def _spread(rng, lo: float, hi: float, n: int, log: bool = False) -> np.ndarray:
    """*n* evenly spaced values over [lo, hi] (log-spaced if *log*), shuffled."""
    grid = np.geomspace(lo, hi, n) if log else np.linspace(lo, hi, n)
    return rng.permutation(grid)


def make_plan(workload: str, seed: int) -> dict:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "gui_offload":
        return {
            "workload": workload, "seed": seed, "rate": GUI_RATE,
            "kinds": _exact(rng, GUI_KINDS, GUI_WEIGHTS, GUI_EVENTS),
            "spin_us": np.round(_spread(rng, 20, 200, GUI_EVENTS)).astype(int).tolist(),
        }
    if workload == "fanout_burst":
        bursts = []
        for _ in range(FANOUT_CYCLES):
            bursts.extend(int(b) for b in rng.permutation(BURST_SIZES))
        return {
            "workload": workload, "seed": seed, "bursts": bursts,
            "spin_us": np.round(_spread(rng, 2, 10, max(BURST_SIZES))).astype(int).tolist(),
        }
    if workload == "serve_encrypt":
        # Log-spaced 64 B .. 16 KiB, rounded to the cipher's 8-byte block.
        sizes = _spread(rng, 64, 16 * 1024, SERVE_PAYLOADS, log=True)
        sizes = (np.round(sizes / 8) * 8).astype(int)
        healthz = _exact(rng, (True, False),
                         (SERVE_HEALTHZ_SHARE, 1 - SERVE_HEALTHZ_SHARE), SERVE_OPS)
        payload = iter(_exact(rng, range(SERVE_PAYLOADS), [1 / SERVE_PAYLOADS] * SERVE_PAYLOADS,
                              SERVE_OPS - sum(healthz)))
        return {
            "workload": workload, "seed": seed, "rate": SERVE_RATE,
            "payload_sizes": sizes.tolist(),
            "payload_seeds": rng.integers(0, 2**31, SERVE_PAYLOADS).tolist(),
            # -1: GET /healthz, else the payload index of a POST /encrypt
            "ops": [-1 if h else int(next(payload)) for h in healthz],
        }
    if workload == "remote_ship":
        half = (0.5, 0.5)
        return {
            "workload": workload, "seed": seed,
            "payload_classes": _exact(rng, tuple(SIZE_CLASSES), (0.7, 0.15, 0.15),
                                      REMOTE_PAYLOADS),
            "payload_seeds": rng.integers(0, 2**31, REMOTE_PAYLOADS).tolist(),
            "targets": _exact(rng, ("process", "cluster"), half, REMOTE_OPS),
            "bodies": _exact(rng, ("echo", "digest"), half, REMOTE_OPS),
            "payload_of": [int(i) for i in _exact(
                rng, range(REMOTE_PAYLOADS), [1 / REMOTE_PAYLOADS] * REMOTE_PAYLOADS,
                REMOTE_OPS)],
        }
    raise ValueError(f"unknown workload {workload!r}")


def plan_hash(plan: dict) -> str:
    blob = json.dumps(plan, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def payload_bytes(size: int, seed: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()


def payload_array(size: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8)
