"""repro.policy: the adaptive-runtime decision layer.

The observability layer (:mod:`repro.obs`) records what the runtime does;
this package decides what it *should* do with that telemetry.  Three
policies, each off by default so the runtime reproduces its unpoliced
behaviour bit-for-bit unless asked:

* **work stealing** (:class:`StealRing`) — idle worker lanes take queued
  work from the most-backlogged sibling target that also opted in, emitting
  ``PUMP_STEAL`` events with victim/thief attribution;
* **dequeue batching** (the ``batch_max`` knob, enforced by
  ``repro.core.targets._TargetQueue.get_batch``, the queue's single
  dequeue) — a worker lane takes up to ``batch_max`` small regions per
  dequeue call, amortising the per-call dispatch overhead.  On an unbounded
  queue that call takes no lock: the lane pops the deque directly and locks
  only to park on an empty queue.  Two orderings make the lock-free handoff
  safe: the lane raises the queue's idle count before its last emptiness
  check while a poster reads it after appending, and a poster re-checks
  ``_closed`` after appending while teardown pops the same deque (see the
  ``_TargetQueue`` docstring);
* **pool autoscaling** (:class:`PoolAutoscaler`) — a worker pool grows and
  shrinks its lane count against observed queue depth with hysteresis,
  emitting a ``POOL_SCALE`` event for every decision.

Every knob has an ICV on :class:`~repro.core.runtime.PjRuntime`
(``steal_var``, ``batch_max_var``, ``autoscale_var``) seeded from the
environment (``REPRO_STEAL``, ``REPRO_BATCH_MAX``, ``REPRO_AUTOSCALE``) and
overridable per target at ``create_worker`` time.  docs/TUNING.md is the
reference table and decision-rule documentation for all of them.
"""

from .autoscale import PoolAutoscaler
from .config import (
    AUTOSCALE_ENV,
    BATCH_MAX_ENV,
    STEAL_ENV,
    PolicyConfig,
    policy_from_env,
)
from .steal import StealRing

__all__ = [
    "PolicyConfig",
    "policy_from_env",
    "STEAL_ENV",
    "BATCH_MAX_ENV",
    "AUTOSCALE_ENV",
    "StealRing",
    "PoolAutoscaler",
]
