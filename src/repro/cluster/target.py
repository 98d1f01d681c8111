"""`ClusterTarget`: a virtual target backed by socket-connected remote workers.

The multi-host counterpart of
:class:`~repro.dist.process_target.ProcessTarget`: the worker lanes are
slots on **cluster worker agents** (:mod:`repro.cluster.agent`), reached
over two TCP transports each (``task`` and ``ctrl``) instead of socketpairs
to child processes.  That completes the arXiv:2207.05677 / 2205.10656 "remote
device" move: the same ``target`` program runs on threads, processes, or a
set of hosts, chosen per target name at configuration time.

Shipping, result waits, crash handling, reconnect budgets, shutdown and
the clock handshake live in :class:`~repro.dist.remote_target.RemoteTarget`,
shared with process targets; this module supplies connecting a lane (TCP
connect + versioned hello on both channels), transport liveness, the shard
layout and tag progress.

Slots interleave across endpoints (``shards`` lanes per endpoint, slot *i*
on endpoint ``i % len(endpoints)``), and all shippers pull from the one
shared queue, so routing is least-loaded by construction: a fast or idle
host's slots simply dequeue more regions, and round-robin falls out when
all hosts keep pace.  Failure handling differs from a process target in
two places:

* a remote body that ignores a forwarded cancellation past
  ``cancel_grace`` has its *connection* torn — the lane is reclaimed and
  reconnected.  Unlike a process target we cannot kill the remote body
  itself (it lives in an agent we may not own); it runs to completion
  remotely unless it polls its cancel token, which the failure-semantics
  table in ``docs/DISTRIBUTION.md`` spells out;
* when one endpoint dies, its slots burn their reconnect budgets
  (``max_restarts`` per slot) and disable while the surviving endpoints'
  slots keep draining the shared queue: shard failover without any
  routing logic.

Cross-host ``wait_tag`` needs no new authority: tagged regions ship as
:class:`~repro.dist.wire.ClusterTaskMsg`, the result flows back through
:meth:`~repro.core.region.TargetRegion.fulfill`, and the
:class:`~repro.core.tags.TagRegistry` done-callback fires parent-side
exactly as for local targets.  The :class:`~repro.dist.wire.TagDoneMsg`
the agent sends at body completion is a *progress* signal (counted in
``stats["tag_notifications"]``, observable via :meth:`tag_progress`), not
the completion path.
"""

from __future__ import annotations

import logging
import threading
from typing import Any, Callable, Sequence

from ..core.region import TargetRegion
from ..dist import wire
from ..dist.remote_target import RemoteSlot, RemoteTarget
from ..obs import EventKind
from . import transport as _transport

__all__ = ["ClusterTarget"]

_logger = logging.getLogger(__name__)


class _ClusterSlot(RemoteSlot):
    """One lane of a cluster target: two transports to one agent slot."""

    __slots__ = ("host", "port")

    def __init__(self, index: int, host: str, port: int) -> None:
        super().__init__(index)
        self.host = host
        self.port = port

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def trace_name(self) -> str:
        return f"worker {self.index} ({self.endpoint})"

    @property
    def trace_thread(self) -> str:
        return f"{self.endpoint} pid {self.pid}"

    def is_alive(self) -> bool:
        """The lane is believed live: both channels open, no EOF seen.

        A remote tear is only *observed* on IO, so this also drives a quick
        zero-timeout poll on the ctrl channel — sufficient for the
        supervisor's idle-corpse sweep, while mid-region tears are caught
        by the shipper's result-wait loop.
        """
        task, ctrl = self.task, self.ctrl
        if task is None or ctrl is None:
            return False
        if task.closed or task.eof or ctrl.closed:
            return False
        if not ctrl.eof:
            try:
                ctrl.poll(0)  # latches eof if the peer vanished
            except (OSError, ValueError):
                return False
        return not ctrl.eof

    def exit_label(self) -> str:
        return f"connection to {self.endpoint} lost"


class ClusterTarget(RemoteTarget):
    """A worker virtual target whose pool members are remote agent slots.

    Created by ``virtual_target_create_cluster(tname, endpoints)`` /
    :meth:`PjRuntime.create_cluster`.  Parameters beyond the common target
    options and those of :class:`~repro.dist.remote_target.RemoteTarget`
    (``max_restarts`` is the reconnect budget per slot; ``cancel_grace``
    bounds how long a remote body may ignore a cancellation before its
    connections are torn and reopened):

    endpoints:
        ``"host:port"`` strings (or ``(host, port)`` tuples) of running
        cluster worker agents (``python -m repro cluster-worker``).
    shards:
        Lanes **per endpoint** — the pool is ``len(endpoints) * shards``
        slots, interleaved across endpoints.  All slots pull one shared
        queue, so dispatch is least-loaded across hosts by construction.
        Slots of a surviving endpoint are unaffected by a dead one — that
        is the shard-failover path.
    connect_timeout:
        Budget per connection attempt (TCP connect + hello + clock probe 1).
    """

    kind = "cluster"
    _thread_prefix = "repro-cluster"
    _channel_noun = "connection"
    _up_kind = EventKind.WORKER_CONNECT
    _lost_kind = EventKind.WORKER_DISCONNECT
    _exit_kind = EventKind.WORKER_DISCONNECT

    def __init__(
        self,
        name: str,
        endpoints: Sequence[str | tuple[str, int]],
        *,
        shards: int = 1,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
        max_restarts: int = 3,
        heartbeat_interval: float = 1.0,
        heartbeat_misses: int = 3,
        cancel_grace: float = 5.0,
        connect_timeout: float = 10.0,
    ) -> None:
        if not endpoints:
            raise ValueError("cluster target needs at least one endpoint")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        parsed = [_transport.parse_endpoint(e) for e in endpoints]
        self.endpoints = [f"{h}:{p}" for h, p in parsed]
        self.shards = shards
        self.connect_timeout = connect_timeout
        self._tag_lock = threading.Lock()
        self._tag_counts: dict[str, int] = {}
        #: Optional hook fired on every remote tag-done notification with
        #: ``(tag, seq, outcome)`` — progress wiring for dashboards/tests.
        self.on_tag_done: Callable[[str, int, str], None] | None = None
        # Interleave: slot i lives on endpoint i % len(endpoints), so the
        # first len(endpoints) slots already span every host.
        slots = [
            _ClusterSlot(i, *parsed[i % len(parsed)])
            for i in range(len(parsed) * shards)
        ]
        super().__init__(
            name, slots,
            queue_capacity=queue_capacity,
            rejection_policy=rejection_policy,
            max_restarts=max_restarts,
            heartbeat_interval=heartbeat_interval,
            heartbeat_misses=heartbeat_misses,
            cancel_grace=cancel_grace,
            open_timeout=connect_timeout,
        )
        # No region can reach a shipper before this constructor returns.
        with self._stats_lock:
            self._stats["tag_notifications"] = 0

    # ------------------------------------------------------------ taxonomy

    @property
    def connected_count(self) -> int:
        """Slots with a live lane right now — diagnostics."""
        return sum(1 for slot in self._slots if slot.is_alive())

    def tag_progress(self) -> dict[str, int]:
        """Remote body-completion counts per tag (TagDoneMsg sightings)."""
        with self._tag_lock:
            return dict(self._tag_counts)

    def _describe_extra(self) -> str:
        return (
            f" endpoints={self.endpoints} shards={self.shards} "
            f"connected={self.connected_count}/{len(self._slots)}"
        )

    # ---------------------------------------------------------- lane hooks

    def _open_channels(self, slot: _ClusterSlot) -> tuple[Any, Any]:
        """Connect the task and ctrl transports and exchange hellos."""
        task = _transport.connect(slot.host, slot.port, timeout=self.connect_timeout)
        ctrl = None
        try:
            _transport.send_hello(
                task, "task", target_name=self.name, slot=slot.index
            )
            _transport.expect_hello(
                task, timeout=self.connect_timeout, peer=slot.endpoint
            )
            ctrl = _transport.connect(
                slot.host, slot.port, timeout=self.connect_timeout
            )
            _transport.send_hello(
                ctrl, "ctrl", target_name=self.name, slot=slot.index
            )
            _transport.expect_hello(
                ctrl, timeout=self.connect_timeout, peer=slot.endpoint
            )
        except BaseException:
            task.close()
            if ctrl is not None:
                ctrl.close()
            raise
        return task, ctrl

    def _task_message(
        self, region: TargetRegion, blob: tuple, trace: bool
    ) -> wire.ClusterTaskMsg:
        return wire.ClusterTaskMsg(
            region.seq, region.name, region.source, blob, trace, region.tag
        )

    def _lane_label(self, slot: _ClusterSlot) -> str:
        return f"lane {slot.index} of cluster target {self.name!r} ({slot.endpoint})"

    def _pool_label(self) -> str:
        return (
            f"{len(self._slots)} cluster lanes across "
            f"{len(self.endpoints)} endpoint(s)"
        )

    def _lane_event_arg(self, exitcode: int | None, cause: str) -> object:
        return cause

    def _crash_detail(self, slot: _ClusterSlot) -> str:
        return slot.exit_label()

    def _on_tag_done(self, msg: wire.TagDoneMsg) -> None:
        self._bump("tag_notifications")
        with self._tag_lock:
            self._tag_counts[msg.tag] = self._tag_counts.get(msg.tag, 0) + 1
        hook = self.on_tag_done
        if hook is not None:
            try:
                hook(msg.tag, msg.seq, msg.outcome)
            except Exception:  # noqa: BLE001 - observer must not break shipping
                _logger.exception("on_tag_done hook failed for tag %r", msg.tag)
