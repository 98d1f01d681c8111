"""`ClusterTarget`: a virtual target backed by socket-connected remote workers.

The multi-host counterpart of
:class:`~repro.dist.process_target.ProcessTarget` — same name-based
directive surface (``virtual(name)``, default/``nowait``/``name_as``+
``wait``/``await``, ``timeout=``), same bounded-queue backpressure, same
shutdown covenant — but the worker lanes are slots on **cluster worker
agents** (:mod:`repro.cluster.agent`), reached over TCP (or any
:class:`~repro.cluster.transport.Transport`) instead of pipes to child
processes.  That completes the arXiv:2207.05677 / 2205.10656 "remote
device" move: the same ``target`` program runs on threads, processes, or a
set of hosts, chosen per target name at configuration time.

Architecture (per target)::

    poster threads ──post()──▶ _TargetQueue (inherited: capacity, policies)
                                   │  (shared: pull = least-loaded routing)
                 ┌─────────────────┼──────────────────┐
        shipper thread 0   shipper thread 1    ...  (one per slot)
                 │ hello/SyncMsg/TaskMsg/ResultMsg over a TCP "task" channel
        agent A slot 0      agent B slot 0     ...  (repro.cluster.agent)
                 ▲ PingMsg/PongMsg + CancelMsg over a TCP "ctrl" channel
                 └──────────── Supervisor thread ─────┘

Slots interleave across endpoints (``shards`` lanes per endpoint, slot *i*
on endpoint ``i % len(endpoints)``), and all shippers pull from the one
shared queue, so routing is least-loaded by construction: a fast or idle
host's slots simply dequeue more regions, and round-robin falls out when
all hosts keep pace.  Every dist mechanism carries over verbatim because it
is written against the transport/slot interfaces, not ``multiprocessing``:

* the two-round clock handshake runs over the task channel at connect, so
  remote events merge onto the shared Chrome trace as ``<target>[w<i>]``
  tracks with per-lane offsets (:mod:`repro.dist.remote_obs`);
* the :class:`~repro.dist.supervisor.Supervisor` sweeps the same slot
  interface — heartbeats over the ctrl channel, idle-corpse reconnects,
  wedged-lane replacement;
* cooperative cancel (and ``timeout=``) forwards a
  :class:`~repro.dist.wire.CancelMsg`; a remote body that ignores it past
  ``cancel_grace`` has its *connection* torn — the lane is reclaimed and
  reconnected.  Unlike a process target we cannot kill the remote body
  itself (it lives in an agent we may not own); it runs to completion
  remotely unless it polls its cancel token, which the failure-semantics
  table in ``docs/DISTRIBUTION.md`` spells out;
* a connection that tears mid-region fails the waiter with
  :class:`~repro.core.errors.WorkerCrashedError` — never a hang — and the
  reconnect budget (``max_restarts`` per slot) decides whether the lane
  comes back.  When one endpoint dies, its slots burn their budgets and
  disable while the surviving endpoints' slots keep draining the shared
  queue: shard failover without any routing logic.

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
import time
from typing import Any, Callable, Sequence

from ..core.errors import (
    RuntimeStateError,
    SerializationError,
    TargetShutdownError,
    WorkerCrashedError,
)
from ..core.region import TargetRegion
from ..core.targets import _SHUTDOWN, _WAKEUP, VirtualTarget, _item_identity
from ..dist import wire
from ..dist.remote_obs import estimate_offset_ns, merge_worker_events, worker_track
from ..dist.supervisor import Supervisor
from ..obs import EventKind
from ..obs import recorder as _obs
from ..obs.events import now_ns
from . import transport as _transport

__all__ = ["ClusterTarget"]

_logger = logging.getLogger(__name__)

#: Poll tick of the result-wait loop (crash/cancel/stop reaction bound).
_POLL_TICK = 0.05


class _ClusterSlot:
    """One lane of a cluster target: two transports + accounting.

    Implements the same slot interface as
    :class:`~repro.dist.process_target._WorkerSlot` (it feeds the same
    :class:`~repro.dist.supervisor.Supervisor`), with the process replaced
    by a ``task``/``ctrl`` transport pair to one agent slot.
    """

    __slots__ = (
        "index", "host", "port", "lock", "ctrl_lock", "task", "ctrl",
        "pid", "clock_offset", "spawns", "disabled", "busy", "last_pong",
        "thread", "tag_sink",
    )

    def __init__(self, index: int, host: str, port: int) -> None:
        self.index = index
        self.host = host
        self.port = port
        self.lock = threading.RLock()
        self.ctrl_lock = threading.Lock()
        self.task: Any = None          # the "task" Transport, or None
        self.ctrl: Any = None          # the "ctrl" Transport, or None
        self.pid: int | None = None    # agent pid (from the clock handshake)
        self.clock_offset = 0
        self.spawns = 0                # total connect attempts
        self.disabled = False
        self.busy = False
        self.last_pong = 0.0
        self.thread: threading.Thread | None = None
        #: Target-level TagDoneMsg handler (set once at construction).
        self.tag_sink: Callable[[wire.TagDoneMsg], None] | None = None

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def restarts(self) -> int:
        """Reconnect attempts beyond the slot's first connect."""
        return max(0, self.spawns - 1)

    # --------------------------------------------- supervisor slot interface

    @property
    def connected(self) -> bool:
        return self.task is not None

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

    def drain_control(self) -> None:
        """Absorb ctrl-channel traffic: pongs refresh liveness, tag-done
        notifications (if an agent ever routes them here) hit the sink."""
        ctrl = self.ctrl
        if ctrl is None:
            return
        try:
            while ctrl.poll(0) and not ctrl.eof:
                msg = ctrl.recv()
                if isinstance(msg, wire.PongMsg):
                    self.last_pong = time.monotonic()
                elif isinstance(msg, wire.TagDoneMsg) and self.tag_sink is not None:
                    self.tag_sink(msg)
        except (EOFError, OSError):
            pass  # torn: the liveness checks handle the corpse

    # ------------------------------------------------------------ ctrl sends

    def send_ping(self) -> None:
        with self.ctrl_lock:
            ctrl = self.ctrl
            if ctrl is None:
                return
            try:
                ctrl.send(wire.PingMsg(now_ns()))
            except (OSError, ValueError):
                pass  # dead lane: liveness checks will catch it

    def send_cancel(self, seq: int) -> None:
        with self.ctrl_lock:
            ctrl = self.ctrl
            if ctrl is None:
                return
            try:
                ctrl.send(wire.CancelMsg(seq))
            except (OSError, ValueError):
                pass

    # ------------------------------------------------------------- teardown

    def terminate(self) -> None:
        """Reclaim the lane by tearing both connections.

        The remote agent (if still alive) sees EOF and drops the slot's
        loops; a body already executing there runs to completion remotely
        unless it polls its cancel token — the honest semantics of killing
        a connection rather than a process.
        """
        self.close_transports()

    def close_transports(self) -> None:
        for tr in (self.task, self.ctrl):
            if tr is not None:
                try:
                    tr.close()
                except OSError:  # pragma: no cover - already torn
                    pass
        self.task = self.ctrl = None

    def reap(self) -> None:
        """Drop the dead lane's transports; exit codes do not exist here."""
        self.close_transports()
        self.busy = False
        return None


class ClusterTarget(VirtualTarget):
    """A worker virtual target whose pool members are remote agent slots.

    Created by ``virtual_target_create_cluster(tname, endpoints)`` /
    :meth:`PjRuntime.create_cluster`.  Parameters beyond the common target
    options:

    endpoints:
        ``"host:port"`` strings (or ``(host, port)`` tuples) of running
        cluster worker agents (``python -m repro cluster-worker``).
    shards:
        Lanes **per endpoint** — the pool is ``len(endpoints) * shards``
        slots, interleaved across endpoints.  All slots pull one shared
        queue, so dispatch is least-loaded across hosts by construction.
    max_restarts:
        Reconnect budget per slot; a slot that cannot (re)connect within it
        is disabled.  When every slot disables, the backlog is failed (the
        no-lost-work covenant).  Slots of a surviving endpoint are
        unaffected by a dead one — that is the shard-failover path.
    heartbeat_interval / heartbeat_misses:
        Supervisor probe cadence over the ctrl channel.
    cancel_grace:
        Seconds a remote body may ignore a forwarded cancellation before
        the lane is reclaimed (connections torn + reconnect); effectively
        the ``timeout=`` enforcement bound.
    connect_timeout:
        Budget per connection attempt (TCP connect + hello + clock probe 1).
    """

    kind = "cluster"
    supports_inline = False   # different host, let alone address space
    supports_pumping = False  # no parent thread is ever a member

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
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if cancel_grace <= 0:
            raise ValueError(f"cancel_grace must be > 0, got {cancel_grace}")
        super().__init__(
            name, queue_capacity=queue_capacity, rejection_policy=rejection_policy
        )
        parsed = [_transport.parse_endpoint(e) for e in endpoints]
        self.endpoints = [f"{h}:{p}" for h, p in parsed]
        self.shards = shards
        self.max_restarts = max_restarts
        self.cancel_grace = cancel_grace
        self.connect_timeout = connect_timeout
        self._hard_stop = threading.Event()
        with self._stats_lock:
            self._stats.update({
                "worker_crashes": 0,
                "worker_restarts": 0,
                "tag_notifications": 0,
            })
        # Interleave: slot i lives on endpoint i % len(endpoints), so the
        # first len(endpoints) slots already span every host.
        total = len(parsed) * shards
        self._slots = []
        for i in range(total):
            host, port = parsed[i % len(parsed)]
            slot = _ClusterSlot(i, host, port)
            slot.tag_sink = self._on_tag_done
            self._slots.append(slot)
        self._tag_lock = threading.Lock()
        self._tag_counts: dict[str, int] = {}
        #: Optional hook fired on every remote tag-done notification with
        #: ``(tag, seq, outcome)`` — progress wiring for dashboards/tests.
        self.on_tag_done: Callable[[str, int, str], None] | None = None
        self._supervisor = Supervisor(
            self, interval=heartbeat_interval, misses=heartbeat_misses
        )
        for slot in self._slots:
            slot.thread = threading.Thread(
                target=self._shipper_loop,
                args=(slot,),
                name=f"repro-cluster-{name}-ship-{slot.index}",
                daemon=True,
            )
            slot.thread.start()
        self._supervisor.start()

    # ------------------------------------------------------------ taxonomy

    @property
    def pool_size(self) -> int:
        return len(self._slots)

    @property
    def restart_count(self) -> int:
        return sum(slot.restarts for slot in self._slots)

    @property
    def connected_count(self) -> int:
        """Slots with a live lane right now — diagnostics."""
        return sum(1 for slot in self._slots if slot.is_alive())

    @property
    def worker_pids(self) -> list[int | None]:
        """Agent pid behind each slot (None while disconnected)."""
        return [slot.pid if slot.connected else None for slot in self._slots]

    def tag_progress(self) -> dict[str, int]:
        """Remote body-completion counts per tag (TagDoneMsg sightings)."""
        with self._tag_lock:
            return dict(self._tag_counts)

    def _describe_extra(self) -> str:
        return (
            f" endpoints={self.endpoints} shards={self.shards} "
            f"connected={self.connected_count}/{len(self._slots)}"
        )

    def process_one(self, timeout: float | None = None) -> bool:
        """Cluster targets cannot run queued regions in the calling thread —
        the queue feeds *remote* workers, and executing a region here would
        silently move it back onto this host."""
        raise RuntimeStateError(
            f"cluster target {self.name!r} cannot be pumped: its queue is "
            "drained by shipper threads feeding remote worker agents"
        )

    def drain(self) -> int:
        """See :meth:`process_one` — draining in the caller is not allowed."""
        raise RuntimeStateError(
            f"cluster target {self.name!r} cannot be drained in the calling "
            "thread; use shutdown(wait=True) to run the backlog down"
        )

    # ------------------------------------------------------------- lifecycle

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool; same covenant as :class:`ProcessTarget`.

        ``wait=True`` drains the backlog through the remote lanes, then
        stops each agent slot with a :class:`~repro.dist.wire.StopMsg` and
        closes the connections (the agent *process* keeps running — it is
        shared infrastructure other targets may be using).  ``wait=False``
        withdraws the backlog, cancels in-flight regions across the wire
        and tears the lanes.
        """
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        self._supervisor.stop()
        if not wait:
            self._hard_stop.set()
            self._queue.close()
            self._cancel_pending()
            for slot in self._slots:
                if slot.busy:
                    slot.send_cancel(-1)  # wakes the agent ctrl loop; benign
        for _ in self._slots:
            self._queue.put_internal(_SHUTDOWN)
        if wait:
            for slot in self._slots:
                if slot.thread is not None and slot.thread is not threading.current_thread():
                    slot.thread.join()
            self._supervisor.join()

    def _on_all_slots_disabled(self, cause: WorkerCrashedError) -> None:
        """Every lane exhausted its reconnect budget: fail the backlog."""
        if self._shutdown.is_set():
            return
        _logger.error(
            "cluster target %r lost all %d lanes (%d endpoint(s)) beyond "
            "their reconnect budgets; failing the backlog",
            self.name, len(self._slots), len(self.endpoints),
        )
        self._shutdown.set()
        self._supervisor.stop()
        self._queue.close()
        cancelled = 0
        for item in self._queue.drain_items():
            if item is _SHUTDOWN or item is _WAKEUP:
                continue
            if isinstance(item, TargetRegion):
                if item.cancel(cause):
                    cancelled += 1
                    self._bump("cancelled_on_shutdown")
        if cancelled:
            _logger.error(
                "cancelled %d queued region(s) on dead cluster target %r",
                cancelled, self.name,
            )

    # ------------------------------------------------------------ lane pool

    def _connect_slot(self, slot: _ClusterSlot) -> None:
        """Open one lane: task + ctrl connections, hello, clock handshake.

        Called under ``slot.lock``.  Raises on any failure (refused
        connect, version mismatch, handshake timeout); the caller owns
        reconnect accounting.
        """
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
            # Two-round clock handshake, identical to process workers:
            # round 1 absorbs connection/thread warm-up, round 2 measures a
            # quiet round trip and sets the offset — so this lane's events
            # land correctly on the merged trace.
            ack = None
            for probe, budget in ((1, self.connect_timeout), (2, 5.0)):
                t0 = now_ns()
                task.send(wire.SyncMsg(t0))
                if not task.poll(budget):
                    raise RuntimeStateError(
                        f"lane {slot.index} of cluster target {self.name!r} "
                        f"({slot.endpoint}) did not answer clock probe "
                        f"{probe} within {budget}s"
                    )
                ack = task.recv()
                t1 = now_ns()
                if not isinstance(ack, wire.SyncAck):
                    raise RuntimeStateError(
                        f"lane {slot.index} of cluster target {self.name!r} "
                        f"sent {type(ack).__name__} instead of the handshake ack"
                    )
        except BaseException:
            task.close()
            if ctrl is not None:
                ctrl.close()
            raise
        slot.task = task
        slot.ctrl = ctrl
        slot.pid = ack.pid
        slot.clock_offset = estimate_offset_ns(t0, t1, ack.worker_ns)
        slot.last_pong = time.monotonic()
        self._emit_worker_event(slot, EventKind.WORKER_CONNECT, arg=slot.pid)

    def _ensure_worker(self, slot: _ClusterSlot) -> bool:
        """Make sure the slot has a live lane; (re)connect within budget."""
        disabled_now = False
        with slot.lock:
            while True:
                if slot.disabled:
                    return False
                if self._hard_stop.is_set():
                    return False
                if slot.connected and slot.is_alive():
                    return True
                if slot.connected:
                    # Lane died between regions (idle tear found by us, not
                    # the supervisor) — account and clean up.
                    slot.reap()
                    self._bump("worker_crashes")
                    self._emit_worker_event(
                        slot, EventKind.WORKER_DISCONNECT, arg="connection lost"
                    )
                if slot.spawns > self.max_restarts:
                    slot.disabled = True
                    disabled_now = True
                    break
                slot.spawns += 1
                if slot.spawns > 1:
                    self._bump("worker_restarts")
                try:
                    self._connect_slot(slot)
                except Exception as exc:  # noqa: BLE001 - connect is best-effort
                    _logger.warning(
                        "connect attempt %d for lane %d of cluster target %r "
                        "(%s) failed: %r",
                        slot.spawns, slot.index, self.name, slot.endpoint, exc,
                    )
                    continue
                return True
        if disabled_now:
            _logger.error(
                "lane %d of cluster target %r (%s) exceeded its reconnect "
                "budget (%d); disabling",
                slot.index, self.name, slot.endpoint, self.max_restarts,
            )
            if all(s.disabled for s in self._slots):
                self._on_all_slots_disabled(
                    WorkerCrashedError(
                        self.name, slot.index,
                        detail=f"all {len(self._slots)} cluster lanes across "
                               f"{len(self.endpoints)} endpoint(s) exceeded "
                               f"max_restarts={self.max_restarts}",
                    )
                )
        return False

    def _respawn_slot(self, slot: _ClusterSlot) -> None:
        """Supervisor entry point: replace a dead/wedged idle lane."""
        self._ensure_worker(slot)

    def _emit_worker_event(
        self, slot: _ClusterSlot, kind: EventKind, arg: object = None
    ) -> None:
        session = _obs.session()
        if session.enabled:
            session.emit(
                kind, target=worker_track(self.name, slot.index),
                name=f"worker {slot.index} ({slot.endpoint})", arg=arg,
            )

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

    # -------------------------------------------------------------- shipping

    def _shipper_loop(self, slot: _ClusterSlot) -> None:
        try:
            while True:
                if not self._ensure_worker(slot):
                    return
                [item] = self._queue.get_batch()
                if item is _SHUTDOWN:
                    return
                if item is _WAKEUP:
                    continue
                self._execute_remote(slot, item)
        finally:
            self._retire_slot(slot)

    def _retire_slot(self, slot: _ClusterSlot) -> None:
        """Stop the slot's agent lane on shipper exit (drain or hard stop)."""
        with slot.lock:
            if not slot.connected:
                return
            if not self._hard_stop.is_set():
                # Graceful stop: drain sentinel on both channels so the
                # agent's loops exit instead of seeing an abrupt EOF.
                try:
                    slot.task.send(wire.StopMsg())
                except (OSError, ValueError):
                    pass
                with slot.ctrl_lock:
                    try:
                        slot.ctrl.send(wire.StopMsg())
                    except (OSError, ValueError):
                        pass
            slot.reap()
            self._emit_worker_event(slot, EventKind.WORKER_DISCONNECT, arg="stop")

    def _wrap_item(self, item: TargetRegion | Callable[[], Any]) -> TargetRegion:
        if isinstance(item, TargetRegion):
            return item
        _rid, label = _item_identity(item)
        return TargetRegion(item, name=label)

    def _execute_remote(self, slot: _ClusterSlot, item: Any) -> None:
        session = _obs.session()
        region = self._wrap_item(item)
        if session.enabled:
            session.emit(
                EventKind.DEQUEUE, target=self.name, region=region.seq,
                name=region.label,
            )
            self._trace_depth(session)
        if region.done:
            return  # withdrawn (cancelled) while queued: nothing to ship
        try:
            blob = wire.dumps(
                (region.body, region.args, region.kwargs),
                what=f"payload of region {region.name!r}",
            )
        except SerializationError as exc:
            region.fulfill(exception=exc)
            self._log_plain_failure(item, region)
            return
        if not region.mark_running():
            return  # cancelled between dequeue and ship
        with slot.lock:
            if not slot.is_alive():
                self._handle_worker_failure(slot, region, detail="lane died before dispatch")
                return
            task = slot.task
            slot.busy = True
        try:
            try:
                task.send(
                    wire.ClusterTaskMsg(
                        region.seq, region.name, region.source, blob,
                        session.enabled, region.tag,
                    )
                )
            except (OSError, ValueError) as exc:
                self._handle_worker_failure(
                    slot, region, detail=f"task send failed: {exc!r}"
                )
                return
            self._await_result(slot, region)
        finally:
            with slot.lock:
                slot.busy = False
            self._log_plain_failure(item, region)

    def _await_result(self, slot: _ClusterSlot, region: TargetRegion) -> None:
        """Wait for the remote verdict while watching for tear/cancel/stop."""
        task = slot.task
        cancel_sent_at: float | None = None
        while True:
            try:
                if task.poll(_POLL_TICK):
                    msg = task.recv()
                    if isinstance(msg, wire.ResultMsg) and msg.seq == region.seq:
                        self._deliver(slot, region, msg)
                        return
                    if isinstance(msg, wire.TagDoneMsg):
                        self._on_tag_done(msg)
                    continue  # stale or unknown: keep waiting for ours
            except (EOFError, OSError):
                self._handle_worker_failure(
                    slot, region, detail="connection closed mid-region"
                )
                return
            if self._hard_stop.is_set():
                # shutdown(wait=False): fail the in-flight region fast.
                slot.send_cancel(region.seq)
                slot.terminate()
                region.fulfill(exception=TargetShutdownError(self.name))
                with slot.lock:
                    slot.reap()
                return
            if not slot.is_alive():
                self._handle_worker_failure(slot, region)
                return
            if region.cancel_token.cancelled:
                now = time.monotonic()
                if cancel_sent_at is None:
                    # Parent-side cancellation (deadline watchdog, explicit
                    # request): forward so the *remote* token — the one the
                    # body polls — flips too.
                    slot.send_cancel(region.seq)
                    cancel_sent_at = now
                elif now - cancel_sent_at > self.cancel_grace:
                    # The body ignored cooperative cancellation; reclaim the
                    # lane by tearing the connections.  The next iteration
                    # takes the crash path; note the remote body itself may
                    # run to completion on the agent — we own the lane, not
                    # the remote process.
                    _logger.warning(
                        "lane %d of cluster target %r ignored cancellation "
                        "of region %r for %.1fs; reclaiming the lane",
                        slot.index, self.name, region.name, self.cancel_grace,
                    )
                    slot.terminate()

    def _deliver(self, slot: _ClusterSlot, region: TargetRegion, msg: wire.ResultMsg) -> None:
        session = _obs.session()
        if session.enabled and msg.events:
            merge_worker_events(
                session, msg.events,
                offset_ns=slot.clock_offset,
                track=worker_track(self.name, slot.index),
                thread=f"{slot.endpoint} pid {slot.pid}",
            )
        if msg.ok:
            try:
                value = wire.loads(msg.blob, what=f"result of region {region.name!r}")
            except SerializationError as exc:
                region.fulfill(exception=exc)
                return
            region.fulfill(result=value)
        else:
            region.fulfill(
                exception=wire.unpack_exception(msg.exc_blob, msg.exc_text, msg.exc_tb)
            )

    def _handle_worker_failure(
        self, slot: _ClusterSlot, region: TargetRegion, detail: str | None = None
    ) -> None:
        """A lane died with *region* in flight: fail the waiter, account."""
        with slot.lock:
            slot.reap()
            self._bump("worker_crashes")
            self._emit_worker_event(
                slot, EventKind.WORKER_DISCONNECT,
                arg=detail or "connection lost",
            )
        if self._hard_stop.is_set():
            exc: Exception = TargetShutdownError(self.name)
        else:
            exc = WorkerCrashedError(
                self.name, slot.index,
                pid=slot.pid,
                region_name=region.name,
                detail=detail or f"connection to {slot.endpoint} lost",
            )
        region.fulfill(exception=exc)
        _logger.error(
            "lane %d of cluster target %r (%s, pid %s) failed%s running "
            "region %r",
            slot.index, self.name, slot.endpoint, slot.pid,
            f" [{detail}]" if detail else "", region.name,
        )

    def _log_plain_failure(self, item: Any, region: TargetRegion) -> None:
        """Plain callables have no waiter; surface their failures in the log."""
        if isinstance(item, TargetRegion) or region.exception is None:
            return
        _logger.error(
            "unhandled exception in %r posted to %s: %r",
            item, self.name, region.exception,
        )
