"""`RemoteTarget`: the shared base of process and cluster targets.

A remote target keeps the name-based directive surface of
:class:`~repro.core.targets.WorkerTarget` (``virtual(name)``, default/
``nowait``/``name_as``+``wait``/``await``, ``timeout=``), its bounded-queue
backpressure policies and its shutdown covenant (``wait=True`` drains,
``wait=False`` cancels, nothing is ever silently stranded) — but region
bodies run on *lanes* outside this interpreter: worker processes behind
socketpairs (:class:`~repro.dist.process_target.ProcessTarget`) or slots on
cluster worker agents behind sockets
(:class:`~repro.cluster.target.ClusterTarget`).  That is the "remote
device" move of the OpenMP-cluster line of work (arXiv:2207.05677,
2205.10656): remote executors behind the unchanged ``target`` abstraction.

Architecture (per target)::

    poster threads ──post()──▶ _TargetQueue (inherited: capacity, policies)
                                   │  (shared: pull = least-loaded routing)
                 ┌─────────────────┼─────────────────┐
        shipper thread 0   shipper thread 1   ...  (one per lane)
                 │ SyncMsg / TaskMsg / ResultMsg over the "task" channel
        remote worker 0    remote worker 1    ...  (repro.dist.worker loops)
                 ▲ PingMsg/PongMsg + CancelMsg over the "ctrl" channel
                 └──────────── Supervisor thread ────┘

Each lane is a :class:`RemoteSlot` holding two channels, ``task`` and
``ctrl``, each a :class:`~repro.dist.channel.SocketChannel` end (over a
socketpair or TCP) with ``send``/``recv``/``poll``/``close``, so
everything here is written once against that subset.  The lane's
*shipper* thread pulls the next item off the shared queue, serializes the
region's ``(body, args, kwargs)``, ships it, and waits for the result in a poll loop that simultaneously watches
for: the result, lane death (→ :class:`~repro.core.errors.WorkerCrashedError`
to the waiter, never a hang), a parent-side cancellation (→ forwarded as a
:class:`~repro.dist.wire.CancelMsg`; a body that ignores it past
``cancel_grace`` seconds has its lane reclaimed), and hard shutdown.
Results and exceptions are delivered through
:meth:`~repro.core.region.TargetRegion.fulfill`, i.e. the normal
region-completion path, so waiters, tags, callbacks and the ``await``
logical barrier cannot tell a remote region from a thread region.

A subclass supplies only what really differs: how a lane opens
(:meth:`RemoteTarget._open_channels`), how a slot decides liveness,
terminates and reaps (its :class:`RemoteSlot` subclass), the task message
it ships (:meth:`RemoteTarget._task_message`), and its log labels and trace
event kinds.

Inline elision (Algorithm 1 lines 6-7) **never** applies here:
``supports_inline`` is False.  Elision is an optimization only when the
encountering thread *is* the execution environment — it shares the target's
address space and thread affinity, so running the block synchronously is
indistinguishable from posting it.  A remote target's execution environment
is a different address space (or host); eliding would silently move the
block's side effects (and its GIL contention) back into the parent, so the
affinity router in ``invoke_target_block`` always takes the posted path.

Tracing: the parent records SUBMIT/ENQUEUE/DEQUEUE as usual; EXEC spans are
recorded **remotely**, shipped back with each result, re-stamped onto the
parent's clock (:mod:`repro.dist.remote_obs`) and attributed to a
``<target>[w<i>]`` track — Chrome/Perfetto shows one row per lane, with
submit→exec flow arrows crossing tracks.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Callable

from ..core.errors import (
    RuntimeStateError,
    SerializationError,
    TargetShutdownError,
    WorkerCrashedError,
)
from ..core.region import TargetRegion
from ..core.targets import _SHUTDOWN, _WAKEUP, VirtualTarget, _item_identity
from ..obs import EventKind
from ..obs import recorder as _obs
from ..obs.events import now_ns
from . import wire
from .remote_obs import estimate_offset_ns, merge_worker_events, worker_track
from .supervisor import Supervisor

__all__ = ["RemoteSlot", "RemoteTarget"]

_logger = logging.getLogger(__name__)

#: Poll tick of the result-wait loop: bounds crash/cancel/shutdown reaction
#: latency without busy-waiting.
_POLL_TICK = 0.05


class RemoteSlot:
    """One lane of a remote target: a ``task`` and a ``ctrl`` channel plus
    accounting — the slot interface :class:`~repro.dist.supervisor.Supervisor`
    sweeps.

    Both channels are :class:`~repro.dist.channel.SocketChannel` ends, over
    a socketpair (process lanes) or TCP (cluster lanes).  Task payloads and
    results cross them as protocol-5 pickles whose array data travels out
    of band, uncopied (a 1 MiB echo: 9.15 → 1.16 ms on a cluster lane,
    4.47 → 1.32 ms on a process lane; ``docs/DISTRIBUTION.md``).

    Lifecycle fields are guarded by ``lock`` (an RLock: the supervisor
    respawns while already holding it).  ``ctrl_lock`` serializes
    parent-side *sends* on the control channel, which both the shipper
    (cancels) and the supervisor (pings) write to.

    Subclasses implement :meth:`is_alive` and :meth:`exit_label`, and
    override :meth:`terminate`, :meth:`wait_exit` and :meth:`reap` where a
    lane owns more than its two channels (a worker process).
    """

    __slots__ = (
        "index", "lock", "ctrl_lock", "task", "ctrl", "pid", "clock_offset",
        "spawns", "disabled", "busy", "last_pong", "thread",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.lock = threading.RLock()
        self.ctrl_lock = threading.Lock()
        self.task: Any = None        # the "task" channel, or None while down
        self.ctrl: Any = None        # the "ctrl" channel, or None while down
        self.pid: int | None = None  # remote pid (from the clock handshake)
        self.clock_offset = 0
        self.spawns = 0              # total open attempts (first + reopens)
        self.disabled = False
        self.busy = False
        self.last_pong = 0.0         # time.monotonic() of the last heartbeat
        self.thread: threading.Thread | None = None

    @property
    def restarts(self) -> int:
        """Reopen attempts beyond the slot's first open."""
        return max(0, self.spawns - 1)

    @property
    def trace_name(self) -> str:
        """Name of this lane's WORKER_* trace events."""
        return f"worker {self.index}"

    @property
    def trace_thread(self) -> str:
        """Thread label of this lane's merged remote events."""
        return f"pid {self.pid}"

    # --------------------------------------------- supervisor slot interface

    @property
    def connected(self) -> bool:
        """A remote worker is attached to this lane (live or not-yet-reaped)."""
        return self.task is not None

    def is_alive(self) -> bool:
        """The lane is believed live."""
        raise NotImplementedError

    def exit_label(self) -> str:
        """Human-readable cause of death for supervisor log lines."""
        raise NotImplementedError

    def drain_control(self) -> None:
        """Absorb pending control-channel traffic; pongs refresh liveness."""
        ctrl = self.ctrl
        if ctrl is None:
            return
        try:
            while ctrl.poll(0):
                msg = ctrl.recv()
                if isinstance(msg, wire.PongMsg):
                    self.last_pong = time.monotonic()
        except (EOFError, OSError):
            pass  # channel torn: the supervisor's liveness checks handle it

    # ------------------------------------------------------------ ctrl sends

    def send_ping(self) -> None:
        self._send_ctrl(wire.PingMsg(now_ns()))

    def send_cancel(self, seq: int) -> None:
        self._send_ctrl(wire.CancelMsg(seq))

    def send_stop(self) -> None:
        """Graceful stop: a drain sentinel on both channels, so the remote
        loops exit instead of seeing an abrupt EOF."""
        try:
            self.task.send(wire.StopMsg())
        except (OSError, ValueError):
            pass
        self._send_ctrl(wire.StopMsg())

    def _send_ctrl(self, msg: Any) -> None:
        with self.ctrl_lock:
            ctrl = self.ctrl
            if ctrl is None:
                return
            try:
                ctrl.send(msg)
            except (OSError, ValueError):
                pass  # dead lane: liveness checks will catch the corpse

    # ------------------------------------------------------------- teardown

    def terminate(self) -> None:
        """Reclaim the lane by tearing both channels (crash semantics follow)."""
        self.close_channels()

    def wait_exit(self, timeout: float) -> bool:
        """After a graceful StopMsg: wait for the remote side to finish;
        False if it is still running after *timeout* seconds."""
        return True

    def close_channels(self) -> None:
        for channel in (self.task, self.ctrl):
            if channel is not None:
                try:
                    channel.close()
                except OSError:  # pragma: no cover - already torn
                    pass
        self.task = self.ctrl = None

    def reap(self) -> int | None:
        """Drop the dead lane's channels; returns the exit code, if any."""
        self.close_channels()
        self.busy = False
        return None


class RemoteTarget(VirtualTarget):
    """A worker virtual target whose pool members are remote lanes.

    Parameters shared by every remote target, beyond the common target
    options:

    max_restarts:
        Reopen budget *per slot*.  A slot whose lane keeps dying is disabled
        once the budget is spent; when the last slot disables, the backlog
        is failed (cancelled with the crash as reason) and the target
        refuses further posts.
    heartbeat_interval / heartbeat_misses:
        Supervisor probe cadence over the ctrl channel and the
        silent-interval budget after which an idle lane is declared wedged
        and replaced.
    cancel_grace:
        Seconds a remote body may ignore a forwarded cancellation before its
        lane is reclaimed (this is what makes ``timeout=`` effective against
        a stuck body).
    """

    supports_inline = False   # different address space: elision would lie
    supports_pumping = False  # no parent thread is ever a member

    # Set by each subclass:
    #: prefix of the shipper thread names;
    _thread_prefix: str
    #: what a torn ``task`` channel is called in crash details;
    _channel_noun: str
    #: trace event kinds of a lane coming up, dying, and retiring.
    _up_kind: EventKind
    _lost_kind: EventKind
    _exit_kind: EventKind

    def __init__(
        self,
        name: str,
        slots: list[RemoteSlot],
        *,
        queue_capacity: int | None,
        rejection_policy: str,
        max_restarts: int,
        heartbeat_interval: float,
        heartbeat_misses: int,
        cancel_grace: float,
        open_timeout: float,
    ) -> None:
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if cancel_grace <= 0:
            raise ValueError(f"cancel_grace must be > 0, got {cancel_grace}")
        super().__init__(
            name, queue_capacity=queue_capacity, rejection_policy=rejection_policy
        )
        self.max_restarts = max_restarts
        self.cancel_grace = cancel_grace
        self._open_timeout = open_timeout
        self._hard_stop = threading.Event()
        with self._stats_lock:
            self._stats.update({"worker_crashes": 0, "worker_restarts": 0})
        self._slots = slots
        self._live_shippers = len(slots)  # under _shippers_lock
        self._shippers_lock = threading.Lock()
        self._supervisor = Supervisor(
            self, interval=heartbeat_interval, misses=heartbeat_misses
        )
        for slot in self._slots:
            slot.thread = threading.Thread(
                target=self._shipper_loop,
                args=(slot,),
                name=f"{self._thread_prefix}-{name}-ship-{slot.index}",
                daemon=True,
            )
            slot.thread.start()
        self._supervisor.start()

    # ------------------------------------------------------ subclass hooks

    def _open_channels(self, slot: RemoteSlot) -> tuple[Any, Any]:
        """Start or reach the lane's remote worker; return ``(task, ctrl)``.

        Called under ``slot.lock``.  Raises on failure, after closing
        whatever it opened.
        """
        raise NotImplementedError

    def _task_message(self, region: TargetRegion, blob: tuple, trace: bool) -> Any:
        """The wire message that ships *region* (payload already dumped)."""
        raise NotImplementedError

    def _lane_label(self, slot: RemoteSlot) -> str:
        """Lane identity for log lines and handshake errors."""
        raise NotImplementedError

    def _pool_label(self) -> str:
        """The whole pool, for the all-lanes-lost verdict."""
        raise NotImplementedError

    def _lane_event_arg(self, exitcode: int | None, cause: str) -> object:
        """The ``arg`` of a lane-lost or lane-exit trace event."""
        return exitcode

    def _crash_detail(self, slot: RemoteSlot) -> str | None:
        """Default ``detail`` of the WorkerCrashedError of a lost lane."""
        return None

    def _on_tag_done(self, msg: wire.TagDoneMsg) -> None:
        """A remote body of a tagged region finished (a progress signal;
        only tag-carrying task messages produce one)."""

    # ------------------------------------------------------------ taxonomy

    @property
    def pool_size(self) -> int:
        return len(self._slots)

    @property
    def restart_count(self) -> int:
        return sum(slot.restarts for slot in self._slots)

    @property
    def worker_pids(self) -> list[int | None]:
        """Remote pid behind each slot (None while down) — diagnostics."""
        return [slot.pid if slot.connected else None for slot in self._slots]

    def process_one(self, timeout: float | None = None) -> bool:
        """Remote targets cannot run queued regions in the calling thread —
        the queue feeds remote workers, and executing a region here would
        silently move it back into this address space."""
        raise RuntimeStateError(
            f"{self.kind} target {self.name!r} cannot be pumped: its queue is "
            "drained by shipper threads feeding remote workers"
        )

    def drain(self) -> int:
        """See :meth:`process_one` — draining in the caller is not allowed."""
        raise RuntimeStateError(
            f"{self.kind} target {self.name!r} cannot be drained in the calling "
            "thread; use shutdown(wait=True) to run the backlog down"
        )

    # ------------------------------------------------------------- lifecycle

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool.

        ``wait=True`` drains: the backlog ships to the lanes FIFO, shipper
        threads are joined, and each lane is stopped with a
        :class:`~repro.dist.wire.StopMsg` on both channels (a worker process
        is joined; a cluster agent *process* keeps running — it is shared
        infrastructure other targets may be using).  ``wait=False``
        cancels: the queued backlog is withdrawn (waiters fail fast with
        ``RegionCancelledError``), in-flight regions are cancelled across
        the wire and their lanes torn down, and nothing is joined —
        mirroring :class:`~repro.core.targets.WorkerTarget`.
        """
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        self._supervisor.stop()
        if not wait:
            self._hard_stop.set()
            self._queue.close()
            self._cancel_pending()
            # Nudge busy lanes concurrently: forward a cancel for whatever
            # they are running.  Their shippers notice _hard_stop within one
            # poll tick, tear the lanes down, and fail the in-flight regions.
            for slot in self._slots:
                if slot.busy:
                    slot.send_cancel(-1)  # wakes the control loop; benign
        for _ in self._slots:
            self._queue.put_internal(_SHUTDOWN)
        if wait:
            for slot in self._slots:
                if slot.thread is not None and slot.thread is not threading.current_thread():
                    slot.thread.join()
            self._supervisor.join()

    def _on_all_slots_disabled(self, cause: WorkerCrashedError) -> None:
        """Every lane exhausted its restart budget: fail the backlog.

        The no-lost-work covenant: queued regions are cancelled with the
        crash as reason (waiters see ``RegionCancelledError`` caused by
        :class:`WorkerCrashedError`), the queue closes, and further posts
        raise :class:`TargetShutdownError`.
        """
        if self._shutdown.is_set():
            return
        _logger.error(
            "%s target %r lost all %s beyond their restart budgets; failing "
            "the backlog", self.kind, self.name, self._pool_label(),
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
                "cancelled %d queued region(s) on dead %s target %r",
                cancelled, self.kind, self.name,
            )

    # ------------------------------------------------------------ lane pool

    def _open_lane(self, slot: RemoteSlot) -> None:
        """Open the slot's channels and run the clock-sync handshake.

        Called under ``slot.lock``.  Raises on any failure (refused
        connect, version mismatch, handshake timeout) after tearing the
        half-open lane down; the caller owns restart accounting.
        """
        slot.task, slot.ctrl = self._open_channels(slot)
        try:
            # Two-round clock handshake.  Round 1 absorbs start-up
            # (interpreter start + imports, or connection/thread warm-up):
            # its round trip is wildly asymmetric, so its midpoint would be
            # tens of ms off.  Round 2 probes the warm worker, where the
            # trip is pure channel latency, and sets the offset — so this
            # lane's events land correctly on the merged trace.
            ack = None
            for probe, budget in ((1, self._open_timeout), (2, 5.0)):
                t0 = now_ns()
                slot.task.send(wire.SyncMsg(t0))
                if not slot.task.poll(budget):
                    raise RuntimeStateError(
                        f"{self._lane_label(slot)} did not answer clock probe "
                        f"{probe} within {budget}s"
                    )
                ack = slot.task.recv()
                t1 = now_ns()
                if not isinstance(ack, wire.SyncAck):
                    raise RuntimeStateError(
                        f"{self._lane_label(slot)} sent {type(ack).__name__} "
                        "instead of the handshake ack"
                    )
        except BaseException:
            slot.terminate()
            slot.reap()
            raise
        slot.pid = ack.pid
        slot.clock_offset = estimate_offset_ns(t0, t1, ack.worker_ns)
        slot.last_pong = time.monotonic()
        self._emit_worker_event(slot, self._up_kind, arg=slot.pid)

    def _ensure_worker(self, slot: RemoteSlot) -> bool:
        """Make sure the slot has a live lane; open/reopen it within budget.

        Returns False when the slot is disabled or the target is shutting
        down hard — the shipper then stops consuming.
        """
        disabled_now = False
        with slot.lock:
            while True:
                if slot.disabled:
                    return False
                # Gate on the *hard* stop, not _shutdown: a graceful
                # shutdown(wait=True) sets _shutdown while the backlog still
                # has to drain through live lanes (reopening if needed).
                if self._hard_stop.is_set():
                    return False
                if slot.connected and slot.is_alive():
                    return True
                if slot.connected:
                    # Died between regions (idle death found by us, not the
                    # supervisor) — account and clean up.
                    exitcode = slot.reap()
                    self._bump("worker_crashes")
                    self._emit_worker_event(
                        slot, self._lost_kind,
                        arg=self._lane_event_arg(exitcode, "connection lost"),
                    )
                if slot.spawns > self.max_restarts:
                    slot.disabled = True
                    disabled_now = True
                    break
                slot.spawns += 1
                if slot.spawns > 1:
                    self._bump("worker_restarts")
                try:
                    self._open_lane(slot)
                except Exception as exc:  # noqa: BLE001 - opening is best-effort
                    _logger.warning(
                        "attempt %d to open %s failed: %r",
                        slot.spawns, self._lane_label(slot), exc,
                    )
                    continue
                return True
        if disabled_now:
            _logger.error(
                "%s exceeded its restart budget (%d); disabling the lane",
                self._lane_label(slot), self.max_restarts,
            )
            if all(s.disabled for s in self._slots):
                self._on_all_slots_disabled(
                    WorkerCrashedError(
                        self.name, slot.index,
                        detail=f"all {self._pool_label()} exceeded "
                               f"max_restarts={self.max_restarts}",
                    )
                )
        return False

    def _respawn_slot(self, slot: RemoteSlot) -> None:
        """Supervisor entry point: replace a dead/wedged idle lane."""
        self._ensure_worker(slot)

    def _emit_worker_event(
        self, slot: RemoteSlot, kind: EventKind, arg: object = None
    ) -> None:
        session = _obs.session()
        if session.enabled:
            session.emit(
                kind, target=worker_track(self.name, slot.index),
                name=slot.trace_name, arg=arg,
            )

    # -------------------------------------------------------------- shipping

    def _shipper_loop(self, slot: RemoteSlot) -> None:
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
            with self._shippers_lock:
                self._live_shippers -= 1
                last = self._live_shippers == 0
            if last:
                self._seal()

    def _retire_slot(self, slot: RemoteSlot) -> None:
        """Stop the slot's lane on shipper exit (drain or hard stop)."""
        with slot.lock:
            if not slot.connected:
                return
            if self._hard_stop.is_set():
                slot.terminate()
            elif slot.is_alive():
                slot.send_stop()
                if not slot.wait_exit(5.0):
                    _logger.warning(
                        "%s ignored StopMsg; terminating", self._lane_label(slot)
                    )
                    slot.terminate()
            exitcode = slot.reap()
            self._emit_worker_event(
                slot, self._exit_kind, arg=self._lane_event_arg(exitcode, "stop")
            )

    def _wrap_item(self, item: TargetRegion | Callable[[], Any]) -> TargetRegion:
        if isinstance(item, TargetRegion):
            return item
        # Plain callables (events posted by higher layers) ride as anonymous
        # regions; failures are logged parent-side, same policy as the
        # thread-backed dispatch loop.
        _rid, label = _item_identity(item)
        return TargetRegion(item, name=label)

    def _execute_remote(self, slot: RemoteSlot, item: Any) -> None:
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
                task.send(self._task_message(region, blob, session.enabled))
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

    def _await_result(self, slot: RemoteSlot, region: TargetRegion) -> None:
        """Wait for the remote verdict while watching for crash/cancel/stop."""
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
                    slot, region, detail=f"{self._channel_noun} closed mid-region"
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
                    # request_cancel): forward it so the remote token — the
                    # one the body actually polls — flips too.
                    slot.send_cancel(region.seq)
                    cancel_sent_at = now
                elif now - cancel_sent_at > self.cancel_grace:
                    # The body ignored cooperative cancellation; reclaim the
                    # lane.  The next loop iteration takes the crash path.
                    # A worker process dies with its body; a cluster agent
                    # only loses the connection — the body itself may run to
                    # completion there, since we own the lane, not the
                    # remote process.
                    _logger.warning(
                        "%s ignored cancellation of region %r for %.1fs; "
                        "reclaiming the lane",
                        self._lane_label(slot), region.name, self.cancel_grace,
                    )
                    slot.terminate()

    def _deliver(self, slot: RemoteSlot, region: TargetRegion, msg: wire.ResultMsg) -> None:
        session = _obs.session()
        if session.enabled and msg.events:
            merge_worker_events(
                session, msg.events,
                offset_ns=slot.clock_offset,
                track=worker_track(self.name, slot.index),
                thread=slot.trace_thread,
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
        self, slot: RemoteSlot, region: TargetRegion, detail: str | None = None
    ) -> None:
        """A lane died with *region* in flight: fail the waiter, account."""
        with slot.lock:
            exitcode = slot.reap()
            self._bump("worker_crashes")
            self._emit_worker_event(
                slot, self._lost_kind,
                arg=self._lane_event_arg(exitcode, detail or "connection lost"),
            )
        if self._hard_stop.is_set():
            exc: Exception = TargetShutdownError(self.name)
        else:
            exc = WorkerCrashedError(
                self.name, slot.index,
                pid=slot.pid, exitcode=exitcode,
                region_name=region.name,
                detail=detail or self._crash_detail(slot),
            )
        region.fulfill(exception=exc)
        _logger.error("%s failed running region %r: %s",
                      self._lane_label(slot), region.name, exc)

    def _log_plain_failure(self, item: Any, region: TargetRegion) -> None:
        """Plain callables have no waiter; surface their failures in the log."""
        if isinstance(item, TargetRegion) or region.exception is None:
            return
        _logger.error(
            "unhandled exception in %r posted to %s: %r",
            item, self.name, region.exception,
        )
