"""`ProcessTarget`: a virtual target backed by supervised worker processes.

The process counterpart of :class:`~repro.core.targets.WorkerTarget` —
same name-based directive surface (``virtual(name)``, default/``nowait``/
``name_as``+``wait``/``await``, ``timeout=``), same bounded-queue
backpressure policies, same shutdown covenant (``wait=True`` drains,
``wait=False`` cancels, nothing is ever silently stranded) — but region
bodies execute on a pool of **worker OS processes**, outside this
interpreter's GIL.  That is the "device layer" move of the OpenMP-cluster
line of work (arXiv:2207.05677, 2205.10656): remote executors behind the
unchanged ``target`` abstraction.

Architecture (per target)::

    poster threads ──post()──▶ _TargetQueue (inherited: capacity, policies)
                                   │
                 ┌─────────────────┼─────────────────┐
        shipper thread 0   shipper thread 1   ...  (one per worker slot)
                 │ TaskMsg / ResultMsg over a duplex pipe
        worker process 0   worker process 1   ...  (repro.dist.worker)
                 ▲ PingMsg/PongMsg + CancelMsg over a second pipe
                 └──────────── Supervisor thread ────┘

Each slot owns one worker process and one parent-side *shipper* thread.
The shipper pulls the next item off the shared queue, serializes the
region's ``(body, args, kwargs)``, ships it, and waits for the result in a
poll loop that simultaneously watches for: the result, worker death
(→ :class:`~repro.core.errors.WorkerCrashedError` to the waiter, never a
hang), a parent-side cancellation (→ forwarded as a
:class:`~repro.dist.wire.CancelMsg`; a worker that ignores it past
``cancel_grace`` seconds is terminated and the lane reclaimed), and hard
shutdown.  Results and exceptions are delivered through
:meth:`~repro.core.region.TargetRegion.fulfill`, i.e. the normal
region-completion path, so waiters, tags, callbacks and the ``await``
logical barrier cannot tell a process region from a thread region.

Inline elision (Algorithm 1 lines 6-7) **never** applies here:
``supports_inline`` is False.  Elision is an optimization only when the
encountering thread *is* the execution environment — it shares the target's
address space and thread affinity, so running the block synchronously is
indistinguishable from posting it.  A process target's execution
environment is a different address space; eliding would silently move the
block's side effects (and its GIL contention) back into the parent, so the
affinity router in ``invoke_target_block`` always takes the posted path.

Tracing: the parent records SUBMIT/ENQUEUE/DEQUEUE as usual; EXEC spans are
recorded **in the worker**, shipped back with each result, re-stamped onto
the parent's clock (:mod:`repro.dist.remote_obs`) and attributed to a
``<target>[w<i>]`` track — Chrome/Perfetto shows one process row per
worker, with submit→exec flow arrows crossing process tracks.
"""

from __future__ import annotations

import logging
import multiprocessing
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
from .worker import WorkerConfig, worker_main

__all__ = ["ProcessTarget", "DEFAULT_START_METHOD"]

_logger = logging.getLogger(__name__)

#: ``spawn`` is the only start method that is safe in a multithreaded
#: parent: this runtime *is* threads (thread targets, EDTs, shippers), and
#: forking a threaded process can inherit locks mid-acquire.  ``fork`` /
#: ``forkserver`` remain selectable for single-threaded embedders that want
#: cheaper startup.
DEFAULT_START_METHOD = "spawn"

#: Poll tick of the result-wait loop: bounds crash/cancel/shutdown reaction
#: latency without busy-waiting.
_POLL_TICK = 0.05


class _WorkerSlot:
    """One lane of a process target: process + pipes + accounting.

    Lifecycle fields are guarded by ``lock`` (an RLock: the supervisor
    respawns while already holding it).  ``ctrl_lock`` serializes
    parent-side *sends* on the control pipe, which both the shipper
    (cancels) and the supervisor (pings) write to.
    """

    __slots__ = (
        "index", "lock", "ctrl_lock", "process", "task_conn", "ctrl_conn",
        "pid", "clock_offset", "spawns", "disabled", "busy", "last_pong",
        "thread",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.lock = threading.RLock()
        self.ctrl_lock = threading.Lock()
        self.process: multiprocessing.process.BaseProcess | None = None
        self.task_conn: Any = None
        self.ctrl_conn: Any = None
        self.pid: int | None = None
        self.clock_offset = 0
        self.spawns = 0          # total spawn attempts (first + respawns)
        self.disabled = False
        self.busy = False
        self.last_pong = 0.0     # time.monotonic() of the last heartbeat
        self.thread: threading.Thread | None = None

    @property
    def restarts(self) -> int:
        """Respawn attempts beyond the slot's first spawn."""
        return max(0, self.spawns - 1)

    # --------------------------------------------- supervisor slot interface

    @property
    def connected(self) -> bool:
        """A worker is attached to this lane (live or not-yet-reaped)."""
        return self.process is not None

    def is_alive(self) -> bool:
        proc = self.process
        return proc is not None and proc.is_alive()

    def exit_label(self) -> str:
        """Human-readable cause of death for supervisor log lines."""
        proc = self.process
        return f"exitcode {proc.exitcode}" if proc is not None else "no process"

    def drain_control(self) -> None:
        """Absorb pending control-channel traffic; pongs refresh liveness."""
        conn = self.ctrl_conn
        if conn is None:
            return
        try:
            while conn.poll(0):
                msg = conn.recv()
                if isinstance(msg, wire.PongMsg):
                    self.last_pong = time.monotonic()
        except (EOFError, OSError):
            pass  # pipe torn: the supervisor's liveness checks handle it

    # ------------------------------------------------------------ pipe sends

    def send_ping(self) -> None:
        with self.ctrl_lock:
            conn = self.ctrl_conn
            if conn is None:
                return
            try:
                conn.send(wire.PingMsg(now_ns()))
            except (OSError, ValueError):
                pass  # dead pipe: liveness checks will catch the corpse

    def send_cancel(self, seq: int) -> None:
        with self.ctrl_lock:
            conn = self.ctrl_conn
            if conn is None:
                return
            try:
                conn.send(wire.CancelMsg(seq))
            except (OSError, ValueError):
                pass

    # ------------------------------------------------------------- teardown

    def terminate(self) -> None:
        """Hard-kill the worker process (crash semantics follow)."""
        proc = self.process
        if proc is not None and proc.is_alive():
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001 - already reaped
                pass

    def close_pipes(self) -> None:
        for conn in (self.task_conn, self.ctrl_conn):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self.task_conn = self.ctrl_conn = None

    def reap(self) -> int | None:
        """Join a dead process, drop the pipes; returns the exit code."""
        exitcode = None
        proc = self.process
        if proc is not None:
            proc.join(timeout=1.0)
            exitcode = proc.exitcode
            self.process = None
        self.close_pipes()
        self.busy = False
        return exitcode


class ProcessTarget(VirtualTarget):
    """A worker virtual target whose pool members are OS processes.

    Created by ``virtual_target_create_process_worker(tname, m)`` /
    :meth:`PjRuntime.create_process_worker`.  Parameters beyond the common
    target options:

    max_workers:
        Pool size — one worker process (and one shipper thread) per lane.
    max_restarts:
        Respawn budget *per slot*.  A slot whose worker keeps dying is
        disabled once the budget is spent; when the last slot disables, the
        backlog is failed (cancelled with the crash as reason) and the
        target refuses further posts.
    start_method:
        ``spawn`` (default, safe under threads) / ``fork`` / ``forkserver``.
    heartbeat_interval / heartbeat_misses:
        Supervisor probe cadence and the silent-interval budget after which
        an idle worker is declared wedged and replaced.
    cancel_grace:
        Seconds a worker may ignore a forwarded cancellation before its
        process is terminated and the lane reclaimed (this is what makes
        ``timeout=`` effective against a stuck worker).
    spawn_timeout:
        Budget for a new worker to come up and answer the clock handshake
        (covers interpreter start + imports under ``spawn``).
    """

    kind = "process"
    supports_inline = False   # different address space: elision would lie
    supports_pumping = False  # no parent thread is ever a member

    def __init__(
        self,
        name: str,
        max_workers: int,
        *,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
        max_restarts: int = 3,
        start_method: str | None = None,
        heartbeat_interval: float = 1.0,
        heartbeat_misses: int = 3,
        cancel_grace: float = 5.0,
        spawn_timeout: float = 60.0,
    ) -> None:
        if max_workers < 1:
            raise ValueError(
                f"process target needs at least 1 worker, got {max_workers}"
            )
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if cancel_grace <= 0:
            raise ValueError(f"cancel_grace must be > 0, got {cancel_grace}")
        super().__init__(
            name, queue_capacity=queue_capacity, rejection_policy=rejection_policy
        )
        self.max_workers = max_workers
        self.max_restarts = max_restarts
        self.cancel_grace = cancel_grace
        self.spawn_timeout = spawn_timeout
        self._ctx = multiprocessing.get_context(start_method or DEFAULT_START_METHOD)
        self._hard_stop = threading.Event()
        with self._stats_lock:
            self._stats.update({"worker_crashes": 0, "worker_restarts": 0})
        self._slots = [_WorkerSlot(i) for i in range(max_workers)]
        self._supervisor = Supervisor(
            self, interval=heartbeat_interval, misses=heartbeat_misses
        )
        for slot in self._slots:
            slot.thread = threading.Thread(
                target=self._shipper_loop,
                args=(slot,),
                name=f"repro-dist-{name}-ship-{slot.index}",
                daemon=True,
            )
            slot.thread.start()
        self._supervisor.start()

    # ------------------------------------------------------------ taxonomy

    @property
    def pool_size(self) -> int:
        return self.max_workers

    @property
    def restart_count(self) -> int:
        return sum(slot.restarts for slot in self._slots)

    @property
    def worker_pids(self) -> list[int | None]:
        """Current pid of each slot (None while down) — diagnostics."""
        return [slot.pid if slot.process is not None else None for slot in self._slots]

    def process_one(self, timeout: float | None = None) -> bool:
        """Process targets cannot run queued regions in the calling thread —
        the queue feeds worker *processes*, and executing a region here would
        silently move it back into this address space."""
        raise RuntimeStateError(
            f"process target {self.name!r} cannot be pumped: its queue is "
            "drained by shipper threads feeding worker processes"
        )

    def drain(self) -> int:
        """See :meth:`process_one` — draining in the caller is not allowed."""
        raise RuntimeStateError(
            f"process target {self.name!r} cannot be drained in the calling "
            "thread; use shutdown(wait=True) to run the backlog down"
        )

    # ------------------------------------------------------------- lifecycle

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool.

        ``wait=True`` drains: the backlog ships to the workers FIFO, shipper
        threads are joined, workers are stopped with a
        :class:`~repro.dist.wire.StopMsg` and joined.  ``wait=False``
        cancels: the queued backlog is withdrawn (waiters fail fast with
        ``RegionCancelledError``), in-flight regions are cancelled across
        the process boundary and their workers terminated, and nothing is
        joined — mirroring :class:`~repro.core.targets.WorkerTarget`.
        """
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        self._supervisor.stop()
        if not wait:
            self._hard_stop.set()
            self._queue.close()
            self._cancel_pending()
            # Nudge busy workers concurrently: forward a cancel for whatever
            # they are running.  Their shippers notice _hard_stop within one
            # poll tick, terminate them, and fail the in-flight regions.
            for slot in self._slots:
                if slot.busy:
                    slot.send_cancel(-1)  # wakes the control thread; benign
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
            "process target %r lost all %d workers beyond their restart "
            "budgets; failing the backlog", self.name, self.max_workers,
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
                "cancelled %d queued region(s) on dead target %r",
                cancelled, self.name,
            )

    # ---------------------------------------------------------- worker pool

    def _spawn_worker(self, slot: _WorkerSlot) -> None:
        """Start one worker process and run the clock-sync handshake.

        Called under ``slot.lock``.  Raises on any failure; the caller owns
        restart accounting.
        """
        parent_task, child_task = self._ctx.Pipe()
        parent_ctrl, child_ctrl = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(WorkerConfig(self.name, slot.index), child_task, child_ctrl),
            name=f"repro-dist-{self.name}-{slot.index}",
            daemon=True,
        )
        try:
            proc.start()
        except Exception:
            parent_task.close(); parent_ctrl.close()
            child_task.close(); child_ctrl.close()
            raise
        # The child inherited its ends; closing ours makes a dead child
        # surface as EOFError on recv instead of an indefinite block.
        child_task.close()
        child_ctrl.close()
        try:
            # Two-round clock handshake.  Round 1 absorbs interpreter
            # startup + imports (its round trip is wildly asymmetric, so its
            # midpoint would be tens of ms off); round 2 probes the warm
            # worker, where the trip is pure pipe latency, and sets the
            # offset.
            ack = None
            for probe, budget in ((1, self.spawn_timeout), (2, 5.0)):
                t0 = now_ns()
                parent_task.send(wire.SyncMsg(t0))
                if not parent_task.poll(budget):
                    raise RuntimeStateError(
                        f"worker {slot.index} of process target {self.name!r} "
                        f"did not answer clock probe {probe} within {budget}s"
                    )
                ack = parent_task.recv()
                t1 = now_ns()
                if not isinstance(ack, wire.SyncAck):
                    raise RuntimeStateError(
                        f"worker {slot.index} of process target {self.name!r} "
                        f"sent {type(ack).__name__} instead of the handshake ack"
                    )
        except Exception:
            try:
                proc.terminate()
            finally:
                proc.join(timeout=5.0)
                parent_task.close()
                parent_ctrl.close()
            raise
        slot.process = proc
        slot.task_conn = parent_task
        slot.ctrl_conn = parent_ctrl
        slot.pid = ack.pid
        slot.clock_offset = estimate_offset_ns(t0, t1, ack.worker_ns)
        slot.last_pong = time.monotonic()
        session = _obs.session()
        if session.enabled:
            session.emit(
                EventKind.WORKER_SPAWN, target=worker_track(self.name, slot.index),
                name=f"worker {slot.index}", arg=slot.pid,
            )

    def _ensure_worker(self, slot: _WorkerSlot) -> bool:
        """Make sure the slot has a live worker; spawn/respawn within budget.

        Returns False when the slot is disabled or the target is shutting
        down — the shipper then stops consuming.
        """
        disabled_now = False
        with slot.lock:
            while True:
                if slot.disabled:
                    return False
                # Gate on the *hard* stop, not _shutdown: a graceful
                # shutdown(wait=True) sets _shutdown while the backlog still
                # has to drain through live workers (respawning if needed).
                if self._hard_stop.is_set():
                    return False
                proc = slot.process
                if proc is not None and proc.is_alive():
                    return True
                if proc is not None:
                    # Died between regions (idle crash found by us, not the
                    # supervisor) — account and clean up.
                    exitcode = slot.reap()
                    self._bump("worker_crashes")
                    self._emit_worker_event(
                        slot, EventKind.WORKER_CRASH, arg=exitcode
                    )
                if slot.spawns > self.max_restarts:
                    slot.disabled = True
                    disabled_now = True
                    break
                slot.spawns += 1
                if slot.spawns > 1:
                    self._bump("worker_restarts")
                try:
                    self._spawn_worker(slot)
                except Exception as exc:  # noqa: BLE001 - spawn is best-effort
                    _logger.warning(
                        "spawn attempt %d for worker %d of target %r failed: %r",
                        slot.spawns, slot.index, self.name, exc,
                    )
                    continue
                return True
        if disabled_now:
            _logger.error(
                "worker %d of process target %r exceeded its restart budget "
                "(%d respawns); disabling the lane",
                slot.index, self.name, self.max_restarts,
            )
            if all(s.disabled for s in self._slots):
                self._on_all_slots_disabled(
                    WorkerCrashedError(
                        self.name, slot.index,
                        detail=f"all {self.max_workers} workers exceeded "
                               f"max_restarts={self.max_restarts}",
                    )
                )
        return False

    def _respawn_slot(self, slot: _WorkerSlot) -> None:
        """Supervisor entry point: replace a dead/wedged idle worker."""
        self._ensure_worker(slot)

    def _emit_worker_event(
        self, slot: _WorkerSlot, kind: EventKind, arg: object = None
    ) -> None:
        session = _obs.session()
        if session.enabled:
            session.emit(
                kind, target=worker_track(self.name, slot.index),
                name=f"worker {slot.index}", arg=arg,
            )

    # -------------------------------------------------------------- shipping

    def _shipper_loop(self, slot: _WorkerSlot) -> None:
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

    def _retire_slot(self, slot: _WorkerSlot) -> None:
        """Stop the slot's worker on shipper exit (drain or hard stop)."""
        with slot.lock:
            proc = slot.process
            if proc is None:
                return
            if proc.is_alive():
                if self._hard_stop.is_set():
                    slot.terminate()
                else:
                    # Graceful stop: drain sentinel on both pipes, bounded join.
                    try:
                        slot.task_conn.send(wire.StopMsg())
                    except (OSError, ValueError):
                        pass
                    with slot.ctrl_lock:
                        try:
                            slot.ctrl_conn.send(wire.StopMsg())
                        except (OSError, ValueError):
                            pass
                    proc.join(timeout=5.0)
                    if proc.is_alive():
                        _logger.warning(
                            "worker %d of target %r ignored StopMsg; terminating",
                            slot.index, self.name,
                        )
                        slot.terminate()
            exitcode = slot.reap()
            self._emit_worker_event(slot, EventKind.WORKER_EXIT, arg=exitcode)

    def _wrap_item(self, item: TargetRegion | Callable[[], Any]) -> TargetRegion:
        if isinstance(item, TargetRegion):
            return item
        # Plain callables (events posted by higher layers) ride as anonymous
        # regions; failures are logged parent-side, same policy as the
        # thread-backed dispatch loop.
        _rid, label = _item_identity(item)
        return TargetRegion(item, name=label)

    def _execute_remote(self, slot: _WorkerSlot, item: Any) -> None:
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
            proc = slot.process
            if proc is None or not proc.is_alive():
                self._handle_worker_failure(slot, region, detail="died before dispatch")
                return
            conn = slot.task_conn
            slot.busy = True
        try:
            try:
                conn.send(
                    wire.TaskMsg(
                        region.seq, region.name, region.source, blob,
                        session.enabled,
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

    def _await_result(self, slot: _WorkerSlot, region: TargetRegion) -> None:
        """Wait for the worker's verdict while watching for crash/cancel/stop."""
        conn = slot.task_conn
        cancel_sent_at: float | None = None
        while True:
            try:
                if conn.poll(_POLL_TICK):
                    msg = conn.recv()
                    if isinstance(msg, wire.ResultMsg) and msg.seq == region.seq:
                        self._deliver(slot, region, msg)
                        return
                    continue  # stale or unknown: keep waiting for ours
            except (EOFError, OSError):
                self._handle_worker_failure(slot, region, detail="pipe closed mid-region")
                return
            if self._hard_stop.is_set():
                # shutdown(wait=False): fail the in-flight region fast.
                slot.send_cancel(region.seq)
                slot.terminate()
                region.fulfill(exception=TargetShutdownError(self.name))
                with slot.lock:
                    slot.reap()
                return
            if not slot.process.is_alive():
                self._handle_worker_failure(slot, region)
                return
            if region.cancel_token.cancelled:
                now = time.monotonic()
                if cancel_sent_at is None:
                    # Parent-side cancellation (deadline watchdog, explicit
                    # request_cancel): forward it so the worker-side token —
                    # the one the body actually polls — flips too.
                    slot.send_cancel(region.seq)
                    cancel_sent_at = now
                elif now - cancel_sent_at > self.cancel_grace:
                    # The body ignored cooperative cancellation; reclaim the
                    # lane.  The next loop iteration takes the crash path.
                    _logger.warning(
                        "worker %d of target %r ignored cancellation of "
                        "region %r for %.1fs; terminating",
                        slot.index, self.name, region.name, self.cancel_grace,
                    )
                    slot.terminate()

    def _deliver(self, slot: _WorkerSlot, region: TargetRegion, msg: wire.ResultMsg) -> None:
        session = _obs.session()
        if session.enabled and msg.events:
            merge_worker_events(
                session, msg.events,
                offset_ns=slot.clock_offset,
                track=worker_track(self.name, slot.index),
                thread=f"pid {slot.pid}",
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
        self, slot: _WorkerSlot, region: TargetRegion, detail: str | None = None
    ) -> None:
        """A worker died with *region* in flight: fail the waiter, account."""
        with slot.lock:
            exitcode = slot.reap()
            self._bump("worker_crashes")
            self._emit_worker_event(slot, EventKind.WORKER_CRASH, arg=exitcode)
        if self._hard_stop.is_set():
            exc: Exception = TargetShutdownError(self.name)
        else:
            exc = WorkerCrashedError(
                self.name, slot.index,
                pid=slot.pid, exitcode=exitcode,
                region_name=region.name, detail=detail,
            )
        region.fulfill(exception=exc)
        _logger.error(
            "worker %d of process target %r (pid %s) crashed%s running region "
            "%r (exitcode %s)",
            slot.index, self.name, slot.pid,
            f" [{detail}]" if detail else "", region.name, exitcode,
        )

    def _log_plain_failure(self, item: Any, region: TargetRegion) -> None:
        """Plain callables have no waiter; surface their failures in the log."""
        if isinstance(item, TargetRegion) or region.exception is None:
            return
        _logger.error(
            "unhandled exception in %r posted to %s: %r",
            item, self.name, region.exception,
        )
