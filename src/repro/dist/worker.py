"""The worker-process side of a process-backed virtual target.

:func:`worker_main` is the ``multiprocessing.Process`` entry point.  Each
worker runs two threads:

* the **main thread** drives the task loop: clock-sync handshake, then
  ``recv`` a :class:`~repro.dist.wire.TaskMsg`, rebuild the region, run it,
  ship a :class:`~repro.dist.wire.ResultMsg` (result *or* exception, plus
  the worker-side trace events), repeat until :class:`~repro.dist.wire.StopMsg`;
* a daemon **control thread** answers heartbeat pings and applies
  cooperative cancellation — it owns the control channel, so both keep
  working while the main thread is deep inside a region body.

A cluster worker agent (:mod:`repro.cluster.agent`) runs the same two loops,
:func:`_task_loop` and :func:`_control_loop`, per lane over sockets.

Regions execute as real :class:`~repro.core.region.TargetRegion` instances,
so worker-side user code keeps the full in-process contract:
``current_region()`` resolves, and ``current_region().cancel_token`` is the
*same token* the parent's :class:`CancelMsg` flips — a body written to poll
its token cooperates with cancellation identically on thread and process
targets.

Failure policy mirrors the thread-backed dispatch loop: nothing a region
body does may kill the worker.  Exceptions are captured and shipped;
unpicklable payloads/results/exceptions degrade to typed errors
(:class:`~repro.core.errors.SerializationError`,
:class:`~repro.core.errors.RemoteExecutionError`) rather than breaking the
protocol.  Only a torn channel (the parent died) exits the loop.
"""

from __future__ import annotations

import os
import socket
import threading
from typing import Any

from ..core.region import TargetRegion
from ..obs import EventKind
from ..obs.events import now_ns
from . import wire
from .channel import MAX_LOCAL_FRAME_BYTES, SocketChannel
from .remote_obs import WorkerEventLog

__all__ = ["WorkerConfig", "worker_main"]


class WorkerConfig:
    """Identity handed to a worker at spawn (picklable, version-stable)."""

    __slots__ = ("target_name", "worker_id")

    def __init__(self, target_name: str, worker_id: int) -> None:
        self.target_name = target_name
        self.worker_id = worker_id

    def __reduce__(self):
        return (WorkerConfig, (self.target_name, self.worker_id))


class _Current:
    """The region the main thread is executing, shared with the control
    thread under a lock so cancel requests can find its token."""

    __slots__ = ("_lock", "_seq", "_region", "executed")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq: int | None = None
        self._region: TargetRegion | None = None
        self.executed = 0  # region bodies started on this lane

    def set(self, seq: int, region: TargetRegion) -> None:
        with self._lock:
            self._seq, self._region = seq, region
            self.executed += 1

    def clear(self, seq: int) -> None:
        """Unregister *seq* — unless a newer region already took its place.

        A cluster agent hands a reconnected lane the same ``_Current``
        while the reclaimed connection's body may still be running; when
        that body ends it must not erase the new lane's registration.
        """
        with self._lock:
            if self._seq == seq:
                self._seq, self._region = None, None

    def cancel(self, seq: int) -> None:
        """Flip the cancel token iff *seq* is still the executing region."""
        with self._lock:
            if self._seq == seq and self._region is not None:
                self._region.cancel_token.set()


def _control_loop(ctrl_conn: Any, current: _Current) -> None:
    """Answer pings and deliver cancellations until the channel tears."""
    while True:
        try:
            msg = ctrl_conn.recv()
        except (EOFError, OSError):
            return
        if isinstance(msg, wire.PingMsg):
            try:
                ctrl_conn.send(wire.PongMsg(msg.sent_ns, os.getpid()))
            except (OSError, ValueError):
                return
        elif isinstance(msg, wire.CancelMsg):
            current.cancel(msg.seq)
        elif isinstance(msg, wire.StopMsg):
            return


def _error_result(seq: int, exc: BaseException, log: WorkerEventLog) -> wire.ResultMsg:
    blob, text, tb = wire.pack_exception(exc)
    return wire.ResultMsg(seq, False, None, blob, text, tb, log.drain(), log.dropped)


def _run_task(
    msg: wire.TaskMsg | wire.ClusterTaskMsg,
    config: WorkerConfig,
    current: _Current,
    task_conn: Any,
) -> wire.ResultMsg:
    """Execute one task; always returns a ResultMsg (never raises).

    A task carrying a non-None ``tag`` (a :class:`~repro.dist.wire.ClusterTaskMsg`
    of a ``name_as`` region) gets a :class:`~repro.dist.wire.TagDoneMsg` on
    *task_conn* the moment the body returns — before the result is
    serialized — so completion shows at body latency, not result-transfer
    latency.  A process worker's :class:`~repro.dist.wire.TaskMsg` has no
    tag and never does.
    """
    log = WorkerEventLog()
    try:
        body, args, kwargs = wire.loads(msg.blob, what=f"payload of region {msg.name!r}")
    except Exception as exc:  # noqa: BLE001 - SerializationError or worse
        return _error_result(msg.seq, exc, log)

    region = TargetRegion(body, *args, **kwargs)
    # Adopt the parent-side identity so current_region(), traces and error
    # messages show the user's region, not a worker-local counter.
    region.name = msg.name
    region.source = msg.source
    current.set(msg.seq, region)
    try:
        if msg.trace:
            log.emit(EventKind.EXEC_BEGIN, region=msg.seq, name=region.label)
        region.run()  # captures body exceptions on the region
        if msg.trace:
            log.emit(
                EventKind.EXEC_END, region=msg.seq, name=region.label,
                arg="failed" if region.exception is not None else "completed",
            )
    finally:
        current.clear(msg.seq)

    tag = getattr(msg, "tag", None)
    if tag is not None:
        outcome = "failed" if region.exception is not None else "completed"
        try:
            task_conn.send(wire.TagDoneMsg(msg.seq, tag, outcome))
        except (OSError, ValueError):
            pass  # the ResultMsg send will surface the tear
    if region.exception is not None:
        return _error_result(msg.seq, region.exception, log)
    try:
        blob = wire.dumps(region.result(), what=f"result of region {msg.name!r}")
    except Exception as exc:  # noqa: BLE001 - unpicklable result
        return _error_result(msg.seq, exc, log)
    return wire.ResultMsg(msg.seq, True, blob, None, None, None, log.drain(), log.dropped)


def worker_main(
    config: WorkerConfig, task_sock: socket.socket, ctrl_sock: socket.socket
) -> None:
    """Entry point of one worker process (the ``Process`` target).

    *task_sock* and *ctrl_sock* are this end of the lane's two socketpairs.
    Protocol: answer the clock-sync handshake, then loop over tasks until a
    :class:`~repro.dist.wire.StopMsg` arrives or the parent disappears.
    """
    task_conn = SocketChannel(task_sock, max_frame=MAX_LOCAL_FRAME_BYTES)
    ctrl_conn = SocketChannel(ctrl_sock, max_frame=MAX_LOCAL_FRAME_BYTES)
    current = _Current()
    ctrl = threading.Thread(
        target=_control_loop,
        args=(ctrl_conn, current),
        name=f"repro-dist-ctrl-{config.target_name}-{config.worker_id}",
        daemon=True,
    )
    ctrl.start()
    try:
        _task_loop(task_conn, config, current)
    finally:
        task_conn.close()
        ctrl_conn.close()


def _task_loop(task_conn: Any, config: WorkerConfig, current: _Current) -> None:
    """Serve one lane's task channel until StopMsg or the channel tears.

    The one task loop of both remote kinds: a process worker's main thread
    runs it over a socketpair, a cluster agent's connection thread over TCP.
    """
    while True:
        try:
            msg = task_conn.recv()
        except (EOFError, OSError):
            return  # parent went away (or reclaimed the lane)
        if isinstance(msg, wire.SyncMsg):
            # Clock-sync probe: answer as fast as possible so the parent's
            # round-trip midpoint estimate is tight.  The parent probes twice
            # per lane — the first round absorbs start-up, only the second
            # (warm, pure channel latency) sets the offset.
            try:
                task_conn.send(wire.SyncAck(now_ns(), os.getpid()))
            except (OSError, ValueError):
                return
            continue
        if isinstance(msg, wire.StopMsg):
            return
        if not isinstance(msg, (wire.TaskMsg, wire.ClusterTaskMsg)):
            continue  # unknown message from a newer parent: skip, stay alive
        result = _run_task(msg, config, current, task_conn)
        try:
            task_conn.send(result)
        except (OSError, ValueError, EOFError):
            return  # parent tore the channel mid-result
