"""`ProcessTarget`: a virtual target backed by supervised worker processes.

The process counterpart of :class:`~repro.core.targets.WorkerTarget`: same
directive surface, backpressure and shutdown covenant, but region bodies
execute on a pool of **worker OS processes**, outside this interpreter's
GIL.  Each lane is a worker process (:func:`repro.dist.worker.worker_main`)
reached over two socketpairs, ``task`` and ``ctrl``, each end a
:class:`~repro.dist.channel.SocketChannel`.

Shipping, result waits, crash handling, restart budgets, shutdown, the
clock handshake, tracing and the no-inline rule live in
:class:`~repro.dist.remote_target.RemoteTarget`; this module supplies the
process-specific parts: spawning a worker, process liveness, and the
graceful retire that joins a stopped worker for 5 s before terminating it.
A body that ignores a forwarded cancellation past ``cancel_grace`` dies
with its process, and the lane is respawned.
"""

from __future__ import annotations

import multiprocessing
import socket
from typing import Any

from ..core.region import TargetRegion
from ..obs import EventKind
from . import wire
from .channel import MAX_LOCAL_FRAME_BYTES, SocketChannel
from .remote_target import RemoteSlot, RemoteTarget
from .worker import WorkerConfig, worker_main

__all__ = ["ProcessTarget", "DEFAULT_START_METHOD"]

#: ``spawn`` is the only start method that is safe in a multithreaded
#: parent: this runtime *is* threads (thread targets, EDTs, shippers), and
#: forking a threaded process can inherit locks mid-acquire.  ``fork`` /
#: ``forkserver`` remain selectable for single-threaded embedders that want
#: cheaper startup.
DEFAULT_START_METHOD = "spawn"


class _WorkerSlot(RemoteSlot):
    """One lane of a process target: a worker process behind two socketpairs."""

    __slots__ = ("process",)

    def __init__(self, index: int) -> None:
        super().__init__(index)
        self.process: multiprocessing.process.BaseProcess | None = None

    def is_alive(self) -> bool:
        proc = self.process
        return proc is not None and proc.is_alive()

    def exit_label(self) -> str:
        proc = self.process
        return f"exitcode {proc.exitcode}" if proc is not None else "no process"

    def terminate(self) -> None:
        """Hard-kill the worker process (crash semantics follow)."""
        proc = self.process
        if proc is not None and proc.is_alive():
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001 - already reaped
                pass

    def wait_exit(self, timeout: float) -> bool:
        proc = self.process
        proc.join(timeout=timeout)
        return not proc.is_alive()

    def reap(self) -> int | None:
        """Join a dead process, drop the channels; returns the exit code."""
        exitcode = None
        proc = self.process
        if proc is not None:
            proc.join(timeout=1.0)
            exitcode = proc.exitcode
            self.process = None
        super().reap()
        return exitcode


class ProcessTarget(RemoteTarget):
    """A worker virtual target whose pool members are OS processes.

    Created by ``virtual_target_create_process_worker(tname, m)`` /
    :meth:`PjRuntime.create_process_worker`.  Parameters beyond the common
    target options and those of :class:`RemoteTarget` (``max_restarts``,
    ``heartbeat_interval``/``heartbeat_misses``, ``cancel_grace``):

    max_workers:
        Pool size — one worker process (and one shipper thread) per lane.
    start_method:
        ``spawn`` (default, safe under threads) / ``fork`` / ``forkserver``.
    spawn_timeout:
        Budget for a new worker to come up and answer the clock handshake
        (covers interpreter start + imports under ``spawn``).

    A worker whose body ignores a forwarded cancellation past
    ``cancel_grace`` is terminated and the lane respawned.
    """

    kind = "process"
    _thread_prefix = "repro-dist"
    _channel_noun = "socketpair"
    _up_kind = EventKind.WORKER_SPAWN
    _lost_kind = EventKind.WORKER_CRASH
    _exit_kind = EventKind.WORKER_EXIT

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
        self.max_workers = max_workers
        self.spawn_timeout = spawn_timeout
        self._ctx = multiprocessing.get_context(start_method or DEFAULT_START_METHOD)
        super().__init__(
            name, [_WorkerSlot(i) for i in range(max_workers)],
            queue_capacity=queue_capacity,
            rejection_policy=rejection_policy,
            max_restarts=max_restarts,
            heartbeat_interval=heartbeat_interval,
            heartbeat_misses=heartbeat_misses,
            cancel_grace=cancel_grace,
            open_timeout=spawn_timeout,
        )

    def _open_channels(self, slot: _WorkerSlot) -> tuple[Any, Any]:
        """Start one worker process; record it on the slot."""
        parent_task, child_task = socket.socketpair()
        parent_ctrl, child_ctrl = socket.socketpair()
        proc = self._ctx.Process(
            target=worker_main,
            args=(WorkerConfig(self.name, slot.index), child_task, child_ctrl),
            name=f"repro-dist-{self.name}-{slot.index}",
            daemon=True,
        )
        try:
            proc.start()
        except Exception:
            parent_task.close()
            parent_ctrl.close()
            raise
        finally:
            # The child has its own copies; closing ours makes a dead child
            # surface as EOFError on recv instead of an indefinite block.
            child_task.close()
            child_ctrl.close()
        slot.process = proc
        return (
            SocketChannel(parent_task, max_frame=MAX_LOCAL_FRAME_BYTES),
            SocketChannel(parent_ctrl, max_frame=MAX_LOCAL_FRAME_BYTES),
        )

    def _task_message(self, region: TargetRegion, blob: tuple, trace: bool) -> wire.TaskMsg:
        return wire.TaskMsg(region.seq, region.name, region.source, blob, trace)

    def _lane_label(self, slot: _WorkerSlot) -> str:
        return f"worker {slot.index} of process target {self.name!r}"

    def _pool_label(self) -> str:
        return f"{self.max_workers} workers"
