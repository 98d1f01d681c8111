"""Worker-pool supervision: heartbeats, crash detection, restarts.

A :class:`Supervisor` is one daemon thread per remote-backed target — the
same sweep serves process targets (workers behind socketpairs,
:mod:`repro.dist.process_target`) and cluster targets (workers behind
sockets, :mod:`repro.cluster.target`), because it is written against the
slot interface below rather than ``multiprocessing`` internals.  Division
of labour with the per-slot shipper threads:

* a worker that dies **mid-region** is caught by its shipper's result-wait
  loop within one poll tick (the shipper is already watching that worker) —
  the shipper fails the in-flight region with
  :class:`~repro.core.errors.WorkerCrashedError` and respawns on the next
  dispatch;
* a worker that dies **idle** has no shipper watching it (the shipper is
  parked on the target queue), so the supervisor's periodic sweep respawns
  it eagerly — the next region must not pay the spawn latency or, worse,
  be shipped into a dead channel;
* a worker that is **alive but wedged** (e.g. a native extension stuck in a
  syscall) stops answering pings; after ``heartbeat_misses`` silent
  intervals an *idle* wedged worker is terminated and respawned.  A *busy*
  silent worker is left to the deadline machinery — killing it would turn a
  slow region into a crashed one, which is the waiter's call (via
  ``timeout=``), not ours.

Every respawn beyond a slot's first spawn counts against the target's
``max_restarts`` budget; a slot that exhausts it is disabled, and when the
last slot disables the target fails its backlog rather than queueing work
nothing will ever run (the same no-lost-work covenant as
``shutdown(wait=False)``).

Heartbeats are answered by a dedicated control thread worker-side, so a
pong proves the process schedules threads even while its main thread grinds
through a long region — ``Process.is_alive()`` alone cannot distinguish
"computing" from "wedged".

Slot interface
--------------
The sweep reads ``target._slots``, a list of
:class:`~repro.dist.remote_target.RemoteSlot` (``lock``, ``disabled``/
``busy``/``last_pong``/``index``/``pid``, ``connected``, ``is_alive()``,
``drain_control()``, ``exit_label()``, ``terminate()``, ``send_ping()``),
and calls ``target._respawn_slot(slot)``
(:class:`~repro.dist.remote_target.RemoteTarget`).  A process target's
slots implement liveness over a worker process, a cluster target's over two
socket transports (:mod:`repro.dist.remote_target`).
"""

from __future__ import annotations

import logging
import threading
import time

_logger = logging.getLogger(__name__)

__all__ = ["Supervisor"]


class Supervisor:
    """Periodic health sweep over a remote-backed target's worker slots."""

    def __init__(
        self,
        target,  # a RemoteTarget; untyped: circular import
        *,
        interval: float = 1.0,
        misses: int = 3,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"heartbeat interval must be > 0, got {interval}")
        if misses < 1:
            raise ValueError(f"heartbeat misses must be >= 1, got {misses}")
        self._target = target
        self.interval = interval
        self.misses = misses
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop,
            name=f"repro-dist-supervisor-{target.name}",
            daemon=True,
        )
        self.sweeps = 0

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def join(self, timeout: float | None = 5.0) -> None:
        if self._thread.is_alive() and self._thread is not threading.current_thread():
            self._thread.join(timeout)

    # ------------------------------------------------------------------ sweep

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sweep()
            except Exception:  # noqa: BLE001 - supervision must not die
                _logger.exception(
                    "supervisor sweep failed for target %r", self._target.name
                )

    def sweep(self) -> None:
        """One pass: collect pongs, respawn idle corpses, probe the living."""
        self.sweeps += 1
        for slot in self._target._slots:
            if self._stop.is_set():
                return
            self._check_slot(slot)

    def _check_slot(self, slot) -> None:
        with slot.lock:
            if slot.disabled or not slot.connected:
                return
            slot.drain_control()
            alive = slot.is_alive()
            busy = slot.busy
            if not alive and busy:
                return  # the shipper is on it: it polls liveness every tick
            if not alive:
                # Idle crash: no shipper is watching; respawn eagerly so the
                # next region does not pay spawn latency into a dead lane.
                _logger.warning(
                    "worker %d of target %r died idle (%s); respawning",
                    slot.index, self._target.name, slot.exit_label(),
                )
                self._target._respawn_slot(slot)
                return
            silent_for = time.monotonic() - slot.last_pong
            if not busy and silent_for > self.misses * self.interval:
                # Alive but not answering pings while idle: wedged.  Replace.
                _logger.warning(
                    "worker %d of target %r (pid %s) missed %d heartbeats; "
                    "terminating and respawning",
                    slot.index, self._target.name, slot.pid, self.misses,
                )
                slot.terminate()
                self._target._respawn_slot(slot)
                return
        # Ping outside slot.lock: sends only contend on the ctrl channel lock.
        slot.send_ping()
