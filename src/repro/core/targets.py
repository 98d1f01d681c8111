"""Virtual targets: software executors for the extended ``target`` directive.

A *virtual target* (paper §III-A) is a syntax-level abstraction of a thread
pool executor; it shares the host memory, so posting a region to it involves
no data mapping.  The paper's experimental implementation offers two kinds
(Table II), reproduced here:

* :class:`WorkerTarget` — a named pool of ``m`` background threads
  (``virtual_target_create_worker``).
* :class:`EdtTarget` — a single special thread, typically the GUI event
  dispatch thread, that the application registers
  (``virtual_target_register_edt``).

Both support the *logical barrier* needed by the ``await`` clause: a thread
that belongs to a target can process other queued work while it waits for an
offloaded region to complete (Algorithm 1 lines 13-16).
"""

from __future__ import annotations

import abc
import collections
import itertools
import logging
import os
import queue
import threading
import time
from typing import Any, Callable

from ..obs import EventKind
from ..obs import recorder as _obs
from ..obs.events import now_ns
from . import injection as _inj
from .errors import (
    AwaitTimeoutError,
    QueueFullError,
    RuntimeStateError,
    TargetShutdownError,
)
from .region import RegionState, TargetRegion

__all__ = [
    "VirtualTarget",
    "WorkerTarget",
    "EdtTarget",
    "current_target",
    "REJECTION_POLICIES",
]


_thread_target = threading.local()
_logger = logging.getLogger(__name__)

#: Valid values for a target's bounded-queue rejection policy:
#: ``block`` parks the poster until space frees (or its timeout elapses),
#: ``reject`` raises :class:`QueueFullError` immediately, and
#: ``caller_runs`` executes the item in the posting thread — the classic
#: ThreadPoolExecutor.CallerRunsPolicy backpressure valve.
REJECTION_POLICIES = ("block", "reject", "caller_runs")


def _depth_stride_from_env() -> int:
    """Queue-depth sampling stride (``REPRO_TRACE_DEPTH_STRIDE``, default 8).

    With tracing on, every enqueue/dequeue used to emit a ``QUEUE_DEPTH``
    sample — two extra events plus a depth computation per region on the hot
    path.  Depth is a *trend* signal (Perfetto renders it as a counter
    track), so sampling every Nth transition per target loses nothing a
    human reads from the chart while cutting the tracing cost of the
    steady-state dispatch loop.  Stride 1 restores the old exhaustive
    behaviour; the first transition after a session (re)start always emits,
    so short traces still contain samples.

    Re-read by every target at the start of each recording window (see
    :meth:`VirtualTarget._trace_depth`), so setting the variable after
    ``import repro`` takes effect on the next trace start instead of being
    silently ignored.
    """
    raw = os.environ.get("REPRO_TRACE_DEPTH_STRIDE", "")
    try:
        return max(1, int(raw)) if raw else 8
    except ValueError:
        return 8


#: Import-time snapshot of the stride, kept as the documented default.  The
#: live value is re-read per recording window by ``_trace_depth``; this
#: constant only seeds targets before their first traced transition.
QUEUE_DEPTH_SAMPLE_STRIDE = _depth_stride_from_env()


def current_target() -> "VirtualTarget | None":
    """The virtual target the calling thread belongs to, if any."""
    return getattr(_thread_target, "value", None)


class _Wakeup:
    """Sentinel posted to a queue purely to unblock a pumping thread."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<wakeup>"


_WAKEUP = _Wakeup()


class _Retire:
    """Sentinel asking exactly one pool lane to exit (autoscaler shrink)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<retire>"


_RETIRE = _Retire()


def _is_control(item: Any) -> bool:
    """True for queue control sentinels (wakeup/shutdown/retire).

    Sentinels ride the queue uncounted: they bypass capacity, never appear in
    ``work_count()`` and are invisible to dequeue batching and stealing.
    """
    return isinstance(item, (_Wakeup, _Shutdown, _Retire))


def _item_identity(item: Any) -> tuple[int | None, str]:
    """(region id, trace label) of a queued item.

    Regions carry their own ``seq``/``label``; plain callables may be stamped
    by higher layers (the event loop tags dispatch closures with
    ``_trace_id``/``_trace_name`` so GUI events correlate too).
    """
    if isinstance(item, TargetRegion):
        return item.seq, item.label
    rid = getattr(item, "_trace_id", None)
    label = (
        getattr(item, "_trace_name", None)
        or getattr(item, "__qualname__", None)
        or type(item).__name__
    )
    return rid, label


class _TargetQueue:
    """The FIFO behind a virtual target, with optional capacity.

    ``queue.Queue`` cannot express what shutdown needs: control sentinels
    must always get through (a full queue would otherwise wedge shutdown
    itself), and a teardown must be able to rip out every queued item to
    cancel it.  So this is a small purpose-built ``collections.deque`` plus
    one lock and two condvars.

    **Handoff.**  On an unbounded queue the steady state takes no lock:
    ``put`` appends and :meth:`get_batch` — the single dequeue, for one item
    or a batch, blocking, timed or non-blocking — pops, both atomic deque
    operations under the GIL.  The lock is taken only to park a consumer on
    an empty queue or to wake a parked one.  Two orderings make that safe:

    * *Idle count versus append.*  A consumer raises ``_idle`` under the
      lock *before* its final emptiness check and stays counted while it
      waits; a producer reads ``_idle`` *after* its append.  Either the
      producer sees the consumer counted (and notifies it under the lock,
      which the consumer holds until it is waiting), or the append came
      first and the consumer's check sees the item.  No wake-up is lost.
    * *``_closed`` re-check versus drain.*  ``close()`` and
      :meth:`drain_items` run under the lock but a lock-free append does
      not, so a poster that passed the first ``_closed`` check can land its
      item after the teardown drained the deque.  The poster therefore
      re-checks ``_closed`` after appending and, if it is set, takes its
      item back out and raises :class:`TargetShutdownError`; if the item is
      already gone a consumer or the drain popped it, and that party runs
      or cancels it.  Every removal — dequeue, steal, drain — pops the one
      deque, so every item has exactly one taker; ``drain_items`` never
      swaps in a new deque, which parked consumers would not be watching.

    A bounded queue keeps its capacity exact by doing every put and pop
    under the lock, where ``_not_full`` parks blocked posters.

    Capacity counts *work* items only; sentinels ride along uncounted via
    :meth:`put_internal`.  ``_control`` counts the sentinels in the deque
    and changes only under the lock, so :meth:`work_count` is
    ``len(deque) - _control`` and never drifts.
    """

    def __init__(self, owner: str, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self._owner = owner
        self.capacity = capacity
        self._items: collections.deque[Any] = collections.deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self.high_water = 0
        self._control = 0  # queued sentinels; guarded by _lock
        self._idle = 0  # consumers parked or about to park; guarded by _lock

    # ------------------------------------------------------------- producers

    def put(self, item: Any, *, block: bool = True, timeout: float | None = None) -> bool:
        """Enqueue *item*; returns False if a bounded queue stayed full.

        With ``block=True`` waits for space (bounded by *timeout*); raises
        :class:`TargetShutdownError` if the queue closes while waiting, so a
        poster blocked on a full queue cannot outlive the target.
        """
        if self.capacity is None:
            if self._closed:
                raise TargetShutdownError(self._owner)
            items = self._items
            items.append(item)
            if self._closed:
                # A close + drain may have run since the check above: take
                # the item back unless a consumer or the drain already has.
                try:
                    items.remove(item)
                except ValueError:
                    return True
                raise TargetShutdownError(self._owner)
            depth = len(items) - self._control
            if depth > self.high_water:
                self.high_water = depth
            if self._idle:
                with self._lock:
                    self._not_empty.notify()
            return True
        hooks = _inj.hooks
        if (
            hooks is not None
            and hooks.force_queue_full is not None
            and hooks.force_queue_full(self._owner)
        ):
            # Fault injection: behave exactly as a bounded put that found no
            # space within its budget, so every rejection policy is reachable
            # without actually wedging the queue.
            return False
        with self._lock:
            if block:
                ok = self._not_full.wait_for(
                    lambda: self._closed or self.work_count() < self.capacity,
                    timeout=timeout,
                )
                if self._closed:
                    raise TargetShutdownError(self._owner)
                if not ok:
                    return False
            elif self.work_count() >= self.capacity:
                return False
            if self._closed:
                raise TargetShutdownError(self._owner)
            self._items.append(item)
            depth = len(self._items) - self._control
            if depth > self.high_water:
                self.high_water = depth
            if self._idle:
                self._not_empty.notify()
        return True

    def put_internal(self, item: Any) -> None:
        """Enqueue a control sentinel, ignoring capacity and closure."""
        with self._lock:
            self._items.append(item)
            self._control += 1
            self._not_empty.notify()

    # ------------------------------------------------------------- consumers

    def get_batch(self, max_items: int = 1, timeout: float | None = None) -> list[Any]:
        """Dequeue up to *max_items* head items: the queue's only dequeue.

        Blocks until at least one item is queued, at most *timeout* seconds
        (``0`` polls once); raises ``queue.Empty`` when none arrived.  FIFO
        order is preserved exactly, and control sentinels stay batch
        barriers — a sentinel at the head is returned alone, and collection
        stops *before* any later sentinel, so shutdown/retire ordering
        ("everything queued before the sentinel still runs first") is the
        same for batches as for single items.
        """
        bounded = self.capacity is not None
        deadline = None
        while True:
            if bounded:
                with self._lock:
                    batch = self._pop(max_items)
                    if batch:
                        if _is_control(batch[0]):
                            self._control -= 1
                        self._not_full.notify(len(batch))
                        return batch
            else:
                batch = self._pop(max_items)
                if batch:
                    if _is_control(batch[0]):
                        with self._lock:
                            self._control -= 1
                    return batch
            remaining = None
            if timeout is not None:
                if deadline is None:
                    deadline = time.monotonic() + timeout
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise queue.Empty
            items = self._items
            with self._lock:
                self._idle += 1  # before the re-check: see the class docstring
                try:
                    self._not_empty.wait_for(lambda: items, remaining)
                finally:
                    self._idle -= 1

    def _pop(self, max_items: int) -> list[Any]:
        """Pop up to *max_items* head items, stopping at a sentinel."""
        items = self._items
        batch: list[Any] = []
        while len(batch) < max_items:
            try:
                item = items.popleft()
            except IndexError:
                break
            if _is_control(item):
                if batch:
                    items.appendleft(item)  # the sentinel waits for the next call
                else:
                    batch.append(item)
                break
            batch.append(item)
        return batch

    def steal_work(self) -> Any | None:
        """Remove and return the head work item for a ring thief.

        Returns None when the queue is closed (teardown owns the backlog
        then), is empty, or has a sentinel at its head (sentinels address
        this target's own loops).  Every removal pops the one deque, so an
        item is stolen, dequeued or drained by exactly one party.
        """
        with self._lock:
            if self._closed:
                return None
            items = self._items
            if not items or _is_control(items[0]):
                return None
            item = items.popleft()
            if _is_control(item):
                items.appendleft(item)  # a lock-free consumer raced the peek
                return None
            self._not_full.notify()
            return item

    # -------------------------------------------------------------- teardown

    def close(self) -> None:
        """Refuse further posts; wake blocked posters so they fail fast."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def drain_items(self) -> list[Any]:
        """Remove and return everything queued (teardown helper).

        Pops from the live deque instead of swapping it for an empty one:
        lanes parked on the queue watch that deque object, and the shutdown
        sentinels queued after the drain must land where they look.
        """
        drained: list[Any] = []
        with self._lock:
            items = self._items
            while items:
                try:
                    drained.append(items.popleft())
                except IndexError:
                    break  # a lock-free consumer took the last item
            self._control -= sum(1 for item in drained if _is_control(item))
            self._not_full.notify_all()
        return drained

    def qsize(self) -> int:
        return len(self._items)

    def work_count(self) -> int:
        """Queued *work* items (sentinels excluded) — the queue-depth sample.

        Lock-free and exact at rest; while a consumer is between popping a
        sentinel and uncounting it the figure can run one low, which a
        telemetry sample tolerates (bounded queues read it under the lock,
        where it is exact).
        """
        return max(0, len(self._items) - self._control)


class VirtualTarget(abc.ABC):
    """Common behaviour of all virtual targets.

    Subclasses provide the thread(s) that drain :attr:`_queue`.  The queue
    holds :class:`TargetRegion` instances, plain callables (events posted by
    higher layers), and wakeup sentinels.
    """

    def __init__(
        self,
        name: str,
        *,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
    ) -> None:
        if rejection_policy not in REJECTION_POLICIES:
            raise ValueError(
                f"unknown rejection policy {rejection_policy!r}; "
                f"choose one of {', '.join(REJECTION_POLICIES)}"
            )
        self.name = name
        self.rejection_policy = rejection_policy
        self._queue = _TargetQueue(name, queue_capacity)
        self._members: set[threading.Thread] = set()
        self._members_lock = threading.Lock()
        # Queue-depth sampling state: (trace-session generation, atomic
        # transition counter for that generation, stride in force for that
        # generation).  The counter is an ``itertools.count`` so concurrent
        # poster/worker threads never lose a tick to a read-modify-write
        # race; the stride is re-read from the environment whenever the
        # generation changes.  See ``_trace_depth``.
        self._depth_tick: tuple[int, Any, int] = (-1, None, QUEUE_DEPTH_SAMPLE_STRIDE)
        self._shutdown = threading.Event()
        self._stats_lock = threading.Lock()
        self._stats: dict[str, int] = {
            "posted": 0,
            "rejected": 0,
            "caller_runs": 0,
            "cancelled_on_shutdown": 0,
        }

    def _bump(self, key: str) -> None:
        with self._stats_lock:
            self._stats[key] += 1

    # ----------------------------------------------------------- membership

    def contains(self, thread: threading.Thread | None = None) -> bool:
        """True if *thread* (default: the calling thread) belongs to this
        target's execution environment (Algorithm 1 line 6).

        Lock-free on purpose: this check sits on every dispatch (the
        affinity router consults it before posting), and CPython set
        membership is a single C-level operation the GIL keeps consistent
        against the guarded mutations in ``_enter_member``/``_exit_member``.
        """
        thread = thread or threading.current_thread()
        return thread in self._members

    def _enter_member(self, thread: threading.Thread | None = None) -> None:
        thread = thread or threading.current_thread()
        with self._members_lock:
            self._members.add(thread)
        if thread is threading.current_thread():
            _thread_target.value = self

    def _exit_member(self, thread: threading.Thread | None = None) -> None:
        thread = thread or threading.current_thread()
        with self._members_lock:
            self._members.discard(thread)
        if thread is threading.current_thread() and current_target() is self:
            _thread_target.value = None

    @property
    def member_count(self) -> int:
        with self._members_lock:
            return len(self._members)

    # ------------------------------------------------------------- lifecycle

    @property
    def alive(self) -> bool:
        return not self._shutdown.is_set()

    @abc.abstractmethod
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; drain the backlog (``wait=True``) or cancel
        it (``wait=False``) so no queued region is ever silently stranded."""

    def _cancel_pending(self) -> int:
        """Atomically pull every queued item and cancel it.

        Queued :class:`TargetRegion` instances transition to ``CANCELLED``
        with a :class:`TargetShutdownError` reason, so every waiter —
        ``region.wait()/result()``, ``wait_tag``, ``await`` logical barriers —
        unblocks promptly with a diagnosable error instead of deadlocking on
        work that will never run.  Plain callables are dropped and logged.
        Control sentinels are re-queued untouched.  Returns the number of
        regions cancelled.
        """
        cancelled = 0
        dropped = 0
        reason = TargetShutdownError(self.name)
        session = _obs.session()
        for item in self._queue.drain_items():
            if _is_control(item):
                self._queue.put_internal(item)
            elif isinstance(item, TargetRegion):
                if item.cancel(reason):
                    cancelled += 1
                    self._bump("cancelled_on_shutdown")
            else:
                dropped += 1
                if session.enabled:
                    # Dropped callables have no handle to carry the news, so
                    # the trace must: their ENQUEUE would otherwise dangle
                    # forever (every enqueue resolves as dequeue or cancel).
                    region, label = _item_identity(item)
                    session.emit(
                        EventKind.CANCEL, target=self.name, region=region,
                        name=label, arg=type(reason).__name__,
                    )
        if dropped:
            _logger.warning(
                "shutdown of target %r dropped %d queued callable(s)", self.name, dropped
            )
        return cancelled

    def _seal(self) -> None:
        """Close the queue and cancel whatever is still in it.

        Called when the last consumer leaves on the shutdown sentinel.
        ``post`` checks ``_shutdown`` before it enqueues without a lock, so
        a post racing ``shutdown(wait=True)`` can land its item behind the
        sentinel, in a queue nobody reads any more.  Once sealed, such a
        post either finds the queue closed (``TargetShutdownError``) or has
        its region cancelled here: nothing is stranded.
        """
        self._queue.close()
        self._cancel_pending()

    # --------------------------------------------------------------- posting

    def post(
        self,
        item: TargetRegion | Callable[[], Any],
        *,
        timeout: float | None = None,
    ) -> None:
        """Enqueue a region or a plain callable for asynchronous execution
        (Algorithm 1 line 8: ``E.post(B)``).

        When the target has a bounded queue and it is full, the configured
        :attr:`rejection_policy` decides: ``block`` parks the caller (up to
        *timeout* seconds, then :class:`QueueFullError`), ``reject`` raises
        :class:`QueueFullError` immediately, ``caller_runs`` executes *item*
        synchronously in the posting thread.
        """
        if self._shutdown.is_set():
            raise TargetShutdownError(self.name)
        hooks = _inj.hooks
        if hooks is not None:
            hooks.fire("post", self.name)
        # Timestamp *before* the (possibly blocking) put: the consumer may
        # dequeue the instant the item lands, and its DEQUEUE stamp must sort
        # after this ENQUEUE stamp on the shared perf_counter_ns clock.
        session = _obs.session()
        enq_ts = now_ns() if session.enabled else 0
        policy = self.rejection_policy
        if policy == "block":
            if not self._queue.put(item, block=True, timeout=timeout):
                self._bump("rejected")
                self._trace_reject(item, session, policy)
                raise QueueFullError(self.name, self._queue.capacity, policy)
        elif policy == "reject":
            if not self._queue.put(item, block=False):
                self._bump("rejected")
                self._trace_reject(item, session, policy)
                raise QueueFullError(self.name, self._queue.capacity, policy)
        else:  # caller_runs
            if not self._queue.put(item, block=False):
                if isinstance(item, TargetRegion) and item.done:
                    # A cancel (or shutdown) won the race while this poster
                    # was between the seam point and the full-queue verdict:
                    # the region is already terminal.  Emitting REJECT and
                    # bumping caller_runs here would claim a queue bypass
                    # for work that never ran — drop the corpse silently,
                    # exactly as a dequeue of a withdrawn item does.
                    return
                self._bump("caller_runs")
                # The REJECT marker (arg: policy) is what lets a trace
                # verifier tell this legitimate queue-less execution apart
                # from a lost dequeue.
                self._trace_reject(item, session, policy)
                self._dispatch(item, dequeued=False)
                return
        self._bump("posted")
        if session.enabled:
            region, label = _item_identity(item)
            session.emit(
                EventKind.ENQUEUE, target=self.name, region=region, name=label,
                ts=enq_ts,
            )
            self._trace_depth(session)

    def wakeup(self) -> None:
        """Unblock one thread waiting on the queue without giving it work."""
        self._queue.put_internal(_WAKEUP)

    @property
    def pending(self) -> int:
        """Approximate number of queued items (sentinels included).

        Prefer :meth:`work_count` for diagnostics: control sentinels
        (shutdown markers re-queued by ``drain``/``process_one``, barrier
        wakeups) ride this figure, so an idle target can legitimately show
        ``pending > 0`` while owing no work to anyone.
        """
        return self._queue.qsize()

    def work_count(self) -> int:
        """Queued *work* items, control sentinels excluded.

        This is the honest backlog figure: zero means the target owes
        nothing, even if re-posted shutdown sentinels or barrier wakeups are
        still physically in the queue.  Adapters that keep their backlog
        elsewhere (e.g. the asyncio in-flight shadow set) are covered because
        this delegates to the same :meth:`_depth` their depth samples use.
        """
        return self._depth()

    @property
    def queue_capacity(self) -> int | None:
        return self._queue.capacity

    @property
    def high_water_mark(self) -> int:
        """Deepest the work queue has ever been (backpressure telemetry)."""
        return self._queue.high_water

    @property
    def stats(self) -> dict[str, int]:
        """Snapshot of lifecycle counters (plus the high-water mark)."""
        with self._stats_lock:
            snap = dict(self._stats)
        snap["high_water"] = self._queue.high_water
        return snap

    # ------------------------------------------------------------ processing

    #: Whether member threads can drain the queue cooperatively (the
    #: ``await`` logical barrier).  Adapters wrapping foreign event loops
    #: that cannot be re-entered (e.g. asyncio) set this to False; the
    #: runtime then refuses ``await`` with guidance instead of deadlocking.
    supports_pumping: bool = True

    #: Whether Algorithm 1's inline elision (lines 6-7) may apply: a thread
    #: that *belongs* to the target runs the block synchronously instead of
    #: posting it.  Thread-backed targets share the poster's address space,
    #: so elision is a pure optimization; process-backed targets set this to
    #: False because their execution environment is a different process —
    #: running the block in the encountering thread would silently change
    #: which address space the block's side effects land in.  The affinity
    #: router in ``invoke_target_block`` consults this before ``contains()``.
    supports_inline: bool = True

    #: Target taxonomy for diagnostics: ``worker`` (thread pool), ``edt``
    #: (event-dispatch thread), ``process`` (worker processes), ``cluster``
    #: (socket-connected remote workers), ``asyncio`` (foreign-loop
    #: adapter).  Surfaced by :meth:`describe` and
    #: ``PjRuntime.diagnostic_dump`` so mixed deployments read at a glance.
    kind: str = "virtual"

    @property
    def pool_size(self) -> int:
        """Number of execution lanes (threads or processes) this target owns."""
        return self.member_count

    @property
    def restart_count(self) -> int:
        """Workers restarted by a supervisor (0 for thread-backed targets)."""
        return 0

    def process_one(self, timeout: float | None = None) -> bool:
        """Run one queued item in the calling thread.

        Returns True if an actual work item ran; False if the queue was empty
        for *timeout* seconds or only a wakeup sentinel arrived.  This is the
        primitive behind the ``await`` logical barrier: *"processing another
        runnable task in Pyjama's task queue"* (paper §IV-B).
        """
        try:
            [item] = self._queue.get_batch(timeout=timeout)
        except queue.Empty:
            return False
        if item is _SHUTDOWN:
            # The sentinel is addressed to the *loop* (run_forever /
            # _worker_loop), not to a thread pumping during an ``await``
            # logical barrier.  Swallowing it here would leave the loop
            # running forever once the barrier ends — re-post it.
            self._queue.put_internal(_SHUTDOWN)
            # Yield briefly: without this a pumping thread and its own
            # re-post could spin get/put at full speed until the barrier
            # region is cancelled or finishes.
            time.sleep(0.001)
            return False
        if item is _WAKEUP:
            return False
        if item is _RETIRE:
            # Addressed to an idle pool lane, not to a pumping thread whose
            # own region is still running — re-post for a lane to consume.
            self._queue.put_internal(_RETIRE)
            time.sleep(0.001)
            return False
        self._dispatch(item)
        return True

    def _depth(self) -> int:
        """Current queue-depth sample (work items only; adapters override)."""
        return self._queue.work_count()

    def _trace_depth(self, session: "_obs.TraceSession") -> None:
        """Emit a sampled ``QUEUE_DEPTH`` event (caller checked enabled).

        Samples every stride-th enqueue/dequeue per target and recording
        window; the first transition of a window always emits so short traces
        still carry depth data.  The stride is re-read from
        ``REPRO_TRACE_DEPTH_STRIDE`` at the start of each window (so setting
        it after import works), and the transition counter is an
        ``itertools.count`` whose ``next()`` is atomic under the GIL — racing
        poster/worker threads each draw a distinct tick instead of losing
        increments to a read-modify-write race.
        """
        gen = session.generation
        g, counter, stride = self._depth_tick
        if g != gen:
            counter = itertools.count()
            stride = _depth_stride_from_env()
            # Two threads racing a window change may both publish; the loser
            # at worst re-emits one window-opening sample, never skews ticks.
            self._depth_tick = (gen, counter, stride)
        if next(counter) % stride == 0:
            session.emit(EventKind.QUEUE_DEPTH, target=self.name, arg=self._depth())

    def _trace_reject(
        self, item: Any, session: "_obs.TraceSession", policy: str | None = None
    ) -> None:
        if session.enabled:
            region, label = _item_identity(item)
            session.emit(
                EventKind.REJECT, target=self.name, region=region, name=label,
                arg=policy,
            )

    def _dispatch(self, item: Any, *, dequeued: bool = True) -> None:
        hooks = _inj.hooks
        if hooks is not None:
            hooks.fire("dispatch", self.name)
        session = _obs.session()
        enabled = session.enabled
        if enabled and dequeued:
            region, label = _item_identity(item)
            session.emit(
                EventKind.DEQUEUE, target=self.name, region=region, name=label
            )
            self._trace_depth(session)
        if isinstance(item, TargetRegion) and item.done:
            # Withdrawn (cancelled) while queued, or cancelled mid
            # caller_runs handoff: discard the corpse without touching it.
            # An EXEC span here would lie, so none is emitted — and the
            # check must not depend on tracing being on: with the session
            # off, skipping it used to leave corpse safety resting on
            # ``run()``'s internal state guard alone.
            return
        if enabled:
            region, label = _item_identity(item)
            session.emit(
                EventKind.EXEC_BEGIN, target=self.name, region=region, name=label
            )
            outcome = "completed"
            try:
                if not self._run_item(item):
                    outcome = "failed"  # plain callable raised
                elif isinstance(item, TargetRegion):
                    # The region's terminal state is the ground truth: a body
                    # that raised is "failed", and a cancel that won the race
                    # against the corpse check above (run() then no-opped) is
                    # "cancelled" — never a fabricated "completed".
                    if item.state is RegionState.CANCELLED:
                        outcome = "cancelled"
                    elif item.exception is not None:
                        outcome = "failed"
            except Exception:  # pragma: no cover - _run_item never raises
                outcome = "failed"
                raise
            finally:
                session.emit(
                    EventKind.EXEC_END, target=self.name, region=region, name=label,
                    arg=outcome,
                )
            return
        self._run_item(item)

    def _run_item(self, item: Any) -> bool:
        """Run one dequeued item; True unless a plain callable raised.

        Regions always return True here — they capture their own exceptions,
        and ``_dispatch`` reads the truthful outcome off the region state.
        The bool exists for plain callables, whose exception is swallowed by
        design (a failing callable must not kill the dispatch loop — same
        policy as AWT's EDT) and would otherwise leave the trace claiming
        the execution completed.
        """
        if isinstance(item, TargetRegion):
            item.run()  # regions capture their own exceptions
            return True
        try:
            item()
            return True
        except Exception:  # noqa: BLE001
            # Regions report via their handle; plain callables get logged.
            _logger.exception("unhandled exception in %r posted to %s", item, self.name)
            return False

    def pump_until(
        self,
        predicate: Callable[[], bool],
        poll: float = 0.05,
        *,
        timeout: float | None = None,
    ) -> None:
        """Process queued work in the calling thread until *predicate* holds.

        The calling thread must belong to this target; this is the logical
        barrier of Algorithm 1 (lines 13-16).  *poll* bounds the wait per
        iteration so the predicate is re-checked even without a wakeup.
        With a *timeout*, a barrier stuck past its deadline raises
        :class:`AwaitTimeoutError` carrying this target's diagnostics instead
        of pumping forever.
        """
        if not self.contains():
            raise RuntimeStateError(
                f"thread {threading.current_thread().name!r} does not belong to "
                f"virtual target {self.name!r} and cannot pump its queue"
            )
        session = _obs.session()
        if session.enabled:
            session.emit(EventKind.BARRIER_ENTER, target=self.name, name="pump_until")
        # Deadline math uses time.monotonic() (the runtime-wide convention for
        # deadlines); only trace timestamps use the perf_counter_ns clock.
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            while not predicate():
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise AwaitTimeoutError(
                            f"logical barrier on target {self.name!r} exceeded its "
                            f"{timeout}s deadline",
                            self.describe(),
                        )
                    poll_step = min(poll, remaining)
                else:
                    poll_step = poll
                if self.process_one(timeout=poll_step) and session.enabled:
                    # Barrier-mode steal: the pumping thread took work from
                    # its own target, so victim and thief coincide (contrast
                    # ring stealing, where a sibling lane is the thief).
                    session.emit(
                        EventKind.PUMP_STEAL, target=self.name, name="pump_until",
                        arg={
                            "victim": self.name,
                            "thief": self.name,
                            "lane": threading.current_thread().name,
                            "mode": "barrier",
                        },
                    )
        finally:
            if session.enabled:
                session.emit(
                    EventKind.BARRIER_EXIT, target=self.name, name="pump_until"
                )

    def describe(self) -> str:
        """One-line diagnostic: queue depth, capacity, members, counters."""
        with self._members_lock:
            members = sorted(t.name for t in self._members)
        stats = self.stats
        cap = "unbounded" if self._queue.capacity is None else str(self._queue.capacity)
        return (
            f"target {self.name!r} ({type(self).__name__}) kind={self.kind} "
            f"alive={self.alive} pool={self.pool_size} "
            # work_count, not pending: re-posted control sentinels would
            # otherwise show an idle target as queued=1 forever.
            f"restarts={self.restart_count} queued={self.work_count()} capacity={cap} "
            f"high_water={stats['high_water']} posted={stats['posted']} "
            f"rejected={stats['rejected']} caller_runs={stats['caller_runs']} "
            f"cancelled_on_shutdown={stats['cancelled_on_shutdown']} "
            f"members={members}"
            f"{self._describe_extra()}"
        )

    def _describe_extra(self) -> str:
        """Kind-specific suffix for :meth:`describe` (leading space included).

        Subclasses with state the generic line cannot know about — e.g. a
        cluster target's endpoints and connection counts — append it here
        instead of overriding (and drifting from) the whole format.
        """
        return ""

    def drain(self) -> int:
        """Process queued items in the calling thread until the queue is empty.

        Returns the number of real work items executed.  Intended for tests
        and for single-threaded (manually pumped) EDT usage.
        """
        count = 0
        retires = 0
        try:
            while True:
                try:
                    [item] = self._queue.get_batch(timeout=0)
                except queue.Empty:
                    return count
                if item is _SHUTDOWN:
                    # Leave the sentinel for the loop that owns it (re-queue
                    # rather than swallow); everything before it has drained.
                    self._queue.put_internal(_SHUTDOWN)
                    return count
                if item is _WAKEUP:
                    continue
                if item is _RETIRE:
                    # Addressed to a pool lane; hold it aside (re-posting
                    # inline would loop forever on our own re-post).
                    retires += 1
                    continue
                self._dispatch(item)
                count += 1
        finally:
            for _ in range(retires):
                self._queue.put_internal(_RETIRE)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} members={self.member_count}>"


class WorkerTarget(VirtualTarget):
    """A worker virtual target: a pool of background threads.

    Created by ``virtual_target_create_worker(tname, m)`` (paper Table II).
    The pool is fixed at *max_threads* lanes unless the adaptive policies
    (docs/TUNING.md) are enabled:

    * ``steal=True`` — idle lanes take work from sibling targets in the
      runtime's :class:`~repro.policy.StealRing` (and expose their own queue
      to it); otherwise the lanes block on their own queue exactly as before.
    * ``batch_max>1`` — each dequeue call takes up to ``batch_max`` items
      and runs them back-to-back, amortising the per-call overhead for
      small regions.  1 (the default) is item-at-a-time, the pre-policy
      behaviour.
    * ``autoscale=True`` — a :class:`~repro.policy.PoolAutoscaler` grows and
      shrinks the lane count between ``autoscale_min`` and ``autoscale_max``
      against the observed queue depth, with hysteresis.
    """

    kind = "worker"

    #: Idle-poll interval (seconds) of a stealing lane: how long it waits on
    #: its own empty queue before scanning the ring for a victim.  Class
    #: attribute so tests can shrink it without touching the constructor.
    _steal_poll = 0.01

    def __init__(
        self,
        name: str,
        max_threads: int,
        *,
        daemon: bool = True,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
        steal: bool = False,
        batch_max: int = 1,
        autoscale: bool = False,
        autoscale_min: int | None = None,
        autoscale_max: int | None = None,
    ) -> None:
        if max_threads < 1:
            raise ValueError(f"worker target needs at least 1 thread, got {max_threads}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        super().__init__(
            name, queue_capacity=queue_capacity, rejection_policy=rejection_policy
        )
        self.max_threads = max_threads
        self.batch_max = batch_max
        self.steal_enabled = steal
        self._steal_ring = None  # attached by PjRuntime.register_target
        self._daemon = daemon
        self._lanes_lock = threading.Lock()
        self._lane_seq = itertools.count(max_threads)
        self._desired = max_threads  # lane count after applied scale decisions
        self._live = max_threads  # lane threads not yet exited; under _lanes_lock
        self._threads: list[threading.Thread] = []
        for i in range(max_threads):
            t = threading.Thread(
                target=self._worker_loop,
                name=f"pyjama-{name}-{i}",
                daemon=daemon,
            )
            self._threads.append(t)
            t.start()
        self._autoscaler = None
        self.autoscale_min = autoscale_min if autoscale_min is not None else 1
        self.autoscale_max = (
            autoscale_max
            if autoscale_max is not None
            else max(2 * max_threads, max_threads + 1)
        )
        if autoscale:
            from ..policy.autoscale import PoolAutoscaler  # lazy: policy is optional

            self._autoscaler = PoolAutoscaler(
                self, min_lanes=self.autoscale_min, max_lanes=self.autoscale_max
            ).start()

    @property
    def pool_size(self) -> int:
        """Lane count after every applied scale decision.

        A retire is counted when decided (the sentinel may sit queued briefly
        behind work); without autoscaling this is always ``max_threads``.
        """
        return self._desired

    @property
    def autoscaler(self):
        """The attached :class:`~repro.policy.PoolAutoscaler`, if any."""
        return self._autoscaler

    # ------------------------------------------------------------ steal ring

    def join_ring(self, ring) -> None:
        """Enroll in *ring* as both thief and victim (idempotent)."""
        self._steal_ring = ring
        ring.register(self)

    def leave_ring(self) -> None:
        ring, self._steal_ring = self._steal_ring, None
        if ring is not None:
            ring.unregister(self)

    def steal_item(self):
        """One queued work item for a ring thief (None if nothing stealable)."""
        if self._shutdown.is_set():
            return None
        return self._queue.steal_work()

    def _try_steal(self) -> bool:
        """Steal and run one sibling item; True if work was actually done.

        The stolen item executes through the *victim's* dispatch path, so its
        ``DEQUEUE``/``EXEC`` events land on the victim target — the target
        its ``ENQUEUE`` named — and every lifecycle invariant holds.  The
        thief appears only in the ``PUMP_STEAL`` attribution payload.
        """
        ring = self._steal_ring
        if ring is None or self._shutdown.is_set():
            return False
        stolen = ring.steal(self)
        if stolen is None:
            return False
        victim, item = stolen
        session = _obs.session()
        if session.enabled:
            region, label = _item_identity(item)
            session.emit(
                EventKind.PUMP_STEAL, target=victim.name, region=region, name=label,
                arg={
                    "victim": victim.name,
                    "thief": self.name,
                    "lane": threading.current_thread().name,
                    "mode": "steal",
                },
            )
        victim._dispatch(item)
        return True

    # ------------------------------------------------------------ autoscaling

    def _grow_lane(self) -> None:
        """Add one lane (the autoscaler's ``grow`` action)."""
        with self._lanes_lock:
            if self._shutdown.is_set():
                return
            self._desired += 1
            self._live += 1
            t = threading.Thread(
                target=self._worker_loop,
                name=f"pyjama-{self.name}-{next(self._lane_seq)}",
                daemon=self._daemon,
            )
            self._threads.append(t)
            t.start()

    def _retire_lane(self) -> None:
        """Ask one lane to exit (the autoscaler's ``shrink`` action).

        The retire sentinel queues FIFO behind already-queued work, so a
        shrink never abandons backlog; whichever lane consumes it exits.
        """
        with self._lanes_lock:
            if self._shutdown.is_set() or self._desired <= 1:
                return
            self._desired -= 1
        self._queue.put_internal(_RETIRE)

    # ------------------------------------------------------------- dispatch

    def _worker_loop(self) -> None:
        self._enter_member()
        try:
            poll = self._steal_poll if self.steal_enabled else None
            eager = False  # a steal just succeeded: recheck our queue at once
            while True:
                try:
                    batch = self._queue.get_batch(
                        self.batch_max, timeout=0.0 if eager else poll
                    )
                except queue.Empty:
                    eager = self._try_steal()
                    continue
                eager = False
                for item in batch:
                    if item is _SHUTDOWN:
                        # Propagate: every pool thread sees it exactly once
                        # (get_batch returns a sentinel alone, never mid-batch).
                        return
                    if item is _RETIRE:
                        return
                    if item is _WAKEUP:
                        continue
                    self._dispatch(item)
        finally:
            self._exit_member()
            with self._lanes_lock:
                self._live -= 1
                last = self._live == 0
            if last and self._shutdown.is_set():
                self._seal()

    def _describe_extra(self) -> str:
        bits = []
        if self.batch_max != 1:
            bits.append(f"batch_max={self.batch_max}")
        if self.steal_enabled:
            bits.append("steal=on")
        if self._autoscaler is not None:
            bits.append(f"autoscale={self.autoscale_min}..{self.autoscale_max}")
        return " " + " ".join(bits) if bits else ""

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool.

        ``wait=True`` drains: the backlog queued before shutdown still runs
        (sentinels queue FIFO behind it) and the member threads are joined.
        ``wait=False`` cancels: every still-queued region transitions to
        ``CANCELLED`` (failing its waiters fast) and the threads are left to
        exit on their own.  The autoscaler is stopped first so the lane set
        cannot change under the sentinel accounting, and the target leaves
        its steal ring so siblings stop considering it a victim.
        """
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        if self._autoscaler is not None:
            self._autoscaler.stop(wait=wait)
        self.leave_ring()
        if not wait:
            self._queue.close()
            self._cancel_pending()
        with self._lanes_lock:
            lanes = list(self._threads)
        for _ in lanes:
            self._queue.put_internal(_SHUTDOWN)
        if wait:
            for t in lanes:
                if t is not threading.current_thread():
                    t.join()


class _Shutdown:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<shutdown>"


_SHUTDOWN = _Shutdown()


class EdtTarget(VirtualTarget):
    """An event-dispatch-thread virtual target.

    Exactly one thread belongs to it.  Two ways to set it up:

    * :meth:`register_current_thread` — the paper's
      ``virtual_target_register_edt``: the calling thread (e.g. a GUI
      framework's dispatch thread) becomes the member and must drive the
      queue itself via :meth:`run_forever`, :meth:`drain` or
      :meth:`pump_until`.
    * :meth:`start_in_thread` — convenience used by the event-loop substrate
      and by headless tests: spawn a dedicated daemon thread that runs
      :meth:`run_forever`.
    """

    kind = "edt"

    #: How long ``shutdown(wait=True)`` waits for the loop to acknowledge the
    #: shutdown sentinel before giving up with a diagnostic (class-level so
    #: tests can shrink it without touching the shutdown signature).
    _shutdown_ack_timeout = 5.0

    @property
    def pool_size(self) -> int:
        return 1

    def __init__(
        self,
        name: str,
        *,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
    ) -> None:
        super().__init__(
            name, queue_capacity=queue_capacity, rejection_policy=rejection_policy
        )
        self._edt_thread: threading.Thread | None = None
        self._loop_started = threading.Event()
        self._stopped = threading.Event()

    # ------------------------------------------------------------- binding

    def register_current_thread(self) -> "EdtTarget":
        if self._edt_thread is not None:
            raise RuntimeStateError(
                f"EDT target {self.name!r} is already bound to {self._edt_thread.name!r}"
            )
        self._edt_thread = threading.current_thread()
        self._enter_member()
        return self

    def start_in_thread(self) -> "EdtTarget":
        if self._edt_thread is not None:
            raise RuntimeStateError(f"EDT target {self.name!r} is already bound")
        started = threading.Event()

        def loop() -> None:
            self._edt_thread = threading.current_thread()
            self._enter_member()
            started.set()
            try:
                self.run_forever()
            finally:
                self._exit_member()

        t = threading.Thread(target=loop, name=f"pyjama-edt-{self.name}", daemon=True)
        t.start()
        started.wait()
        return self

    @property
    def edt_thread(self) -> threading.Thread | None:
        return self._edt_thread

    # ------------------------------------------------------------ event loop

    def run_forever(self) -> None:
        """Drive the event loop until :meth:`shutdown` is called.

        Must run on the bound thread.
        """
        self._require_edt()
        self._loop_started.set()
        while True:
            [item] = self._queue.get_batch()
            if item is _SHUTDOWN:
                self._seal()
                self._stopped.set()
                return
            if item is _WAKEUP:
                continue
            self._dispatch(item)

    def _require_edt(self) -> None:
        if threading.current_thread() is not self._edt_thread:
            raise RuntimeStateError(
                f"this operation must run on the EDT of target {self.name!r}"
            )

    def shutdown(self, wait: bool = True) -> None:
        """Stop the dispatch loop.

        ``wait=True`` lets already-queued events/regions run before the loop
        exits, then waits for loop acknowledgement; ``wait=False`` cancels
        the backlog so waiters fail fast.  A *registered* EDT whose loop was
        never driven (``run_forever`` not called) is not waited on at all —
        its liveness is the owning application's business, and blocking 5 s
        on a loop that never started was pure stall.
        """
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        if not wait:
            self._queue.close()
            self._cancel_pending()
        self._queue.put_internal(_SHUTDOWN)
        if wait and self._edt_thread is not None:
            if self._edt_thread is threading.current_thread():
                return
            if not self._loop_started.is_set():
                # The loop never ran; nothing will ever acknowledge.
                return
            if not self._stopped.wait(timeout=self._shutdown_ack_timeout):
                # A wedged EDT (handler stuck in a syscall, deadlocked on a
                # lock, ...) must not "shut down" silently: the sentinel was
                # posted but never consumed, so say what we know and let the
                # caller decide — the thread is theirs, we cannot kill it.
                _logger.warning(
                    "EDT target %r did not acknowledge shutdown within %.1fs; "
                    "its dispatch loop appears wedged: %s",
                    self.name, self._shutdown_ack_timeout, self.describe(),
                )
