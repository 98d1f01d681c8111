"""Cross-process observability: worker-side event capture + clock merge.

The obs layer's contract (``docs/OBSERVABILITY.md``) is a single timeline on
one ``perf_counter_ns`` clock.  A worker process has its *own*
``perf_counter_ns`` origin, so its raw timestamps are meaningless in the
parent.  The fix is the classic two-step of distributed tracers:

1. **Offset estimation at spawn.**  The parent timestamps a
   :class:`~repro.dist.wire.SyncMsg` send (``t0``), the worker answers with
   its own clock reading ``w``, the parent timestamps the reply (``t1``).
   Assuming the two channel hops are symmetric, the worker read ``w`` at parent
   time ``(t0 + t1) / 2``, giving ``offset = (t0 + t1) // 2 - w``.  Socket
   hops on one host are tens of microseconds, so the estimate is far finer
   than the millisecond-scale spans it positions.
2. **Re-stamping at merge.**  Worker events ship back as plain tuples with
   each result; :func:`merge_worker_events` adds the offset and replays them
   into the parent's :class:`~repro.obs.TraceSession` under a per-worker
   track name, so Chrome/Perfetto shows one process row per worker with its
   ``run`` spans aligned against the parent's SUBMIT/ENQUEUE/DEQUEUE events.

Worker-side capture is a deliberately tiny bounded list, not a full
:class:`~repro.obs.TraceSession`: a worker emits a handful of events per
region (EXEC_BEGIN/EXEC_END today) and ships them immediately, so rings,
thread-locals and generation counters would be dead weight.
"""

from __future__ import annotations

from typing import Iterable

from ..obs import EventKind
from ..obs.events import now_ns
from ..obs.recorder import TraceSession

__all__ = ["WorkerEventLog", "estimate_offset_ns", "merge_worker_events", "worker_track"]

#: Cap on events buffered per task worker-side.  EXEC begin/end is 2; the
#: headroom is for future per-region kinds without unbounded growth if a
#: region body itself emits.
DEFAULT_LOG_LIMIT = 256


def estimate_offset_ns(t0_parent: int, t1_parent: int, worker_ns: int) -> int:
    """Clock offset such that ``worker_ts + offset`` is on the parent clock."""
    return (t0_parent + t1_parent) // 2 - worker_ns


def worker_track(target_name: str, worker_id: int) -> str:
    """Trace track name of one worker: ``<target>[w<i>]``.

    Used as the event's *target* so the Chrome exporter assigns each worker
    its own process row (one pid per target name), mirroring the fact that
    it really is a separate OS process.
    """
    return f"{target_name}[w{worker_id}]"


class WorkerEventLog:
    """Bounded in-worker event buffer, shipped back with each result.

    Records ``(kind_value, ts_ns, region, name, arg)`` tuples on the
    worker's own clock.  Tuples — not :class:`~repro.obs.TraceEvent` —
    because they are pickled on every result hop and must stay cheap and
    version-stable.
    """

    __slots__ = ("limit", "items", "dropped")

    def __init__(self, limit: int = DEFAULT_LOG_LIMIT) -> None:
        self.limit = limit
        self.items: list[tuple[int, int, int | None, str | None, object]] = []
        self.dropped = 0

    def emit(
        self,
        kind: EventKind,
        *,
        region: int | None = None,
        name: str | None = None,
        arg: object = None,
    ) -> None:
        """Record one event at the worker's current ``perf_counter_ns``."""
        if len(self.items) >= self.limit:
            self.dropped += 1
            return
        self.items.append((int(kind), now_ns(), region, name, arg))

    def drain(self) -> list[tuple[int, int, int | None, str | None, object]]:
        """Hand over (and clear) the buffered events for shipping."""
        items, self.items = self.items, []
        return items


def merge_worker_events(
    session: TraceSession,
    events: Iterable[tuple[int, int, int | None, str | None, object]],
    *,
    offset_ns: int,
    track: str,
    thread: str,
) -> int:
    """Replay worker events into the parent session on the shared clock.

    *track* becomes the event's target (one Chrome process row per worker),
    *thread* its thread label (``pid <n>``).  Returns how many events were
    merged.  Unknown kind values (a newer worker talking to an older parent)
    are skipped rather than corrupting the stream.
    """
    merged = 0
    for kind_value, ts, region, name, arg in events:
        try:
            kind = EventKind(kind_value)
        except ValueError:
            continue
        session.emit(
            kind, target=track, region=region, name=name, arg=arg,
            ts=ts + offset_ns, thread=thread,
        )
        merged += 1
    return merged
