"""Wire format of process and cluster targets.

Everything that crosses the parent↔worker boundary is defined here, so the
protocol reads in one place:

* **Payload serialization** — :func:`dumps`/:func:`loads`.  Region bodies
  are arbitrary Python callables; the standard pickler refuses lambdas,
  closures and locally defined functions, so we prefer `cloudpickle
  <https://github.com/cloudpipe/cloudpickle>`_ when the interpreter ships it
  and fall back to plain :mod:`pickle` otherwise.  Serialization failures
  are wrapped in :class:`~repro.core.errors.SerializationError` with
  guidance, never surfaced as a raw ``TypeError`` from pickler internals.
* **Messages** — small slotted classes (not dataclasses: they are pickled
  on every hop and the fixed ``__reduce__`` below keeps them stable across
  interpreter versions).  Two channels per worker:

  - the *task* channel (parent shipper thread ↔ worker main thread):
    :class:`SyncMsg`/:class:`SyncAck` clock handshake at spawn, then
    :class:`TaskMsg` → :class:`ResultMsg` pairs, terminated by
    :class:`StopMsg`;
  - the *control* channel (parent supervisor/shipper → worker control
    thread): :class:`PingMsg` → :class:`PongMsg` heartbeats and
    :class:`CancelMsg` cooperative-cancellation requests, which must remain
    deliverable *while the worker's main thread is busy executing a region*
    — the reason control rides a separate channel.

Both channels are :class:`~repro.dist.channel.SocketChannel` ends, which
pickle each message once with protocol 5.

The payload of a task is the tuple ``(body, args, kwargs)`` serialized as
one blob: serializing eagerly in the parent (rather than letting the
channel's ``send`` pickle lazily) means an unpicklable payload is rejected
at dispatch with a clear error instead of killing the channel mid-protocol.
Results come back the same way — the *worker* serializes eagerly so an
unpicklable return value becomes an error result, not a dead worker.  A
blob is a tuple of :class:`pickle.PickleBuffer` (:func:`dumps`), so large
array data inside it is never copied on its way into the message: the
channel sends those buffers out of band, straight from the array.
"""

from __future__ import annotations

import pickle
import traceback
from typing import Any

from ..core.errors import ProtocolVersionError, RemoteExecutionError, SerializationError
from .channel import OOB_MIN_BYTES

try:  # cloudpickle widens what can cross the wire (lambdas, closures, ...)
    import cloudpickle as _pickler
    HAVE_CLOUDPICKLE = True
except ImportError:  # pragma: no cover - environment-dependent
    _pickler = pickle
    HAVE_CLOUDPICKLE = False

__all__ = [
    "HAVE_CLOUDPICKLE",
    "PROTOCOL_VERSION",
    "ProtocolVersionError",
    "check_protocol_version",
    "dumps",
    "loads",
    "pack_exception",
    "unpack_exception",
    "HelloMsg",
    "SyncMsg",
    "SyncAck",
    "TaskMsg",
    "ClusterTaskMsg",
    "ResultMsg",
    "StopMsg",
    "PingMsg",
    "PongMsg",
    "CancelMsg",
    "TagDoneMsg",
]

#: Version of the message protocol defined in this module and of the frame
#: format of :mod:`repro.dist.channel`.  Bumped whenever a message
#: gains/loses a field or changes meaning (2: multi-part frames carrying
#: out-of-band buffers).  Process targets never see a mismatch (parent and
#: child share one checkout by construction), but cluster workers are
#: separate invocations — possibly of a different checkout — so every
#: socket connection opens with a :class:`HelloMsg` carrying this number,
#: and a mismatch raises a structured :class:`ProtocolVersionError` instead
#: of undefined behaviour deep inside message dispatch.
PROTOCOL_VERSION = 2


def check_protocol_version(theirs: int, *, peer: str | None = None) -> None:
    """Raise :class:`ProtocolVersionError` unless *theirs* matches ours."""
    if theirs != PROTOCOL_VERSION:
        raise ProtocolVersionError(PROTOCOL_VERSION, theirs, peer=peer)


def dumps(obj: Any, *, what: str = "payload") -> tuple[pickle.PickleBuffer, ...]:
    """Serialize *obj* once; raise :class:`SerializationError` naming *what*.

    The blob is a tuple of :class:`pickle.PickleBuffer`: the protocol-5
    pickle stream first, then the out-of-band buffers it refers to (numpy
    array data, say) as views of *obj*'s own memory, uncopied.  A message
    carrying the blob keeps them out of band on the channel too.  Buffers
    smaller than :data:`~repro.dist.channel.OOB_MIN_BYTES` stay in the
    stream: copying them costs less than framing each as a part.
    """
    buffers: list[pickle.PickleBuffer] = []

    def out_of_band(buf: pickle.PickleBuffer) -> bool:
        if buf.raw().nbytes < OOB_MIN_BYTES:
            return True  # in band
        buffers.append(buf)
        return False

    try:
        stream = _pickler.dumps(obj, protocol=5, buffer_callback=out_of_band)
    except Exception as exc:  # noqa: BLE001 - picklers raise a zoo of types
        raise SerializationError(what, exc) from exc
    return (pickle.PickleBuffer(stream), *buffers)


def loads(blob: Any, *, what: str = "payload") -> Any:
    """Deserialize a :func:`dumps` blob (its buffer tuple, or plain bytes);
    failures (e.g. a module importable in the parent but not in the worker)
    become :class:`SerializationError`."""
    try:
        if isinstance(blob, tuple):
            return _pickler.loads(blob[0], buffers=blob[1:])
        return _pickler.loads(blob)
    except Exception as exc:  # noqa: BLE001
        raise SerializationError(what, exc) from exc


def pack_exception(exc: BaseException) -> tuple[bytes | None, str, str]:
    """(blob-or-None, repr, formatted traceback) for shipping a failure.

    The blob is None when the exception itself cannot be pickled — the
    receiving side then reconstructs a :class:`RemoteExecutionError` from
    the repr and traceback text instead.
    """
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        blob = _pickler.dumps(exc)
    except Exception:  # noqa: BLE001 - unpicklable exception: ship text only
        blob = None
    return blob, repr(exc), tb


def unpack_exception(blob: bytes | None, text: str, tb: str) -> BaseException:
    """Rebuild a shipped failure; degrade to :class:`RemoteExecutionError`
    when the original exception could not make the trip."""
    if blob is not None:
        try:
            exc = _pickler.loads(blob)
        except Exception:  # noqa: BLE001
            return RemoteExecutionError(text, tb)
        if isinstance(exc, BaseException):
            # Preserve the worker-side traceback for post-mortems: the
            # unpickled exception's __traceback__ never survives the trip.
            exc.remote_traceback = tb  # type: ignore[attr-defined]
            return exc
    return RemoteExecutionError(text, tb)


class _Msg:
    """Base for wire messages: slotted, field-order pickled, repr'd."""

    __slots__: tuple[str, ...] = ()

    def __init__(self, *values: Any) -> None:
        for field, value in zip(self.__slots__, values):
            setattr(self, field, value)

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self.__slots__))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"<{type(self).__name__} {fields}>"


class HelloMsg(_Msg):
    """First frame on every cluster connection, both directions.

    ``version`` is the sender's :data:`PROTOCOL_VERSION` — checked with
    :func:`check_protocol_version` before anything else is parsed, because
    it is the only field whose meaning must never change.  ``role`` names
    what the connection is for (``"task"`` or ``"ctrl"``); ``target_name``
    and ``slot`` identify which parent-side lane the connection serves, so
    the agent can pair a lane's task and control channels; ``meta`` is a
    small dict of non-load-bearing extras (pid, hostname) for diagnostics.
    """

    __slots__ = ("version", "role", "target_name", "slot", "meta")


class SyncMsg(_Msg):
    """Parent → worker, first message: clock-sync probe.

    ``parent_ns`` is the parent's ``perf_counter_ns`` at send time; the
    worker answers with :class:`SyncAck` immediately so the parent can
    estimate the clock offset from the round trip.
    """

    __slots__ = ("parent_ns",)


class SyncAck(_Msg):
    """Worker → parent: ``worker_ns`` is the worker's ``perf_counter_ns``
    captured while answering the :class:`SyncMsg`; ``pid`` confirms which
    process answered."""

    __slots__ = ("worker_ns", "pid")


class TaskMsg(_Msg):
    """Parent → worker: one region to execute.

    ``seq`` is the parent-side ``TargetRegion.seq`` (the trace correlation
    id); ``name``/``source`` reproduce the region's identity worker-side so
    traces and error messages carry the user's labels; ``blob`` is the
    :func:`dumps` of ``(body, args, kwargs)``; ``trace`` tells the worker
    whether to record (and ship back) execution events.
    """

    __slots__ = ("seq", "name", "source", "blob", "trace")


class ClusterTaskMsg(_Msg):
    """Parent → cluster worker: one region to execute, tag-aware.

    The cluster superset of :class:`TaskMsg`: same first five fields, plus
    ``tag`` — the region's ``name_as`` group, or None.  A tagged task makes
    the worker send a :class:`TagDoneMsg` the moment the body finishes,
    *before* the (possibly large) result payload is serialized and shipped,
    so cross-host ``wait_tag`` progress is visible at body-completion
    latency rather than result-transfer latency.  A separate class (not a
    new :class:`TaskMsg` field) keeps the task protocol of process targets
    byte-identical.
    """

    __slots__ = ("seq", "name", "source", "blob", "trace", "tag")


class ResultMsg(_Msg):
    """Worker → parent: the outcome of one :class:`TaskMsg`.

    ``ok`` selects the branch: on success ``blob`` is the :func:`dumps` of
    the return value; on failure ``exc_blob``/``exc_text``/``exc_tb`` are
    the :func:`pack_exception` triple.  ``events`` is the worker-side event
    log (list of ``(kind, ts_ns, region, name, arg)`` tuples on the
    *worker's* clock) and ``events_dropped`` how many were discarded when
    the bounded log overflowed.
    """

    __slots__ = (
        "seq", "ok", "blob", "exc_blob", "exc_text", "exc_tb",
        "events", "events_dropped",
    )


class StopMsg(_Msg):
    """Parent → worker: drain sentinel; the worker main loop exits."""

    __slots__ = ()


class PingMsg(_Msg):
    """Supervisor → worker control thread: liveness probe."""

    __slots__ = ("sent_ns",)


class PongMsg(_Msg):
    """Worker control thread → supervisor: echo of :class:`PingMsg`.

    Answered by a dedicated thread, so a pong proves the worker process is
    alive and scheduling threads even while its main thread grinds through
    a long region.
    """

    __slots__ = ("sent_ns", "pid")


class CancelMsg(_Msg):
    """Parent → worker control thread: set the cooperative cancel token of
    the region ``seq`` if it is currently executing (stale seqs are ignored
    — the region may have finished while the message was in flight)."""

    __slots__ = ("seq",)


class TagDoneMsg(_Msg):
    """Cluster worker → parent: a tagged region's body finished.

    Sent on the task channel immediately after the body of a
    :class:`ClusterTaskMsg` with a non-None ``tag`` returns — before result
    serialization — so the parent learns of tag-group progress across hosts
    at body-completion latency.  ``outcome`` is ``"completed"`` or
    ``"failed"``; the authoritative terminal state (and the value) still
    arrive with the :class:`ResultMsg` that follows.
    """

    __slots__ = ("seq", "tag", "outcome")
