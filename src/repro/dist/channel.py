"""One framed socket channel for every remote lane.

A process lane runs it over a :func:`socket.socketpair` to its worker
process, a cluster lane over TCP to a worker agent
(:class:`~repro.cluster.transport.TcpTransport` is a thin subclass).  The
surface is the one the remote machinery consumes: ``send(msg)`` /
``recv()`` / ``poll(timeout)`` / ``close()`` plus the liveness flags
``closed`` and ``eof``.  A send on a closed or torn channel raises
:class:`OSError`, a recv past the peer's close raises :class:`EOFError`,
and ``poll`` returns True when a recv would not block — including when it
would raise ``EOFError``, so a caller finds a tear at once instead of
sleeping on a corpse.

**Codec.**  :func:`encode` pickles a message once, with protocol 5.  Every
:class:`pickle.PickleBuffer` in it — the parts of a
:func:`repro.dist.wire.dumps` blob, numpy array data — leaves the pickle
stream *out of band* and becomes a frame part of its own, so a payload is
never copied into the envelope.  Messages without such buffers (hellos,
pings, cancels, acks) are one part: one write, one parse.

**Frames.**  A ``>I`` length word, then the parts::

    single part:  >I total                       | pickle
    multi-part:   >I 0x80000000|total  >H count  >I len_0 … len_{count-1}
                                                 | pickle | buf_1 | …

A single-part frame is exactly the ``>I length + pickle`` frame of protocol
version 1.  The top bit of the length word is free because a frame may not
reach 2³¹ bytes; a cluster connection caps it at :data:`MAX_FRAME_BYTES`.
A receiver checks the total against the cap, and the part lengths against
the total, before it allocates anything: a header that fails either check
means the stream desynchronized (or a hostile peer), and tearing beats
allocating garbage.

**No copies.**  A send is one ``sendmsg`` gather-write of the frame table
and every part under the send lock (at most ``SC_IOV_MAX`` buffers per
call, partial writes resumed), so concurrent senders never interleave
frames and the payload goes from the caller's memory to the kernel.  A
recv reads headers and small parts through a 64 KiB staging buffer, and
each large part straight into a ``bytearray`` of its declared size with
``recv_into``; arrays unpickled over it are writable and have no second
copy.  Recv and poll are for one consuming thread; send and close may come
from any thread.
"""

from __future__ import annotations

import os
import pickle
import select
import socket
import struct
import threading
import time
from typing import Any

__all__ = [
    "MAX_FRAME_BYTES",
    "MAX_LOCAL_FRAME_BYTES",
    "OOB_MIN_BYTES",
    "SocketChannel",
    "decode",
    "encode",
]

#: Upper bound on one frame on a cluster connection (64 MiB).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The largest frame the format can carry (the length word's top bit marks
#: a multi-part frame).  Process lanes, whose peer is this program's own
#: worker process, take it as their cap.
MAX_LOCAL_FRAME_BYTES = 0x7FFFFFFF

#: Buffers below this size are cheaper copied into a pickle stream than
#: framed as a part of their own (:func:`repro.dist.wire.dumps` keeps them
#: in band); larger parts are received in place.
OOB_MIN_BYTES = 1 << 16

_LEN = struct.Struct(">I")
_COUNT = struct.Struct(">H")
_MULTI = 0x80000000
_MAX_PARTS = 0xFFFF
_CHUNK = OOB_MIN_BYTES

try:
    _IOV_MAX = os.sysconf("SC_IOV_MAX")
except (AttributeError, ValueError, OSError):  # pragma: no cover - non-POSIX
    _IOV_MAX = 1024
if _IOV_MAX <= 0:  # pragma: no cover - sysconf reports "no limit"
    _IOV_MAX = 1024


def encode(msg: Any) -> list[Any]:
    """Frame parts of *msg*: its protocol-5 pickle stream, then each of its
    :class:`pickle.PickleBuffer` objects, out of band and uncopied."""
    oob: list[pickle.PickleBuffer] = []
    stream = pickle.dumps(msg, protocol=5, buffer_callback=oob.append)
    if len(oob) >= _MAX_PARTS:  # more parts than a frame table holds
        return [pickle.dumps(msg, protocol=5)]
    return [stream, *(buf.raw() for buf in oob)]


def decode(parts: list[Any]) -> Any:
    """Inverse of :func:`encode`."""
    if len(parts) == 1:
        return pickle.loads(parts[0])
    return pickle.loads(parts[0], buffers=parts[1:])


def _send_all(sock: socket.socket, bufs: list[Any]) -> None:
    """Gather-write every buffer, resuming after partial writes."""
    while bufs:
        sent = sock.sendmsg(bufs[:_IOV_MAX])
        for i, buf in enumerate(bufs):
            n = len(buf)
            if sent < n:
                bufs = [memoryview(buf)[sent:], *bufs[i + 1:]]
                break
            sent -= n
        else:
            return


class SocketChannel:
    """One end of a framed message channel over a connected stream socket.

    ``max_frame`` caps one frame, checked on both send and receive;
    ``peer`` names the remote end in errors.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_frame: int = MAX_FRAME_BYTES,
        peer: str = "?",
    ) -> None:
        sock.setblocking(True)
        self._sock: socket.socket | None = sock
        self._max_frame = min(max_frame, MAX_LOCAL_FRAME_BYTES)
        self._peer = peer
        self._send_lock = threading.Lock()
        self._poller = select.poll()
        self._poller.register(sock, select.POLLIN)
        self._eof = False
        self._closed = False
        # Receive state: staged bytes; the part sizes of the frame being
        # assembled (None until its header is parsed), its finished parts
        # and the large part being filled in place; a whole frame.
        self._buf = bytearray()
        self._sizes: tuple[int, ...] | None = None
        self._parts: list[Any] = []
        self._big: bytearray | None = None
        self._got = 0
        self._ready: list[Any] | None = None

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def eof(self) -> bool:
        return self._eof

    @property
    def peer(self) -> str:
        """The remote end, for diagnostics."""
        return self._peer

    # ------------------------------------------------------------------ send

    def send(self, msg: Any) -> None:
        sock = self._sock
        if sock is None:
            raise OSError("channel is closed")
        # encode(), inlined: a small message pays for no extra call.
        oob: list[pickle.PickleBuffer] = []
        stream = pickle.dumps(msg, protocol=5, buffer_callback=oob.append)
        if len(oob) >= _MAX_PARTS:  # more parts than a frame table holds
            stream, oob = pickle.dumps(msg, protocol=5), []
        if oob:
            self._send_parts(sock, [stream, *(buf.raw() for buf in oob)])
            return
        n = len(stream)
        if n > self._max_frame:
            self._refuse(n)
        with self._send_lock:
            if n < _CHUNK:
                sock.sendall(_LEN.pack(n) + stream)
            else:
                _send_all(sock, [_LEN.pack(n), stream])

    def _send_parts(self, sock: socket.socket, parts: list[Any]) -> None:
        sizes = [len(part) for part in parts]
        total = sum(sizes)
        if total > self._max_frame:
            self._refuse(total)
        head = struct.pack(f">IH{len(sizes)}I", _MULTI | total, len(sizes), *sizes)
        with self._send_lock:
            _send_all(sock, [head, *parts])

    # --------------------------------------------------------------- receive

    def recv(self) -> Any:
        while not self._assemble():
            sock = self._sock
            if sock is None:
                raise EOFError("channel is closed")
            if self._eof:
                raise EOFError(f"peer {self._peer} closed the connection")
            self._read(sock, wait_all=True)
        parts, self._ready = self._ready, None
        if len(parts) == 1:
            return pickle.loads(parts[0])
        return pickle.loads(parts[0], buffers=parts[1:])

    def poll(self, timeout: float | None = 0.0) -> bool:
        """True when :meth:`recv` would not block (a frame *or* a tear).

        Reads whatever has arrived, so a spent deadline still looks at the
        socket once: ``poll(0)`` sees a frame that is already there.  A
        frame only partly arrived by the deadline answers False.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._assemble() or self._eof:
                return True
            sock = self._sock
            if sock is None:
                return True  # recv() raises EOFError immediately
            if deadline is None:
                wait_ms = None
            else:
                wait_ms = max(0.0, deadline - time.monotonic()) * 1000.0
            try:
                if not self._poller.poll(wait_ms):
                    return False
                self._read(sock, wait_all=False)
            except EOFError:
                return True
            except (OSError, ValueError):
                # Closed under us (lane reclaim): recv() will EOF.
                self._eof = True
                return True

    def _read(self, sock: socket.socket, *, wait_all: bool) -> None:
        """One receive: into the large part being filled, else staged."""
        big = self._big
        if big is None:
            chunk = sock.recv(_CHUNK)
            n = len(chunk)
            self._buf += chunk
        else:
            with memoryview(big) as view:
                n = sock.recv_into(
                    view[self._got:], 0, socket.MSG_WAITALL if wait_all else 0
                )
            self._got += n
        if not n:
            self._eof = True
            raise EOFError(f"peer {self._peer} closed the connection")

    def _assemble(self) -> bool:
        """Advance the current frame from received bytes; True once whole."""
        if self._ready is not None:
            return True
        buf = self._buf
        sizes = self._sizes
        if sizes is None:
            if len(buf) < _LEN.size:
                return False
            (word,) = _LEN.unpack_from(buf)
            if word & _MULTI:
                sizes = self._parse_parts(word & MAX_LOCAL_FRAME_BYTES)
                if sizes is None:
                    return False
            else:
                self._check_total(word)
                end = _LEN.size + word
                if len(buf) >= end:  # a whole single-part frame is staged
                    self._ready = [buf[_LEN.size:end]]
                    del buf[:end]
                    return True
                del buf[:_LEN.size]
                sizes = self._sizes = (word,)
        parts = self._parts
        while len(parts) < len(sizes):
            big = self._big
            if big is not None:
                if self._got < len(big):
                    return False
                parts.append(big)
                self._big = None
                continue
            n = sizes[len(parts)]
            if len(buf) >= n:
                parts.append(buf[:n])  # a bytearray copy: small, writable
                del buf[:n]
            elif n >= _CHUNK:
                # Large part: allocate it once at its declared size, move
                # the staged prefix in, and receive the rest in place.
                big = bytearray(n)
                big[:len(buf)] = buf
                self._big, self._got = big, len(buf)
                buf.clear()
            else:
                return False
        self._ready, self._parts, self._sizes = parts, [], None
        return True

    def _parse_parts(self, total: int) -> tuple[int, ...] | None:
        """The part table of a multi-part frame once it is staged, checked
        against the total before anything is allocated."""
        self._check_total(total)
        buf = self._buf
        head = _LEN.size + _COUNT.size
        if len(buf) < head:
            return None
        (count,) = _COUNT.unpack_from(buf, _LEN.size)
        if count == 0:
            self._desync("multi-part frame of 0 parts")
        end = head + _LEN.size * count
        if len(buf) < end:
            return None
        sizes = struct.unpack_from(f">{count}I", buf, head)
        if sum(sizes) != total:
            self._desync(
                f"part lengths sum to {sum(sizes)}, the frame header says {total}"
            )
        del buf[:end]
        self._sizes = sizes
        return sizes

    def _refuse(self, total: int) -> None:
        raise ValueError(
            f"frame of {total} bytes exceeds the {self._max_frame}-byte limit"
        )

    def _check_total(self, total: int) -> None:
        if total > self._max_frame:
            self._desync(
                f"frame of {total} bytes exceeds the {self._max_frame}-byte limit"
            )

    def _desync(self, what: str) -> None:
        raise OSError(f"{what} (from {self._peer}); stream desynchronized")

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        sock, self._sock = self._sock, None
        self._closed = True
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover - double close
                pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} peer={self._peer} closed={self._closed}>"
