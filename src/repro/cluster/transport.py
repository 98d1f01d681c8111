"""Framed, versioned message transports for cluster targets.

A cluster target ships the *same* messages (:mod:`repro.dist.wire`) to
worker agents on other hosts that a process target ships to its worker
processes, over the *same* channel class
(:class:`~repro.dist.channel.SocketChannel`).  This module defines the
transport interface and the two concrete ends the cluster layer uses:

* :class:`Transport` — the structural interface: ``send(msg)`` /
  ``recv()`` / ``poll(timeout)`` / ``close()`` plus the liveness flags
  ``closed`` and ``eof``, the subset the remote machinery consumes, so the
  shipper/supervisor/heartbeat/restart logic generalises over socketpairs,
  loopback pairs and TCP without caring which it holds.
* :class:`LoopbackTransport` — an in-process pair
  (:func:`loopback_pair`) backed by deques and condition variables.
  Messages still go through the channel codec, so tests exercise the real
  serialization constraints without opening sockets.
* :class:`TcpTransport` — the socket channel over TCP: length-prefixed,
  possibly multi-part frames whose out-of-band parts carry array data
  uncopied (the frame layout is in :mod:`repro.dist.channel`).
  ``TCP_NODELAY`` is set (one small frame per dispatch hop; Nagle would
  serialize the protocol's ping-pongs at 40 ms each).  A frame above
  :data:`MAX_FRAME_BYTES` tears the connection as desynchronized.

A send on a closed/torn transport raises :class:`OSError`, a recv past the
peer's close raises :class:`EOFError`, and ``poll`` returns True when a
recv would not block (including when it would raise ``EOFError`` — the
caller finds the tear immediately instead of sleeping on a corpse).

Every cluster connection opens with a version handshake: both ends send a
:class:`~repro.dist.wire.HelloMsg` carrying
:data:`~repro.dist.wire.PROTOCOL_VERSION` and validate the peer's with
:func:`~repro.dist.wire.check_protocol_version`, so a client and a worker
agent started from different checkouts fail with a structured
:class:`~repro.core.errors.ProtocolVersionError` instead of misparsing
frames (:func:`send_hello` / :func:`expect_hello`).
"""

from __future__ import annotations

import collections
import os
import socket
import threading
from typing import Any, Protocol, runtime_checkable

from ..core.errors import RuntimeStateError
from ..dist import wire
from ..dist.channel import MAX_FRAME_BYTES, SocketChannel, decode, encode

__all__ = [
    "MAX_FRAME_BYTES",
    "Transport",
    "LoopbackTransport",
    "TcpTransport",
    "TransportListener",
    "loopback_pair",
    "connect",
    "listen",
    "send_hello",
    "expect_hello",
    "parse_endpoint",
]

#: Budget for the peer's half of the hello handshake.
HELLO_TIMEOUT = 10.0


@runtime_checkable
class Transport(Protocol):
    """Structural interface of one message channel end.

    It names the contract the remote machinery consumes, so socketpair,
    loopback and TCP ends interchange.
    """

    def send(self, msg: Any) -> None: ...  # OSError when closed/torn

    def recv(self) -> Any: ...             # EOFError past the peer's close

    def poll(self, timeout: float = 0.0) -> bool: ...

    def close(self) -> None: ...

    @property
    def closed(self) -> bool: ...          # this end was close()d

    @property
    def eof(self) -> bool: ...             # the peer's end is known gone


# ------------------------------------------------------------------ loopback


class _LoopbackChannel:
    """One direction of a loopback pair: bounded only by memory."""

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.items: collections.deque[list[Any]] = collections.deque()
        self.closed = False

    def put(self, parts: list[Any]) -> None:
        with self.cond:
            if self.closed:
                raise OSError("loopback transport is closed")
            self.items.append(parts)
            self.cond.notify_all()

    def close(self) -> None:
        with self.cond:
            self.closed = True
            self.cond.notify_all()


class LoopbackTransport:
    """In-process :class:`Transport` end; create pairs with
    :func:`loopback_pair`.

    Messages go through the channel codec (:func:`~repro.dist.channel.encode`
    on send, :func:`~repro.dist.channel.decode` on recv) — the full
    serialization constraint of the real wire, minus the socket — so a
    payload that cannot cross a TCP transport cannot sneak through tests
    either.  Out-of-band buffers are copied at send, as the socket would.
    """

    def __init__(self, tx: _LoopbackChannel, rx: _LoopbackChannel, label: str) -> None:
        self._tx = tx
        self._rx = rx
        self._label = label
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def eof(self) -> bool:
        with self._rx.cond:
            return self._rx.closed and not self._rx.items

    def send(self, msg: Any) -> None:
        if self._closed:
            raise OSError("transport is closed")
        stream, *oob = encode(msg)
        self._tx.put([stream, *(bytearray(buf) for buf in oob)])

    def recv(self) -> Any:
        with self._rx.cond:
            while not self._rx.items:
                if self._rx.closed or self._closed:
                    raise EOFError("loopback peer closed")
                self._rx.cond.wait()
            parts = self._rx.items.popleft()
        return decode(parts)

    def poll(self, timeout: float = 0.0) -> bool:
        with self._rx.cond:
            if self._rx.items or self._rx.closed or self._closed:
                return True
            if timeout <= 0:
                return False
            self._rx.cond.wait(timeout)
            return bool(self._rx.items) or self._rx.closed or self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Close both directions: the peer's recv drains then EOFs, and its
        # sends fail fast instead of queueing into the void.
        self._tx.close()
        self._rx.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LoopbackTransport {self._label} closed={self._closed}>"


def loopback_pair() -> tuple[LoopbackTransport, LoopbackTransport]:
    """Two connected in-process transport ends (client-ish, server-ish)."""
    a2b = _LoopbackChannel()
    b2a = _LoopbackChannel()
    return (
        LoopbackTransport(a2b, b2a, "a"),
        LoopbackTransport(b2a, a2b, "b"),
    )


# ----------------------------------------------------------------------- TCP


class TcpTransport(SocketChannel):
    """A :class:`Transport` end over a connected TCP socket: the framed
    :class:`~repro.dist.channel.SocketChannel` with ``TCP_NODELAY`` set and
    the peer's ``host:port`` recorded."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            peer = "%s:%d" % sock.getpeername()[:2]
        except OSError:  # pragma: no cover - already torn
            peer = "?"
        super().__init__(sock, peer=peer)


class TransportListener:
    """A listening TCP socket that accepts :class:`TcpTransport` ends."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(64)
        self.host = host
        self.port = self._sock.getsockname()[1]
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def accept(self, timeout: float | None = None) -> TcpTransport | None:
        """Accept one connection; None on timeout, OSError once closed."""
        if self._closed:
            raise OSError("listener is closed")
        self._sock.settimeout(timeout)
        try:
            conn, _addr = self._sock.accept()
        except socket.timeout:
            return None
        except OSError:
            if self._closed:
                raise OSError("listener is closed") from None
            raise
        return TcpTransport(conn)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass


def listen(host: str = "127.0.0.1", port: int = 0) -> TransportListener:
    """Open a listener; ``port=0`` lets the OS pick (tests, CI)."""
    return TransportListener(host, port)


def connect(host: str, port: int, *, timeout: float = 10.0) -> TcpTransport:
    """Connect to a cluster worker agent; raises OSError on refusal."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return TcpTransport(sock)


def parse_endpoint(spec: "str | tuple[str, int]") -> tuple[str, int]:
    """``"host:port"`` (or an already-split tuple) → ``(host, port)``."""
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint {spec!r} is not of the form host:port")
    try:
        return host, int(port_text)
    except ValueError:
        raise ValueError(f"endpoint {spec!r} has a non-numeric port") from None


# ------------------------------------------------------------ version hello


def send_hello(
    transport: Transport,
    role: str,
    *,
    target_name: str = "",
    slot: int = -1,
    meta: dict | None = None,
) -> None:
    """Send this end's versioned hello (first frame on the connection)."""
    payload = {"pid": os.getpid()}
    if meta:
        payload.update(meta)
    transport.send(
        wire.HelloMsg(wire.PROTOCOL_VERSION, role, target_name, slot, payload)
    )


def expect_hello(
    transport: Transport,
    *,
    timeout: float = HELLO_TIMEOUT,
    peer: str | None = None,
) -> wire.HelloMsg:
    """Read and validate the peer's hello; the version gate of the protocol.

    Raises :class:`~repro.core.errors.ProtocolVersionError` on a version
    mismatch and :class:`~repro.core.errors.RuntimeStateError` when the
    peer sent something other than a hello (or nothing within *timeout*) —
    both are structured verdicts, never a misparse further in.
    """
    if not transport.poll(timeout):
        raise RuntimeStateError(
            f"peer {peer or '?'} sent no hello within {timeout}s"
        )
    msg = transport.recv()
    if not isinstance(msg, wire.HelloMsg):
        raise RuntimeStateError(
            f"peer {peer or '?'} opened with {type(msg).__name__} instead of "
            "the hello frame; not a repro cluster endpoint?"
        )
    wire.check_protocol_version(msg.version, peer=peer)
    return msg
