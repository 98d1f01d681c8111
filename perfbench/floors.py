"""Host floors and single-layer probes, measured on the host under test.

Floors are what the hop would cost with no runtime at all: a bare
``queue.SimpleQueue`` + ``threading.Event`` ping-pong between two threads, a
bare ``pickle`` round trip, and a bare length-prefixed echo over a loopback
TCP socket.  Beside them sit the same hops through the program's own
layers (a default-clause dispatch, ``repro.dist.wire``, the cluster
``TcpTransport``), and the ratios of dispatch round trips over their floor.
"""

from __future__ import annotations

import pickle
import queue
import socket
import struct
import threading

from common import median, pc_ns
from metrics import SIZES
from plan import SIZE_CLASSES, payload_array, payload_bytes

from repro.cluster import connect, listen
from repro.core import PjRuntime
from repro.dist import wire

_ITERS = {"64B": 2000, "256K": 60, "1M": 30}
_HDR = struct.Struct("!Q")


def _payload(size_class: str):
    """The same payload types remote_ship ships: bytes, or uint8 arrays."""
    n = SIZE_CLASSES[size_class]
    return payload_bytes(n, 7) if size_class == "64B" else payload_array(n, 7)


def _timed(fn, iters: int) -> float:
    """Median microseconds of *fn* over *iters* calls, after a warm-up."""
    for _ in range(max(3, iters // 20)):
        fn()
    samples = []
    for _ in range(iters):
        t0 = pc_ns()
        fn()
        samples.append((pc_ns() - t0) / 1e3)
    return median(samples)


def pingpong_us(iters: int = 3000) -> float:
    q: queue.SimpleQueue = queue.SimpleQueue()
    done = threading.Event()

    def server() -> None:
        while q.get() is not None:
            done.set()

    t = threading.Thread(target=server, name="perfbench-floor-pong")
    t.start()

    def once() -> None:
        done.clear()
        q.put(1)
        done.wait()

    try:
        return _timed(once, iters)
    finally:
        q.put(None)
        t.join()


def default_roundtrip_us(iters: int = 3000) -> float:
    rt = PjRuntime()
    rt.create_worker("floor", 1)
    try:
        return _timed(lambda: rt.invoke_target_block("floor", _noop, "default"), iters)
    finally:
        rt.shutdown(wait=True)


def _noop() -> None:
    return None


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if k == 0:
            raise EOFError("peer closed")
        got += k
    return buf


def socket_echo_us(blobs: dict[str, bytes]) -> dict[str, float]:
    lsock = socket.create_server(("127.0.0.1", 0))
    port = lsock.getsockname()[1]

    def server() -> None:
        conn, _ = lsock.accept()
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                while True:
                    (n,) = _HDR.unpack(_recv_exact(conn, _HDR.size))
                    conn.sendall(_HDR.pack(n) + _recv_exact(conn, n))
            except EOFError:
                return

    t = threading.Thread(target=server, name="perfbench-floor-echo")
    t.start()
    out = {}
    try:
        with socket.create_connection(("127.0.0.1", port)) as c:
            c.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

            for s, blob in blobs.items():
                frame = _HDR.pack(len(blob)) + blob

                def once(frame=frame, n=len(blob)) -> None:
                    c.sendall(frame)
                    _recv_exact(c, _HDR.size)
                    _recv_exact(c, n)

                out[s] = _timed(once, _ITERS[s])
    finally:
        t.join(timeout=5)
        lsock.close()
    return out


def transport_echo_us(payloads: dict) -> dict[str, float]:
    listener = listen()
    client = connect(listener.host, listener.port)
    server = listener.accept(timeout=5)

    def echo() -> None:
        try:
            while True:
                server.send(server.recv())
        except (EOFError, OSError):
            return

    t = threading.Thread(target=echo, name="perfbench-transport-echo")
    t.start()
    out = {}
    try:
        for s, p in payloads.items():
            out[s] = _timed(lambda p=p: (client.send(p), client.recv()), _ITERS[s])
    finally:
        client.close()
        t.join(timeout=5)
        server.close()
        listener.close()
    return out


def measure(layers: dict) -> dict[str, float]:
    """Every floor-owned metric; ratios use the round trips in *layers*."""
    out = {"floor.pingpong_us": pingpong_us(),
           "core.default_roundtrip_us": default_roundtrip_us()}
    payloads = {s: _payload(s) for s in SIZES}
    for s, p in payloads.items():
        out[f"floor.pickle_us.{s}"] = _timed(
            lambda p=p: pickle.loads(pickle.dumps(p, pickle.HIGHEST_PROTOCOL)), _ITERS[s])
        blob = wire.dumps(p)
        out[f"dist.wire.dumps_us.{s}"] = _timed(lambda p=p: wire.dumps(p), _ITERS[s])
        out[f"dist.wire.loads_us.{s}"] = _timed(lambda b=blob: wire.loads(b), _ITERS[s])
    raw = {s: (p if isinstance(p, bytes) else p.tobytes()) for s, p in payloads.items()}
    for s, v in socket_echo_us(raw).items():
        out[f"floor.socket_echo_us.{s}"] = v
    for s, v in transport_echo_us(payloads).items():
        out[f"cluster.transport.echo_us.{s}"] = v
    out["core.default_over_floor"] = out["core.default_roundtrip_us"] / out["floor.pingpong_us"]
    # A remote round trip's floor: serialise both ways, move the bytes both ways.
    remote_floor = out["floor.pickle_us.64B"] + out["floor.socket_echo_us.64B"]
    out["dist.process_over_floor"] = layers["dist.process.roundtrip_us.64B"] / remote_floor
    out["cluster.over_floor"] = layers["cluster.roundtrip_us.64B"] / remote_floor
    return out
