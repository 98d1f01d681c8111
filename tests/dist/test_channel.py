"""The framed socket channel: out-of-band buffers, framing, poll, tears."""

from __future__ import annotations

import pickle
import select
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.cluster.agent import ClusterAgent
from repro.cluster.transport import MAX_FRAME_BYTES, connect, listen, loopback_pair
from repro.core import PjRuntime, TargetRegion
from repro.core.errors import ProtocolVersionError
from repro.dist import wire
from repro.dist.channel import SocketChannel

from . import bodies


def tcp_pair():
    listener = listen()
    client = connect(listener.host, listener.port)
    server = listener.accept(timeout=5.0)
    listener.close()
    return client, server


def mib_array(seed=0):
    return np.random.default_rng(seed).integers(0, 256, 1 << 20, dtype=np.uint8)


class TestCodec:
    def test_dumps_is_a_buffer_tuple_and_loads_takes_it_or_bytes(self):
        arr = mib_array()
        blob = wire.dumps((arr, "tag"))
        assert isinstance(blob, tuple)
        assert all(isinstance(part, pickle.PickleBuffer) for part in blob)
        assert len(blob) == 2  # the stream, then the array's data out of band
        out, tag = wire.loads(blob)
        assert tag == "tag" and np.array_equal(out, arr)
        assert wire.loads(pickle.dumps({"k": 1})) == {"k": 1}

    def test_small_buffers_stay_in_the_stream(self):
        blob = wire.dumps([np.zeros(16), np.ones(1000)])
        assert len(blob) == 1
        small, ones = wire.loads(blob)
        assert not small.any() and ones.all()

    def test_more_buffers_than_a_frame_table_holds_go_in_band(self):
        a, b = socket.socketpair()
        tx, rx = SocketChannel(a), SocketChannel(b)
        try:
            arrays = [np.full(4, i % 250, dtype=np.uint8) for i in range(70_000)]
            sender = threading.Thread(target=tx.send, args=(arrays,))
            sender.start()
            got = rx.recv()
            sender.join(10.0)
            assert not sender.is_alive()
            assert len(got) == len(arrays)
            assert all(np.array_equal(x, y) for x, y in zip(got, arrays))
        finally:
            tx.close()
            rx.close()

    def test_loopback_copies_buffers_and_keeps_arrays_writable(self):
        a, b = loopback_pair()
        arr = mib_array()
        a.send(arr)
        arr[:] = 0  # the sender's memory is not shared with the receiver
        out = b.recv()
        assert out.flags.writeable and out.any()


class TestLargeEcho:
    def test_tcp_echo_of_a_mib_array_is_equal_and_writable(self):
        client, server = tcp_pair()
        try:
            arr = mib_array()
            client.send(wire.TaskMsg(1, "echo", None, wire.dumps(arr), False))
            task = server.recv()
            echoed = wire.dumps(wire.loads(task.blob))  # what a worker does
            server.send(wire.ResultMsg(1, True, echoed, None, None, None, [], 0))
            msg = client.recv()
            out = wire.loads(msg.blob)
            assert np.array_equal(out, arr)
            assert out.flags.writeable
            out[0] ^= 1  # really writable, not just flagged
        finally:
            client.close()
            server.close()

    def test_process_target_echo_of_a_mib_array_is_equal_and_writable(self):
        rt = PjRuntime()
        try:
            rt.create_process_worker("echo", 1)
            arr = mib_array(1)
            out = rt.invoke_target_block(
                "echo", TargetRegion(bodies.sleepy, 0, arr), "default"
            ).result()
            assert np.array_equal(out, arr)
            assert out.flags.writeable
        finally:
            rt.shutdown(wait=True)


class TestPoll:
    def test_poll_does_not_block_on_a_half_arrived_frame(self):
        a, b = socket.socketpair()
        ch = SocketChannel(b)
        try:
            blob = pickle.dumps("whole", protocol=5)
            frame = struct.pack(">I", len(blob)) + blob
            a.sendall(frame[:3])
            t0 = time.monotonic()
            assert not ch.poll(0.05)
            assert time.monotonic() - t0 < 1.0
            a.sendall(frame[3:])
            assert ch.poll(5.0)
            assert ch.recv() == "whole"
        finally:
            a.close()
            ch.close()

    def test_poll_zero_sees_a_frame_already_on_the_socket(self):
        a, b = socket.socketpair()
        tx, rx = SocketChannel(a), SocketChannel(b)
        try:
            tx.send(wire.PingMsg(5))
            readable, _, _ = select.select([b], [], [], 5.0)  # arrived, unread
            assert readable
            assert rx.poll(0)
            assert rx.recv().sent_ns == 5
            assert not rx.poll(0)
        finally:
            tx.close()
            rx.close()


class TestTornHeaders:
    def raw_to_channel(self, header: bytes):
        a, b = socket.socketpair()
        ch = SocketChannel(b)
        a.sendall(header)
        return a, ch

    def test_multipart_total_above_the_cap(self):
        header = struct.pack(">IH", 0x80000000 | (MAX_FRAME_BYTES + 1), 2)
        a, ch = self.raw_to_channel(header)
        try:
            with pytest.raises(OSError, match="desynchronized"):
                ch.recv()
            assert ch._big is None
        finally:
            a.close()
            ch.close()

    def test_part_lengths_not_summing_to_the_total(self):
        header = struct.pack(">IHII", 0x80000000 | 1000, 2, 100, 60 << 20)
        a, ch = self.raw_to_channel(header)
        try:
            with pytest.raises(OSError, match="desynchronized"):
                ch.recv()
            assert ch._big is None  # the 60 MiB part was never allocated
        finally:
            a.close()
            ch.close()


class TestConcurrentSends:
    def test_multipart_frames_never_interleave(self):
        client, server = tcp_pair()
        try:
            arrays = [np.full(300_000 + i, i, dtype=np.uint8) for i in range(8)]
            threads = [
                threading.Thread(target=client.send, args=((i, arr),))
                for i, arr in enumerate(arrays)
            ]
            for t in threads:
                t.start()
            got = dict(server.recv() for _ in arrays)
            for t in threads:
                t.join()
            for i, arr in enumerate(arrays):
                assert np.array_equal(got[i], arr)
        finally:
            client.close()
            server.close()


class TestVersionOneHello:
    def test_hand_framed_v1_hello_gets_a_structured_refusal(self, caplog, monkeypatch):
        """A protocol-1 client frames its hello as ``>I length + pickle``:
        the single-part frame of protocol 2, so a protocol-2 agent parses it,
        refuses it with a ProtocolVersionError and answers with its own
        hello, which the old client can parse and refuse in turn."""
        with ClusterAgent() as agent:
            sock = socket.create_connection((agent.host, agent.port), timeout=10)
            try:
                blob = pickle.dumps(wire.HelloMsg(1, "task", "old", 0, {}), protocol=4)
                sock.sendall(struct.pack(">I", len(blob)) + blob)
                (size,) = struct.unpack(">I", _recv_exact(sock, 4))
                assert not size & 0x80000000  # a v1 reader's frame
                reply = pickle.loads(_recv_exact(sock, size))
                assert sock.recv(1) == b""  # then the agent hangs up
            finally:
                sock.close()
        assert any("rejecting cluster connection" in r.message for r in caplog.records)
        assert isinstance(reply, wire.HelloMsg)
        monkeypatch.setattr(wire, "PROTOCOL_VERSION", 1)
        with pytest.raises(ProtocolVersionError) as exc_info:
            wire.check_protocol_version(reply.version)
        assert exc_info.value.theirs == 2


def _recv_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data
