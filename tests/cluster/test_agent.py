"""The worker agent: handshake, task/ctrl protocol, subprocess bring-up."""

from __future__ import annotations

import os
import time

import pytest

from repro.cluster.agent import ClusterAgent, announce_line
from repro.cluster.transport import connect, expect_hello, parse_endpoint, send_hello
from repro.dist import wire

from tests.dist import bodies


def open_channel(agent, role, *, slot=0, target_name="t"):
    """Connect one channel to an in-process agent, handshake included."""
    tr = connect(agent.host, agent.port)
    send_hello(tr, role, target_name=target_name, slot=slot)
    hello = expect_hello(tr)
    assert hello.role == "agent"
    return tr


class TestHandshake:
    def test_agent_answers_with_versioned_hello(self):
        with ClusterAgent() as agent:
            tr = connect(agent.host, agent.port)
            try:
                send_hello(tr, "task", target_name="t", slot=0)
                hello = expect_hello(tr)
                assert hello.version == wire.PROTOCOL_VERSION
                assert hello.role == "agent"
                assert hello.meta["pid"] == os.getpid()  # in-process agent
            finally:
                tr.close()

    def test_version_mismatch_answered_then_closed(self):
        # The agent replies with its own hello (so the stale client can
        # raise a structured ProtocolVersionError too), then hangs up —
        # no task loop ever starts.
        with ClusterAgent() as agent:
            tr = connect(agent.host, agent.port)
            try:
                tr.send(wire.HelloMsg(999, "task", "t", 0, {}))
                reply = tr.recv()
                assert isinstance(reply, wire.HelloMsg)
                assert reply.version == wire.PROTOCOL_VERSION
                assert tr.poll(5.0)
                with pytest.raises(EOFError):
                    tr.recv()
            finally:
                tr.close()

    def test_garbage_first_frame_closes_the_connection(self):
        with ClusterAgent() as agent:
            tr = connect(agent.host, agent.port)
            try:
                tr.send({"not": "a hello"})
                assert tr.poll(5.0)
                with pytest.raises(EOFError):
                    tr.recv()
            finally:
                tr.close()


class TestTaskProtocol:
    def test_clock_probe_and_task_round_trip(self):
        with ClusterAgent() as agent:
            tr = open_channel(agent, "task")
            try:
                tr.send(wire.SyncMsg(123))
                ack = tr.recv()
                assert isinstance(ack, wire.SyncAck)
                assert ack.pid == os.getpid()

                blob = wire.dumps((bodies.square, (7,), {}))
                tr.send(wire.ClusterTaskMsg(1, "sq", None, blob, False, None))
                result = tr.recv()
                assert isinstance(result, wire.ResultMsg)
                assert result.seq == 1 and result.ok
                assert wire.loads(result.blob) == 49
                assert agent.tasks_executed == 1
            finally:
                tr.close()

    def test_tagged_task_sends_tag_done_before_result(self):
        with ClusterAgent() as agent:
            tr = open_channel(agent, "task")
            try:
                blob = wire.dumps((bodies.square, (3,), {}))
                tr.send(wire.ClusterTaskMsg(5, "sq", None, blob, False, "grp"))
                first = tr.recv()
                assert isinstance(first, wire.TagDoneMsg)
                assert (first.seq, first.tag, first.outcome) == (5, "grp", "completed")
                result = tr.recv()
                assert isinstance(result, wire.ResultMsg) and result.ok
            finally:
                tr.close()

    def test_failing_body_reports_failed_tag_and_error_result(self):
        with ClusterAgent() as agent:
            tr = open_channel(agent, "task")
            try:
                blob = wire.dumps((bodies.boom, ("kapow",), {}))
                tr.send(wire.ClusterTaskMsg(6, "boom", None, blob, False, "grp"))
                first = tr.recv()
                assert isinstance(first, wire.TagDoneMsg)
                assert first.outcome == "failed"
                result = tr.recv()
                assert isinstance(result, wire.ResultMsg) and not result.ok
                exc = wire.unpack_exception(
                    result.exc_blob, result.exc_text, result.exc_tb
                )
                assert isinstance(exc, ValueError)
            finally:
                tr.close()

    def test_unknown_message_is_skipped_not_fatal(self):
        with ClusterAgent() as agent:
            tr = open_channel(agent, "task")
            try:
                tr.send(wire.PongMsg(0, 0))  # nonsense on a task channel
                blob = wire.dumps((bodies.square, (2,), {}))
                tr.send(wire.ClusterTaskMsg(9, "sq", None, blob, False, None))
                result = tr.recv()
                assert isinstance(result, wire.ResultMsg) and result.ok
            finally:
                tr.close()


class TestCtrlProtocol:
    def test_ping_pong(self):
        with ClusterAgent() as agent:
            tr = open_channel(agent, "ctrl")
            try:
                tr.send(wire.PingMsg(42))
                pong = tr.recv()
                assert isinstance(pong, wire.PongMsg)
                assert pong.sent_ns == 42
            finally:
                tr.close()

    def test_cancel_reaches_the_executing_region(self):
        with ClusterAgent() as agent:
            task = open_channel(agent, "task", slot=1)
            ctrl = open_channel(agent, "ctrl", slot=1)
            try:
                blob = wire.dumps((bodies.cooperative_loop, (30.0,), {}))
                task.send(wire.ClusterTaskMsg(3, "loop", None, blob, False, None))
                time.sleep(0.2)  # let the body start polling its token
                ctrl.send(wire.CancelMsg(3))
                result = task.recv()
                assert result.ok
                assert wire.loads(result.blob) == "cancelled"
            finally:
                task.close()
                ctrl.close()


class TestReconnectedLane:
    def test_old_body_ending_keeps_the_new_lanes_cancellation(self):
        """A body left running on a reclaimed connection must not erase the
        registration of the region the reconnected lane runs next."""
        from repro.core import PjRuntime, TargetRegion

        with ClusterAgent() as agent:
            rt = PjRuntime()
            try:
                target = rt.create_cluster(
                    "relane", [f"{agent.host}:{agent.port}"], cancel_grace=0.3
                )
                busy = lambda: target._slots[0].busy
                t0 = time.monotonic()
                stuck = TargetRegion(bodies.sleepy, 2.0, name="stuck")
                rt.invoke_target_block("relane", stuck, "nowait")
                assert _wait_until(busy)
                stuck.request_cancel()  # ignored: the lane is reclaimed
                assert stuck.wait(10.0) and stuck.exception is not None

                coop = TargetRegion(bodies.cooperative_loop, 30.0, name="coop")
                rt.invoke_target_block("relane", coop, "nowait")
                assert _wait_until(busy)
                # Let the stuck body finish on the agent, then cancel.
                time.sleep(max(0.0, t0 + 2.5 - time.monotonic()))
                coop.request_cancel()
                assert coop.wait(10.0)
                assert coop.result() == "cancelled"
            finally:
                rt.shutdown(wait=False)


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestSlotCap:
    def test_max_slots_refuses_extra_task_connections(self):
        with ClusterAgent(max_slots=1) as agent:
            first = open_channel(agent, "task", slot=0)
            try:
                second = connect(agent.host, agent.port)
                try:
                    send_hello(second, "task", target_name="t", slot=1)
                    # Refused before the agent's hello: the reply never comes.
                    with pytest.raises((EOFError, Exception)):
                        expect_hello(second, timeout=5.0)
                finally:
                    second.close()
            finally:
                first.close()


class TestSpawnedAgent:
    def test_announce_line_format(self):
        line = announce_line("127.0.0.1", 1234)
        assert "listening on 127.0.0.1:1234" in line
        assert f"protocol {wire.PROTOCOL_VERSION}" in line

    def test_spawn_connect_and_close(self, agent):
        assert agent.alive()
        tr = connect(*parse_endpoint(agent.endpoint))
        try:
            send_hello(tr, "task", target_name="t", slot=0)
            hello = expect_hello(tr)
            assert hello.meta["pid"] == agent.pid  # a real separate process
            tr.send(wire.SyncMsg(1))
            ack = tr.recv()
            assert ack.pid == agent.pid
        finally:
            tr.close()
        agent.close()
        assert not agent.alive()
