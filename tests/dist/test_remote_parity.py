"""One behaviour contract, two remote targets.

Every test here runs against a :class:`~repro.dist.ProcessTarget` (a worker
process behind pipes) and a :class:`~repro.cluster.ClusterTarget` (a lane on
an in-process :class:`~repro.cluster.ClusterAgent` behind TCP loopback).
Both targets ride the same shipper, supervisor contract and worker loop, so
payload policy, shutdown, backpressure, deadlines and plain-callable
failures must look identical from the posting side.

The cluster agent runs in this interpreter, so it cannot kill a body
thread: bodies that ignore cancellation here end on their own.
"""

from __future__ import annotations

import functools
import logging
import threading
import time

import pytest

from repro.cluster import ClusterAgent
from repro.core import PjRuntime
from repro.core.errors import (
    AwaitTimeoutError,
    QueueFullError,
    RegionFailedError,
    SerializationError,
    TargetShutdownError,
)
from repro.core.region import TargetRegion

from . import bodies


def _wait_until(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture(params=["process", "cluster"])
def make_remote(request):
    """Factory ``make_remote(**options) -> (runtime, target)``: a one-lane
    remote target named ``remote`` of the parametrized kind, its lane
    already up (one region has completed on it)."""
    runtimes: list[PjRuntime] = []
    agents: list[ClusterAgent] = []

    def make(**options):
        options.setdefault("heartbeat_interval", 0.25)
        runtime = PjRuntime()
        runtimes.append(runtime)
        if request.param == "process":
            target = runtime.create_process_worker("remote", 1, **options)
        else:
            agent = ClusterAgent().start()
            agents.append(agent)
            target = runtime.create_cluster(
                "remote", [f"{agent.host}:{agent.port}"], **options
            )
        warm = runtime.invoke_target_block("remote", TargetRegion(bodies.square, 2))
        assert warm.result(timeout=60) == 4
        return runtime, target

    yield make
    for runtime in runtimes:
        runtime.shutdown(wait=False)
    for agent in agents:
        agent.stop()


def _park(runtime, seconds):
    """Occupy the single lane with a body that ends on its own."""
    busy = runtime.invoke_target_block(
        "remote", TargetRegion(bodies.sleepy, seconds), "nowait"
    )
    assert _wait_until(lambda: busy.state.name == "RUNNING")
    return busy


class TestPayloadPolicy:
    def test_unpicklable_payload_raises_serialization_error(self, make_remote):
        runtime, _target = make_remote()
        with pytest.raises(RegionFailedError) as exc_info:
            runtime.invoke_target_block(
                "remote", TargetRegion(bodies.sleepy, 0.0, value=threading.Lock())
            )
        assert isinstance(exc_info.value.__cause__, SerializationError)

    def test_unpicklable_result_becomes_typed_error(self, make_remote):
        runtime, _target = make_remote()
        with pytest.raises(RegionFailedError) as exc_info:
            runtime.invoke_target_block(
                "remote", TargetRegion(bodies.unpicklable_result)
            )
        assert isinstance(exc_info.value.__cause__, SerializationError)
        # The lane survives both verdicts.
        region = runtime.invoke_target_block("remote", TargetRegion(bodies.square, 4))
        assert region.result(timeout=30) == 16


class TestShutdown:
    def test_wait_true_drains_the_backlog(self, make_remote):
        runtime, target = make_remote()
        handles = [
            runtime.invoke_target_block(
                "remote", TargetRegion(bodies.square, i), "nowait"
            )
            for i in range(6)
        ]
        target.shutdown(wait=True)
        assert [h.result(timeout=0) for h in handles] == [i * i for i in range(6)]

    def test_post_after_shutdown_raises(self, make_remote):
        _runtime, target = make_remote()
        target.shutdown(wait=True)
        with pytest.raises(TargetShutdownError):
            target.post(TargetRegion(bodies.square, 1))


class TestBackpressure:
    def test_reject_policy_raises_queue_full(self, make_remote):
        runtime, _target = make_remote(queue_capacity=1, rejection_policy="reject")
        _park(runtime, 1.5)
        runtime.invoke_target_block("remote", TargetRegion(bodies.square, 1), "nowait")
        with pytest.raises(QueueFullError):
            for _ in range(50):
                runtime.invoke_target_block(
                    "remote", TargetRegion(bodies.square, 2), "nowait"
                )


class TestDeadlines:
    def test_ignored_cancel_times_out_promptly_and_lane_is_reclaimed(
        self, make_remote
    ):
        runtime, target = make_remote(cancel_grace=0.5)
        start = time.monotonic()
        with pytest.raises(AwaitTimeoutError):
            runtime.invoke_target_block(
                "remote", TargetRegion(bodies.sleepy, 2.0), timeout=0.5
            )
        assert time.monotonic() - start < 1.5
        # Past cancel_grace the shipper tears the lane down and the crash
        # path accounts for it; the next region runs on a fresh lane.
        assert _wait_until(lambda: target.stats["worker_crashes"] >= 1)
        region = runtime.invoke_target_block("remote", TargetRegion(bodies.square, 5))
        assert region.result(timeout=30) == 25
        assert target.restart_count >= 1


class TestPlainCallables:
    def test_failing_plain_callable_is_logged_and_lane_survives(
        self, make_remote, caplog
    ):
        runtime, target = make_remote()
        with caplog.at_level(logging.ERROR, logger="repro"):
            target.post(functools.partial(bodies.boom, "plain-kapow"))
            assert _wait_until(
                lambda: any(
                    "unhandled exception" in rec.getMessage()
                    and "plain-kapow" in rec.getMessage()
                    for rec in caplog.records
                )
            )
        region = runtime.invoke_target_block("remote", TargetRegion(bodies.square, 3))
        assert region.result(timeout=30) == 9
        assert target.stats["worker_crashes"] == 0
