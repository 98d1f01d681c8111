"""Shutdown semantics across the process boundary: drain vs cancel."""

from __future__ import annotations

import time

import pytest

from repro.core import PjRuntime
from repro.core.errors import RegionCancelledError, TargetShutdownError
from repro.core.region import RegionState, TargetRegion

from . import bodies


class TestGracefulShutdown:
    def test_wait_true_drains_the_backlog(self):
        rt = PjRuntime()
        rt.create_process_worker("pool", 2)
        handles = [
            rt.invoke_target_block(
                "pool", TargetRegion(bodies.square, i), "nowait"
            )
            for i in range(6)
        ]
        rt.shutdown(wait=True)
        assert [h.result() for h in handles] == [i * i for i in range(6)]

    def test_shutdown_is_idempotent(self):
        rt = PjRuntime()
        target = rt.create_process_worker("pool", 1)
        rt.shutdown(wait=True)
        target.shutdown(wait=True)  # second call must be a no-op
        target.shutdown(wait=False)


class TestHardShutdown:
    def test_wait_false_cancels_remote_backlog_fast(self):
        rt = PjRuntime()
        rt.create_process_worker("pool", 1)
        busy = rt.invoke_target_block(
            "pool", TargetRegion(bodies.sleepy, 60.0), "nowait"
        )
        deadline = time.monotonic() + 15.0
        while busy.state.name == "PENDING" and time.monotonic() < deadline:
            time.sleep(0.01)
        backlog = [
            rt.invoke_target_block(
                "pool", TargetRegion(bodies.sleepy, 60.0), "nowait"
            )
            for _ in range(3)
        ]
        start = time.monotonic()
        rt.shutdown(wait=False)
        for handle in backlog:
            assert handle.wait(10.0), "queued region left unresolved"
            with pytest.raises(RegionCancelledError):
                handle.result()
        assert busy.wait(10.0), "in-flight region left unresolved"
        with pytest.raises((RegionCancelledError, Exception)):
            busy.result()
        assert time.monotonic() - start < 15.0

    def test_in_flight_region_fails_with_shutdown_error(self):
        rt = PjRuntime()
        rt.create_process_worker("pool", 1)
        busy = rt.invoke_target_block(
            "pool", TargetRegion(bodies.sleepy, 60.0), "nowait"
        )
        deadline = time.monotonic() + 15.0
        while busy.state.name != "RUNNING" and time.monotonic() < deadline:
            time.sleep(0.01)
        rt.shutdown(wait=False)
        assert busy.wait(10.0)
        assert isinstance(busy.exception, TargetShutdownError)

    def test_posts_after_shutdown_refused(self):
        rt = PjRuntime()
        target = rt.create_process_worker("pool", 1)
        rt.shutdown(wait=False)
        with pytest.raises(TargetShutdownError):
            target.post(TargetRegion(bodies.square, 1))


class TestPostRacingGracefulShutdown:
    def test_late_post_is_refused_or_cancelled(self):
        from tests.core.test_shutdown_semantics import post_racing_graceful_shutdown

        rt = PjRuntime()
        try:
            target = rt.create_process_worker("race", 1)
            assert rt.invoke_target_block(
                "race", TargetRegion(bodies.square, 3)
            ).result() == 9
            raised, region = post_racing_graceful_shutdown(target)
            assert raised or region.state is RegionState.CANCELLED
            assert target.work_count() == 0
        finally:
            rt.shutdown(wait=False)
