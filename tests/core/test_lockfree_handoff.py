"""The lock-free ``name_as`` hot path: queue handoff and tag accounting.

An unbounded ``_TargetQueue`` appends and pops without its lock, and
``TagRegistry`` adds and removes regions without its lock.  Two orderings
keep that correct (see the ``_TargetQueue`` docstring): a consumer counts
itself idle before its last emptiness check while a producer reads the idle
count after its append, and a poster re-checks ``_closed`` after its append
while teardown pops the same deque.  The tag registry has two windows of
its own, between a registration and the retiring of an emptied group.

Each window is forced deterministically with one-shot hooks on the deque or
the tag table; the randomized tests race real threads with a 1 us GIL
switch interval on top.
"""

from __future__ import annotations

import collections
import queue
import random
import sys
import threading
import time

import pytest

from repro.core import (
    PjRuntime,
    RegionFailedError,
    TagRegistry,
    TargetRegion,
    TargetShutdownError,
)
from repro.core.region import RegionState
from repro.core.targets import _SHUTDOWN, WorkerTarget, _TargetQueue


@pytest.fixture(autouse=True)
def _fast_switching():
    """Switch threads every microsecond so the handoff windows interleave."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


class _SwitchingDeque(collections.deque):
    """A queue's deque with one-shot hooks standing in for a thread switch
    just before an append, or just after a pop found the deque empty."""

    before_append = None
    on_empty_pop = None

    def append(self, item):
        hook, self.before_append = self.before_append, None
        if hook is not None:
            hook()
        super().append(item)

    def popleft(self):
        try:
            return super().popleft()
        except IndexError:
            hook, self.on_empty_pop = self.on_empty_pop, None
            if hook is not None:
                hook()
            raise


def _switching_queue() -> _TargetQueue:
    q = _TargetQueue("switching")
    q._items = _SwitchingDeque()
    return q


class TestShutdownVsPost:
    def test_close_and_drain_between_check_and_append_refuses_the_post(self):
        q = _switching_queue()
        drained: list[object] = []

        def teardown() -> None:
            q.close()
            drained.extend(q.drain_items())

        q._items.before_append = teardown
        with pytest.raises(TargetShutdownError):
            q.put("late")
        assert drained == [] and q.qsize() == 0

    def test_parked_consumer_sees_sentinels_queued_after_a_drain(self):
        """Teardown drains, then queues a shutdown sentinel: a lane parked on
        the empty queue must get it, so the drain must not swap the deque
        the lane is waiting on."""
        q = _TargetQueue("t")
        got: queue.SimpleQueue = queue.SimpleQueue()
        t = threading.Thread(target=lambda: got.put(q.get_batch(timeout=5.0)))
        t.start()
        deadline = time.monotonic() + 5.0
        while q._idle == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert q._idle == 1
        q.close()
        assert q.drain_items() == []
        q.put_internal(_SHUTDOWN)
        assert got.get(timeout=5.0) == [_SHUTDOWN]
        t.join(5.0)
        assert not t.is_alive()

    def test_queue_level_every_item_has_exactly_one_owner(self):
        """Posters race ``close()`` + ``drain_items()`` and a live consumer:
        every item is consumed, drained, or refused — exactly one of the three,
        and nothing is left behind in the deque."""
        for trial in range(30):
            q = _TargetQueue(f"q{trial}")
            refused: list[int] = []
            consumed: list[int] = []
            start = threading.Barrier(4)

            def poster(base: int) -> None:
                start.wait()
                for i in range(base, base + 200):
                    try:
                        q.put(i)
                    except TargetShutdownError:
                        refused.append(i)

            def consumer() -> None:
                # Stops at close, like a lane that takes its shutdown
                # sentinel: items stranded behind it must not be rescued.
                start.wait()
                while not q._closed:
                    try:
                        consumed.extend(q.get_batch(4, timeout=0.01))
                    except queue.Empty:
                        pass

            threads = [threading.Thread(target=poster, args=(k * 1000,)) for k in (0, 1)]
            threads.append(threading.Thread(target=consumer))
            for t in threads:
                t.start()
            start.wait()
            for _ in range(random.Random(trial).randrange(50, 400)):
                pass
            q.close()
            drained = q.drain_items()
            for t in threads:
                t.join(10)
                assert not t.is_alive()
            everything = {i for k in (0, 1000) for i in range(k, k + 200)}
            owners = [set(consumed), set(drained), set(refused)]
            assert sum(len(s) for s in owners) == len(everything)
            assert set().union(*owners) == everything
            assert q.qsize() == 0 and q.work_count() == 0

    def test_no_posted_region_is_left_pending(self):
        for trial in range(20):
            target = WorkerTarget(f"w{trial}", 2)
            accepted: list[TargetRegion] = []
            refused: list[TargetRegion] = []
            other: list[BaseException] = []
            start = threading.Barrier(3)

            def poster() -> None:
                start.wait()
                for _ in range(150):
                    region = TargetRegion(lambda: None)
                    try:
                        target.post(region)
                    except TargetShutdownError:
                        refused.append(region)
                    except BaseException as exc:  # noqa: BLE001 - recorded
                        other.append(exc)
                    else:
                        accepted.append(region)

            posters = [threading.Thread(target=poster) for _ in range(2)]
            for t in posters:
                t.start()
            start.wait()
            target.shutdown(wait=False)
            for t in posters:
                t.join(10)
            assert not other
            for region in accepted:
                assert region.wait(5.0), f"trial {trial}: accepted region left PENDING"
                assert region.state in (RegionState.COMPLETED, RegionState.CANCELLED)
            assert all(r.state is RegionState.PENDING for r in refused)
            assert target._queue.work_count() == 0


class TestParkedLaneWakeup:
    def test_post_between_empty_pop_and_park_is_not_lost(self):
        """The post lands after the consumer found the deque empty but before
        it counted itself idle, so the poster sees no one to wake: the
        consumer's re-check after raising the idle count must find it."""
        q = _switching_queue()
        q._items.on_empty_pop = lambda: q.put("late")
        t0 = time.monotonic()
        assert q.get_batch(timeout=5.0) == ["late"]
        assert time.monotonic() - t0 < 2.5, "the consumer slept through the post"

    @pytest.mark.parametrize("capacity", [None, 4])
    def test_queue_consumer_parked_on_empty_is_always_woken(self, capacity):
        q = _TargetQueue("park", capacity)
        got: queue.SimpleQueue = queue.SimpleQueue()

        def consumer() -> None:
            while True:
                [item] = q.get_batch()
                got.put(item)
                if item is None:
                    return

        t = threading.Thread(target=consumer)
        t.start()
        rng = random.Random(7)
        try:
            for i in range(2000):
                # Vary the gap so the post lands before, during and after
                # the consumer's park.
                for _ in range(rng.randrange(0, 60)):
                    pass
                q.put(i)
                assert got.get(timeout=5.0) == i, f"post {i} never woke the lane"
        finally:
            q.put(None)
            t.join(5.0)

    def test_worker_lanes_pick_up_every_post_after_idling(self):
        target = WorkerTarget("lanes", 2)
        rng = random.Random(11)
        try:
            for i in range(500):
                done = threading.Event()
                target.post(done.set)
                assert done.wait(5.0), f"post {i} stranded on an idle pool"
                for _ in range(rng.randrange(0, 60)):
                    pass
        finally:
            target.shutdown(wait=True)


class _SwitchPoints(dict):
    """The tag registry's table, with one-shot hooks standing in for a thread
    switch right after a ``get`` or right before a ``del`` — the two windows
    where a lock-free registration can meet the group emptying."""

    after_get = None
    before_del = None

    def get(self, key, default=None):
        value = super().get(key, default)
        hook, self.after_get = self.after_get, None
        if hook is not None:
            hook()
        return value

    def __delitem__(self, key):
        hook, self.before_del = self.before_del, None
        if hook is not None:
            hook()
        super().__delitem__(key)


class TestTagRegistrationVsGroupEmptying:
    def _registry(self) -> tuple[TagRegistry, TargetRegion]:
        tags = TagRegistry()
        tags._outstanding = _SwitchPoints()
        first = TargetRegion(lambda: None)
        tags.register("t", first)
        return tags, first

    def _assert_tracked(self, tags: TagRegistry, late: TargetRegion) -> None:
        assert tags.outstanding("t") == 1, "the late registration was lost"
        with pytest.raises(TimeoutError):
            tags.wait("t", timeout=0)
        late.run()
        tags.wait("t", timeout=1)

    def test_group_retired_between_lookup_and_add(self):
        """The registrar looked up the live set, then the group emptied and
        was retired before its add: it must re-register under the lock."""
        tags, first = self._registry()
        late = TargetRegion(lambda: None)
        tags._outstanding.after_get = first.run
        tags.register("t", late)
        self._assert_tracked(tags, late)

    def test_add_between_emptiness_check_and_delete(self):
        """The registrar added to the set after the retiring completion saw
        it empty but before the delete: the set must be put back."""
        tags, first = self._registry()
        late = TargetRegion(lambda: None)
        tags._outstanding.before_del = lambda: tags.register("t", late)
        first.run()
        self._assert_tracked(tags, late)


class TestWaitTag:
    def _count_notifies(self, rt: PjRuntime) -> list[int]:
        calls = [0]
        real = rt.tags._cond.notify_all

        def counting() -> None:
            calls[0] += 1
            real()

        rt.tags._cond.notify_all = counting
        return calls

    def test_wait_tag_wakes_once_per_group(self):
        rt = PjRuntime()
        try:
            rt.create_worker("w", 2)
            notifies = self._count_notifies(rt)
            for group in range(3):
                gate = threading.Event()
                for _ in range(2):
                    rt.invoke_target_block("w", gate.wait, "nowait")
                for _ in range(200):
                    rt.invoke_target_block("w", lambda: None, "name_as", tag="g")
                joined = threading.Event()

                def joiner() -> None:
                    rt.wait_tag("g", timeout=10)
                    joined.set()

                threading.Thread(target=joiner).start()
                gate.set()
                assert joined.wait(10.0)
                assert notifies[0] == group + 1
        finally:
            rt.shutdown(wait=False)

    def test_wait_tag_raises_the_first_recorded_failure(self):
        rt = PjRuntime()
        try:
            rt.create_worker("w", 1)  # one lane: failures record in post order

            def boom(msg: str):
                def body() -> None:
                    raise ValueError(msg)
                return body

            for i in range(50):
                rt.invoke_target_block("w", lambda: None, "name_as", tag="t")
                if i in (10, 30):
                    rt.invoke_target_block(
                        "w", TargetRegion(boom(f"fail{i}"), name=f"r{i}"),
                        "name_as", tag="t",
                    )
            with pytest.raises(RegionFailedError) as ei:
                rt.wait_tag("t", timeout=10)
            assert ei.value.region_name == "r10"
            assert str(ei.value.cause) == "fail10"
            rt.wait_tag("t", timeout=1)  # errors are consumed by the wait
        finally:
            rt.shutdown(wait=False)

    def test_wait_tag_returns_when_shutdown_clears_the_tag(self):
        """The group's only region is still running at shutdown, so nothing
        is cancelled: clearing the tag alone must release the waiter."""
        rt = PjRuntime()
        gate = threading.Event()
        try:
            rt.create_worker("w", 1)
            started = threading.Event()

            def body() -> None:
                started.set()
                gate.wait()

            rt.invoke_target_block("w", body, "name_as", tag="t")
            assert started.wait(5.0)
            outcome: list[object] = []
            done = threading.Event()

            def joiner() -> None:
                try:
                    rt.wait_tag("t", timeout=10)
                    outcome.append("returned")
                except BaseException as exc:  # noqa: BLE001 - recorded
                    outcome.append(exc)
                finally:
                    done.set()

            threading.Thread(target=joiner).start()
            rt.shutdown(wait=False)
            assert done.wait(5.0), "wait_tag hung after shutdown cleared the tag"
            assert outcome == ["returned"]
        finally:
            gate.set()
            rt.shutdown(wait=False)
