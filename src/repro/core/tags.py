"""Named task groups for the ``name_as``/``wait`` clauses (paper §III-C).

Different target blocks are allowed to share the same name-tag; a later
``wait(tag)`` suspends the encountering thread until **all** live instances
tagged with it have finished.  The registry therefore tracks a multiset of
outstanding regions per tag.
"""

from __future__ import annotations

import threading
from typing import Callable

from .errors import RegionCancelledError, RegionFailedError, TagError
from .region import RegionState, TargetRegion

__all__ = ["TagRegistry"]


class TagRegistry:
    """Thread-safe tag → outstanding-regions bookkeeping.

    Regions join and leave their tag's set without the registry lock (set
    ``add``/``discard`` are atomic under the GIL).  The lock is taken only on
    a tag's first use, to record a failure, and when a group empties — the
    only moment a ``wait`` can be released, so waiters are woken once per
    group instead of once per completed region.  A registration that races
    the emptying of its group re-checks that its set is still the live one
    and, if the group was retired meanwhile, re-registers under the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._outstanding: dict[str, set[TargetRegion]] = {}
        self._completed_with_error: dict[str, list[RegionFailedError]] = {}
        self._cond = threading.Condition(self._lock)
        # Tags that have ever been used; lets strict waits distinguish
        # "never registered" from "all done".
        self._known: set[str] = set()

    def register(self, tag: str, region: TargetRegion) -> None:
        """Attach *region* to *tag*; automatically detaches on completion."""
        live = self._outstanding.get(tag)
        if live is not None:
            live.add(region)
        if live is None or self._outstanding.get(tag) is not live:
            # First use, or the group emptied and was retired around the add.
            with self._cond:
                self._known.add(tag)
                self._outstanding.setdefault(tag, set()).add(region)
        region.add_done_callback(lambda r: self._on_done(tag, r))

    def _on_done(self, tag: str, region: TargetRegion) -> None:
        if region.exception is not None:
            # Recorded before the region leaves its group, so a waiter the
            # emptied group releases always finds it.  Includes regions
            # cancelled *with a reason* (a drained target's lost work):
            # wait_tag must surface those, while a bare cancel() stays a
            # benign withdrawal.
            err_cls = (
                RegionCancelledError
                if region.state is RegionState.CANCELLED
                else RegionFailedError
            )
            with self._lock:
                self._completed_with_error.setdefault(tag, []).append(
                    err_cls(region.name, region.exception)
                )
        live = self._outstanding.get(tag)
        if live is None:
            return
        live.discard(region)
        if live:
            return
        with self._cond:
            if live or self._outstanding.get(tag) is not live:
                return  # refilled, or another completion retired it
            del self._outstanding[tag]
            if live:
                # A lock-free register added to the set between the check
                # above and the delete, and may already have confirmed the
                # set as live: put it back rather than lose that region.
                self._outstanding[tag] = live
            else:
                self._cond.notify_all()

    def outstanding(self, tag: str) -> int:
        return len(self._outstanding.get(tag, ()))

    def is_known(self, tag: str) -> bool:
        return tag in self._known

    def wait(
        self,
        tag: str,
        *,
        timeout: float | None = None,
        strict: bool = False,
        helper: Callable[[], bool] | None = None,
        raise_on_error: bool = True,
    ) -> None:
        """Block until every region registered under *tag* has finished.

        Parameters
        ----------
        strict:
            If True, waiting on a tag that was never registered raises
            :class:`TagError` (catches typos); the paper's semantics treat an
            unknown tag as trivially complete, which is the default.
        helper:
            Optional "process another task" callback.  When given, instead of
            sleeping the waiting thread repeatedly invokes it (the logical
            barrier used when the waiter is an EDT or pool member).  It should
            return promptly; its boolean result is ignored.
        raise_on_error:
            If any region under *tag* failed, re-raise the first recorded
            :class:`RegionFailedError` after the group completes.
        """
        if strict and not self.is_known(tag):
            raise TagError(f"wait on unknown name_as tag {tag!r}")
        if helper is None:
            with self._cond:
                ok = self._cond.wait_for(
                    lambda: not self._outstanding.get(tag), timeout=timeout
                )
            if not ok:
                raise TimeoutError(f"timed out waiting for tag {tag!r}")
        else:
            # Cooperative wait: poll the group while helping with other work.
            import time

            deadline = None if timeout is None else time.monotonic() + timeout
            while self.outstanding(tag):
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(f"timed out waiting for tag {tag!r}")
                helper()
        if raise_on_error:
            errors = self._pop_errors(tag)
            if errors:
                raise errors[0]

    def _pop_errors(self, tag: str) -> list[RegionFailedError]:
        with self._lock:
            return self._completed_with_error.pop(tag, [])

    def clear(self, *, keep_errors: bool = False) -> None:
        """Forget all tag bookkeeping (waiters unblock as trivially complete).

        ``keep_errors=True`` preserves recorded failures — runtime shutdown
        uses it so waiters released by the teardown still learn that their
        regions were cancelled rather than observing a clean join.
        """
        with self._cond:
            self._outstanding.clear()
            if not keep_errors:
                self._completed_with_error.clear()
            self._known.clear()
            self._cond.notify_all()
