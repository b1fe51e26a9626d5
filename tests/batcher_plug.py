"""Park requests in a micro-batcher without timing: a plug on its first flush.

The :class:`~repro.service.MicroBatcher` worker takes every pending request
as soon as it is free, so a test that needs a known set of requests flushed
together first holds the worker inside a flush of its own.  Requests
submitted while the plug holds park, and flush as one batch once the test
releases the plug -- or as the close flush when the batcher is closed
first.  No sleeps: every wait below wakes on the batcher's own condition.
"""

from __future__ import annotations

import threading
from typing import Union

from repro.service import BatchRequest, EvaluationService, MicroBatcher

__all__ = ["Plug"]

#: Hang guard in seconds for the waits below (a failing test, not a timing).
GUARD_S = 30.0


class Plug:
    """Hold ``target``'s batcher worker in a first flush until released.

    ``target`` is a :class:`MicroBatcher` or an :class:`EvaluationService`
    (then its batcher).  Create the plug before any other submission: its
    own request is the whole first flush, and the plug serves it, never the
    executor.  The batcher's counts that include it (``submitted``,
    ``batches``, ``flushes["ready"]`` and the batch-size histogram) carry
    its share of one; the facade's request and engine counts do not see it.
    """

    def __init__(self, target: Union[MicroBatcher, EvaluationService]) -> None:
        batcher = (
            target._batcher if isinstance(target, EvaluationService) else target
        )
        self._batcher = batcher
        self._released = False
        holding = threading.Event()
        self.request = BatchRequest(
            kind="plug", fingerprint="plug", group_key=None, task=None, params={}
        )
        execute = batcher._execute

        def plugged(batch: list[BatchRequest]) -> None:
            if batch[0] is self.request:
                holding.set()
                with batcher._condition:
                    batcher._condition.wait_for(
                        lambda: self._released or batcher._closed, GUARD_S
                    )
                self.request.resolve(None)
                batch = batch[1:]
            if batch:
                execute(batch)

        batcher._execute = plugged
        batcher.submit(self.request)
        assert holding.wait(GUARD_S), "the batcher worker never took the plug"

    def wait_parked(self, count: int) -> None:
        """Block until ``count`` requests are parked behind the plug."""
        batcher = self._batcher
        with batcher._condition:
            assert batcher._condition.wait_for(
                lambda: len(batcher._pending) >= count, GUARD_S
            ), f"{len(batcher._pending)} of {count} requests parked"

    def release(self) -> None:
        """Release the plug: the parked requests flush as the next batch."""
        with self._batcher._condition:
            self._released = True
            self._batcher._condition.notify_all()
