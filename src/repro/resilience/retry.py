"""Bounded retry with exponential backoff and deterministic seeded jitter.

The retry policy of this repository must obey the same discipline as every
other stochastic component: seeded, replayable, testable.  ``retry_call``
therefore draws its jitter from a private ``random.Random(seed)`` stream --
two clients constructed with the same seed back off identically, and a test
can assert the exact delay sequence -- instead of the unseeded module-level
RNG most retry helpers reach for.

Retrying is only sound against idempotent operations.  Every consumer in
this repository qualifies by construction: service requests are keyed on
content fingerprints (re-asking is a cache hit, never a duplicated side
effect) and parallel items are pure functions of their pickled inputs.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional, Tuple, Type, TypeVar

from .deadline import Deadline

__all__ = ["retry_call"]

_ResultT = TypeVar("_ResultT")


def retry_call(
    fn: Callable[[], _ResultT],
    *,
    attempts: int = 3,
    base_delay: float = 0.05,
    factor: float = 2.0,
    max_delay: float = 5.0,
    jitter: float = 0.25,
    seed: Optional[int] = None,
    retry_on: Tuple[Type[BaseException], ...] = (Exception,),
    should_retry: Optional[Callable[[BaseException], bool]] = None,
    retry_after: Optional[Callable[[BaseException], Optional[float]]] = None,
    deadline: Optional[Deadline] = None,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
) -> _ResultT:
    """Call ``fn`` until it succeeds, the attempts run out, or the deadline.

    Parameters
    ----------
    fn:
        Zero-argument callable; its return value is returned on success.
    attempts:
        Total number of calls (1 = no retries).
    base_delay, factor, max_delay:
        Backoff schedule: attempt ``k`` (0-based) sleeps
        ``min(max_delay, base_delay * factor**k)`` before retrying.
    jitter:
        Fractional spread added on top of the backoff: the delay is scaled
        by ``1 + jitter * u`` with ``u`` drawn uniformly from ``[0, 1)``.
        Spreads synchronised retry storms without ever shrinking a delay
        below the schedule.
    seed:
        Seed of the jitter stream.  ``None`` keeps jitter deterministic
        too (``u = 0``): determinism is the default, opting *into* spread
        requires a seed.
    retry_on:
        Exception classes eligible for retry; anything else propagates
        immediately.
    should_retry:
        Optional refinement: called with the caught exception, returning
        ``False`` vetoes the retry (e.g. an HTTP 400 inside a family of
        otherwise-retryable transport errors).
    retry_after:
        Optional server-dictated floor: called with the exception; a
        non-``None`` return raises the sleep to at least that many seconds
        (how ``Retry-After`` headers are honoured).
    deadline:
        Overall budget; once expired, the last exception propagates
        instead of sleeping again.
    sleep, on_retry:
        Injection points for tests (fake sleep; per-retry observation as
        ``on_retry(attempt_index, error, delay)``).
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    if base_delay < 0 or max_delay < 0 or factor < 1 or jitter < 0:
        raise ValueError(
            "backoff parameters must satisfy base_delay >= 0, max_delay >= 0, "
            f"factor >= 1, jitter >= 0; got {base_delay}, {max_delay}, "
            f"{factor}, {jitter}"
        )
    rng = random.Random(seed) if seed is not None else None
    last_error: Optional[BaseException] = None
    for attempt in range(attempts):
        try:
            return fn()
        except retry_on as error:  # noqa: PERF203 - retry loop by design
            last_error = error
            if attempt == attempts - 1:
                raise
            if should_retry is not None and not should_retry(error):
                raise
            if deadline is not None and deadline.expired:
                raise
            delay = min(max_delay, base_delay * factor**attempt)
            if rng is not None and jitter:
                delay *= 1.0 + jitter * rng.random()
            if retry_after is not None:
                floor = retry_after(error)
                if floor is not None:
                    delay = max(delay, float(floor))
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining is not None and delay >= remaining:
                    raise
            if on_retry is not None:
                on_retry(attempt, error, delay)
            if delay > 0:
                sleep(delay)
    raise last_error  # pragma: no cover - loop always returns or raises
