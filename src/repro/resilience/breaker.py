"""Counter-exposing circuit breaker.

Protects a dependency that fails *persistently* (a wedged solver, a dead
backend) from being hammered by every request: after ``failure_threshold``
consecutive failures the breaker **opens** and callers are told to use
their degraded path immediately, without paying the failure latency again.
After ``reset_timeout`` seconds the breaker lets probes through
(**half-open**); a success closes it, a failure re-opens it.

The breaker never decides *what* the degraded path is -- the oracle layer
pairs it with the verified bound-sandwich fallback
(:func:`repro.ilp.makespan.degraded_makespan_result`) -- it only decides
*when* to stop trying the real one.  All transitions and rejections are
counted and exposed through :meth:`stats` so the service's ``/stats``
document shows exactly what the breaker did.
"""

from __future__ import annotations

import threading
import time
from numbers import Integral
from typing import Callable, TypeVar

from ..core.exceptions import CircuitOpenError, ValidationError, short_repr
from ..core.task import check_number

__all__ = ["CircuitBreaker"]

_ResultT = TypeVar("_ResultT")


class CircuitBreaker:
    """Thread-safe closed / open / half-open circuit breaker.

    Parameters
    ----------
    failure_threshold:
        Consecutive :meth:`record_failure` calls that trip the breaker: an
        integer >= 1, never a ``bool``.
    reset_timeout:
        Seconds the breaker stays open before probes are allowed through: a
        finite number >= 0 (a NaN timeout would never let a probe through).
    clock:
        Monotonic time source (injectable for tests).
    name:
        Label carried in error messages and :meth:`stats`.

    Usage is explicit -- ``if breaker.allow(): ... record_success() /
    record_failure()`` -- so the protected call site controls what counts
    as a failure (a degraded batch counts; a client-side validation error
    must not).  :meth:`call` wraps the common case.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        name: str = "breaker",
    ) -> None:
        if (
            isinstance(failure_threshold, bool)
            or not isinstance(failure_threshold, Integral)
            or failure_threshold < 1
        ):
            raise ValidationError(
                "failure_threshold must be an integer >= 1, "
                f"got {short_repr(failure_threshold)}"
            )
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = check_number("reset_timeout", reset_timeout)
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._opened_at = 0.0
        self._consecutive_failures = 0
        self._successes = 0
        self._failures = 0
        self._trips = 0
        self._rejections = 0

    # ------------------------------------------------------------------
    # Decision / recording
    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May the protected call be attempted right now?

        While open, returns ``False`` (counted as a rejection) until
        ``reset_timeout`` has elapsed, then transitions to half-open and
        lets the caller probe.
        """
        with self._lock:
            if self._state == self.OPEN:
                if self._clock() - self._opened_at >= self.reset_timeout:
                    self._state = self.HALF_OPEN
                    return True
                self._rejections += 1
                return False
            return True

    def record_success(self) -> None:
        """A protected call succeeded: close (from half-open) and heal."""
        with self._lock:
            self._successes += 1
            self._consecutive_failures = 0
            if self._state == self.HALF_OPEN:
                self._state = self.CLOSED

    def record_failure(self) -> None:
        """A protected call failed: trip once the threshold is reached.

        A half-open probe failure re-opens immediately (the dependency is
        still down; one probe is evidence enough).
        """
        with self._lock:
            self._failures += 1
            self._consecutive_failures += 1
            if self._state == self.HALF_OPEN or (
                self._state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._trips += 1

    def call(self, fn: Callable[[], _ResultT]) -> _ResultT:
        """Run ``fn`` under the breaker; raise :class:`CircuitOpenError` when open."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit breaker {self.name!r} is open; call rejected"
            )
        try:
            result = fn()
        except BaseException:
            self.record_failure()
            raise
        self.record_success()
        return result

    def reset(self) -> None:
        """Force the breaker closed (counters are preserved)."""
        with self._lock:
            self._state = self.CLOSED
            self._consecutive_failures = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            if (
                self._state == self.OPEN
                and self._clock() - self._opened_at >= self.reset_timeout
            ):
                return self.HALF_OPEN
            return self._state

    def stats(self) -> dict:
        """Counters + current state for ``stats()`` / ``/stats``."""
        state = self.state
        with self._lock:
            return {
                "name": self.name,
                "state": state,
                "failure_threshold": self.failure_threshold,
                "reset_timeout_s": self.reset_timeout,
                "consecutive_failures": self._consecutive_failures,
                "successes": self._successes,
                "failures": self._failures,
                "trips": self._trips,
                "rejections": self._rejections,
            }
