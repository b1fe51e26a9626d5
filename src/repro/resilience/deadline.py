"""Deadline / time-budget primitive shared by the resilience layer.

A :class:`Deadline` is an absolute point on the monotonic clock.  Every
layer that bounds work in wall-clock terms -- per-request service deadlines,
per-batch oracle budgets, retry loops -- carries one of these instead of a
raw ``timeout`` float, because a float silently resets every time it is
passed down a call chain while a deadline keeps shrinking: a request that
already waited 40 ms of its 50 ms budget in the queue has 10 ms left for
the engine, not another 50.
"""

from __future__ import annotations

import time
from typing import Optional

from ..core.exceptions import DeadlineExceededError
from ..core.task import check_number

__all__ = ["Deadline"]


class Deadline:
    """An absolute expiry instant on the monotonic clock.

    ``Deadline.after(None)`` is the unbounded deadline: it never expires
    and :meth:`remaining` returns ``None``, so "no timeout" flows through
    the same code path as a finite one.
    """

    __slots__ = ("_expires_at",)

    def __init__(self, expires_at: Optional[float]) -> None:
        self._expires_at = expires_at

    @classmethod
    def after(cls, seconds: Optional[float]) -> "Deadline":
        """Deadline ``seconds`` from now (``None`` -> never expires).

        ``seconds`` must be a finite number >= 0 (:func:`check_number`): a
        NaN deadline would never expire.
        """
        if seconds is None:
            return cls(None)
        return cls(time.monotonic() + check_number("deadline seconds", seconds))

    @property
    def unbounded(self) -> bool:
        """``True`` when the deadline never expires."""
        return self._expires_at is None

    def remaining(self) -> Optional[float]:
        """Seconds left (clamped at 0.0); ``None`` when unbounded."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        """``True`` once the instant has passed."""
        return self._expires_at is not None and time.monotonic() >= self._expires_at

    def cap(self, limit: Optional[float]) -> Optional[float]:
        """The tighter of ``limit`` and the remaining budget.

        The way a per-batch budget flows into per-instance solver limits:
        ``deadline.cap(time_limit)`` never grants an instance more time
        than the whole batch has left.  ``None`` means "no bound" on both
        sides.
        """
        remaining = self.remaining()
        if remaining is None:
            return limit
        if limit is None:
            return remaining
        return min(limit, remaining)

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceededError` when expired."""
        if self.expired:
            raise DeadlineExceededError(f"{what} exceeded its deadline")

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        if self._expires_at is None:
            return "Deadline(unbounded)"
        return f"Deadline(remaining={self.remaining():.3f}s)"
