"""Deterministic fault injection keyed by named fault points.

The keystone of the resilience layer's testability: every recovery path --
hung solver, killed worker, executor exception, mid-drain shutdown -- must
be a reproducible CI-enforced test, not a hope.  Code under test declares
**fault points** (:func:`fault_point` calls compiled into the hot paths)
and tests *arm* them with an action:

``raise``
    Raise :class:`~repro.core.exceptions.FaultInjectedError` (an executor
    / engine failure).
``hang``
    Sleep ``delay`` seconds (a wedged solver or stuck backend; bounded, so
    tests never genuinely hang).
``kill``
    ``os._exit(17)`` -- a hard process death, for :class:`ProcessPool`
    workers (never arm it in the test process itself).

Determinism controls: ``after`` skips the first N hits, ``times`` caps the
number of fires, and ``token`` points at a file consumed atomically (one
``os.unlink`` succeeds across any number of racing processes) so e.g.
"exactly one worker dies, ever" holds even across pool respawns.

Two arming channels cover both process topologies:

* **programmatic** -- ``FAULTS.arm(...)`` / ``with FAULTS.armed(...)``:
  reaches everything in-process, including forked pool workers (they
  inherit the armed table);
* **environment** -- ``REPRO_FAULTS="point:action:key=value:...;..."``
  parsed at import: reaches spawned workers and separately exec'd servers
  (the CI chaos job arms ``repro serve`` this way).

When nothing is armed, a fault point is one attribute read on a module
singleton -- below measurement noise on every hot path (measured by
the ``faults`` case of ``benchmarks/suite.py``).
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from ..core.exceptions import FaultInjectedError

__all__ = ["FaultInjector", "FAULTS", "fault_point"]

_ACTIONS = ("raise", "hang", "kill")

#: Exit status of a ``kill`` action -- distinguishable from a Python
#: traceback death (1) and a clean exit (0) in test assertions.
KILL_EXIT_CODE = 17


@dataclass
class _Fault:
    """One armed fault: the action plus its determinism controls."""

    point: str
    action: str
    times: Optional[int] = 1
    after: int = 0
    delay: float = 0.1
    token: Optional[str] = None
    message: Optional[str] = None
    hits: int = 0
    fires: int = 0


class FaultInjector:
    """Registry of armed faults, fired from named fault points.

    ``enabled`` mirrors "any fault armed" so the disabled fast path is a
    single attribute read (see :func:`fault_point`).  All bookkeeping is
    lock-protected; the *action* itself (sleep, raise, exit) runs outside
    the lock so a hang never blocks other points.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._faults: dict[str, _Fault] = {}
        self.enabled = False

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(
        self,
        point: str,
        action: str = "raise",
        *,
        times: Optional[int] = 1,
        after: int = 0,
        delay: float = 0.1,
        token: Optional[str] = None,
        message: Optional[str] = None,
    ) -> None:
        """Arm ``point`` with ``action`` (see the module docstring).

        ``times=None`` fires on every hit; ``after=N`` skips the first N
        hits; ``token`` gates each fire on atomically consuming the file.
        """
        if action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {action!r}; valid actions: "
                f"{', '.join(_ACTIONS)}"
            )
        if times is not None and times < 1:
            raise ValueError(f"times must be >= 1 or None, got {times}")
        if after < 0 or delay < 0:
            raise ValueError(
                f"after and delay must be >= 0, got {after} and {delay}"
            )
        with self._lock:
            self._faults[point] = _Fault(
                point=point,
                action=action,
                times=times,
                after=after,
                delay=delay,
                token=token,
                message=message,
            )
            self.enabled = True

    def disarm(self, point: Optional[str] = None) -> None:
        """Disarm one point (or all of them); counters are dropped too."""
        with self._lock:
            if point is None:
                self._faults.clear()
            else:
                self._faults.pop(point, None)
            self.enabled = bool(self._faults)

    @contextmanager
    def armed(self, point: str, action: str = "raise", **options: object) -> Iterator[None]:
        """Scope-bound arming for tests: disarms ``point`` on exit."""
        self.arm(point, action, **options)  # type: ignore[arg-type]
        try:
            yield
        finally:
            self.disarm(point)

    def configure(self, spec: str) -> None:
        """Arm faults from a ``REPRO_FAULTS``-style specification string.

        Grammar: entries separated by ``;``, each entry
        ``point:action[:key=value]*`` with keys ``times`` (int or
        ``inf``), ``after`` (int), ``delay`` (float), ``token`` (path),
        ``message`` (str).  Example::

            REPRO_FAULTS="oracle.solve:hang:delay=0.4:times=2;parallel.chunk:kill:token=/tmp/kill-token"
        """
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            fields = entry.split(":")
            if len(fields) < 2:
                raise ValueError(
                    f"malformed REPRO_FAULTS entry {entry!r}: expected "
                    f"'point:action[:key=value]*'"
                )
            point, action = fields[0], fields[1]
            options: dict[str, object] = {}
            for field in fields[2:]:
                key, sep, value = field.partition("=")
                if not sep:
                    raise ValueError(
                        f"malformed option {field!r} in REPRO_FAULTS entry "
                        f"{entry!r}: expected 'key=value'"
                    )
                if key == "times":
                    options[key] = None if value == "inf" else int(value)
                elif key == "after":
                    options[key] = int(value)
                elif key == "delay":
                    options[key] = float(value)
                elif key in ("token", "message"):
                    options[key] = value
                else:
                    raise ValueError(
                        f"unknown option {key!r} in REPRO_FAULTS entry {entry!r}"
                    )
            self.arm(point, action, **options)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def fire(self, point: str) -> None:
        """Evaluate ``point``'s armed fault, if any (called by the hook)."""
        with self._lock:
            fault = self._faults.get(point)
            if fault is None:
                return
            fault.hits += 1
            if fault.hits <= fault.after:
                return
            if fault.times is not None and fault.fires >= fault.times:
                return
            if fault.token is not None:
                try:
                    os.unlink(fault.token)
                except FileNotFoundError:
                    return  # token already consumed (by any process)
            fault.fires += 1
            action, delay = fault.action, fault.delay
            message = fault.message or f"injected fault at {point!r}"
        # Act outside the lock: a hang must not serialise other points.
        if action == "hang":
            time.sleep(delay)
        elif action == "kill":
            os._exit(KILL_EXIT_CODE)
        else:
            raise FaultInjectedError(message)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Armed points with hit/fire counters (surfaced in ``/stats``)."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "points": {
                    name: {
                        "action": fault.action,
                        "hits": fault.hits,
                        "fires": fault.fires,
                        "times": fault.times,
                        "after": fault.after,
                    }
                    for name, fault in self._faults.items()
                },
            }


#: Process-wide injector.  Forked workers inherit its armed table; spawned
#: workers re-import this module and re-arm from ``REPRO_FAULTS``.
FAULTS = FaultInjector()

_env_spec = os.environ.get("REPRO_FAULTS")
if _env_spec:
    FAULTS.configure(_env_spec)


def fault_point(name: str) -> None:
    """Declare a named fault point (a no-op unless something is armed).

    This is the hook compiled into the hot paths: the disabled cost is one
    global load plus one attribute read.
    """
    if FAULTS.enabled:
        FAULTS.fire(name)
