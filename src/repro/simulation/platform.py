"""Description of the simulated heterogeneous platform.

The system model of the paper considers "a host processor with ``m``
identical cores and a single accelerator device".  :class:`Platform` captures
exactly that, with the accelerator count kept configurable because the
paper's future-work section (and :mod:`repro.extensions.multi_device`)
considers several devices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.exceptions import SimulationError, short_repr

__all__ = [
    "Platform",
    "HOST",
    "ACCELERATOR",
    "INSTANT",
    "MAX_PROCESSORS",
    "processor_count",
]

#: Resource-kind label for host cores in execution traces.
HOST = "host"
#: Resource-kind label for accelerator devices in execution traces.
ACCELERATOR = "accelerator"
#: Resource-kind label for zero-WCET nodes, which occupy no resource.
INSTANT = "instant"

#: Largest host-core or accelerator count a platform accepts: four times
#: the widest host any experiment or benchmark models (1 024 cores).
MAX_PROCESSORS = 4096


def processor_count(name: str, value: object, minimum: int) -> int:
    """``value`` as an ``int``, if it is a count in ``minimum..MAX_PROCESSORS``.

    Only ``int`` and numpy integers are counts, never ``bool``: a
    fractional, boolean or infinite core count means nothing on a platform,
    and each engine would read it differently.  Raises
    :class:`~repro.core.exceptions.SimulationError` naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SimulationError(f"{name} must be an integer, got {short_repr(value)}")
    if not minimum <= value <= MAX_PROCESSORS:
        raise SimulationError(
            f"{name} must be between {minimum} and {MAX_PROCESSORS}, "
            f"got {short_repr(int(value))}"
        )
    return int(value)


@dataclass(frozen=True)
class Platform:
    """A heterogeneous platform with ``host_cores`` cores and accelerators.

    Attributes
    ----------
    host_cores:
        Number ``m`` of identical host cores, ``1..MAX_PROCESSORS``.
    accelerators:
        Number of accelerator devices, ``0..MAX_PROCESSORS``; the paper's
        model uses exactly one.
    """

    host_cores: int
    accelerators: int = 1

    def __post_init__(self) -> None:
        # Stored as plain ints, so numpy integers hash, compare and encode
        # to JSON like the ints they stand for.
        object.__setattr__(
            self, "host_cores", processor_count("host_cores", self.host_cores, 1)
        )
        object.__setattr__(
            self,
            "accelerators",
            processor_count("accelerators", self.accelerators, 0),
        )

    @property
    def total_processors(self) -> int:
        """Host cores plus accelerator devices."""
        return self.host_cores + self.accelerators

    def host_core_names(self) -> list[str]:
        """Stable identifiers of the host cores (``core0``, ``core1``, ...)."""
        return [f"core{i}" for i in range(self.host_cores)]

    def accelerator_names(self) -> list[str]:
        """Stable identifiers of the accelerators (``acc0``, ...)."""
        return [f"acc{i}" for i in range(self.accelerators)]
