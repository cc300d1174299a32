"""Time units and frequency helpers for the discrete-event simulator.

All simulated time is kept as an integer number of **picoseconds**.
Integers keep the event queue exact (no floating-point drift between
clock domains whose periods are not commensurable in nanoseconds, e.g.
133 MHz and 24 MHz).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import SimulationError

#: Picoseconds per common unit.
PS_PER_NS = 1_000
PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000
PS_PER_S = 1_000_000_000_000


def ns(value: float) -> int:
    """Convert nanoseconds to integer picoseconds."""
    return round(value * PS_PER_NS)


def us(value: float) -> int:
    """Convert microseconds to integer picoseconds."""
    return round(value * PS_PER_US)


def ms(value: float) -> int:
    """Convert milliseconds to integer picoseconds."""
    return round(value * PS_PER_MS)


def to_ns(ps: int) -> float:
    """Convert picoseconds to nanoseconds."""
    return ps / PS_PER_NS


def to_us(ps: int) -> float:
    """Convert picoseconds to microseconds."""
    return ps / PS_PER_US


def to_ms(ps: int) -> float:
    """Convert picoseconds to milliseconds."""
    return ps / PS_PER_MS


@dataclass(frozen=True)
class Frequency:
    """A clock frequency with an exact integer period in picoseconds.

    The period is rounded to the nearest picosecond; for every frequency
    used by the paper's platform (133 MHz, 40 MHz, 24 MHz, 6 MHz) the
    rounding error is below 8 ppm, far under the fidelity of the model.
    """

    hz: float

    def __post_init__(self) -> None:
        if self.hz <= 0:
            raise SimulationError(f"frequency must be positive, got {self.hz}")

    @cached_property
    def period_ps(self) -> int:
        """Clock period in picoseconds (at least 1).

        Computed on first use and kept: ``hz`` is frozen, and the CPU
        clock's period is read on every modelled charge.
        """
        return max(1, round(PS_PER_S / self.hz))

    @property
    def mhz(self) -> float:
        """Frequency expressed in megahertz."""
        return self.hz / 1e6

    def cycles_to_ps(self, cycles: int) -> int:
        """Duration of *cycles* clock cycles, in picoseconds."""
        return cycles * self.period_ps

    def ps_to_cycles(self, ps: int) -> int:
        """Number of whole cycles elapsed in *ps* picoseconds."""
        return ps // self.period_ps

    def __str__(self) -> str:
        return f"{self.mhz:g}MHz"


def mhz(value: float) -> Frequency:
    """Build a :class:`Frequency` from a value in megahertz."""
    return Frequency(value * 1e6)
