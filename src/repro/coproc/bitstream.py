"""Configuration bit-stream descriptors.

``FPGA_LOAD`` takes "a pointer to the configuration bit-stream"
(§3.1).  In the model a bit-stream bundles everything the synthesis
flow would have baked into the real file: a factory for the core FSM,
the clock frequencies of the core and of its memory/IMU subsystem, and
the PLD resources the design consumes.

The frequency split matters: the paper's IDEA core runs at 6 MHz while
"the IMU and IDEA's memory subsystem are running at 24 MHz and the
synchronisation with the IDEA core is provided by a stall mechanism";
the adpcm core and its IMU share a single 40 MHz clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.coproc.base import Coprocessor
from repro.errors import FpgaError
from repro.hw.fpga import PldResources
from repro.sim.time import Frequency


@dataclass(frozen=True)
class Bitstream:
    """A loadable coprocessor design.

    Parameters
    ----------
    name:
        Identifier (used in logs and errors).
    core_factory:
        Zero-argument callable building a fresh core FSM.
    core_frequency:
        Clock of the coprocessor core.
    interface_frequency:
        Clock of the IMU / memory subsystem (defaults to the core
        clock when the design is single-domain, like adpcm).
    resources:
        PLD resource demand checked by ``FPGA_LOAD``.
    length_bytes:
        Size of the configuration file; drives configuration time.
    """

    name: str
    core_factory: Callable[[], Coprocessor]
    core_frequency: Frequency
    resources: PldResources
    interface_frequency: Frequency | None = None
    length_bytes: int = 128 * 1024

    def __post_init__(self) -> None:
        if self.length_bytes <= 0:
            raise FpgaError(f"bitstream {self.name!r}: empty configuration file")
        iface = self.interface_frequency or self.core_frequency
        if iface.hz < self.core_frequency.hz:
            raise FpgaError(
                f"bitstream {self.name!r}: interface clock {iface} slower than "
                f"core clock {self.core_frequency} is not supported"
            )

    @property
    def iface_frequency(self) -> Frequency:
        """Interface clock (core clock when not explicitly split)."""
        return self.interface_frequency or self.core_frequency

    @property
    def single_domain(self) -> bool:
        """True when core and interface share one clock."""
        return self.iface_frequency.period_ps == self.core_frequency.period_ps

    def build_core(self) -> Coprocessor:
        """Instantiate a fresh core FSM."""
        return self.core_factory()
