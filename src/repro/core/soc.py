"""SoC presets.

The paper's prototype is an Altera Excalibur EPXA1 board: 133 MHz ARM
stripe, PLD fabric, a 16 KB dual-port RAM organised as eight 2 KB
pages, 64 MB SDRAM, 4 MB Flash, AMBA AHB.  §4 claims that moving to a
device "with different size of the dual-port memory (e.g., the Altera
devices EPXA4 and EPXA10) would require only recompiling the module" —
so those presets exist too, and ``benchmarks/bench_portability.py``
runs the unchanged applications on all three.

Dual-port RAM sizes follow the Excalibur family (16/64/128 KB).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.hw.bus import AhbTiming
from repro.hw.fpga import (
    EPXA1_RESOURCES,
    EPXA4_RESOURCES,
    EPXA10_RESOURCES,
    PldResources,
)
from repro.sim.time import Frequency, mhz


@dataclass(frozen=True)
class SocConfig:
    """Everything platform-specific, in one place.

    This dataclass *is* the porting surface: the paper's claim is that
    changing these values (and recompiling the VIM) ports an
    application without touching its C or HDL source, which is exactly
    what the portability benchmark demonstrates.
    """

    name: str
    cpu_frequency: Frequency = field(default_factory=lambda: mhz(133.0))
    #: AHB clock the DMA engine drains descriptors at (the Excalibur
    #: stripe AHB1 runs at half the 133 MHz core clock).
    ahb_frequency: Frequency = field(default_factory=lambda: mhz(66.5))
    dpram_bytes: int = 16 * 1024
    page_bytes: int = 2 * 1024
    pld_resources: PldResources = EPXA1_RESOURCES
    ahb_timing: AhbTiming = field(default_factory=AhbTiming)

    def __post_init__(self) -> None:
        if self.dpram_bytes % self.page_bytes:
            raise ReproError(
                f"{self.name}: page size {self.page_bytes} does not divide "
                f"DP-RAM size {self.dpram_bytes}"
            )

    @property
    def num_pages(self) -> int:
        """Number of VIM pages in the dual-port RAM."""
        return self.dpram_bytes // self.page_bytes


#: The paper's prototype platform.
EPXA1 = SocConfig(name="EPXA1")

#: Larger Excalibur parts (§4: "only recompiling the module").
EPXA4 = SocConfig(
    name="EPXA4",
    dpram_bytes=64 * 1024,
    pld_resources=EPXA4_RESOURCES,
)
EPXA10 = SocConfig(
    name="EPXA10",
    dpram_bytes=128 * 1024,
    pld_resources=EPXA10_RESOURCES,
)

#: All presets by name (used by examples and benches).
PRESETS: dict[str, SocConfig] = {soc.name: soc for soc in (EPXA1, EPXA4, EPXA10)}
