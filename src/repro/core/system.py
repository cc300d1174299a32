"""System assembly: one object wiring engine, hardware and OS together.

A :class:`System` is a freshly powered-on board: simulation engine,
memories, bus, interrupt controller, fabric and kernel.  The runners in
:mod:`repro.core.runner` then build per-execution structures (IMU or
direct interface, coprocessor core, clock domains, VIM) on top of it.

Systems are cheap to build; experiments create a fresh one per run so
that no state leaks between measurements.
"""

from __future__ import annotations

from repro.coproc.bitstream import Bitstream
from repro.hw.bus import AhbBus
from repro.hw.dma import DmaEngine
from repro.hw.dpram import DualPortRam
from repro.hw.fpga import PldFabric
from repro.hw.interrupts import InterruptController
from repro.hw.memory import Flash, Sdram
from repro.os.costs import CpuCostModel
from repro.os.kernel import Kernel
from repro.core.soc import EPXA1, SocConfig
from repro.sim.clock import ClockDomain
from repro.sim.engine import Engine


class System:
    """A powered-on reconfigurable SoC running the mini-OS."""

    def __init__(
        self,
        soc: SocConfig = EPXA1,
        costs: CpuCostModel | None = None,
    ) -> None:
        self.soc = soc
        self.engine = Engine()
        self.interrupts = InterruptController()
        self.dpram = DualPortRam(soc.dpram_bytes, soc.page_bytes)
        self.bus = AhbBus(soc.ahb_timing)
        self.dma = DmaEngine(
            self.engine, self.bus, self.interrupts, soc.ahb_frequency
        )
        self.fabric = PldFabric(soc.pld_resources)
        self.sdram = Sdram(soc.sdram_bytes)
        self.flash = Flash(soc.flash_bytes)
        self.costs = costs or CpuCostModel()
        self.kernel = Kernel(
            self.engine, soc.cpu_frequency, self.costs, self.interrupts
        )

    def build_clock_domains(
        self,
        bitstream: Bitstream,
        iface_tick,
        core_tick,
    ) -> list[ClockDomain]:
        """Clock the interface and the core per the bit-stream's split.

        Single-domain designs (adpcm) attach the interface *before* the
        core on one clock, so a request issued on edge *n* is seen by
        the interface on edge *n+1* and the core samples results after
        the interface has driven them.  Dual-domain designs (IDEA: core
        6 MHz, IMU/memory 24 MHz) get one domain each.  Their start
        order does not order coincident edges: every edge is scheduled
        one period ahead (by ``start`` or by the domain's previous
        edge) and ties run in scheduling order, so at an instant both
        domains share, the core's edge, scheduled a whole core period
        earlier, runs first.
        """
        if bitstream.single_domain:
            domain = ClockDomain(self.engine, "fabric", bitstream.core_frequency)
            domain.attach(iface_tick)
            domain.attach(core_tick)
            return [domain]
        iface_domain = ClockDomain(
            self.engine, "interface", bitstream.iface_frequency
        )
        iface_domain.attach(iface_tick)
        core_domain = ClockDomain(self.engine, "core", bitstream.core_frequency)
        core_domain.attach(core_tick)
        return [iface_domain, core_domain]

    @staticmethod
    def start_clocks(domains: list[ClockDomain]) -> None:
        """Start every stopped domain."""
        for domain in domains:
            if not domain.running:
                domain.start()

    @staticmethod
    def stop_clocks(domains: list[ClockDomain]) -> None:
        """Pause all domains (the fabric idles while the OS works)."""
        for domain in domains:
            domain.stop()

    def fabric_ticks_limit(self, workload_bytes: int) -> int:
        """A generous livelock guard for one execution.

        A streaming kernel touches each byte a bounded number of times;
        if the interface clock ticks vastly more than that, something
        is stuck and the runner aborts with a diagnostic instead of
        spinning forever.
        """
        return 2_000_000 + workload_bytes * 400
