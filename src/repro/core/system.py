"""System assembly: one object wiring engine, hardware and OS together.

A :class:`System` is a freshly powered-on board: simulation engine,
memories, bus, interrupt controller, fabric and kernel.  The runners in
:mod:`repro.core.runner` then build per-execution structures (IMU or
direct interface, coprocessor core, clock domains, VIM) on top of it.

Systems are cheap to build; experiments create a fresh one per run so
that no state leaks between measurements.
"""

from __future__ import annotations

from typing import Callable

from repro.coproc.bitstream import Bitstream
from repro.hw.bus import AhbBus
from repro.hw.dma import DmaEngine
from repro.hw.dpram import DualPortRam
from repro.hw.fpga import PldFabric
from repro.hw.interrupts import InterruptController
from repro.os.costs import CpuCostModel
from repro.os.kernel import Kernel
from repro.core.soc import EPXA1, SocConfig
from repro.sim.clock import ClockDomain, Clocked
from repro.sim.engine import Engine


class System:
    """A powered-on reconfigurable SoC running the mini-OS."""

    def __init__(self, soc: SocConfig = EPXA1) -> None:
        self.soc = soc
        self.engine = Engine()
        self.interrupts = InterruptController()
        self.dpram = DualPortRam(soc.dpram_bytes, soc.page_bytes)
        self.bus = AhbBus(soc.ahb_timing)
        self.dma = DmaEngine(
            self.engine, self.bus, self.interrupts, soc.ahb_frequency
        )
        self.fabric = PldFabric(soc.pld_resources)
        self.costs = CpuCostModel()
        self.kernel = Kernel(
            self.engine, soc.cpu_frequency, self.costs, self.interrupts
        )

    def build_clock_domains(
        self,
        bitstream: Bitstream,
        iface: Clocked | Callable[[], object],
        core: Clocked | Callable[[], object],
    ) -> list[ClockDomain]:
        """Clock the interface and the core per the bit-stream's split.

        *iface* and *core* are :class:`~repro.sim.clock.Clocked`
        components (an IMU or direct interface and its core), which run
        only the edges they need, or plain per-edge callables.

        Single-domain designs (adpcm) attach the interface *before* the
        core on one clock, so a request issued on edge *n* is seen by
        the interface on edge *n+1* and the core samples results after
        the interface has driven them.  Dual-domain designs (IDEA: core
        6 MHz, IMU/memory 24 MHz) get one domain each.  Their start
        order does not order coincident edges: every edge ranks as
        scheduled one period ahead (by ``start`` or by the domain's
        previous edge, run or slept through) and ties run in scheduling
        order, so at an instant both domains share, the core's edge,
        scheduled a whole core period earlier, runs first.
        """
        if bitstream.single_domain:
            domain = ClockDomain(self.engine, "fabric", bitstream.core_frequency)
            domain.attach(iface)
            domain.attach(core)
            return [domain]
        iface_domain = ClockDomain(
            self.engine, "interface", bitstream.iface_frequency
        )
        iface_domain.attach(iface)
        core_domain = ClockDomain(self.engine, "core", bitstream.core_frequency)
        core_domain.attach(core)
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
