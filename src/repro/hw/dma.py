"""Modelled DMA transfer engine for CPU-free page movement.

§4.1 blames "the significant overhead in the dual-port RAM management"
on the VIM's two CPU copies per page movement and announces that the
limitation is being removed.  The end point of that road is not one CPU
copy but none: a DMA controller on the AHB that moves a page between
user-space memory and the dual-port RAM by itself, leaving the ARM only
descriptor programming and a completion interrupt to service.

The model keeps the repository's simulation convention: **bytes are
state, cycles are cost**.  A submitted descriptor performs its
functional byte movement immediately (so functional equivalence checks
see exactly the same data flow as the CPU-copy modes), while its *time*
is modelled asynchronously — the transfer occupies the AHB for
``AhbBus.transfer_cycles`` bus cycles, descriptors queue FIFO behind
each other, and the engine raises ``INT_DMA`` when a queue containing
an interrupt-requesting descriptor drains.

While a burst is draining the DMA is the AHB master: the bus is held
(:meth:`AhbBus.hold_until`) and any CPU copy issued in that window pays
an arbitration stall before it is granted — the contention the
OS-side transfer engines charge explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import HardwareError
from repro.hw.bus import AhbBus
from repro.hw.interrupts import InterruptController
from repro.sim.engine import Engine
from repro.sim.time import Frequency

#: Interrupt line of the DMA controller (INT_PLD is line 0).
INT_DMA_LINE = 1


@dataclass
class DmaDescriptor:
    """One queued page movement.

    Parameters
    ----------
    nbytes:
        Transfer length in bytes (positive).
    move:
        The functional byte movement, executed at submit time.
    kind:
        Why the VIM queued it (``load`` / ``writeback`` / ``prefetch``
        / ``flush`` / ``preload``); statistics only.
    irq:
        Request the completion interrupt when the queue this descriptor
        belongs to drains.
    """

    nbytes: int
    move: Callable[[], None]
    kind: str = "load"
    irq: bool = False
    #: Filled in by the engine at submit time (absolute picoseconds).
    start_ps: int = 0
    complete_ps: int = 0
    done: bool = False


class DmaEngine:
    """A FIFO descriptor queue moving pages across the AHB.

    Parameters
    ----------
    engine:
        The discrete-event engine completions are scheduled on.
    bus:
        The AHB the transfers occupy; provides per-transfer cycle costs
        and carries the hold window CPU copies stall on.
    interrupts:
        Controller carrying ``INT_DMA``.
    frequency:
        The AHB clock the bus-cycle costs are converted with.
    """

    def __init__(
        self,
        engine: Engine,
        bus: AhbBus,
        interrupts: InterruptController,
        frequency: Frequency,
    ) -> None:
        self.engine = engine
        self.bus = bus
        self.interrupts = interrupts
        self.frequency = frequency
        self._busy_until = 0
        self._queue: list[DmaDescriptor] = []
        self._irq_armed = False
        # Statistics (per-System lifetime; benches and tests read them).
        self.descriptors_submitted = 0
        self.descriptors_completed = 0
        self.bytes_moved = 0
        self.bursts = 0
        self.completion_irqs = 0

    @property
    def busy(self) -> bool:
        """True while descriptors are draining."""
        return self.engine.now < self._busy_until or bool(self._queue)

    @property
    def in_flight(self) -> int:
        """Descriptors submitted but not yet completed."""
        return len(self._queue)

    def wait_ps(self) -> int:
        """Picoseconds until the current queue drains (0 when idle)."""
        return max(0, self._busy_until - self.engine.now)

    def quiesce(self) -> None:
        """Disarm the completion interrupt (driver teardown).

        In-flight descriptors still drain — their bytes already moved
        and the bus hold stands — but no interrupt will fire into a
        handler that is no longer registered.
        """
        self._irq_armed = False

    def submit(self, descriptor: DmaDescriptor) -> DmaDescriptor:
        """Queue one transfer; returns the descriptor with times filled.

        The byte movement happens now (bytes are state); the bus time
        is scheduled behind every earlier descriptor, the AHB is held
        until the queue drains, and a completion event fires at the
        descriptor's ``complete_ps``.
        """
        if descriptor.nbytes <= 0:
            raise HardwareError(
                f"DMA descriptor of {descriptor.nbytes} bytes"
            )
        descriptor.move()
        if not self.busy:
            self.bursts += 1
        duration_ps = self.frequency.cycles_to_ps(
            self.bus.transfer_cycles(descriptor.nbytes)
        )
        descriptor.start_ps = max(self.engine.now, self._busy_until)
        descriptor.complete_ps = descriptor.start_ps + duration_ps
        self._busy_until = descriptor.complete_ps
        self.bus.hold_until(self._busy_until)
        self.bus.record(descriptor.nbytes)
        self._queue.append(descriptor)
        if descriptor.irq:
            self._irq_armed = True
        self.descriptors_submitted += 1
        self.bytes_moved += descriptor.nbytes
        self.engine.schedule_at(
            descriptor.complete_ps, lambda: self._complete(descriptor)
        )
        return descriptor

    def _complete(self, descriptor: DmaDescriptor) -> None:
        descriptor.done = True
        self._queue.remove(descriptor)
        self.descriptors_completed += 1
        if not self._queue and self._irq_armed:
            # One coalesced queue-drained interrupt per burst, not one
            # per descriptor — matching how real controllers bound the
            # completion-IRQ rate for chained descriptor lists.
            self._irq_armed = False
            self.completion_irqs += 1
            self.interrupts.raise_line(INT_DMA_LINE)
