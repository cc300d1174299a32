"""The mini-OS kernel.

Holds the pieces every service needs: the CPU clock (to convert
modelled cycles into simulated time), the scheduler, user memory, the
interrupt controller, and the *active measurement* that modelled CPU
time is charged against.

The kernel is deliberately small — the paper's point is that interface
virtualisation needs only "some cooperation from the operating system",
and this class is exactly that cooperation surface.
"""

from __future__ import annotations

from repro.accounting import Measurement
from repro.errors import OsError
from repro.hw.interrupts import InterruptController
from repro.os.costs import Bucket, CpuCostModel
from repro.os.process import Process
from repro.os.scheduler import Scheduler
from repro.os.vmm import UserMemory
from repro.sim.engine import Engine
from repro.sim.time import Frequency


class Kernel:
    """CPU-time accounting, processes, interrupts, user memory."""

    def __init__(
        self,
        engine: Engine,
        cpu_frequency: Frequency,
        costs: CpuCostModel,
        interrupts: InterruptController,
    ) -> None:
        self.engine = engine
        self.cpu_frequency = cpu_frequency
        self.costs = costs
        self.interrupts = interrupts
        self.scheduler = Scheduler()
        self.user_memory = UserMemory()
        self._next_pid = 1
        self._measurement: Measurement | None = None

    # -- processes -------------------------------------------------------

    def spawn(self, name: str, priority: int = 1) -> Process:
        """Create a process and place it on the run queue."""
        process = Process(self._next_pid, name, priority=priority)
        self._next_pid += 1
        self.scheduler.enqueue(process)
        return process

    # -- time accounting ---------------------------------------------------

    def attach_measurement(self, measurement: Measurement) -> None:
        """Direct subsequent CPU charges into *measurement*."""
        self._measurement = measurement

    def detach_measurement(self) -> None:
        """Stop accounting CPU charges."""
        self._measurement = None

    @property
    def measurement(self) -> Measurement:
        """The active measurement (raises if none attached)."""
        if self._measurement is None:
            raise OsError("no measurement attached to the kernel")
        return self._measurement

    def spend(self, cycles: int, bucket: Bucket) -> int:
        """Model *cycles* of CPU work: advance time, charge *bucket*.

        Returns the elapsed picoseconds.  This is the single choke point
        through which all modelled software time flows.
        """
        if cycles < 0:
            raise OsError(f"negative cycle count {cycles}")
        ps = cycles * self.cpu_frequency.period_ps
        self.engine.advance(ps)
        if self._measurement is not None:
            self._measurement.charge(bucket, ps)
        return ps

    def wait_ps(self, ps: int, bucket: Bucket) -> None:
        """Model the CPU blocked on hardware: time passes, *bucket* pays.

        Used for stalls that execute no modelled instructions: waiting
        out a DMA drain, or AHB arbitration behind a burst-mode master.
        The elapsed time still lands in the measurement decomposition.
        """
        if ps < 0:
            raise OsError(f"negative wait {ps} ps")
        self.engine.advance(ps)
        if self._measurement is not None:
            self._measurement.charge(bucket, ps)

    # -- interrupt dispatch ------------------------------------------------

    def service_interrupts(self) -> int:
        """Dispatch pending unmasked interrupts, charging entry/exit.

        Returns the number of handler invocations.
        """
        count = 0
        while self.interrupts.pending_unmasked():
            self.spend(self.costs.irq_entry_cycles, Bucket.SW_OTHER)
            count += self.interrupts.dispatch()
            self.spend(self.costs.irq_exit_cycles, Bucket.SW_OTHER)
            if self._measurement is not None:
                self._measurement.counters.interrupts += 1
        return count
