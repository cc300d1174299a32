"""Coprocessor sessions: load once, execute many times.

§3.3: after end-of-operation handling "the coprocessor should be ready
and waiting for new execution, if another FPGA_EXECUTE call appears."
A :class:`CoprocessorSession` keeps the bit-stream configured, the IMU
wired and the objects mapped across any number of ``execute`` calls —
the natural shape of a streaming application (decode chunk, consume,
decode next chunk) that :func:`repro.core.runner.run_vim` hides behind
its one-shot interface.

Every session executes through a :class:`VirtualInterface`, the one
IMU and the VIM that services its ``INT_PLD`` interrupt (Figure 4): a
solo session through its own, a tenant of
:func:`repro.core.tenancy.run_tenants` through the one all tenants
share.

Example::

    with CoprocessorSession(System(), adpcm_bitstream) as session:
        out = session.map_output(1, "pcm", 4 * CHUNK)
        src = session.map_input(0, "adpcm", stream[:CHUNK])
        for chunk_start in range(0, len(stream), CHUNK):
            src.fill_from(stream[chunk_start : chunk_start + CHUNK])
            result = session.execute([CHUNK])
            consume(result.outputs[1])
"""

from __future__ import annotations

from repro.accounting import Measurement
from repro.coproc.bitstream import Bitstream
from repro.errors import FpgaError, SyscallError, VimError
from repro.hw.dma import INT_DMA_LINE
from repro.imu.imu import INT_PLD_LINE, Imu
from repro.core.runner import RunResult, WorkloadSpec
from repro.core.system import System
from repro.coproc.ports import tag_obj
from repro.os.syscalls import FpgaServices
from repro.os.vim.manager import TransferMode, Vim
from repro.os.vim.objects import Direction, Hint, MappedObject
from repro.os.vim.prefetch import Prefetcher
from repro.os.vmm import UserBuffer


class VirtualInterface:
    """The IMU and the VIM kernel module that services it (§3.1–3.3).

    The virtualised counterpart of the typical version's
    :class:`~repro.imu.direct.DirectInterface`: the IMU translates the
    coprocessor's virtual accesses and the VIM, installed as the
    ``INT_PLD`` and ``INT_DMA`` handler, services its faults.

    A solo session runs through its own interface.  With ``shared``
    set, every tenant of a multi-tenant run goes through this one, so
    the DP-RAM frame pool and the CAM TLB are genuinely shared
    (translations are ASID-tagged per tenant) and one *recorder*
    captures the interleaved address stream of all tenants.
    """

    def __init__(
        self,
        system: System,
        policy: str = "fifo",
        transfer_mode: TransferMode = TransferMode.DOUBLE,
        pipelined_imu: bool = False,
        access_cycles: int = 4,
        prefetcher: Prefetcher | None = None,
        tlb_capacity: int | None = None,
        eager_mapping: bool = True,
        recorder=None,
        shared: bool = False,
    ) -> None:
        self.system = system
        self.shared = shared
        self.imu = Imu(
            system.dpram,
            system.interrupts,
            access_cycles=access_cycles,
            pipelined=pipelined_imu,
            tlb_capacity=tlb_capacity,
        )
        # The per-access trace sink (repro record).
        self.imu.trace_sink = recorder
        self.vim = Vim(
            system.kernel,
            system.dpram,
            system.bus,
            self.imu,
            policy=policy,
            transfer_mode=transfer_mode,
            prefetcher=prefetcher,
            eager_mapping=eager_mapping,
            shared=shared,
            dma=system.dma,
        )
        self._open = False

    def open(self) -> None:
        """Install the VIM as the INT_PLD and INT_DMA handler."""
        interrupts = self.system.interrupts
        interrupts.register(INT_PLD_LINE, self.vim.handle_interrupt)
        interrupts.register(INT_DMA_LINE, self.vim.handle_dma_complete)
        self._open = True

    def close(self) -> None:
        """Unregister the handlers; a no-op unless :meth:`open` ran.

        An execution aborted mid-service (or a final flush still
        draining) may leave a line asserted; clear both — and disarm
        the DMA completion interrupt — so nothing fires into the next
        interface's handlers.
        """
        if not self._open:
            return
        self._open = False
        interrupts = self.system.interrupts
        interrupts.unregister(INT_PLD_LINE)
        interrupts.unregister(INT_DMA_LINE)
        interrupts.clear(INT_PLD_LINE)
        interrupts.clear(INT_DMA_LINE)
        self.system.dma.quiesce()


class CoprocessorSession:
    """A configured coprocessor, ready for repeated FPGA_EXECUTE calls.

    Without an *interface* the session builds a default
    :class:`VirtualInterface` of its own; pass one to choose the VIM's
    policy, transfer mode, prefetcher or TLB capacity.  A solo session
    loads its bit-stream at construction, before it installs the
    interface's handlers, and closes the interface with itself.

    Given a shared interface the session becomes one *tenant* of a
    multi-tenant system: it tags its objects with the process's
    address-space id and acquires the PLD fabric lazily at each
    ``execute`` (the fabric is time-shared between tenants, not owned
    for the session's lifetime).  The interface stays up for the other
    tenants; whoever built it closes it.
    """

    def __init__(
        self,
        system: System,
        bitstream: Bitstream,
        interface: VirtualInterface | None = None,
        process_name: str = "session",
        priority: int = 1,
    ) -> None:
        if interface is None:
            interface = VirtualInterface(system)
        self.system = system
        self.bitstream = bitstream
        self.interface = interface
        self.imu = interface.imu
        self.vim = interface.vim
        self.reconfigurations = 0
        kernel = system.kernel
        self.core = bitstream.build_core()
        self.core.bind(self.imu)
        self.process = kernel.spawn(process_name, priority=priority)
        self.services = FpgaServices(kernel, system.fabric, self.vim)
        if not interface.shared:
            kernel.scheduler.pick_next()
            # Acquire the fabric first: if another process owns it, fail
            # before claiming the interrupt lines or any clock resources.
            # A refused process ends here, so the scheduler never
            # dispatches it again.
            try:
                self.services.fpga_load(self.process, bitstream)
            except FpgaError:
                self.process.terminate()
                raise
            interface.open()
        # A tenant loads nothing here: the fabric is contended, so it is
        # (re)acquired at execute time and the scheduler decides who
        # runs; the process stays READY in the run queue.
        self.domains = system.build_clock_domains(bitstream, self.imu, self.core)
        self.executions = 0
        self._closed = False

    @property
    def asid(self) -> int:
        """Address-space id tagging this session's objects (0 solo)."""
        return self.process.pid if self.interface.shared else 0

    # -- object mapping --------------------------------------------------

    def map_object(
        self,
        obj_id: int,
        name: str,
        size: int,
        direction: Direction,
        data: bytes | None = None,
        hints: Hint = Hint.NONE,
    ) -> UserBuffer:
        """Allocate a user buffer and declare it to the VIM.

        Returns the buffer so streaming callers can refill it between
        ``execute`` calls.
        """
        self._require_open()
        if not 0 <= obj_id <= 0xFE:
            # The CP_OBJ wire is 8 bits with 0xFF reserved for the
            # parameter page; ids outside it could never be addressed
            # by the core and, once ASID-tagged, would alias another
            # object's tag.
            raise SyscallError(
                f"object id {obj_id} out of range [0, 254]"
            )
        buffer = self.system.kernel.user_memory.alloc(
            name, size, self.process.pid
        )
        if data is not None:
            buffer.fill_from(data)
        # A tenant's object ids are tagged with its ASID so every tenant
        # keeps the 8-bit CP_OBJ namespace to itself, and mapping must
        # not require fabric ownership (the time-shared fabric belongs
        # to whoever executed last).
        self.services.fpga_map_object(
            self.process,
            tag_obj(self.asid, obj_id),
            buffer,
            size,
            direction,
            hints,
            require_fabric=not self.interface.shared,
        )
        return buffer

    def map_input(
        self, obj_id: int, name: str, data: bytes, hints: Hint = Hint.NONE
    ) -> UserBuffer:
        """Map an IN object initialised with *data*."""
        return self.map_object(
            obj_id, name, len(data), Direction.IN, data=data, hints=hints
        )

    def map_output(
        self, obj_id: int, name: str, size: int, hints: Hint = Hint.NONE
    ) -> UserBuffer:
        """Map an OUT object of *size* bytes."""
        return self.map_object(obj_id, name, size, Direction.OUT, hints=hints)

    # -- execution --------------------------------------------------------

    def _own_objects(self) -> dict[int, MappedObject]:
        """This session's mapped objects, keyed by their CP_OBJ value."""
        return {
            mapped.local_id: mapped
            for mapped in self.vim.tenant_objects(self.asid)
        }

    def _acquire_fabric(self) -> None:
        """Take the time-shared fabric over, reconfiguring if needed.

        In multi-tenant mode the PLD belongs to whoever executed last;
        a tenant whose turn comes up reclaims it through FPGA_LOAD
        (paying reconfiguration time on the simulated clock) unless it
        already owns it from its previous turn.
        """
        fabric = self.system.fabric
        if fabric.owner_pid == self.process.pid:
            return
        if fabric.owner_pid is not None:
            fabric.release(fabric.owner_pid)
        self.services.fpga_load(self.process, self.bitstream)
        self.reconfigurations += 1

    def execute(
        self,
        params: list[int],
        label: str | None = None,
        measurement: Measurement | None = None,
    ) -> RunResult:
        """One FPGA_EXECUTE: start, service faults, flush, wake.

        Returns a :class:`RunResult` whose outputs are snapshots of the
        OUT objects after the end-of-operation flush.  Passing
        *measurement* accumulates this execution's charges into it (the
        multi-tenant executor keeps one per tenant) instead of starting
        a fresh one.
        """
        self._require_open()
        system = self.system
        kernel = system.kernel
        self.executions += 1
        name = label or f"exec-{self.executions}"
        measurement = measurement if measurement is not None else Measurement(name=name)
        kernel.attach_measurement(measurement)
        self.core.reset()
        try:
            if self.interface.shared:
                self._acquire_fabric()
            # Synchroniser cost follows the active design: a
            # single-domain design pays nothing, a dual-domain one the
            # CDC handshake.  Set per execution, solo or tenant alike,
            # because a shared IMU serves each tenant's design in turn.
            self.imu.sync_cycles = (
                0 if self.bitstream.single_domain else Imu.CDC_SYNC_CYCLES
            )
            tlb_stats = self.imu.tlb.stats
            lookups_before = tlb_stats.lookups
            hits_before = tlb_stats.hits
            self.services.fpga_execute(self.process, list(params))
            own = self._own_objects()
            total_bytes = sum(obj.size for obj in own.values())
            # The livelock guard budgets fabric time only: fault service
            # between windows is OS time and must not use it up.
            budget_ps = (
                system.fabric_ticks_limit(total_bytes)
                * self.bitstream.iface_frequency.period_ps
            )
            interrupts = system.interrupts
            while not self.vim.execution_done:
                System.start_clocks(self.domains)
                hw_start = system.engine.now
                arrived = system.engine.run_until(
                    lambda: interrupts.active,
                    max_time_ps=hw_start + budget_ps,
                )
                hw_ps = system.engine.now - hw_start
                budget_ps -= hw_ps
                measurement.add_hw(hw_ps)
                System.stop_clocks(self.domains)
                if not arrived:
                    raise VimError(f"{name}: clocks drained without an interrupt")
                kernel.service_interrupts()
            if not self.interface.shared:
                # Solo sessions re-dispatch the woken process here; in
                # multi-tenant mode the executor owns dispatch so the
                # round-robin order is decided in one place.
                kernel.scheduler.pick_next()
            measurement.counters.tlb_lookups += tlb_stats.lookups - lookups_before
            measurement.counters.tlb_hits += tlb_stats.hits - hits_before
            outputs = {
                obj_id: mapped.buffer.snapshot()[: mapped.size]
                for obj_id, mapped in own.items()
                if mapped.direction & Direction.OUT
            }
        finally:
            kernel.detach_measurement()
            System.stop_clocks(self.domains)
        workload = WorkloadSpec(
            name=name,
            bitstream=self.bitstream,
            objects=(),
            params=tuple(params),
            sw_cycles=0,
            reference=dict,
        )
        return RunResult(workload, "vim-session", measurement, outputs)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release the fabric, the interface and all user memory.

        A tenant instead releases only its own slice of the shared
        interface: its DP-RAM residents, TLB entries and mapped objects;
        the interface stays up for the other tenants.
        """
        if self._closed:
            return
        self._closed = True
        System.stop_clocks(self.domains)
        pid = self.process.pid
        fabric = self.system.fabric
        if self.interface.shared:
            self.vim.release_tenant(self.asid)
            if fabric.owner_pid == pid:
                fabric.release(pid)
        else:
            self.interface.close()
            fabric.release(pid)
        self.process.terminate()
        self.system.kernel.user_memory.free_process(pid)

    def _require_open(self) -> None:
        if self._closed:
            raise VimError("session is closed")

    def __enter__(self) -> "CoprocessorSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
