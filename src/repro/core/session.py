"""Coprocessor sessions: load once, execute many times.

§3.3: after end-of-operation handling "the coprocessor should be ready
and waiting for new execution, if another FPGA_EXECUTE call appears."
A :class:`CoprocessorSession` keeps the bit-stream configured, the IMU
wired and the objects mapped across any number of ``execute`` calls —
the natural shape of a streaming application (decode chunk, consume,
decode next chunk) that :func:`repro.core.runner.run_vim` hides behind
its one-shot interface.

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

from repro.coproc.bitstream import Bitstream
from repro.errors import SyscallError, VimError
from repro.hw.dma import INT_DMA_LINE
from repro.imu.imu import INT_PLD_LINE, Imu
from repro.core.measurement import Measurement
from repro.core.runner import RunResult, WorkloadSpec
from repro.core.system import System
from repro.coproc.ports import tag_obj
from repro.os.syscalls import FpgaServices
from repro.os.vim.manager import TransferMode, Vim
from repro.os.vim.objects import Direction, Hint, MappedObject
from repro.os.vim.prefetch import Prefetcher
from repro.os.vmm import UserBuffer


class CoprocessorSession:
    """A configured coprocessor, ready for repeated FPGA_EXECUTE calls.

    With ``shared`` set (a :class:`repro.core.tenancy.SharedInterface`)
    the session becomes one *tenant* of a multi-tenant system: it
    reuses the shared IMU and VIM — and therefore the shared DP-RAM
    frame pool and TLB — instead of building its own, tags its objects
    with the process's address-space id, and acquires the PLD fabric
    lazily at each ``execute`` (the fabric is time-shared between
    tenants, not owned for the session's lifetime).  The VIM knobs
    (policy, transfer mode, prefetcher, TLB capacity) then live on the
    shared interface and the per-session arguments are ignored.
    """

    def __init__(
        self,
        system: System,
        bitstream: Bitstream,
        policy: str = "fifo",
        transfer_mode: TransferMode = TransferMode.DOUBLE,
        pipelined_imu: bool = False,
        access_cycles: int = 4,
        prefetcher: Prefetcher | None = None,
        tlb_capacity: int | None = None,
        eager_mapping: bool = True,
        sync_cycles: int | None = None,
        process_name: str = "session",
        shared=None,
        priority: int = 1,
        recorder=None,
    ) -> None:
        self.system = system
        self.bitstream = bitstream
        self.shared = shared
        kernel = system.kernel
        self.reconfigurations = 0
        if shared is not None:
            self.imu = shared.imu
            self.vim = shared.vim
            if recorder is not None:
                # The shared IMU already carries the run-wide sink (the
                # SharedInterface installs it); a per-tenant recorder
                # would shadow the other tenants' accesses.
                raise VimError(
                    "pass the recorder to the SharedInterface, not to a "
                    "tenant session: the shared IMU records all tenants"
                )
            self.core = bitstream.build_core()
            self.core.bind(self.imu)
            self.process = kernel.spawn(process_name, priority=priority)
            self.services = FpgaServices(kernel, system.fabric, self.vim)
            self._setup_measurement = Measurement(name=f"{process_name}/setup")
            # No FPGA_LOAD here: the fabric is contended, so it is
            # (re)acquired at execute time and the scheduler decides
            # who runs; the process stays READY in the run queue.
            self.domains = system.build_clock_domains(
                bitstream, self.imu.tick, self.core.tick
            )
            self.executions = 0
            self._closed = False
            return
        if sync_cycles is None:
            sync_cycles = 0 if bitstream.single_domain else Imu.CDC_SYNC_CYCLES
        self.imu = Imu(
            system.dpram,
            system.interrupts,
            access_cycles=access_cycles,
            pipelined=pipelined_imu,
            tlb_capacity=tlb_capacity,
            sync_cycles=sync_cycles,
        )
        # The per-access trace sink (repro record): a solo session owns
        # its IMU, so the hook attaches here; shared-interface tenants
        # inherit the SharedInterface's sink instead.
        self.imu.trace_sink = recorder
        self.core = bitstream.build_core()
        self.core.bind(self.imu)
        self.vim = Vim(
            kernel,
            system.dpram,
            system.bus,
            self.imu,
            policy=policy,
            transfer_mode=transfer_mode,
            prefetcher=prefetcher,
            eager_mapping=eager_mapping,
            dma=system.dma,
        )
        self.process = kernel.spawn(process_name, priority=priority)
        kernel.scheduler.pick_next()
        self.services = FpgaServices(kernel, system.fabric, self.vim)
        self._setup_measurement = Measurement(name=f"{process_name}/setup")
        kernel.attach_measurement(self._setup_measurement)
        try:
            # Acquire the fabric first: if another process owns it, fail
            # before claiming the interrupt line or any clock resources.
            self.services.fpga_load(self.process, bitstream)
        finally:
            kernel.detach_measurement()
        system.interrupts.register(INT_PLD_LINE, self.vim.handle_interrupt)
        system.interrupts.register(INT_DMA_LINE, self.vim.handle_dma_complete)
        self.domains = system.build_clock_domains(
            bitstream, self.imu.tick, self.core.tick
        )
        self.executions = 0
        self._closed = False

    @property
    def asid(self) -> int:
        """Address-space id tagging this session's objects (0 solo)."""
        return self.process.pid if self.shared is not None else 0

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
        kernel = self.system.kernel
        buffer = kernel.user_memory.alloc(name, size, self.process.pid)
        if data is not None:
            buffer.fill_from(data)
        kernel.attach_measurement(self._setup_measurement)
        try:
            # A tenant's object ids are tagged with its ASID so every
            # tenant keeps the 8-bit CP_OBJ namespace to itself, and
            # mapping must not require fabric ownership (the
            # time-shared fabric belongs to whoever executed last).
            self.services.fpga_map_object(
                self.process,
                tag_obj(self.asid, obj_id),
                buffer,
                size,
                direction,
                hints,
                require_fabric=self.shared is None,
            )
        finally:
            kernel.detach_measurement()
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
            if self.shared is not None:
                self._acquire_fabric()
                # Synchroniser cost follows the active design: a
                # single-domain tenant pays nothing, a dual-domain one
                # pays the CDC handshake — same as its solo session.
                self.imu.sync_cycles = (
                    0 if self.bitstream.single_domain else Imu.CDC_SYNC_CYCLES
                )
            tlb_stats = self.imu.tlb.stats
            lookups_before = tlb_stats.lookups
            hits_before = tlb_stats.hits
            self.services.fpga_execute(self.process, list(params))
            own = self._own_objects()
            total_bytes = sum(obj.size for obj in own.values())
            deadline = (
                system.engine.now
                + system.fabric_ticks_limit(total_bytes)
                * self.bitstream.iface_frequency.period_ps
            )
            while not self.vim.execution_done:
                System.start_clocks(self.domains)
                hw_start = system.engine.now
                arrived = system.engine.run_until(
                    lambda: bool(system.interrupts.pending_unmasked()),
                    max_time_ps=deadline,
                )
                measurement.add_hw(system.engine.now - hw_start)
                System.stop_clocks(self.domains)
                if not arrived:
                    raise VimError(f"{name}: clocks drained without an interrupt")
                kernel.service_interrupts()
            if self.shared is None:
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
        """Release the fabric, the interrupt line and all user memory.

        A shared-interface tenant instead releases only its own slice:
        its DP-RAM residents, TLB entries, mapped objects and buffers.
        The interrupt line and the shared IMU/VIM stay up for the other
        tenants (the :class:`~repro.core.tenancy.SharedInterface` owns
        them).
        """
        if self._closed:
            return
        self._closed = True
        System.stop_clocks(self.domains)
        if self.shared is not None:
            self.vim.release_tenant(self.asid)
            if self.system.fabric.owner_pid == self.process.pid:
                self.system.fabric.release(self.process.pid)
            self.system.kernel.user_memory.free_process(self.process.pid)
            self.process.terminate()
            return
        self.system.interrupts.unregister(INT_PLD_LINE)
        self.system.interrupts.unregister(INT_DMA_LINE)
        # An execution aborted mid-service (or a final flush still
        # draining) may leave a line asserted; clear both — and disarm
        # the DMA completion interrupt — so nothing fires into the next
        # session's handlers.
        self.system.interrupts.clear(INT_PLD_LINE)
        self.system.interrupts.clear(INT_DMA_LINE)
        self.system.dma.quiesce()
        self.system.fabric.release(self.process.pid)
        self.system.kernel.user_memory.free_process(self.process.pid)

    def _require_open(self) -> None:
        if self._closed:
            raise VimError("session is closed")

    def __enter__(self) -> "CoprocessorSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
