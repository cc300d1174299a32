"""The Interface Management Unit.

The IMU sits between a *portable* coprocessor (CP_* ports) and the
*platform-specific* dual-port RAM (Figure 4).  Every coprocessor memory
access passes through it:

* on a TLB **hit** the virtual address ``(CP_OBJ, CP_ADDR)`` is
  translated to a physical DP-RAM address and the access is performed —
  in the paper's prototype "four cycles are needed from the moment when
  the coprocessor generates an access to the moment when the data is
  read or written" (Figure 7);
* on a TLB **miss** the coprocessor is stalled (``CP_TLBHIT`` stays
  low) and ``INT_PLD`` is raised so the OS-side Virtual Interface
  Manager can service the page fault;
* ``CP_FIN`` sets the *done* status and raises the same interrupt for
  end-of-operation handling.

Timing model
------------
The IMU is a clocked FSM.  With the IMU's tick attached to its clock
domain *before* the coprocessor's, a request issued on edge *n* is
detected on edge *n+1* and completes on edge ``n + access_cycles - 1``
with ``CP_TLBHIT`` high, so data is ready on the ``access_cycles``-th
rising edge counted from the request — matching Figure 7 for the
default ``access_cycles = 4``.

The *pipelined* variant the paper announces as work in progress
("expected to mask almost completely the translation overhead") keeps
the same detection handshake but completes the translation in the
detection cycle, i.e. an effective 2-cycle access.
"""

from __future__ import annotations

from enum import Enum

from repro.coproc.ports import ASID_SHIFT, PARAM_OBJECT, CoprocessorPorts, tag_obj
from repro.errors import HardwareError
from repro.hw.dpram import DualPortRam
from repro.hw.interrupts import InterruptController
from repro.imu.registers import AddressRegister, ControlRegister, StatusRegister
from repro.imu.tlb import Tlb

#: Interrupt line used by the IMU (INT_PLD in Figure 4).
INT_PLD_LINE = 0


class ImuState(Enum):
    """Translation FSM states."""

    IDLE = "idle"
    TRANSLATE = "translate"
    FAULT = "fault"


class Imu:
    """Interface Management Unit: CAM TLB + AR/SR/CR + translation FSM.

    Parameters
    ----------
    dpram:
        The physical interface memory whose pages are being virtualised.
    interrupts:
        Interrupt controller carrying ``INT_PLD``.
    access_cycles:
        Rising edges from request to data, inclusive (paper: 4).
    pipelined:
        If True, model the pipelined IMU (translation overlapped with
        the request path; only the synchroniser latency remains).
    tlb_capacity:
        Override the TLB size (defaults to one entry per DP-RAM page,
        which is how the prototype is organised).
    sync_cycles:
        Extra IMU cycles per access for clock-domain-crossing
        synchronisers.  Zero in single-domain designs (adpcm); the
        dual-domain IDEA system pays the 6 MHz <-> 24 MHz stall
        handshake here ("the synchronisation with the IDEA core is
        provided by a stall mechanism", §4.1).
    """

    #: Default synchroniser cost when core and IMU clocks differ:
    #: two-flop synchronisers on the request and grant paths plus CAM
    #: re-timing, in IMU cycles.
    CDC_SYNC_CYCLES = 6

    #: Bits of the CP_OBJ lines; the ASID occupies the tag bits above.
    ASID_SHIFT = ASID_SHIFT

    def __init__(
        self,
        dpram: DualPortRam,
        interrupts: InterruptController,
        access_cycles: int = 4,
        pipelined: bool = False,
        tlb_capacity: int | None = None,
        irq_line: int = INT_PLD_LINE,
        sync_cycles: int = 0,
    ) -> None:
        if access_cycles < 2:
            raise HardwareError("access_cycles must be >= 2 (request + reply)")
        if sync_cycles < 0:
            raise HardwareError("sync_cycles must be >= 0")
        self.dpram = dpram
        self.interrupts = interrupts
        self.access_cycles = access_cycles
        self.pipelined = pipelined
        self.sync_cycles = sync_cycles
        self.irq_line = irq_line
        self.ports = CoprocessorPorts()
        self.tlb = Tlb(tlb_capacity or dpram.num_pages)
        self.ar = AddressRegister()
        self.sr = StatusRegister()
        self.cr = ControlRegister()
        #: Address-space id of the executing process, written by the OS
        #: on a tenant switch.  It widens every CAM match tag from
        #: (obj, vpage) to (asid ++ obj, vpage), so translations of
        #: several processes can coexist in the TLB while only the
        #: active tenant's entries match.  Zero (the default) makes the
        #: tag the identity — single-tenant behaviour is unchanged.
        self.asid = 0
        #: Optional address-trace sink (``record(asid, write, obj,
        #: addr, size)``, e.g. a :class:`repro.trace.record.
        #: TraceRecorder`).  Called once per *completed* data access —
        #: after fault service, on the retried access's hit — with the
        #: untagged CP_OBJ id; parameter-page traffic is not recorded
        #: (it is protocol, not workload).  The call sits on the firing
        #: edge and schedules nothing, so a recording changes nothing
        #: about timing.
        self.trace_sink = None
        self.state = ImuState.IDLE
        self._remaining = 0
        self._last_req = 0
        self._param_handled = False
        # Statistics (reset per execution by the runner).
        self.translations = 0
        self.faults = 0
        self.reads = 0
        self.writes = 0
        self.fault_stall_cycles = 0
        self.translate_cycles = 0
        self.ticks = 0

    # ------------------------------------------------------------------
    # Clocked behaviour
    # ------------------------------------------------------------------

    def tick(self) -> None:
        """One rising edge of the IMU clock domain."""
        self.ticks += 1
        ports = self.ports
        if ports.cp_fin.value and not self.sr.done:
            self._finish()
        if ports.cp_param_done.value and not self._param_handled:
            self._release_param_page()
        if self.state is ImuState.IDLE:
            if ports.cp_access.value and ports.cp_req.value != self._last_req:
                self._begin_translation()
        elif self.state is ImuState.TRANSLATE:
            self.translate_cycles += 1
            self._remaining -= 1
            if self._remaining <= 0:
                self._fire()
        elif self.state is ImuState.FAULT:
            self.fault_stall_cycles += 1

    def tag(self, obj: int) -> int:
        """Widen a CP_OBJ value with the active ASID (CAM match tag).

        With the default ``asid == 0`` this is the identity, so every
        single-tenant call site sees exactly the historical keys.
        """
        return tag_obj(self.asid, obj)

    def _begin_translation(self) -> None:
        ports = self.ports
        self._last_req = ports.cp_req.value
        ports.cp_tlbhit.set(0)
        # AR latches the asid-tagged object id: the VIM services faults
        # against its global (per-tenant) object table.
        self.ar.capture(
            self.tag(ports.cp_obj.value),
            ports.cp_addr.value,
            bool(ports.cp_wr.value),
        )
        # Detection is one edge after the request; the access completes
        # access_cycles - 2 edges later so data lands on the
        # access_cycles-th edge overall (Figure 7).  The pipelined IMU
        # overlaps translation with the request path, leaving only the
        # synchroniser latency of dual-domain designs.
        latency = self._translation_latency()
        if latency <= 0:
            self.state = ImuState.TRANSLATE
            self.translate_cycles += 1
            self._fire()
        else:
            self.state = ImuState.TRANSLATE
            self._remaining = latency

    def _translation_latency(self) -> int:
        """IMU edges between request detection and the access firing."""
        translate = 0 if self.pipelined else self.access_cycles - 2
        return translate + self.sync_cycles

    def _fire(self) -> None:
        """Perform the TLB lookup and, on a hit, the DP-RAM access."""
        ports = self.ports
        obj = self.tag(ports.cp_obj.value)
        addr = ports.cp_addr.value
        vpage = addr >> self.dpram.page_bits
        offset = addr & (self.dpram.page_size - 1)
        entry = self.tlb.lookup(obj, vpage)
        if entry is None:
            self.state = ImuState.FAULT
            self.sr.set(StatusRegister.FAULT)
            self.faults += 1
            if self.cr.test(ControlRegister.INT_ENABLE):
                self.interrupts.raise_line(self.irq_line)
            return
        paddr = (entry.ppage << self.dpram.page_bits) | offset
        size = ports.cp_size.value
        if ports.cp_wr.value:
            self.dpram.pld_write(paddr, ports.cp_dout.value, size)
            entry.dirty = True
            self.writes += 1
        else:
            ports.cp_din.set(self.dpram.pld_read(paddr, size))
            self.reads += 1
        if self.trace_sink is not None and ports.cp_obj.value != PARAM_OBJECT:
            self.trace_sink.record(
                self.asid, bool(ports.cp_wr.value), ports.cp_obj.value,
                addr, size,
            )
        ports.cp_tlbhit.set(1)
        self.translations += 1
        self.state = ImuState.IDLE

    def _finish(self) -> None:
        self.sr.set(StatusRegister.DONE)
        self.sr.clear(StatusRegister.BUSY)
        if self.cr.test(ControlRegister.INT_ENABLE):
            self.interrupts.raise_line(self.irq_line)

    def _release_param_page(self) -> None:
        """Invalidate the parameter-passing page once consumed (§3.2)."""
        self._param_handled = True
        self.tlb.invalidate(self.tag(PARAM_OBJECT), 0)
        self.sr.set(StatusRegister.PARAM_RELEASED)

    # ------------------------------------------------------------------
    # Processor-side (MMIO) interface, used by the VIM
    # ------------------------------------------------------------------

    def start_coprocessor(self) -> None:
        """Assert CP_START and mark the IMU busy (FPGA_EXECUTE tail)."""
        self.sr.set(StatusRegister.BUSY)
        self.sr.clear(StatusRegister.DONE)
        self.ports.cp_start.set(1)

    def restart_translation(self) -> None:
        """Re-run the faulted translation after the VIM fixed the TLB.

        "the OS allows the IMU to restart the translation and lets the
        coprocessor exit from the stalled state" (§3.3).
        """
        if self.state is not ImuState.FAULT:
            raise HardwareError("restart_translation while not in fault state")
        self.sr.clear(StatusRegister.FAULT)
        self.interrupts.clear(self.irq_line)
        self.state = ImuState.TRANSLATE
        self._remaining = max(1, self._translation_latency())

    def acknowledge_done(self) -> None:
        """Clear the done status after end-of-operation service."""
        self.sr.clear(StatusRegister.DONE)
        self.interrupts.clear(self.irq_line)

    def reset(self, keep_tlb: bool = False) -> None:
        """Reset FSM and ports for a fresh execution.

        ``keep_tlb=True`` preserves the CAM contents: a shared
        multi-tenant interface resets the datapath between tenant turns
        while resident translations (tagged with their owners' ASIDs)
        stay live, which is what lets pages survive a tenant switch.
        The default flushes the TLB, matching single-tenant behaviour.
        """
        self.state = ImuState.IDLE
        self._remaining = 0
        self._param_handled = False
        if not keep_tlb:
            self.tlb.invalidate_all()
        self.sr.value = 0
        ports = self.ports
        ports.cp_start.set(0)
        ports.cp_tlbhit.set(0)
        ports.cp_fin.set(0)
        ports.cp_param_done.set(0)
        ports.cp_access.set(0)
        self._last_req = ports.cp_req.value

    def reset_stats(self) -> None:
        """Zero the per-execution counters."""
        self.translations = 0
        self.faults = 0
        self.reads = 0
        self.writes = 0
        self.fault_stall_cycles = 0
        self.translate_cycles = 0
        self.ticks = 0

    @property
    def stalled_on_fault(self) -> bool:
        """True while the coprocessor is stalled waiting for the VIM."""
        return self.state is ImuState.FAULT
