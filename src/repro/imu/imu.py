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

The IMU runs only the edges on which it acts: the detection edge of a
request, the firing edge of a translation, and every edge of a fault
stall.  It sleeps while idle and while a translation counts down; a
change on ``cp_req``, ``cp_fin`` or ``cp_param_done`` wakes it.
"""

from __future__ import annotations

from enum import Enum

from repro.coproc.ports import ASID_SHIFT, PARAM_OBJECT, CoprocessorPorts, tag_obj
from repro.errors import HardwareError
from repro.hw.dpram import DualPortRam
from repro.hw.interrupts import InterruptController
from repro.imu.registers import AddressRegister, ControlRegister, StatusRegister
from repro.imu.tlb import Tlb
from repro.sim.clock import UNTIL_WOKEN, Clocked

#: Interrupt line used by the IMU (INT_PLD in Figure 4).
INT_PLD_LINE = 0


class ImuState(Enum):
    """Translation FSM states."""

    IDLE = "idle"
    TRANSLATE = "translate"
    FAULT = "fault"


# The states as module constants: a global read costs a fraction of an
# enum member lookup, and the FSM tests its state several times an edge.
_IDLE = ImuState.IDLE
_TRANSLATE = ImuState.TRANSLATE
_FAULT = ImuState.FAULT


class Imu(Clocked):
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
    ) -> None:
        if access_cycles < 2:
            raise HardwareError("access_cycles must be >= 2 (request + reply)")
        self.dpram = dpram
        self.interrupts = interrupts
        self.access_cycles = access_cycles
        self.pipelined = pipelined
        #: Extra IMU cycles per access for clock-domain-crossing
        #: synchronisers, written by the session before each execution:
        #: zero in single-domain designs (adpcm); the dual-domain IDEA
        #: system pays the 6 MHz <-> 24 MHz stall handshake here ("the
        #: synchronisation with the IDEA core is provided by a stall
        #: mechanism", §4.1).
        self.sync_cycles = 0
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
        self.state = _IDLE
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
        self.sense(self.ports.cp_req, self.ports.cp_fin, self.ports.cp_param_done)

    # ------------------------------------------------------------------
    # Clocked behaviour
    # ------------------------------------------------------------------

    def tick(self) -> int:
        """One rising edge of the IMU clock domain.

        Returns the edges until the next one the IMU needs
        (:class:`~repro.sim.clock.Clocked`): every edge of a fault
        stall, the firing edge of a translation, none while idle.
        """
        self.ticks += 1
        ports = self.ports
        if ports.cp_fin.value and not self.sr.done:
            self._finish()
        if ports.cp_param_done.value and not self._param_handled:
            self._release_param_page()
        state = self.state
        if state is _IDLE:
            if ports.cp_access.value and ports.cp_req.value != self._last_req:
                self._begin_translation()
        elif state is _TRANSLATE:
            self.translate_cycles += 1
            self._remaining -= 1
            if self._remaining <= 0:
                self._fire()
        elif state is _FAULT:
            self.fault_stall_cycles += 1
        state = self.state
        if state is _TRANSLATE:
            return self._remaining
        if state is _FAULT:
            return 1
        return UNTIL_WOKEN

    def idle(self, edges: int) -> None:
        """Account *edges* edges of idling or translation countdown."""
        self.ticks += edges
        state = self.state
        if state is _TRANSLATE:
            self.translate_cycles += edges
            self._remaining -= edges
        elif state is _FAULT:
            self.fault_stall_cycles += edges

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
            tag_obj(self.asid, ports.cp_obj.value),
            ports.cp_addr.value,
            bool(ports.cp_wr.value),
        )
        # Detection is one edge after the request; the access completes
        # access_cycles - 2 edges later so data lands on the
        # access_cycles-th edge overall (Figure 7).  The pipelined IMU
        # overlaps translation with the request path, leaving only the
        # synchroniser latency of dual-domain designs.
        latency = self._translation_latency()
        self.state = _TRANSLATE
        if latency <= 0:
            self.translate_cycles += 1
            self._fire()
        else:
            self._remaining = latency

    def _translation_latency(self) -> int:
        """IMU edges between request detection and the access firing."""
        translate = 0 if self.pipelined else self.access_cycles - 2
        return translate + self.sync_cycles

    def _fire(self) -> None:
        """Perform the TLB lookup and, on a hit, the DP-RAM access.

        The access is the one AR latched at detection.  The ports and
        the tag cannot have moved since: the core holds its lines until
        CP_TLBHIT rises, and the VIM writes :attr:`asid` only between
        executions (``Vim.setup_execution``).
        """
        ar = self.ar
        addr = ar.addr
        dpram = self.dpram
        entry = self.tlb.lookup(ar.obj, addr >> dpram.page_bits)
        if entry is None:
            self.state = _FAULT
            self.sr.set(StatusRegister.FAULT)
            self.faults += 1
            if self.cr.test(ControlRegister.INT_ENABLE):
                self.interrupts.raise_line(INT_PLD_LINE)
            return
        paddr = (entry.ppage << dpram.page_bits) | (addr & (dpram.page_size - 1))
        ports = self.ports
        size = ports.cp_size.value
        if ar.write:
            dpram.pld_write(paddr, ports.cp_dout.value, size)
            entry.dirty = True
            self.writes += 1
        else:
            ports.cp_din.set(dpram.pld_read(paddr, size))
            self.reads += 1
        if self.trace_sink is not None and ports.cp_obj.value != PARAM_OBJECT:
            self.trace_sink.record(
                self.asid, ar.write, ports.cp_obj.value, addr, size,
            )
        ports.cp_tlbhit.set(1)
        self.translations += 1
        self.state = _IDLE

    def _finish(self) -> None:
        self.sr.set(StatusRegister.DONE)
        self.sr.clear(StatusRegister.BUSY)
        if self.cr.test(ControlRegister.INT_ENABLE):
            self.interrupts.raise_line(INT_PLD_LINE)

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
        if self.state is not _FAULT:
            raise HardwareError("restart_translation while not in fault state")
        self.sr.clear(StatusRegister.FAULT)
        self.interrupts.clear(INT_PLD_LINE)
        self.state = _TRANSLATE
        self._remaining = max(1, self._translation_latency())

    def acknowledge_done(self) -> None:
        """Clear the done status after end-of-operation service."""
        self.sr.clear(StatusRegister.DONE)
        self.interrupts.clear(INT_PLD_LINE)
        # With CP_FIN still high the next edge finishes again.
        self.wake()

    def reset(self, keep_tlb: bool = False) -> None:
        """Reset FSM and ports for a fresh execution.

        ``keep_tlb=True`` preserves the CAM contents: a shared
        multi-tenant interface resets the datapath between tenant turns
        while resident translations (tagged with their owners' ASIDs)
        stay live, which is what lets pages survive a tenant switch.
        The default flushes the TLB, matching single-tenant behaviour.
        """
        self.state = _IDLE
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
        return self.state is _FAULT
