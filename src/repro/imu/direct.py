"""Direct (non-virtualised) coprocessor interface — the baseline.

This models the paper's *typical coprocessor* version (Figures 3 and
9): the coprocessor addresses the dual-port RAM through fixed,
driver-programmed base offsets, with no TLB, no faults and no OS
involvement.  It is faster per access — a direct DP-RAM port needs no
translation cycles — but the whole working set must fit the physical
memory, which is exactly why Figure 9 marks the 16 KB and 32 KB IDEA
points "exceeds available memory".

The same port bundle as the IMU is exposed so that the identical
coprocessor kernel classes run against either interface; only the
*system* differs, which is the comparison the paper makes.  The
interface sleeps like the IMU: it runs the one edge on which it
detects and performs an access, and wakes on a change of ``cp_req``
or ``cp_fin``.
"""

from __future__ import annotations

from repro.coproc.ports import CoprocessorPorts
from repro.errors import CapacityError, HardwareError
from repro.hw.dpram import DualPortRam
from repro.sim.clock import UNTIL_WOKEN, Clocked


class DirectInterface(Clocked):
    """Fixed-offset DP-RAM wrapper for a hand-integrated coprocessor.

    An access takes two rising edges from request to data, inclusive:
    one to present the address, one for the synchronous DP-RAM read.
    The interface detects the request and performs the access on the
    second.

    Parameters
    ----------
    dpram:
        The physical interface memory.
    """

    def __init__(self, dpram: DualPortRam) -> None:
        self.dpram = dpram
        self.ports = CoprocessorPorts()
        self._bases: dict[int, tuple[int, int]] = {}
        self.param_regs: list[int] = []
        self._last_req = 0
        self.reads = 0
        self.writes = 0
        self.ticks = 0
        self.done = False
        self.sense(self.ports.cp_req, self.ports.cp_fin)

    # -- driver-side configuration (the "platform-related details" a
    #    programmer of the typical version must manage by hand) --------

    def set_object_window(self, obj: int, base: int, size: int) -> None:
        """Map object *obj* to ``[base, base + size)`` in the DP-RAM.

        Raises :class:`CapacityError` if the window does not fit — the
        hard limit virtualisation removes.
        """
        if base < 0 or size < 0 or base + size > self.dpram.size:
            raise CapacityError(
                f"object {obj}: window [{base}, {base + size}) exceeds "
                f"DP-RAM size {self.dpram.size}"
            )
        self._bases[obj] = (base, size)

    def start_coprocessor(self) -> None:
        """Assert CP_START (driver launches the core)."""
        self.done = False
        self.ports.cp_start.set(1)
        # With CP_FIN still high the next edge sets done again.
        self.wake()

    # -- clocked behaviour --------------------------------------------

    def tick(self) -> int:
        """One rising edge of the interface clock domain.

        An access is performed on the edge that detects it, so the
        interface needs no further edge until a port change wakes it.
        """
        self.ticks += 1
        ports = self.ports
        if ports.cp_fin.value:
            self.done = True
        if ports.cp_access.value and ports.cp_req.value != self._last_req:
            self._last_req = ports.cp_req.value
            ports.cp_tlbhit.set(0)
            self._fire()
        return UNTIL_WOKEN

    def idle(self, edges: int) -> None:
        """Account *edges* idle edges."""
        self.ticks += edges

    def _fire(self) -> None:
        ports = self.ports
        obj = ports.cp_obj.value
        addr = ports.cp_addr.value
        window = self._bases.get(obj)
        if window is None:
            raise HardwareError(f"object {obj} has no DP-RAM window configured")
        base, size = window
        access_size = ports.cp_size.value
        if addr + access_size > size:
            raise HardwareError(
                f"object {obj}: access at {addr} (+{access_size}) exceeds "
                f"window size {size}"
            )
        paddr = base + addr
        if ports.cp_wr.value:
            self.dpram.pld_write(paddr, ports.cp_dout.value, access_size)
            self.writes += 1
        else:
            ports.cp_din.set(self.dpram.pld_read(paddr, access_size))
            self.reads += 1
        ports.cp_tlbhit.set(1)
