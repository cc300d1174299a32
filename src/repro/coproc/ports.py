"""Port bundles between a coprocessor and its interface.

Figure 4 of the paper fixes the *portable* side of the IMU: address
lines ``CP_OBJ`` and ``CP_ADDR``, data lines ``CP_DIN``/``CP_DOUT`` and
the ``CP_CONTROL`` group (start, access, write, TLB hit, finish).  The
platform-specific side (``DP_*``) is owned by the IMU model itself.

A coprocessor written against :class:`CoprocessorPorts` never sees a
physical address — that is the portability contract the whole paper is
about, and the reason the same kernel classes run unchanged on every
SoC preset in :mod:`repro.core.soc`.

Handshake (one access)
----------------------
1. The core drives ``cp_obj``, ``cp_addr`` (byte address inside the
   object), ``cp_wr`` (+ ``cp_dout`` for writes) and pulses a new
   request by incrementing ``cp_req`` with ``cp_access`` high.
2. The IMU notices the new request id, drops ``cp_tlbhit``, translates
   (multi-cycle), then performs the DP-RAM access and raises
   ``cp_tlbhit`` — data valid on ``cp_din`` for reads.  On a
   translation miss the hit line simply stays low while the OS services
   the fault, which is exactly the stall mechanism of the paper.
3. The core, which has been sampling ``cp_tlbhit`` every cycle of its
   own clock, proceeds.

The request-id line makes back-to-back accesses unambiguous across
clock-domain ratios (the IDEA core at 6 MHz talks to an IMU at 24 MHz).
"""

from __future__ import annotations

from repro.sim.signal import SignalBundle

#: Object id reserved for the parameter-passing page (§3.2: "the
#: coprocessor looks for parameters in a memory page designated to
#: parameter passing").
PARAM_OBJECT = 0xFF

#: Width of the CP_OBJ lines: 8 bits of object identifier.
OBJ_BITS = 8

#: Address-space ids tag object ids in the bits above CP_OBJ: the IMU
#: widens every CAM match tag to ``asid ++ obj`` so several processes'
#: translations can coexist (see :attr:`repro.imu.imu.Imu.asid`).
ASID_SHIFT = OBJ_BITS


def tag_obj(asid: int, obj: int) -> int:
    """The global (ASID-tagged) id of CP_OBJ value *obj* under *asid*."""
    return (asid << ASID_SHIFT) | obj


def obj_asid(tagged: int) -> int:
    """The owning address-space id of a tagged object id (0 = solo)."""
    return tagged >> ASID_SHIFT


def obj_local(tagged: int) -> int:
    """The 8-bit CP_OBJ wire value of a tagged object id."""
    return tagged & ((1 << ASID_SHIFT) - 1)
#: Width of the CP_ADDR lines: 32-bit byte address within an object.
ADDR_BITS = 32
#: Width of the data lines.
DATA_BITS = 32


class CoprocessorPorts(SignalBundle):
    """The portable CP_* interface between a core and an IMU."""

    def __init__(self, name: str = "cp") -> None:
        super().__init__(name)
        # Driven by the coprocessor.
        self.cp_obj = self.new("cp_obj", OBJ_BITS)
        self.cp_addr = self.new("cp_addr", ADDR_BITS)
        self.cp_dout = self.new("cp_dout", DATA_BITS)
        self.cp_size = self.new("cp_size", 3, init=4)  # access bytes: 1/2/4
        self.cp_access = self.new("cp_access", 1)
        self.cp_wr = self.new("cp_wr", 1)
        self.cp_req = self.new("cp_req", 16)  # request id (new-access strobe)
        self.cp_fin = self.new("cp_fin", 1)
        self.cp_param_done = self.new("cp_param_done", 1)
        # Driven by the interface (IMU or direct wrapper).
        self.cp_start = self.new("cp_start", 1)
        self.cp_din = self.new("cp_din", DATA_BITS)
        self.cp_tlbhit = self.new("cp_tlbhit", 1)

    def issue(
        self, obj: int, addr: int, write: bool, data: int = 0, size: int = 4
    ) -> None:
        """Drive one new access request (coprocessor side)."""
        self.cp_obj.set(obj)
        self.cp_addr.set(addr)
        self.cp_size.set(size)
        self.cp_wr.set(1 if write else 0)
        if write:
            self.cp_dout.set(data & ((1 << DATA_BITS) - 1))
        self.cp_access.set(1)
        self.cp_req.set((self.cp_req.value + 1) & 0xFFFF)

    def retire(self) -> None:
        """De-assert the access lines after a completed access."""
        self.cp_access.set(0)
