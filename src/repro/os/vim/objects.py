"""Mapped interface objects.

``FPGA_MAP_OBJECT`` "allocates the data used by the coprocessor"; its
arguments are "(a) the object identifier (a number agreed by the
hardware and software designers), (b) a pointer to the data, (c) the
data size, and optionally (d) some flags used for optimisation
purposes" (§3.1).

The optimisation flags are the transfer direction: the VIM skips the
page-in copy for pages of an OUT-only object that the coprocessor has
never produced (Figure 6 passes exactly ``IN``/``OUT`` flags), and an
IN-only object can never be dirty, so it is never written back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Flag, auto

from repro.coproc.ports import obj_asid, obj_local
from repro.errors import SyscallError
from repro.os.vmm import UserBuffer


class Direction(Flag):
    """Transfer-direction optimisation flags of FPGA_MAP_OBJECT."""

    IN = auto()
    OUT = auto()
    INOUT = IN | OUT


class Hint(Flag):
    """Optimisation hints of FPGA_MAP_OBJECT (§3.1/§3.3).

    "To allow fine tuning of actions performed by the interface
    manager, the use of optimisation hints passed as parameters to the
    OS services is envisioned."

    * ``PINNED`` — keep this object's pages resident once loaded; the
      VIM never selects them for eviction.  For small, hot datasets
      (lookup tables, state blocks) that would otherwise thrash.
    * ``STREAM`` — the object is accessed strictly sequentially; the
      VIM prefetches its next page on every fault for it, even when no
      global prefetcher is configured.
    """

    NONE = 0
    PINNED = auto()
    STREAM = auto()


@dataclass
class MappedObject:
    """One dataset declared to the VIM for coprocessor use.

    ``direction`` and ``hints`` are fixed at construction: the fault
    path reads the booleans ``__post_init__`` derives from them instead
    of testing the flags on every fault.
    """

    obj_id: int
    buffer: UserBuffer
    size: int
    direction: Direction
    hints: Hint = Hint.NONE
    #: Virtual pages of this object that have been written back to user
    #: space by an eviction during the current execution.  A later
    #: re-fault on such a page must reload it even for an OUT object,
    #: otherwise the earlier results would be lost.
    written_back: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        # The low byte is the CP_OBJ wire value (0xFF is reserved for
        # the parameter page); the bits above are the owning tenant's
        # ASID, zero for single-tenant sessions.
        if self.obj_id < 0 or obj_local(self.obj_id) > 0xFE:
            raise SyscallError(
                f"object id {self.obj_id} has reserved low byte or is "
                "negative (CP_OBJ must be in [0, 254])"
            )
        if self.size <= 0:
            raise SyscallError(f"object {self.obj_id}: size must be positive")
        if self.size > self.buffer.size:
            raise SyscallError(
                f"object {self.obj_id}: size {self.size} exceeds buffer "
                f"size {self.buffer.size}"
            )
        self._loads_in = bool(self.direction & Direction.IN)
        self._pinned = bool(self.hints & Hint.PINNED)
        self._streaming = bool(self.hints & Hint.STREAM)

    def num_pages(self, page_size: int) -> int:
        """Number of virtual pages the object spans."""
        return (self.size + page_size - 1) // page_size

    def page_span(self, vpage: int, page_size: int) -> tuple[int, int]:
        """``(byte offset, length)`` of *vpage* within the object.

        The final page may be partial; the length is clamped to the
        object size so copies never touch bytes outside the dataset.
        """
        offset = vpage * page_size
        if offset >= self.size:
            raise SyscallError(
                f"object {self.obj_id}: page {vpage} beyond size {self.size}"
            )
        return offset, min(page_size, self.size - offset)

    def needs_load(self, vpage: int) -> bool:
        """Must this page be copied in from user space on a fault?"""
        return self._loads_in or vpage in self.written_back

    @property
    def asid(self) -> int:
        """The owning tenant's address-space id (0 for single-tenant)."""
        return obj_asid(self.obj_id)

    @property
    def local_id(self) -> int:
        """The 8-bit CP_OBJ value the coprocessor uses for this object."""
        return obj_local(self.obj_id)

    @property
    def pinned(self) -> bool:
        """True when the object's pages must never be evicted."""
        return self._pinned

    @property
    def streaming(self) -> bool:
        """True when the VIM should prefetch this object sequentially."""
        return self._streaming

    def reset_for_execution(self) -> None:
        """Per-execution state reset (write-back tracking)."""
        self.written_back.clear()
