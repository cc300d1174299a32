"""Paged dual-port RAM — the physical interface memory of the paper.

On the EPXA1 the coprocessor and the ARM share a 16 KB on-chip
dual-port RAM, logically organised by the VIM into eight 2 KB pages.
One port faces the PLD (the coprocessor, through the IMU); the other
faces the processor across the AHB.

The model keeps real bytes, so data flows through the exact path of the
paper: user space → DP-RAM page → coprocessor → DP-RAM page → user
space.  Functional equivalence with pure software is therefore a real
end-to-end check, not an assumption.
"""

from __future__ import annotations

from repro.errors import MemoryAccessError
from repro.hw.memory import Memory


class DualPortRam(Memory):
    """Dual-port on-chip RAM divided into equal pages.

    Parameters
    ----------
    size:
        Total capacity in bytes (16 KB on the EPXA1).
    page_size:
        VIM page size in bytes (2 KB in the paper).  Must divide
        *size* exactly and be a power of two, so that page numbers can
        be extracted from addresses by shifting — the same constraint a
        hardware TLB imposes.
    """

    def __init__(self, size: int = 16 * 1024, page_size: int = 2 * 1024) -> None:
        if page_size <= 0 or size % page_size != 0:
            raise MemoryAccessError(
                f"page size {page_size} must divide DP-RAM size {size}"
            )
        if page_size & (page_size - 1):
            raise MemoryAccessError(f"page size {page_size} must be a power of two")
        super().__init__("dpram", size)
        self.page_size = page_size
        self.num_pages = size // page_size
        self.page_bits = page_size.bit_length() - 1
        # Per-port access counters (observability for benches/tests).
        self.pld_reads = 0
        self.pld_writes = 0
        self.cpu_reads = 0
        self.cpu_writes = 0

    def page_base(self, page: int) -> int:
        """Byte address of the first byte of physical page *page*."""
        if not 0 <= page < self.num_pages:
            raise MemoryAccessError(
                f"physical page {page} out of range [0, {self.num_pages})"
            )
        return page << self.page_bits

    def page_of(self, addr: int) -> int:
        """Physical page number containing byte address *addr*."""
        if not 0 <= addr < self.size:
            raise MemoryAccessError(f"address {addr} outside DP-RAM")
        return addr >> self.page_bits

    # -- PLD-side port (used by the IMU on behalf of the coprocessor) --

    def pld_read(self, addr: int, size: int = 4) -> int:
        """Word read on the PLD port."""
        self.pld_reads += 1
        return self.read_word(addr, size)

    def pld_write(self, addr: int, value: int, size: int = 4) -> None:
        """Word write on the PLD port."""
        self.pld_writes += 1
        self.write_word(addr, value, size)

    # -- CPU-side port (used by the OS across the AHB) --

    def cpu_read_page(self, page: int, length: int | None = None) -> bytes:
        """Read up to a full page on the CPU port."""
        length = self.page_size if length is None else length
        if length > self.page_size:
            raise MemoryAccessError(
                f"read of {length} bytes exceeds page size {self.page_size}"
            )
        self.cpu_reads += 1
        return self.read(self.page_base(page), length)

    def cpu_write_page(self, page: int, data: bytes, offset: int = 0) -> None:
        """Write into a page on the CPU port (offset + data within page)."""
        # Check the byte length, as Memory.write does: a buffer whose
        # len() counts wider items would otherwise spill into the next
        # page.
        data = bytes(data)
        if offset + len(data) > self.page_size:
            raise MemoryAccessError(
                f"write of {len(data)} bytes at offset {offset} exceeds page "
                f"size {self.page_size}"
            )
        self.cpu_writes += 1
        self.write(self.page_base(page) + offset, data)

    def __repr__(self) -> str:
        return (
            f"DualPortRam(size={self.size}, page_size={self.page_size}, "
            f"pages={self.num_pages})"
        )
