"""A byte-addressable memory model, the base of the dual-port RAM.

A functional model: data lives in a fixed-size ``bytearray`` and an
access advances no time.  The board's SDRAM and Flash are not
modelled: user buffers live in :class:`repro.os.vmm.UserMemory`.
"""

from __future__ import annotations

from repro.errors import MemoryAccessError


class Memory:
    """A flat byte-addressable memory.

    Parameters
    ----------
    name:
        Human-readable identifier used in error messages.
    size:
        Capacity in bytes.
    """

    def __init__(self, name: str, size: int) -> None:
        if size <= 0:
            raise MemoryAccessError(f"memory {name!r}: size must be positive")
        self.name = name
        self.size = size
        self._data = bytearray(size)
        self.reads = 0
        self.writes = 0

    def _check(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size:
            raise MemoryAccessError(
                f"memory {self.name!r}: access [{addr}, {addr + length}) "
                f"outside size {self.size}"
            )

    def read(self, addr: int, length: int) -> bytes:
        """Read *length* bytes starting at *addr*."""
        self._check(addr, length)
        self.reads += 1
        return bytes(self._data[addr : addr + length])

    def write(self, addr: int, data: bytes) -> None:
        """Write the bytes of *data* (any buffer) starting at *addr*."""
        # Bounds-check the byte length: a buffer whose len() counts
        # wider items would otherwise resize the store.
        data = bytes(data)
        length = len(data)
        self._check(addr, length)
        self.writes += 1
        self._data[addr : addr + length] = data

    def read_word(self, addr: int, size: int = 4) -> int:
        """Read a little-endian word of 1, 2, or 4 bytes."""
        if size not in (1, 2, 4):
            raise MemoryAccessError(f"unsupported word size {size}")
        return int.from_bytes(self.read(addr, size), "little")

    def write_word(self, addr: int, value: int, size: int = 4) -> None:
        """Write a little-endian word of 1, 2, or 4 bytes."""
        if size not in (1, 2, 4):
            raise MemoryAccessError(f"unsupported word size {size}")
        self.write(addr, int(value).to_bytes(size, "little"))

    def fill(self, value: int = 0) -> None:
        """Set every byte of the memory to *value*."""
        self._data[:] = bytes((value,)) * self.size

    def view(self) -> bytearray:
        """The memory contents themselves (shared, mutable)."""
        return self._data

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, size={self.size})"
