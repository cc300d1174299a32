"""User-space memory.

User buffers are the "pointer to the data" argument of
``FPGA_MAP_OBJECT``.  They live in (modelled) SDRAM; the VIM copies
between them and the dual-port RAM.  Buffers carry real bytes so that
functional equivalence with pure software is checked end-to-end.
"""

from __future__ import annotations

from repro.errors import MemoryAccessError, OsError


class UserBuffer:
    """A contiguous user-space allocation backed by real bytes.

    Unlike :class:`~repro.hw.memory.Memory`, a buffer may be empty.
    """

    def __init__(self, name: str, size: int, pid: int) -> None:
        if size < 0:
            raise OsError(f"buffer {name!r}: negative size {size}")
        self.name = name
        self.size = size
        self.pid = pid
        self.data = bytearray(size)

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise MemoryAccessError(
                f"buffer {self.name!r}: access [{offset}, {offset + length}) "
                f"outside size {self.size}"
            )

    def write(self, offset: int, payload: bytes) -> None:
        """Store the bytes of *payload* (any buffer) at *offset*."""
        # Check the byte length, as Memory.write does: len() of a
        # buffer with wider items counts items, not bytes.
        payload = bytes(payload)
        self._check(offset, len(payload))
        self.data[offset : offset + len(payload)] = payload

    def read(self, offset: int, length: int) -> bytes:
        """Load *length* bytes at *offset*."""
        self._check(offset, length)
        return bytes(self.data[offset : offset + length])

    def fill_from(self, payload: bytes) -> None:
        """Initialise the whole buffer (must match the size exactly)."""
        payload = bytes(payload)
        if len(payload) != self.size:
            raise OsError(
                f"buffer {self.name!r}: payload of {len(payload)} bytes "
                f"does not match size {self.size}"
            )
        self.write(0, payload)

    def snapshot(self) -> bytes:
        """The full current contents."""
        return bytes(self.data)


class UserMemory:
    """Per-process user-space allocator (bump allocation is enough)."""

    def __init__(self, capacity: int = 64 * 1024 * 1024) -> None:
        self.capacity = capacity
        self.allocated = 0
        self._buffers: list[UserBuffer] = []

    def alloc(self, name: str, size: int, pid: int) -> UserBuffer:
        """Allocate a named buffer for process *pid*."""
        if self.allocated + size > self.capacity:
            raise OsError(
                f"user memory exhausted: {self.allocated} + {size} "
                f"> {self.capacity}"
            )
        buffer = UserBuffer(name, size, pid)
        self._buffers.append(buffer)
        self.allocated += size
        return buffer

    def free_process(self, pid: int) -> None:
        """Release every buffer owned by *pid* (process exit)."""
        kept = [b for b in self._buffers if b.pid != pid]
        freed = sum(b.size for b in self._buffers if b.pid == pid)
        self._buffers = kept
        self.allocated -= freed

    def buffers(self) -> list[UserBuffer]:
        """All live buffers."""
        return list(self._buffers)
