"""Vector-addition coprocessor — Figure 5 of the paper.

The core adds two uint32 vectors element by element.  Exactly as the
paper stresses: "no physical address appears in the code.  A vector
identifier (0, 1, and 2) and the corresponding index constitute a
virtual address".
"""

from __future__ import annotations

from repro.coproc.base import Behavior, Coprocessor
from repro.coproc.bitstream import Bitstream
from repro.hw.fpga import PldResources
from repro.sim.time import mhz

#: Object identifiers agreed between hardware and software designers
#: (the argument (a) of FPGA_MAP_OBJECT, §3.1).
OBJ_A = 0
OBJ_B = 1
OBJ_C = 2


class VectorAddCore(Coprocessor):
    """C[i] = A[i] + B[i] over 32-bit words."""

    name = "add_vectors"

    def behavior(self) -> Behavior:
        num_elements = yield from self.read_param(0)
        yield from self.release_params()
        for i in range(num_elements):
            addr = 4 * i
            a = yield from self.read(OBJ_A, addr)
            b = yield from self.read(OBJ_B, addr)
            yield from self.write(OBJ_C, addr, (a + b) & 0xFFFFFFFF)


def bitstream() -> Bitstream:
    """The vector-add configuration bit-stream (one 40 MHz clock)."""
    return Bitstream(
        name="add_vectors",
        core_factory=VectorAddCore,
        core_frequency=mhz(40.0),
        resources=PldResources(logic_elements=900, memory_bits=2_048),
        length_bytes=96 * 1024,
    )
