"""Synthetic access-pattern coprocessor (the design-space probe).

The core replays a pre-generated word-op sequence over one virtual
data object: reads fold the word into a running accumulator, writes
store an accumulator-derived word back.  Like every core in this
package, it sees only virtual ``(object, offset)`` addresses — the
pattern generator decides *where* to touch, the VIM decides what that
costs — so the same bitstream runs unchanged on any SoC preset.

Unlike the fixed kernels, the op sequence is workload data: the
builder (:func:`repro.core.drivers.synthetic_workload`) generates it
from the cell's seed and pattern parameters and closes the core
factory over it, exactly as the parameters of a configurable VHDL
generic would be baked into a generated bitstream.
"""

from __future__ import annotations

from repro.apps.synthetic import ACC_INIT, mix_read, mix_write, write_value
from repro.coproc.base import Behavior, Coprocessor
from repro.coproc.bitstream import Bitstream
from repro.hw.fpga import PldResources
from repro.sim.time import mhz

#: The single data object (FPGA_MAP_OBJECT argument (a), §3.1).
OBJ_DATA = 0


class SyntheticCore(Coprocessor):
    """Replay a ``(is_write, addr)`` op list over the data object."""

    name = "synthetic"

    def __init__(self, ops: list[tuple[bool, int]]) -> None:
        super().__init__()
        self.ops = ops

    def behavior(self) -> Behavior:
        num_ops = yield from self.read_param(0)
        yield from self.release_params()
        acc = ACC_INIT
        for is_write, addr in self.ops[:num_ops]:
            if is_write:
                value = write_value(acc, addr)
                yield from self.write(OBJ_DATA, addr, value)
                acc = mix_write(acc, value)
            else:
                value = yield from self.read(OBJ_DATA, addr)
                acc = mix_read(acc, value)


def bitstream(ops: list[tuple[bool, int]]) -> Bitstream:
    """A synthetic-core bit-stream replaying *ops* (one 40 MHz clock)."""
    return Bitstream(
        name="synthetic",
        core_factory=lambda: SyntheticCore(ops),
        core_frequency=mhz(40.0),
        resources=PldResources(logic_elements=1_200, memory_bits=4_096),
        length_bytes=96 * 1024,
    )
