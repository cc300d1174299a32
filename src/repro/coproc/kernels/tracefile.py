"""Trace-replay coprocessor: re-issue a recorded address stream.

The replay core is the trace-driven sibling of the synthetic core: it
walks a pre-flattened ``(is_write, obj, addr, size)`` op list — the
address stream :mod:`repro.trace.record` captured at the IMU — and
reuses the synthetic app's accumulator pipeline for the data plane.
The recorded trace fixes *where* the core touches memory; the platform
under test (policy, page size, TLB, transfer engine) decides what
those touches cost.  Data values are deliberately not part of the
trace: reads fold whatever the replayed platform returns into the
accumulator and writes store accumulator-derived words, so the
software reference (:mod:`repro.apps.tracefile`) can recompute the
exact final images without any simulation and verification stays
bit-exact.
"""

from __future__ import annotations

from repro.apps.synthetic import ACC_INIT, mix_read, mix_write, write_value
from repro.coproc.base import Behavior, Coprocessor
from repro.coproc.bitstream import Bitstream
from repro.hw.fpga import PldResources
from repro.sim.time import mhz

#: One replay op: (is_write, replay object id, byte address, size).
ReplayOp = tuple[bool, int, int, int]


def masked_write_value(acc: int, addr: int, size: int) -> int:
    """The word a replay write stores: accumulator-derived, truncated
    to the recorded access width (sub-word writes carry sub-word
    data on the bus)."""
    return write_value(acc, addr) & ((1 << (8 * size)) - 1)


class TraceReplayCore(Coprocessor):
    """Replay a flattened trace op list over its remapped objects."""

    name = "trace-replay"

    def __init__(self, ops: list[ReplayOp]) -> None:
        super().__init__()
        self.ops = ops

    def behavior(self) -> Behavior:
        num_ops = yield from self.read_param(0)
        yield from self.release_params()
        acc = ACC_INIT
        for is_write, obj, addr, size in self.ops[:num_ops]:
            if is_write:
                value = masked_write_value(acc, addr, size)
                yield from self.write(obj, addr, value, size)
                acc = mix_write(acc, value)
            else:
                value = yield from self.read(obj, addr, size)
                acc = mix_read(acc, value)


def bitstream(ops: list[ReplayOp], digest: str) -> Bitstream:
    """A replay-core bit-stream for *ops* (one 40 MHz clock)."""
    return Bitstream(
        name=f"trace-{digest[:10]}",
        core_factory=lambda: TraceReplayCore(ops),
        core_frequency=mhz(40.0),
        resources=PldResources(logic_elements=1_400, memory_bits=4_096),
        length_bytes=96 * 1024,
    )
