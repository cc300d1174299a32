"""The ``trace`` app: replay a recorded address trace as a workload.

:func:`trace_workload` turns a trace file written by
:mod:`repro.trace.record` into an ordinary
:class:`~repro.core.runner.WorkloadSpec`, so a recorded run becomes a
first-class sweep axis value: ``--app trace --trace FILE`` replays the
exact access stream of the original run against *any* platform
configuration (policy, page size, TLB capacity, transfer engine...).

Flattening
----------
A trace may have been recorded from a multi-tenant run, but replay is
a single deterministic workload: the recorded ``(tenant, obj)`` pairs
are remapped to a dense replay object-id space (object-table order)
and the interleaved op stream is replayed verbatim by one core.  That
preserves the *access pattern* — including the interleaving contention
produced — while making the replay a pure function of the trace file.

Every object is mapped INOUT over its recorded initial image (OUT
objects recorded their zeroed allocation), so reads are well-defined
from op zero and every object's final contents are verified bit-exact
against the software reference, which replays the same accumulator
semantics (:mod:`repro.coproc.kernels.tracefile`) over the images.
"""

from __future__ import annotations

from pathlib import Path

from repro.apps import synthetic as synthetic_app
from repro.coproc.kernels import tracefile as replay_core
from repro.core.runner import ObjectSpec, WorkloadSpec
from repro.os.vim.objects import Direction
from repro.trace.record import TraceError, TraceFile, load_trace

#: Highest usable replay object id (0xFF is the parameter page).
_MAX_OBJECTS = 0xFF


def replay_ops(trace: TraceFile) -> list[replay_core.ReplayOp]:
    """The trace's op stream in replay form (dense object ids)."""
    remap = {
        (obj.tenant, obj.obj): index for index, obj in enumerate(trace.objects)
    }
    return [
        (op.write, remap[(op.tenant, op.obj)], op.addr, op.size)
        for op in trace.ops
    ]


def replay_reference(
    trace: TraceFile, ops: list[replay_core.ReplayOp]
) -> dict[int, bytes]:
    """Final object images after replaying *ops* in software.

    Mirrors :class:`~repro.coproc.kernels.tracefile.TraceReplayCore`
    op for op (same accumulator pipeline, same write masking), the way
    :func:`repro.apps.synthetic.run_reference` mirrors the synthetic
    core — the verification oracle of every replay execution.
    """
    images = {
        index: bytearray(obj.data) for index, obj in enumerate(trace.objects)
    }
    acc = synthetic_app.ACC_INIT
    for is_write, obj, addr, size in ops:
        image = images[obj]
        if is_write:
            value = replay_core.masked_write_value(acc, addr, size)
            image[addr:addr + size] = value.to_bytes(size, "little")
            acc = synthetic_app.mix_write(acc, value)
        else:
            value = int.from_bytes(image[addr:addr + size], "little")
            acc = synthetic_app.mix_read(acc, value)
    return {index: bytes(image) for index, image in images.items()}


def trace_workload(
    path: str | Path, expected_digest: str | None = None
) -> WorkloadSpec:
    """Build the replay workload of the trace file at *path*.

    Passing *expected_digest* (the digest a sweep cell's config hash
    was computed from) makes a swapped-out file fail loudly instead of
    silently replaying a different trace under the old cache identity.
    """
    trace = load_trace(path)
    if expected_digest is not None and trace.digest != expected_digest:
        raise TraceError(
            f"{path}: trace digest {trace.digest[:16]}... does not match "
            f"the configured {expected_digest[:16]}... — the file changed "
            "since the cell was specified"
        )
    if len(trace.objects) > _MAX_OBJECTS:
        raise TraceError(
            f"{path}: {len(trace.objects)} recorded objects exceed the "
            f"{_MAX_OBJECTS}-entry replay object namespace"
        )
    ops = replay_ops(trace)
    objects = tuple(
        ObjectSpec(
            obj_id=index,
            name=f"t{obj.tenant}-{obj.name}",
            direction=Direction.INOUT,
            size=obj.size,
            data=obj.data,
        )
        for index, obj in enumerate(trace.objects)
    )
    expected = replay_reference(trace, ops)

    def reference() -> dict[int, bytes]:
        return dict(expected)

    return WorkloadSpec(
        name=f"trace-{trace.digest[:10]}",
        bitstream=replay_core.bitstream(ops, trace.digest),
        objects=objects,
        params=(len(ops),),
        sw_cycles=synthetic_app.sw_cycles(len(ops)),
        reference=reference,
    )
