"""Record a grid cell's address trace (the ``repro record`` driver).

Runs one :class:`~repro.exp.spec.CellConfig` with a
:class:`~repro.trace.record.TraceRecorder` installed on the IMU and
writes the captured stream as a trace file
(:mod:`repro.trace.record`), which the ``trace`` app
(:mod:`repro.apps.tracefile`) can then replay as a sweep axis value.

The recording is deterministic: the same cell config always produces
a byte-identical trace file (and therefore the same digest), because
the simulation is deterministic, object images are seeded, and the
file format carries no timestamps.  That property is what lets CI
re-record its smoke trace on every run and still hit the same cached
replay cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.runner import run_vim
from repro.core.system import System
from repro.core.tenancy import run_tenants
from repro.errors import ReproError
from repro.exp.cell import (
    _TRANSFER_MODES,
    build_prefetcher,
    build_soc,
    build_tenant_workloads,
    build_workload,
)
from repro.exp.spec import CellConfig
from repro.os.vim.objects import Direction
from repro.os.workload import Workload
from repro.trace.record import TraceFile, TraceObject, TraceRecorder, write_trace

#: Direction -> trace-file direction string.
_DIRECTION_NAMES = {
    Direction.IN: "in",
    Direction.OUT: "out",
    Direction.INOUT: "inout",
}


@dataclass(frozen=True)
class RecordOutcome:
    """What ``record_cell`` captured and where it put it."""

    path: Path
    trace: TraceFile

    @property
    def digest(self) -> str:
        return self.trace.digest


def _trace_objects(workloads: list[Workload]) -> list[TraceObject]:
    """The trace object table: every tenant's objects, initial images.

    OUT objects have no input data; they record their zeroed
    allocation (what :class:`~repro.os.vmm.UserMemory` hands out), so
    replay reads are well-defined from op zero.
    """
    objects = []
    for tenant, workload in enumerate(workloads):
        for spec in workload.spec.objects:
            objects.append(
                TraceObject(
                    tenant=tenant,
                    obj=spec.obj_id,
                    name=spec.name,
                    size=spec.size,
                    direction=_DIRECTION_NAMES[spec.direction],
                    data=spec.data if spec.data is not None else bytes(spec.size),
                )
            )
    return objects


def record_cell(
    config: CellConfig, path: str | Path, force: bool = False
) -> RecordOutcome:
    """Run *config* once under a recorder and write its trace to *path*.

    Only the VIM version runs (a trace is the virtualised access
    stream; the software and typical versions have no IMU to record),
    with outputs verified bit-exact against the software reference
    before the trace is written — a trace of a wrong run would be a
    durable artifact of the wrongness.
    """
    if config.replicates > 1:
        raise ReproError(
            "record needs a single run to trace; use --replicates 1 "
            "(a replicated cell runs once per derived seed)"
        )
    recorder = TraceRecorder()
    soc = build_soc(config)
    if config.tenants > 1 or config.tenant_repeats > 1:
        workloads = build_tenant_workloads(config)
        result = run_tenants(
            System(soc),
            workloads,
            policy=config.policy,
            transfer_mode=_TRANSFER_MODES[config.transfer],
            pipelined_imu=config.pipelined_imu,
            access_cycles=config.access_cycles,
            prefetcher=build_prefetcher(config),
            tlb_capacity=config.tlb_capacity,
            sched=config.sched,
            recorder=recorder,
        )
        # Shared-interface accesses are tagged with the tenant process's
        # pid; the trace stores workload-order tenant indices instead,
        # because pids are a spawn-order artifact.
        asid_to_tenant = {
            run.stats.asid: index for index, run in enumerate(result.tenants)
        }
    else:
        workload = build_workload(config)
        workloads = [Workload(spec=workload)]
        run = run_vim(
            System(soc),
            workload,
            policy=config.policy,
            transfer_mode=_TRANSFER_MODES[config.transfer],
            pipelined_imu=config.pipelined_imu,
            access_cycles=config.access_cycles,
            prefetcher=build_prefetcher(config),
            tlb_capacity=config.tlb_capacity,
            recorder=recorder,
        )
        run.verify()
        asid_to_tenant = {0: 0}
    meta = {
        "source": "repro record",
        "label": config.label(),
        "cell": config.to_dict(),
    }
    trace = write_trace(
        path,
        meta=meta,
        objects=_trace_objects(workloads),
        ops=recorder.ops_for(asid_to_tenant),
        force=force,
    )
    return RecordOutcome(path=Path(path), trace=trace)
