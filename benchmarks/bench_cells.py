"""CELLS — the paper's cells with the simulator's work counters.

Each cell runs once through a :class:`~repro.core.session.
CoprocessorSession` built the way :func:`repro.core.runner.run_vim`
builds it, so the bench can read the session's clock domains before
``close()``.  ``extra_info`` records the deterministic work the cell
took, which ``tools/bench_diff.py`` gates exactly:

* ``edges_accounted`` — clock edges the cell's domains went through;
* ``edges_executed`` — the edges among them that ran a handler (the
  others were counted, not run);
* ``imu_accesses`` and ``page_faults``.

``wall_s`` holds the host seconds of the execution: reported, never
gated.
"""

from __future__ import annotations

import time

import pytest
from conftest import emit

from repro.core.drivers import adpcm_workload, idea_workload
from repro.core.runner import verify_outputs
from repro.core.session import CoprocessorSession
from repro.core.system import System
from repro.exp.report import render_table
from repro.os.vim.manager import TransferMode

KB = 1024

CELLS = {
    "adpcm-8KB": (lambda: adpcm_workload(8 * KB), TransferMode.DOUBLE),
    "idea-32KB": (lambda: idea_workload(32 * KB), TransferMode.DOUBLE),
    "adpcm-8KB-dma": (lambda: adpcm_workload(8 * KB), TransferMode.DMA),
}


def run_cell_counted(name: str) -> dict:
    """Run cell *name* once; its verified work counters and host time."""
    build, transfer_mode = CELLS[name]
    workload = build()
    session = CoprocessorSession(
        System(),
        workload.bitstream,
        transfer_mode=transfer_mode,
        process_name=workload.name,
    )
    try:
        for spec in workload.objects:
            session.map_object(
                spec.obj_id, spec.name, spec.size, spec.direction, data=spec.data
            )
        start = time.perf_counter()
        result = session.execute(list(workload.params), label=f"{name}/vim")
        wall_s = time.perf_counter() - start
        domains = session.domains
        imu = session.imu
        info = {
            "edges_accounted": sum(domain.cycles for domain in domains),
            "edges_executed": sum(domain.executed for domain in domains),
            "imu_accesses": imu.reads + imu.writes,
            "page_faults": result.measurement.counters.page_faults,
            "wall_s": wall_s,
        }
    finally:
        session.close()
    verify_outputs(name, workload.reference(), result.outputs)
    return info


@pytest.mark.parametrize("name", list(CELLS))
def test_cells_edge_work(benchmark, name):
    info = benchmark.pedantic(run_cell_counted, args=(name,), rounds=1, iterations=1)
    benchmark.extra_info.update(info)
    emit(
        f"CELLS: {name}",
        render_table(
            ["edges accounted", "edges executed", "IMU accesses", "faults", "host s"],
            [[info["edges_accounted"], info["edges_executed"],
              info["imu_accesses"], info["page_faults"], info["wall_s"]]],
        ),
    )
    # Idle edges are counted, not run.
    assert info["edges_executed"] < info["edges_accounted"]
