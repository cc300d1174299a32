"""CELLS — the paper's cells with the simulator's work counters.

Each cell runs once through a :class:`~repro.core.session.
CoprocessorSession` built the way :func:`repro.core.runner.run_vim`
builds it, so the test can read the session's clock domains before
``close()``.  The deterministic work each cell takes is asserted
exactly:

* ``edges_accounted`` — clock edges the cell's domains went through;
* ``edges_executed`` — the edges among them that ran a handler (the
  others were counted, not run);
* ``imu_accesses`` and ``page_faults``.
"""

from __future__ import annotations

import pytest

from repro.core.drivers import adpcm_workload, idea_workload
from repro.core.runner import verify_outputs
from repro.core.session import CoprocessorSession, VirtualInterface
from repro.core.system import System
from repro.os.vim.manager import TransferMode

KB = 1024

CELLS = {
    "adpcm-8KB": (lambda: adpcm_workload(8 * KB), TransferMode.DOUBLE),
    "idea-32KB": (lambda: idea_workload(32 * KB), TransferMode.DOUBLE),
    "adpcm-8KB-dma": (lambda: adpcm_workload(8 * KB), TransferMode.DMA),
}

#: The work counters of each cell: the transfer mode moves no edge.
EXPECTED = {
    "adpcm-8KB": {
        "edges_accounted": 401_446,
        "edges_executed": 65_573,
        "imu_accesses": 24_577,
        "page_faults": 16,
    },
    "idea-32KB": {
        "edges_accounted": 472_095,
        # The 6 MHz core domain sleeps from each issue to the CP_TLBHIT
        # rise; in the adpcm cells the IMU runs that edge anyway.
        "edges_executed": 86_230,
        "imu_accesses": 16_437,
        "page_faults": 25,
    },
    "adpcm-8KB-dma": {
        "edges_accounted": 401_446,
        "edges_executed": 65_573,
        "imu_accesses": 24_577,
        "page_faults": 16,
    },
}


def run_cell_counted(name: str) -> dict:
    """Run cell *name* once; its verified work counters."""
    build, transfer_mode = CELLS[name]
    workload = build()
    system = System()
    session = CoprocessorSession(
        system,
        workload.bitstream,
        VirtualInterface(system, transfer_mode=transfer_mode),
        process_name=workload.name,
    )
    try:
        for spec in workload.objects:
            session.map_object(
                spec.obj_id, spec.name, spec.size, spec.direction, data=spec.data
            )
        result = session.execute(list(workload.params), label=f"{name}/vim")
        domains = session.domains
        imu = session.imu
        info = {
            "edges_accounted": sum(domain.cycles for domain in domains),
            "edges_executed": sum(domain.executed for domain in domains),
            "imu_accesses": imu.reads + imu.writes,
            "page_faults": result.measurement.counters.page_faults,
        }
    finally:
        session.close()
    verify_outputs(name, workload.reference(), result.outputs)
    return info


@pytest.mark.parametrize("name", list(CELLS))
def test_cells_edge_work(name):
    info = run_cell_counted(name)
    assert info == EXPECTED[name]
    # Idle edges are counted, not run.
    assert info["edges_executed"] < info["edges_accounted"]
