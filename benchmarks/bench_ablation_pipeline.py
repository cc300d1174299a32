"""ABL1 — pipelined IMU (the paper's announced improvement).

§4.1: "we are now working on a pipelined implementation of the IMU
which is expected to mask almost completely the translation overhead."
The ablation runs both applications with the 4-cycle and the pipelined
IMU and quantifies how much of the translation overhead pipelining
recovers.
"""

from repro.exp import ablation_pipelined
from repro.exp.spec import CellConfig


def test_abl1_pipelined_imu():
    results = {
        "idea-8KB": ablation_pipelined(
            CellConfig(app="idea", input_bytes=8 * 1024)
        ),
        "adpcm-4KB": ablation_pipelined(
            CellConfig(app="adpcm", input_bytes=4 * 1024)
        ),
    }
    for name, rows in results.items():
        multi, pipe = rows.values()
        assert pipe.vim_ms < multi.vim_ms, name
        assert pipe.hw_ms < multi.hw_ms, name
