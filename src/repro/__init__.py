"""repro — Operating-system support for interface virtualisation of
reconfigurable coprocessors.

A laptop-scale reproduction of Vuletic, Righetti, Pozzi and Ienne
(DATE 2004): a cycle-level reconfigurable-SoC simulator, the IMU
(Interface Management Unit) with its CAM TLB, a mini operating system
hosting the VIM (Virtual Interface Manager), portable coprocessor
kernels (vector add, ADPCM decode, IDEA), and a benchmark harness
regenerating every figure of the paper's evaluation.

Quick start::

    from repro import System, adpcm_workload, run_software, run_vim

    workload = adpcm_workload(2 * 1024)
    sw = run_software(System(), workload)
    hw = run_vim(System(), workload)
    hw.verify()                       # bit-exact vs the reference
    print(hw.measurement.speedup_over(sw.measurement))
"""

from repro.core import (
    EPXA1,
    EPXA4,
    EPXA10,
    PRESETS,
    CoprocessorSession,
    Measurement,
    ObjectSpec,
    RunResult,
    SocConfig,
    System,
    VirtualInterface,
    WorkloadSpec,
    adpcm_encode_workload,
    adpcm_workload,
    idea_workload,
    run_software,
    run_typical,
    run_vim,
    vector_add_workload,
)
from repro.errors import CapacityError, ReproError
from repro.os.vim.manager import TransferMode
from repro.os.vim.objects import Direction, Hint
from repro.os.vim.prefetch import SequentialPrefetcher

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CoprocessorSession",
    "Direction",
    "Hint",
    "Measurement",
    "ObjectSpec",
    "PRESETS",
    "ReproError",
    "RunResult",
    "SequentialPrefetcher",
    "SocConfig",
    "System",
    "TransferMode",
    "VirtualInterface",
    "WorkloadSpec",
    "adpcm_encode_workload",
    "adpcm_workload",
    "idea_workload",
    "run_software",
    "run_typical",
    "run_vim",
    "vector_add_workload",
    "EPXA1",
    "EPXA4",
    "EPXA10",
    "__version__",
]
