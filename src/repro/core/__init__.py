"""Public API: SoC presets, system assembly, runners, measurements."""

from repro.core.drivers import (
    adpcm_encode_workload,
    adpcm_workload,
    idea_workload,
    vector_add_workload,
)
from repro.accounting import Counters, Measurement
from repro.core.runner import (
    ObjectSpec,
    RunResult,
    WorkloadSpec,
    run_software,
    run_typical,
    run_vim,
)
from repro.core.session import CoprocessorSession, VirtualInterface
from repro.core.soc import EPXA1, EPXA4, EPXA10, PRESETS, SocConfig
from repro.core.system import System

__all__ = [
    "CoprocessorSession",
    "Counters",
    "Measurement",
    "ObjectSpec",
    "RunResult",
    "SocConfig",
    "System",
    "VirtualInterface",
    "WorkloadSpec",
    "adpcm_encode_workload",
    "adpcm_workload",
    "idea_workload",
    "vector_add_workload",
    "run_software",
    "run_typical",
    "run_vim",
    "EPXA1",
    "EPXA4",
    "EPXA10",
    "PRESETS",
]
