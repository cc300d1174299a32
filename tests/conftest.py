"""Shared fixtures for the test suite.

Workload sizes here are deliberately small (hundreds of bytes to a few
KB) so the full suite runs in seconds; the paper-scale sizes live in
``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.core.drivers import adpcm_workload, idea_workload, vector_add_workload
from repro.core.soc import SocConfig
from repro.core.system import System
from repro.hw.dpram import DualPortRam
from repro.hw.interrupts import InterruptController
from repro.imu.imu import Imu
from repro.sim.engine import Engine
from repro.sim.time import mhz


@pytest.fixture
def engine() -> Engine:
    """A fresh discrete-event engine."""
    return Engine()


@pytest.fixture
def system() -> System:
    """A fresh EPXA1 system."""
    return System()


@pytest.fixture
def small_soc() -> SocConfig:
    """A tiny SoC (4 pages of 256 bytes) that faults early."""
    return SocConfig(name="tiny", dpram_bytes=1024, page_bytes=256)


@pytest.fixture
def small_system(small_soc: SocConfig) -> System:
    """A system built on the tiny SoC."""
    return System(small_soc)


@pytest.fixture
def dpram() -> DualPortRam:
    """A stand-alone EPXA1-sized dual-port RAM."""
    return DualPortRam()


@pytest.fixture
def imu(dpram: DualPortRam) -> Imu:
    """An IMU over a fresh DP-RAM and interrupt controller."""
    return Imu(dpram, InterruptController())


@pytest.fixture
def vadd_workload():
    """A small vector-add workload (fits the DP-RAM, no faults)."""
    return vector_add_workload(32, seed=7)


@pytest.fixture
def vadd_workload_large():
    """A vector-add workload larger than the EPXA1 DP-RAM (faults)."""
    return vector_add_workload(2048, seed=11)


@pytest.fixture
def adpcm_small():
    """A small adpcm workload (one input page, no faults on EPXA1)."""
    return adpcm_workload(1024, seed=3)


@pytest.fixture
def idea_small():
    """A small IDEA workload (512 bytes, no faults on EPXA1)."""
    return idea_workload(512, seed=5)


@pytest.fixture
def clock_40mhz(engine: Engine):
    """A 40 MHz clock domain on the fresh engine."""
    from repro.sim.clock import ClockDomain

    return ClockDomain(engine, "fabric", mhz(40.0))
