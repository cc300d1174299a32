"""Unit tests for the FPGA_LOAD / FPGA_MAP_OBJECT / FPGA_EXECUTE layer."""

import pytest

from repro.accounting import Measurement
from repro.coproc.kernels import vector_add
from repro.errors import SyscallError
from repro.hw.bus import AhbBus
from repro.hw.dpram import DualPortRam
from repro.hw.fpga import PldFabric
from repro.hw.interrupts import InterruptController
from repro.imu.imu import Imu
from repro.os.costs import CpuCostModel
from repro.os.kernel import Kernel
from repro.os.process import ProcessState
from repro.os.syscalls import FpgaServices
from repro.os.vim.manager import Vim
from repro.os.vim.objects import Direction
from repro.sim.engine import Engine
from repro.sim.time import mhz


@pytest.fixture
def services():
    kernel = Kernel(Engine(), mhz(133.0), CpuCostModel(), InterruptController())
    dpram = DualPortRam()
    imu = Imu(dpram, kernel.interrupts)
    vim = Vim(kernel, dpram, AhbBus(), imu)
    kernel.attach_measurement(Measurement())
    return FpgaServices(kernel, PldFabric(), vim)


@pytest.fixture
def running_process(services):
    process = services.kernel.spawn("app")
    services.kernel.scheduler.pick_next()
    return process


class TestFpgaLoad:
    def test_load_configures_and_owns(self, services, running_process):
        services.fpga_load(running_process, vector_add.bitstream())
        assert services.fabric.owner_pid == running_process.pid

    def test_load_advances_time_for_configuration(self, services, running_process):
        before = services.kernel.engine.now
        services.fpga_load(running_process, vector_add.bitstream())
        assert services.kernel.engine.now > before


class TestFpgaMapObject:
    def test_map_requires_fabric_ownership(self, services, running_process):
        buffer = services.kernel.user_memory.alloc("a", 64, running_process.pid)
        with pytest.raises(SyscallError):
            services.fpga_map_object(running_process, 0, buffer, 64, Direction.IN)

    def test_map_rejects_foreign_buffer(self, services, running_process):
        services.fpga_load(running_process, vector_add.bitstream())
        foreign = services.kernel.user_memory.alloc("f", 64, running_process.pid + 1)
        with pytest.raises(SyscallError):
            services.fpga_map_object(running_process, 0, foreign, 64, Direction.IN)

    def test_map_registers_with_vim(self, services, running_process):
        services.fpga_load(running_process, vector_add.bitstream())
        buffer = services.kernel.user_memory.alloc("a", 64, running_process.pid)
        services.fpga_map_object(running_process, 3, buffer, 64, Direction.IN)
        assert 3 in services.vim.objects

    def test_map_passes_optimisation_hints(self, services, running_process):
        # §3.1: "optionally (d) some flags used for optimisation".
        from repro.os.vim.objects import Hint

        services.fpga_load(running_process, vector_add.bitstream())
        buffer = services.kernel.user_memory.alloc("a", 64, running_process.pid)
        services.fpga_map_object(
            running_process, 0, buffer, 64, Direction.IN, Hint.PINNED | Hint.STREAM
        )
        mapped = services.vim.objects[0]
        assert mapped.pinned
        assert mapped.streaming


class TestFpgaExecute:
    def test_execute_sleeps_caller_and_starts_imu(self, services, running_process):
        services.fpga_load(running_process, vector_add.bitstream())
        buffer = services.kernel.user_memory.alloc("a", 64, running_process.pid)
        services.fpga_map_object(running_process, 0, buffer, 64, Direction.IN)
        services.fpga_execute(running_process, [16])
        assert running_process.state is ProcessState.SLEEPING
        assert services.vim.imu.sr.busy
        assert services.vim.imu.ports.cp_start.value == 1

    def test_execute_requires_ownership(self, services, running_process):
        with pytest.raises(SyscallError):
            services.fpga_execute(running_process, [1])

    def test_execute_sleeps_non_current_process_directly(
        self, services, running_process
    ):
        other = services.kernel.spawn("other")
        services.fpga_load(other, vector_add.bitstream())
        buffer = services.kernel.user_memory.alloc("a", 64, other.pid)
        services.fpga_map_object(other, 0, buffer, 64, Direction.IN)
        services.fpga_execute(other, [16])
        assert other.state is ProcessState.SLEEPING
