"""Unit tests for user memory and the kernel accounting choke point."""

import numpy as np
import pytest

from repro.accounting import Bucket, Measurement
from repro.errors import MemoryAccessError, OsError
from repro.hw.interrupts import InterruptController
from repro.os.costs import CpuCostModel
from repro.os.kernel import Kernel
from repro.os.vmm import UserBuffer, UserMemory
from repro.sim.engine import Engine
from repro.sim.time import mhz


class TestUserBuffer:
    def test_roundtrip(self):
        buffer = UserBuffer("b", 16, pid=1)
        buffer.write(4, b"abcd")
        assert buffer.read(4, 4) == b"abcd"

    def test_bounds_enforced(self):
        buffer = UserBuffer("b", 8, pid=1)
        with pytest.raises(MemoryAccessError):
            buffer.read(6, 4)
        with pytest.raises(MemoryAccessError):
            buffer.write(7, b"xy")

    def test_fill_from_exact_size(self):
        buffer = UserBuffer("b", 4, pid=1)
        buffer.fill_from(b"wxyz")
        assert buffer.snapshot() == b"wxyz"
        with pytest.raises(OsError):
            buffer.fill_from(b"toolong")

    def test_zero_initialised(self):
        assert UserBuffer("b", 4, pid=1).snapshot() == bytes(4)

    def test_write_counts_bytes_not_items(self):
        buffer = UserBuffer("b", 8, pid=1)
        buffer.write(0, np.ones(4, np.int16))
        assert buffer.snapshot() == b"\x01\x00" * 4
        with pytest.raises(MemoryAccessError):
            buffer.write(2, np.ones(4, np.int16))  # 8 bytes from offset 2

    def test_fill_from_counts_bytes_not_items(self):
        buffer = UserBuffer("b", 8, pid=1)
        words = np.arange(4, dtype=np.int16)
        buffer.fill_from(words)
        assert buffer.snapshot() == words.tobytes()
        with pytest.raises(OsError, match="16 bytes"):
            buffer.fill_from(np.arange(8, dtype=np.int16))

    def test_zero_size_buffer(self):
        buffer = UserBuffer("b", 0, pid=1)
        assert buffer.snapshot() == b""
        assert buffer.read(0, 0) == b""


class TestUserMemory:
    def test_alloc_and_track(self):
        memory = UserMemory(capacity=100)
        memory.alloc("a", 60, pid=1)
        assert memory.allocated == 60

    def test_capacity_enforced(self):
        memory = UserMemory(capacity=100)
        memory.alloc("a", 60, pid=1)
        with pytest.raises(OsError):
            memory.alloc("b", 50, pid=1)

    def test_free_process_releases(self):
        memory = UserMemory(capacity=100)
        memory.alloc("a", 60, pid=1)
        memory.alloc("b", 20, pid=2)
        memory.free_process(1)
        assert memory.allocated == 20
        assert [b.name for b in memory.buffers()] == ["b"]


def make_kernel() -> Kernel:
    return Kernel(Engine(), mhz(133.0), CpuCostModel(), InterruptController())


class TestKernelAccounting:
    def test_spend_advances_time(self):
        kernel = make_kernel()
        kernel.spend(133, Bucket.SW_OTHER)
        # 133 cycles at 133 MHz == 1 microsecond.
        assert kernel.engine.now == pytest.approx(1_000_000, rel=1e-3)

    def test_spend_charges_measurement(self):
        kernel = make_kernel()
        meas = Measurement()
        kernel.attach_measurement(meas)
        kernel.spend(1000, Bucket.SW_DP)
        assert meas.buckets[Bucket.SW_DP] > 0
        kernel.detach_measurement()
        kernel.spend(1000, Bucket.SW_DP)
        assert meas.buckets[Bucket.SW_DP] == 1000 * kernel.cpu_frequency.period_ps

    def test_spend_without_measurement_allowed(self):
        make_kernel().spend(10, Bucket.SW_OTHER)

    def test_negative_cycles_rejected(self):
        with pytest.raises(OsError):
            make_kernel().spend(-1, Bucket.SW_OTHER)

    def test_measurement_property_requires_attachment(self):
        with pytest.raises(OsError):
            _ = make_kernel().measurement

    def test_spawn_assigns_increasing_pids(self):
        kernel = make_kernel()
        first = kernel.spawn("a")
        second = kernel.spawn("b")
        assert second.pid == first.pid + 1


class TestInterruptService:
    def test_dispatch_charges_entry_and_exit(self):
        kernel = make_kernel()
        meas = Measurement()
        kernel.attach_measurement(meas)
        kernel.interrupts.register(0, lambda line: kernel.interrupts.clear(line))
        kernel.interrupts.raise_line(0)
        count = kernel.service_interrupts()
        assert count == 1
        expected = (
            kernel.costs.irq_entry_cycles + kernel.costs.irq_exit_cycles
        ) * kernel.cpu_frequency.period_ps
        assert meas.buckets[Bucket.SW_OTHER] == expected
        assert meas.counters.interrupts == 1

    def test_no_pending_no_charge(self):
        kernel = make_kernel()
        meas = Measurement()
        kernel.attach_measurement(meas)
        assert kernel.service_interrupts() == 0
        assert meas.buckets[Bucket.SW_OTHER] == 0

    def test_handler_raising_again_is_serviced_again(self):
        kernel = make_kernel()
        state = {"count": 0}

        def handler(line):
            state["count"] += 1
            kernel.interrupts.clear(line)
            if state["count"] < 2:
                kernel.interrupts.raise_line(line)

        kernel.interrupts.register(0, handler)
        kernel.interrupts.raise_line(0)
        kernel.service_interrupts()
        assert state["count"] == 2
