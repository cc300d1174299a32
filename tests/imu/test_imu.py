"""Unit tests for the IMU translation FSM and its protocol.

These tests pin down the paper's timing contract (Figure 7: data ready
on the fourth rising edge), the stall-on-miss behaviour, the interrupt
protocol, and the parameter-page lifecycle.
"""

import pytest

from repro.coproc.ports import PARAM_OBJECT
from repro.errors import HardwareError
from repro.hw.dpram import DualPortRam
from repro.hw.interrupts import InterruptController
from repro.imu.imu import INT_PLD_LINE, Imu, ImuState
from tests.helpers import make_imu_rig


def preload(rig, obj, vpage, ppage, words=()):
    """Insert a translation and optionally fill the physical page."""
    rig.imu.tlb.insert(obj, vpage, ppage)
    base = rig.dpram.page_base(ppage)
    for offset, value in words:
        rig.dpram.write_word(base + offset, value)


class TestReadTiming:
    def test_data_ready_on_fourth_edge(self):
        # Figure 7: "Data is ready on the fourth rising edge."
        rig = make_imu_rig([("read", 0, 4)])
        preload(rig, 0, 0, 2, [(4, 0xDEAD)])
        rig.run()
        assert rig.core.results == [0xDEAD]
        assert rig.core.stamps == [4]

    def test_pipelined_data_on_second_edge(self):
        rig = make_imu_rig([("read", 0, 4)], pipelined=True)
        preload(rig, 0, 0, 2, [(4, 0xBEEF)])
        rig.run()
        assert rig.core.stamps == [2]

    def test_longer_translation_delays_data(self):
        rig = make_imu_rig([("read", 0, 4)], access_cycles=6)
        preload(rig, 0, 0, 2, [(4, 1)])
        rig.run()
        assert rig.core.stamps == [6]

    def test_back_to_back_reads(self):
        # The second request is issued on the edge the first data
        # arrives, so consecutive accesses cost 3 extra edges each.
        rig = make_imu_rig([("read", 0, 0), ("read", 0, 4)])
        preload(rig, 0, 0, 2, [(0, 10), (4, 20)])
        rig.run()
        assert rig.core.results == [10, 20]
        assert rig.core.stamps == [4, 7]

    def test_sync_cycles_add_latency(self):
        plain = make_imu_rig([("read", 0, 4)])
        preload(plain, 0, 0, 2, [(4, 1)])
        plain.run()
        synced = make_imu_rig([("read", 0, 4)], sync_cycles=4)
        preload(synced, 0, 0, 2, [(4, 1)])
        synced.run()
        assert synced.core.stamps[0] == plain.core.stamps[0] + 4

    def test_sub_word_read_sizes(self):
        rig = make_imu_rig([("read", 0, 0, 1), ("read", 0, 2, 2)])
        preload(rig, 0, 0, 1)
        rig.dpram.write(rig.dpram.page_base(1), bytes([0xAA, 0, 0xCD, 0xAB]))
        rig.run()
        assert rig.core.results == [0xAA, 0xABCD]


class TestWritePath:
    def test_write_lands_at_translated_address(self):
        rig = make_imu_rig([("write", 3, 8, 0x1234)])
        preload(rig, 3, 0, 5)
        rig.run()
        assert rig.dpram.read_word(rig.dpram.page_base(5) + 8) == 0x1234

    def test_write_sets_dirty_bit(self):
        rig = make_imu_rig([("write", 3, 8, 1)])
        preload(rig, 3, 0, 5)
        rig.run()
        entry = rig.imu.tlb.probe(3, 0)
        assert entry.dirty

    def test_read_does_not_set_dirty(self):
        rig = make_imu_rig([("read", 0, 0)])
        preload(rig, 0, 0, 2)
        rig.run()
        assert not rig.imu.tlb.probe(0, 0).dirty

    def test_half_word_write(self):
        rig = make_imu_rig([("write", 0, 6, 0xFFEE, 2)])
        preload(rig, 0, 0, 0)
        rig.run()
        assert rig.dpram.read_word(6, size=2) == 0xFFEE


class TestFaultPath:
    def test_miss_raises_interrupt_and_stalls(self):
        rig = make_imu_rig([("read", 0, 4)])
        rig.run(until=lambda: rig.interrupts.is_pending(INT_PLD_LINE))
        assert rig.imu.sr.fault
        assert rig.imu.stalled_on_fault
        assert not rig.core.finished
        assert rig.imu.faults == 1

    def test_ar_identifies_faulting_access(self):
        # "By examining this register, the OS can determine which
        # memory access possibly caused an access fault."
        rig = make_imu_rig([("read", 7, 0x1A0C)])
        rig.run(until=lambda: rig.imu.sr.fault)
        assert rig.imu.ar.obj == 7
        assert rig.imu.ar.addr == 0x1A0C
        assert not rig.imu.ar.write

    def test_restart_completes_access(self):
        rig = make_imu_rig([("read", 0, 4)])
        rig.run(until=lambda: rig.imu.sr.fault)
        # The "VIM" fixes the TLB and restarts the translation.
        rig.imu.tlb.insert(0, 0, 3)
        rig.dpram.write_word(rig.dpram.page_base(3) + 4, 0x77)
        rig.imu.restart_translation()
        rig.run()
        assert rig.core.results == [0x77]
        assert not rig.imu.sr.fault

    def test_stall_duration_counted(self):
        rig = make_imu_rig([("read", 0, 4)])
        rig.run(until=lambda: rig.imu.sr.fault)
        before = rig.imu.fault_stall_cycles
        rig.run(until=lambda: rig.imu.fault_stall_cycles >= before + 10)
        assert rig.imu.fault_stall_cycles >= before + 10

    def test_restart_without_fault_rejected(self, imu: Imu):
        with pytest.raises(HardwareError):
            imu.restart_translation()

    def test_fault_interrupt_respects_int_enable(self):
        from repro.imu.registers import ControlRegister

        rig = make_imu_rig([("read", 0, 4)])
        rig.imu.cr.clear(ControlRegister.INT_ENABLE)
        rig.run(until=lambda: rig.imu.sr.fault)
        assert not rig.interrupts.is_pending(INT_PLD_LINE)


class TestCompletion:
    def test_finish_sets_done_and_interrupts(self):
        rig = make_imu_rig([("read", 0, 0)])
        preload(rig, 0, 0, 0)
        rig.run(until=lambda: rig.imu.sr.done)
        assert rig.imu.sr.done
        assert not rig.imu.sr.busy
        assert rig.interrupts.is_pending(INT_PLD_LINE)

    def test_busy_during_execution(self):
        rig = make_imu_rig([("compute", 50)])
        rig.imu.start_coprocessor()
        assert rig.imu.sr.busy
        rig.domain.start()
        rig.engine.run_until(lambda: rig.core.finished, max_time_ps=10_000_000)
        rig.domain.stop()

    def test_acknowledge_done_clears(self):
        rig = make_imu_rig([("compute", 1)])
        rig.run(until=lambda: rig.imu.sr.done)
        rig.imu.acknowledge_done()
        assert not rig.imu.sr.done
        assert not rig.interrupts.is_pending(INT_PLD_LINE)


class TestParameterPage:
    def test_params_read_through_param_object(self):
        rig = make_imu_rig([("param", 0), ("param", 1)])
        preload(rig, PARAM_OBJECT, 0, 0, [(0, 42), (4, 99)])
        rig.run()
        assert rig.core.results == [42, 99]

    def test_release_invalidates_param_translation(self):
        # §3.2: the coprocessor "invalidates the parameter-passing page,
        # in this way making it available for data mapping purposes".
        rig = make_imu_rig([("param", 0), ("release_params",)])
        preload(rig, PARAM_OBJECT, 0, 0, [(0, 1)])
        rig.run()
        assert rig.imu.tlb.probe(PARAM_OBJECT, 0) is None
        assert rig.imu.sr.param_released


class TestCrossDomain:
    def test_slow_core_fast_imu(self):
        # IDEA style: core at 6 MHz, IMU at 24 MHz.
        rig = make_imu_rig([("read", 0, 0)], core_mhz=6.0, imu_mhz=24.0)
        preload(rig, 0, 0, 1, [(0, 0x55)])
        rig.run(max_cycles=200)
        assert rig.core.results == [0x55]
        # The 4-cycle IMU access hides inside two slow-core cycles.
        assert rig.core.stamps[0] <= 3

    def test_sync_cycles_visible_to_slow_core(self):
        fast = make_imu_rig([("read", 0, 0)], core_mhz=6.0, imu_mhz=24.0)
        preload(fast, 0, 0, 1, [(0, 1)])
        fast.run(max_cycles=200)
        slow = make_imu_rig(
            [("read", 0, 0)], core_mhz=6.0, imu_mhz=24.0, sync_cycles=6
        )
        preload(slow, 0, 0, 1, [(0, 1)])
        slow.run(max_cycles=200)
        assert slow.core.stamps[0] > fast.core.stamps[0]


class TestResetAndStats:
    def test_reset_clears_state(self):
        rig = make_imu_rig([("read", 0, 4)])
        rig.run(until=lambda: rig.imu.sr.fault)
        rig.imu.reset()
        assert rig.imu.state is ImuState.IDLE
        assert len(rig.imu.tlb) == 0
        assert not rig.imu.sr.fault
        assert rig.imu.ports.cp_tlbhit.value == 0

    def test_counters(self):
        rig = make_imu_rig([("read", 0, 0), ("write", 0, 4, 9)])
        preload(rig, 0, 0, 0)
        rig.run()
        assert rig.imu.reads == 1
        assert rig.imu.writes == 1
        assert rig.imu.translations == 2
        rig.imu.reset_stats()
        assert rig.imu.translations == 0

    def test_invalid_parameters_rejected(self):
        dpram = DualPortRam()
        ic = InterruptController()
        with pytest.raises(HardwareError):
            Imu(dpram, ic, access_cycles=1)
