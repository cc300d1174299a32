"""Integration tests for the three execution drivers."""

import pytest

from repro.accounting import Bucket
from repro.core.drivers import adpcm_workload, idea_workload, vector_add_workload
from repro.core.runner import ObjectSpec, run_software, run_typical, run_vim
from repro.core.soc import EPXA4
from repro.core.system import System
from repro.errors import CapacityError, VimError
from repro.os.vim.manager import TransferMode
from repro.os.vim.objects import Direction
from repro.os.vim.prefetch import SequentialPrefetcher


class TestRunSoftware:
    def test_outputs_match_reference(self, system, vadd_workload):
        result = run_software(system, vadd_workload)
        result.verify()
        assert result.version == "software"

    def test_time_comes_from_cost_model(self, system, vadd_workload):
        result = run_software(system, vadd_workload)
        expected = vadd_workload.sw_cycles * system.soc.cpu_frequency.period_ps
        assert result.measurement.sw_app_ps == expected
        assert result.measurement.hw_ps == 0


class TestRunVim:
    def test_bit_exact_output(self, system, vadd_workload):
        run_vim(system, vadd_workload).verify()

    @pytest.mark.parametrize("option", ["polcy", "shared"])
    def test_unknown_option_refused(self, option, system, vadd_workload):
        # run_vim forwards its options to VirtualInterface, the one
        # place they are declared; a solo run's interface is its own.
        with pytest.raises(TypeError, match=option):
            run_vim(system, vadd_workload, **{option: True})

    def test_no_faults_when_working_set_fits(self, system, vadd_workload):
        result = run_vim(system, vadd_workload)
        assert result.measurement.counters.page_faults == 0
        assert result.measurement.sw_imu_ps > 0  # TLB setup still costs

    def test_faults_when_working_set_exceeds(self, system, vadd_workload_large):
        result = run_vim(system, vadd_workload_large)
        result.verify()
        assert result.measurement.counters.page_faults > 0
        assert result.measurement.counters.evictions > 0

    def test_process_lifecycle(self, system, vadd_workload):
        run_vim(system, vadd_workload)
        # The caller slept during execution and was woken at the end.
        assert system.kernel.scheduler.current is not None
        assert system.kernel.scheduler.current.wakeups == 1

    def test_fabric_released_after_run(self, system, vadd_workload):
        run_vim(system, vadd_workload)
        assert system.fabric.owner_pid is None

    def test_interrupt_line_freed_for_next_run(self, vadd_workload):
        system = System()
        run_vim(system, vadd_workload)
        run_vim(system, vadd_workload).verify()

    @pytest.mark.parametrize("policy", ["fifo", "lru", "random", "second-chance"])
    def test_all_policies_functionally_equivalent(self, policy, vadd_workload_large):
        run_vim(System(), vadd_workload_large, policy=policy).verify()

    @pytest.mark.parametrize("mode", [TransferMode.SINGLE, TransferMode.DOUBLE])
    def test_transfer_modes_functionally_equivalent(self, mode, vadd_workload_large):
        run_vim(System(), vadd_workload_large, transfer_mode=mode).verify()

    def test_single_transfer_is_faster(self, vadd_workload_large):
        double = run_vim(System(), vadd_workload_large)
        single = run_vim(
            System(), vadd_workload_large, transfer_mode=TransferMode.SINGLE
        )
        assert single.total_ms < double.total_ms
        assert single.measurement.hw_ps == double.measurement.hw_ps

    def test_pipelined_imu_faster_same_output(self, vadd_workload):
        normal = run_vim(System(), vadd_workload)
        pipelined = run_vim(System(), vadd_workload, pipelined_imu=True)
        pipelined.verify()
        assert pipelined.measurement.hw_ps < normal.measurement.hw_ps

    def test_lazy_mapping_faults_on_first_touch(self, vadd_workload):
        result = run_vim(System(), vadd_workload, eager_mapping=False)
        result.verify()
        assert result.measurement.counters.page_faults > 0

    def test_prefetch_reduces_faults(self):
        workload = adpcm_workload(4 * 1024, seed=8)
        plain = run_vim(System(), workload)
        prefetched = run_vim(
            System(),
            workload,
            prefetcher=SequentialPrefetcher(aggressive=True),
        )
        prefetched.verify()
        assert (
            prefetched.measurement.counters.page_faults
            < plain.measurement.counters.page_faults
        )

    def test_small_tlb_causes_tlb_refills_not_page_faults(self):
        workload = adpcm_workload(2 * 1024, seed=2)
        full = run_vim(System(), workload)
        tiny = run_vim(System(), workload, tlb_capacity=2)
        tiny.verify()
        # The extra interrupts are translation-only: the data-moving
        # fault count must not be inflated by them.
        assert tiny.measurement.counters.tlb_refills > 0
        assert (
            tiny.measurement.counters.page_faults
            == full.measurement.counters.page_faults
        )
        assert full.measurement.counters.tlb_refills == 0

    def test_buckets_cover_total(self, system, vadd_workload):
        meas = run_vim(system, vadd_workload).measurement
        assert meas.total_ps == meas.hw_ps + sum(meas.buckets.values())
        assert meas.hw_ps > 0
        assert meas.sw_dp_ps > 0

    def test_no_faults_means_setup_only_imu_time(self, system, vadd_workload):
        meas = run_vim(system, vadd_workload).measurement
        assert meas.counters.page_faults == 0
        # Without faults the SW_IMU cost is exactly: TLB setup (the
        # param page plus one eager-mapping insert per object page — 3
        # objects of one page each) and the two register accesses of
        # the end-of-operation service (read SR, acknowledge done).
        costs = system.costs
        cycles = (1 + 3) * costs.tlb_update_cycles + 2 * costs.imu_register_cycles
        assert meas.sw_imu_ps == cycles * system.soc.cpu_frequency.period_ps

    def test_larger_soc_absorbs_faults(self, vadd_workload_large):
        small = run_vim(System(), vadd_workload_large)
        large = run_vim(System(EPXA4), vadd_workload_large)
        large.verify()
        assert large.measurement.counters.page_faults == 0
        assert small.measurement.counters.page_faults > 0


class TestRunTypical:
    def test_bit_exact_output(self, system, vadd_workload):
        run_typical(system, vadd_workload).verify()

    def test_capacity_error_when_too_big(self, system, vadd_workload_large):
        # 3 x 8 KB on a 16 KB DP-RAM: the paper's "exceeds available
        # memory" case.
        with pytest.raises(CapacityError):
            run_typical(system, vadd_workload_large)

    def test_no_os_charges(self, system, vadd_workload):
        meas = run_typical(system, vadd_workload).measurement
        assert meas.sw_imu_ps == 0
        assert meas.sw_other_ps == 0
        assert meas.sw_dp_ps > 0  # driver still copies data

    def test_typical_beats_vim(self, idea_small):
        vim = run_vim(System(), idea_small)
        typical = run_typical(System(), idea_small)
        assert typical.total_ms < vim.total_ms


class TestObjectSpecValidation:
    def test_in_object_requires_data(self):
        with pytest.raises(VimError):
            ObjectSpec(0, "a", Direction.IN, 16)

    def test_data_length_must_match(self):
        with pytest.raises(VimError):
            ObjectSpec(0, "a", Direction.IN, 16, data=bytes(8))

    def test_out_object_without_data_ok(self):
        spec = ObjectSpec(1, "out", Direction.OUT, 16)
        assert spec.data is None


class TestVerify:
    def test_verify_reports_first_differing_byte(self, system, vadd_workload):
        result = run_vim(system, vadd_workload)
        corrupted = bytearray(result.outputs[2])
        corrupted[5] ^= 0xFF
        result.outputs[2] = bytes(corrupted)
        with pytest.raises(VimError, match="byte 5"):
            result.verify()

    def test_verify_detects_missing_output(self, system, vadd_workload):
        result = run_vim(system, vadd_workload)
        del result.outputs[2]
        with pytest.raises(VimError, match="no output"):
            result.verify()
