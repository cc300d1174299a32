"""End-to-end tests of the DMA transfer mode.

The contract: ``TransferMode.DMA`` changes *when and who* moves pages
(descriptors draining on the AHB instead of serial CPU copies) but
never *what* arrives — outputs stay byte-identical to the CPU-copy
modes and to pure software, solo and under multi-tenant contention.
"""

import pytest

from repro.core.drivers import adpcm_workload, idea_workload, vector_add_workload
from repro.core.runner import run_vim
from repro.core.session import CoprocessorSession, VirtualInterface
from repro.core.system import System
from repro.core.tenancy import run_tenants
from repro.exp.cell import build_tenant_workloads
from repro.exp.spec import CellConfig
from repro.hw.dma import INT_DMA_LINE
from repro.imu.imu import INT_PLD_LINE
from repro.os.vim.manager import TransferMode
from repro.os.workload import Workload


class TestSoloEquivalence:
    @pytest.mark.parametrize("builder", [
        lambda: adpcm_workload(8 * 1024, seed=3),
        lambda: idea_workload(8 * 1024, seed=4),
        lambda: vector_add_workload(900, seed=5),
    ])
    def test_dma_outputs_match_double(self, builder):
        double = run_vim(System(), builder())
        dma = run_vim(System(), builder(), transfer_mode=TransferMode.DMA)
        dma.verify()
        assert dma.outputs == double.outputs

    def test_dma_cuts_dp_management_time(self):
        workload = adpcm_workload(8 * 1024, seed=3)
        single = run_vim(
            System(), workload, transfer_mode=TransferMode.SINGLE
        )
        dma = run_vim(System(), workload, transfer_mode=TransferMode.DMA)
        assert dma.measurement.sw_dp_ps < single.measurement.sw_dp_ps
        assert dma.measurement.hw_ps == single.measurement.hw_ps
        assert dma.measurement.counters.dma_transfers > 0

    def test_fault_sequence_unchanged(self):
        workload = adpcm_workload(8 * 1024, seed=3)
        double = run_vim(System(), workload)
        dma = run_vim(System(), workload, transfer_mode=TransferMode.DMA)
        for name in ("page_faults", "evictions", "writebacks",
                     "bytes_to_dpram", "bytes_from_dpram"):
            assert getattr(dma.measurement.counters, name) == getattr(
                double.measurement.counters, name
            ), name


class TestCompletionOrdering:
    """Completion-interrupt ordering vs end-of-operation: the flush is
    double-buffered, so its descriptors are still draining when the
    done service has already woken the caller."""

    def _session(self, system, workload):
        session = CoprocessorSession(
            system,
            workload.bitstream,
            VirtualInterface(system, transfer_mode=TransferMode.DMA),
            process_name=workload.name,
        )
        for spec in workload.objects:
            session.map_object(
                spec.obj_id, spec.name, spec.size, spec.direction,
                data=spec.data,
            )
        return session

    def test_flush_drains_after_end_of_operation(self):
        system = System()
        workload = vector_add_workload(900, seed=5)  # dirty OUT pages
        with self._session(system, workload) as session:
            result = session.execute(list(workload.params))
            # execute() returned at end of operation; the flush burst
            # is still on the queue — the double-buffer window.
            assert system.dma.wait_ps() > 0
            # The bytes already landed (moved at submit), so the
            # outputs are complete despite the draining descriptors.
            expected = workload.reference()
            for spec in workload.output_specs():
                assert result.outputs[spec.obj_id] == expected[spec.obj_id]
            # The done interrupt came first; the DMA completion fires
            # strictly after it, once the queue drains.
            assert system.interrupts.raised_count[INT_PLD_LINE] > 0
            assert not system.interrupts.is_pending(INT_DMA_LINE)
            system.engine.advance(system.dma.wait_ps())
            assert system.interrupts.is_pending(INT_DMA_LINE)

    def test_next_execution_services_the_completion(self):
        system = System()
        workload = vector_add_workload(900, seed=5)
        with self._session(system, workload) as session:
            first = session.execute(list(workload.params))
            irqs_before = system.interrupts.raised_count[INT_DMA_LINE]
            second = session.execute(list(workload.params))
            assert second.outputs == first.outputs
            assert system.interrupts.raised_count[INT_DMA_LINE] > irqs_before
            # Serviced, not leaked: the line is clear again.
            assert not system.interrupts.is_pending(INT_DMA_LINE)

    def test_close_clears_a_pending_completion(self):
        system = System()
        workload = vector_add_workload(900, seed=5)
        session = self._session(system, workload)
        session.execute(list(workload.params))
        session.close()
        system.engine.drain()
        assert not system.interrupts.is_pending(INT_DMA_LINE)


class TestAhbContention:
    def test_cpu_copy_stalls_behind_draining_flush(self):
        # Back-to-back executions in DMA mode: the first execution's
        # end-of-operation flush is still draining when the next
        # FPGA_EXECUTE writes the parameter page — a CPU copy that must
        # pay the arbitration stall.  (Between *different* tenants the
        # fabric reconfiguration time absorbs the drain; it is the
        # repeat path that exposes the contention.)
        system = System()
        config = CellConfig(
            app="vadd", input_bytes=4096, tenants=1, tenant_repeats=2,
            transfer="dma",
        )
        run_tenants(
            system,
            build_tenant_workloads(config),
            transfer_mode=TransferMode.DMA,
        )
        assert system.bus.contention_stalls > 0
        assert system.bus.contention_ps > 0

    def test_solo_single_mode_never_stalls(self):
        system = System()
        run_vim(system, adpcm_workload(4 * 1024, seed=2),
                transfer_mode=TransferMode.SINGLE)
        assert system.bus.contention_stalls == 0


class TestContentionGridEquivalence:
    """`repro sweep --preset contention` cells: DMA outputs must be
    byte-identical to double-transfer outputs, tenant by tenant,
    execution by execution."""

    @pytest.mark.parametrize("tenants,mix", [
        (1, "same"),
        (2, "same"),
        (2, "adpcm+idea"),
        (3, "same"),
        (3, "adpcm+idea"),
    ])
    def test_dma_outputs_identical_to_double(self, tenants, mix):
        def outputs_for(mode):
            config = CellConfig(
                app="adpcm", input_bytes=4 * 1024, tenants=tenants,
                tenant_mix=mix, tenant_repeats=2,
                transfer=mode.name.lower(),
            )
            result = run_tenants(
                System(),
                build_tenant_workloads(config),
                transfer_mode=mode,
            )
            return [t.outputs for t in result.tenants]

        assert outputs_for(TransferMode.DMA) == outputs_for(
            TransferMode.DOUBLE
        )
