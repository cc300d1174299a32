"""Tests of the experiment drivers (small sizes for speed).

The full paper-scale sweeps run in ``benchmarks/``; here each driver is
exercised end-to-end and its headline *shape* asserted.
"""

import pytest

from repro.exp import (
    ablation_pipelined,
    ablation_policies,
    ablation_prefetch,
    ablation_tlb_capacity,
    ablation_transfers,
    figure7,
    figure8,
    figure9,
    portability,
    translation_overhead,
)
from repro.exp.spec import CellConfig


class TestFigure7:
    def test_data_ready_on_fourth_edge(self):
        result = figure7()
        assert result.data_ready_edge == 4  # the paper's Figure 7
        assert result.value_read == 0x2A

    def test_pipelined_is_faster(self):
        assert figure7(pipelined=True).data_ready_edge < 4

    def test_diagram_contains_signals(self):
        diagram = figure7().diagram
        for name in ("cp_addr", "cp_access", "cp_tlbhit", "cp_din"):
            assert name in diagram


class TestFigure8Shape:
    def test_rows_and_speedup(self):
        rows = figure8(sizes_kb=(2,))
        (row,) = rows
        assert row.page_faults == 0  # 2 KB fits the DP-RAM (paper)
        assert 1.2 < row.vim_speedup < 2.0
        assert row.sw_ms > row.vim_ms

    def test_faults_appear_at_4kb(self):
        row = figure8(sizes_kb=(4,))[0]
        assert row.page_faults > 0


class TestFigure9Shape:
    def test_capacity_cliff(self):
        rows = figure9(sizes_kb=(4, 16))
        small, big = rows
        assert small.typical_fits
        assert small.typical_ms is not None
        assert not big.typical_fits
        assert big.typical_ms is None

    def test_vim_always_runs(self):
        rows = figure9(sizes_kb=(16,))
        assert rows[0].vim_speedup > 5


class TestOverheads:
    def test_translation_overhead_near_paper(self):
        fraction = translation_overhead(CellConfig(app="idea", input_bytes=2 * 1024))
        assert 0.10 < fraction < 0.30  # paper: ~20 %

    def test_imu_fraction_small(self):
        row = figure8(sizes_kb=(2,))[0]
        assert row.sw_imu_fraction < 0.025  # paper: up to 2.5 %


class TestAblations:
    def test_pipelined_improves(self):
        rows = ablation_pipelined(CellConfig(app="idea", input_bytes=1024))
        multi, pipe = rows.values()
        assert pipe.vim_ms < multi.vim_ms

    def test_policies_cover_registry(self):
        rows = ablation_policies(CellConfig(app="adpcm", input_bytes=3 * 1024))
        assert list(rows) == ["fifo", "lru", "random", "second-chance"]

    def test_single_transfer_improves(self):
        rows = ablation_transfers(CellConfig(app="adpcm", input_bytes=3 * 1024))
        double, single, dma = rows.values()
        assert single.sw_dp_ms < double.sw_dp_ms
        assert single.hw_ms == pytest.approx(double.hw_ms)
        # The DMA engine removes the CPU copies entirely: descriptor
        # programming is all that remains in the SW(DP) bucket.
        assert dma.sw_dp_ms < single.sw_dp_ms
        assert dma.hw_ms == pytest.approx(double.hw_ms)
        assert dma.dma_transfers > 0
        assert dma.page_faults == double.page_faults

    def test_aggressive_prefetch_cuts_faults(self):
        rows = ablation_prefetch(CellConfig(app="adpcm", input_bytes=4 * 1024))
        none, _, aggressive, overlapped = rows.values()
        assert aggressive.page_faults < none.page_faults
        assert aggressive.prefetches > 0
        assert overlapped.vim_ms <= aggressive.vim_ms

    def test_smaller_tlb_more_refills(self):
        rows = ablation_tlb_capacity(
            CellConfig(app="adpcm", input_bytes=2 * 1024), capacities=(2, 8)
        )
        small, full = rows.values()
        # Translation churn shows up as TLB refills; the data-moving
        # fault count is a property of the frame pool, not the TLB.
        assert small.tlb_refills > full.tlb_refills
        assert small.page_faults == full.page_faults


class TestPortability:
    def test_same_workload_everywhere(self):
        rows = portability(CellConfig(app="adpcm", input_bytes=4 * 1024))
        assert [r.config.soc for r in rows] == ["EPXA1", "EPXA4", "EPXA10"]
        assert rows[0].page_faults > 0
        assert rows[-1].page_faults == 0  # 128 KB DP-RAM absorbs it

    def test_bigger_memory_never_slower(self):
        rows = portability(CellConfig(app="adpcm", input_bytes=4 * 1024))
        assert rows[-1].vim_ms <= rows[0].vim_ms
