"""Regression tests for the copy-path accounting fixes.

Three bugs rode the copy path before this suite existed:

1. ``Vim.setup_execution`` charged the parameter-page copy once
   regardless of ``transfer_mode`` (DOUBLE must cost two copies);
2. ``_service_fault`` counted TLB-only reinstalls (resident page,
   displaced translation) as ``page_faults``, inflating the §4.1 fault
   decomposition whenever the TLB is smaller than the frame count;
3. ``FifoPolicy.victim`` preferred frames it had seen over pre-attach
   residents, inverting FIFO order, and recency policies never heard
   about TLB-only reinstalls.

Each test here fails on the pre-fix tree.
"""

import pytest

from repro.accounting import Bucket, Measurement
from repro.errors import VimError
from repro.hw.bus import AhbBus
from repro.hw.dma import DmaEngine
from repro.hw.dpram import DualPortRam
from repro.hw.interrupts import InterruptController
from repro.imu.imu import INT_PLD_LINE, Imu, ImuState
from repro.imu.registers import StatusRegister
from repro.imu.tlb import Tlb
from repro.os.costs import CpuCostModel
from repro.os.kernel import Kernel
from repro.os.vim.manager import TransferMode, Vim
from repro.os.vim.objects import Direction, MappedObject
from repro.os.vim.policies import FifoPolicy, SecondChancePolicy, VictimContext
from repro.sim.engine import Engine
from repro.sim.time import mhz


class Rig:
    """A bare VIM harness (synthetic IMU states, no running core)."""

    def __init__(self, transfer_mode=TransferMode.DOUBLE, with_dma=False,
                 **vim_kwargs):
        self.kernel = Kernel(
            Engine(), mhz(133.0), CpuCostModel(), InterruptController()
        )
        self.dpram = DualPortRam()
        self.bus = AhbBus()
        self.imu = Imu(self.dpram, self.kernel.interrupts)
        dma = (
            DmaEngine(self.kernel.engine, self.bus, self.kernel.interrupts,
                      mhz(66.5))
            if with_dma else None
        )
        self.vim = Vim(
            self.kernel,
            self.dpram,
            self.bus,
            self.imu,
            transfer_mode=transfer_mode,
            dma=dma,
            **vim_kwargs,
        )
        self.meas = Measurement()
        self.kernel.attach_measurement(self.meas)
        self.process = self.kernel.spawn("app")
        self.kernel.scheduler.pick_next()

    def map_buffer(self, obj_id, size, direction=Direction.IN, fill=None):
        buffer = self.kernel.user_memory.alloc(
            f"obj{obj_id}", size, self.process.pid
        )
        if fill is not None:
            buffer.fill_from(fill)
        mapped = MappedObject(obj_id, buffer, size, direction)
        self.vim.map_object(mapped)
        return mapped

    def fake_fault(self, obj_id, addr):
        self.imu.ar.capture(obj_id, addr, write=False)
        self.imu.sr.set(StatusRegister.FAULT)
        self.imu.state = ImuState.FAULT
        self.kernel.interrupts.raise_line(INT_PLD_LINE)
        self.vim.handle_interrupt(INT_PLD_LINE)


class TestParamCopyAccounting:
    """Satellite 1: the parameter page is a page movement like any
    other and must honour the transfer mode."""

    def _setup_sw_dp(self, mode):
        # An OUT-only object: eager mapping zero-fills (no copy), so
        # SW_DP during setup is exactly the parameter-page copy.
        rig = Rig(transfer_mode=mode)
        rig.map_buffer(0, 2048, direction=Direction.OUT)
        rig.vim.setup_execution([1, 2, 3], rig.process)
        return rig.meas.buckets[Bucket.SW_DP]

    def test_double_param_copy_costs_two_transfers(self):
        single = self._setup_sw_dp(TransferMode.SINGLE)
        double = self._setup_sw_dp(TransferMode.DOUBLE)
        assert single > 0
        assert double == 2 * single

    def test_param_copy_records_bus_traffic(self):
        rig = Rig()
        rig.map_buffer(0, 2048, direction=Direction.OUT)
        rig.vim.setup_execution([1, 2, 3], rig.process)
        assert rig.bus.bytes_transferred == 12  # three little-endian words


class TestTlbRefillSplit:
    """Satellite 2: translation-only reinstalls are refills, not page
    faults."""

    def _displaced_translation_rig(self):
        rig = Rig()
        payload = bytes(range(256)) * 8  # one full page
        rig.map_buffer(0, 2048, fill=payload)
        rig.vim.setup_execution([1], rig.process)
        entry = rig.imu.tlb.probe(0, 0)
        assert entry is not None
        # Displace the translation while the page stays resident — the
        # state a smaller-than-frame-count TLB produces via
        # _make_tlb_room.
        rig.imu.tlb.invalidate(0, 0)
        return rig

    def test_reinstall_counts_as_refill_not_fault(self):
        rig = self._displaced_translation_rig()
        bytes_before = rig.meas.counters.bytes_to_dpram
        rig.fake_fault(0, 0)
        assert rig.meas.counters.page_faults == 0
        assert rig.meas.counters.tlb_refills == 1
        # No data moved: the page was already resident.
        assert rig.meas.counters.bytes_to_dpram == bytes_before

    def test_reinstalled_entry_reads_as_recently_used(self):
        rig = self._displaced_translation_rig()
        rig.fake_fault(0, 0)
        entry = rig.imu.tlb.probe(0, 0)
        assert entry is not None
        assert entry.referenced
        assert entry.last_used == rig.imu.tlb.stats.lookups

    def test_real_fault_still_counts(self):
        rig = Rig(eager_mapping=False)
        rig.map_buffer(0, 2048, fill=bytes(2048))
        rig.vim.setup_execution([1], rig.process)
        rig.fake_fault(0, 0)
        assert rig.meas.counters.page_faults == 1
        assert rig.meas.counters.tlb_refills == 0


class TestPolicyFallbacks:
    """Satellite 3: pre-attach residents are the oldest cohort and
    TLB-only reinstalls are touches."""

    def test_fifo_prefers_unseen_candidates(self):
        tlb = Tlb(8)
        ctx = VictimContext(tlb)
        policy = FifoPolicy()
        policy.on_load(1)
        policy.on_load(2)
        # Frames 5 and 3 were resident before the policy attached:
        # older than anything on record, lowest frame number first.
        assert policy.victim([1, 2, 5, 3], ctx) == 3
        policy.on_load(3)
        policy.on_load(5)
        assert policy.victim([1, 2, 5, 3], ctx) == 1

    def test_second_chance_sweeps_unseen_first(self):
        tlb = Tlb(8)
        ctx = VictimContext(tlb)
        policy = SecondChancePolicy()
        policy.on_load(0)
        assert policy.victim([0, 4, 2], ctx) == 2

    def test_on_touch_is_a_policy_notification(self):
        # The base hook exists and is a no-op for FIFO (which ignores
        # recency by definition) — attaching it must not reorder.
        tlb = Tlb(8)
        ctx = VictimContext(tlb)
        policy = FifoPolicy()
        policy.on_load(0)
        policy.on_load(1)
        policy.on_touch(0)
        assert policy.victim([0, 1], ctx) == 0

    def test_touch_protects_reinstalled_frame_from_recency_eviction(self):
        # After a TLB-only reinstall the entry's usage assist is
        # refreshed, so LRU must not victimise the frame the
        # coprocessor is about to retry.
        rig = Rig(policy="lru")
        data = bytes(range(256)) * 16  # 4 KB = 2 pages
        rig.map_buffer(0, 4096, fill=data)
        rig.vim.setup_execution([1], rig.process)
        frame0 = rig.imu.tlb.probe(0, 0).ppage
        rig.imu.tlb.lookup(0, 1)  # page 1 recently used
        rig.imu.tlb.invalidate(0, 0)
        rig.imu.tlb.lookup(0, 0)  # the miss the hardware counts
        rig.fake_fault(0, 0)  # reinstall: must refresh recency
        ctx = VictimContext(rig.imu.tlb)
        victim = rig.vim.policy.victim(
            [rig.imu.tlb.probe(0, 0).ppage, rig.imu.tlb.probe(0, 1).ppage], ctx
        )
        assert victim != frame0


class TestDmaModeGuards:
    def test_dma_mode_without_engine_rejected(self):
        with pytest.raises(VimError):
            Rig(transfer_mode=TransferMode.DMA, with_dma=False)

    def test_overlapped_prefetch_without_engine_rejected(self):
        from repro.os.vim.prefetch import SequentialPrefetcher

        with pytest.raises(VimError):
            Rig(
                with_dma=False,
                prefetcher=SequentialPrefetcher(aggressive=True, overlapped=True),
            )

    def test_dma_mode_moves_pages_by_descriptor(self):
        rig = Rig(transfer_mode=TransferMode.DMA, with_dma=True,
                  eager_mapping=False)
        payload = bytes([7] * 2048)
        rig.map_buffer(0, 2048, fill=payload)
        rig.vim.setup_execution([1], rig.process)
        before = rig.meas.buckets[Bucket.SW_DP]
        rig.fake_fault(0, 0)
        entry = rig.imu.tlb.probe(0, 0)
        assert entry is not None
        assert rig.dpram.cpu_read_page(entry.ppage)[:8] == payload[:8]
        assert rig.meas.counters.dma_transfers == 1
        # The CPU paid descriptor programming plus the drain wait, not
        # per-word copy cycles: far below even a single CPU copy.
        single_copy_ps = rig.kernel.cpu_frequency.cycles_to_ps(
            rig.kernel.costs.copy_cycles(2048)
        )
        assert rig.meas.buckets[Bucket.SW_DP] - before < single_copy_ps
