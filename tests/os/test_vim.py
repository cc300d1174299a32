"""Unit tests for the Virtual Interface Manager.

These drive the VIM directly (synthetic IMU states) rather than through
a running coprocessor, so each service path is isolated.  End-to-end
behaviour is covered in tests/core/test_runner.py.
"""

import pytest

from repro.accounting import Bucket, Measurement
from repro.coproc.ports import PARAM_OBJECT, tag_obj
from repro.errors import VimError
from repro.hw.bus import AhbBus
from repro.hw.dpram import DualPortRam
from repro.hw.interrupts import InterruptController
from repro.imu.imu import INT_PLD_LINE, Imu, ImuState
from repro.imu.registers import StatusRegister
from repro.os.costs import CpuCostModel
from repro.os.kernel import Kernel
from repro.os.vim.manager import TransferMode, Vim
from repro.os.vim.objects import Direction, Hint, MappedObject
from repro.sim.engine import Engine
from repro.sim.time import mhz


class VimRig:
    def __init__(self, transfer_mode=TransferMode.DOUBLE, tlb_capacity=None,
                 **vim_kwargs):
        self.kernel = Kernel(
            Engine(), mhz(133.0), CpuCostModel(), InterruptController()
        )
        self.dpram = DualPortRam()
        self.imu = Imu(
            self.dpram, self.kernel.interrupts, tlb_capacity=tlb_capacity
        )
        self.vim = Vim(
            self.kernel,
            self.dpram,
            AhbBus(),
            self.imu,
            transfer_mode=transfer_mode,
            **vim_kwargs,
        )
        self.meas = Measurement()
        self.kernel.attach_measurement(self.meas)
        self.process = self.kernel.spawn("app")
        self.kernel.scheduler.pick_next()

    def map_buffer(self, obj_id, size, direction=Direction.IN, fill=None,
                   process=None, hints=Hint.NONE):
        owner = process or self.process
        buffer = self.kernel.user_memory.alloc(f"obj{obj_id}", size, owner.pid)
        if fill is not None:
            buffer.fill_from(fill)
        mapped = MappedObject(obj_id, buffer, size, direction, hints)
        self.vim.map_object(mapped)
        return mapped

    def fake_fault(self, obj_id, addr):
        """Put the IMU into the state a real translation miss creates."""
        self.imu.ar.capture(obj_id, addr, write=False)
        self.imu.sr.set(StatusRegister.FAULT)
        self.imu.state = ImuState.FAULT
        self.kernel.interrupts.raise_line(INT_PLD_LINE)
        self.vim.handle_interrupt(INT_PLD_LINE)

    def fake_done(self, process):
        """End *process*'s execution the way the IMU's DONE does."""
        process.sleep()
        self.imu.sr.set(StatusRegister.DONE)
        self.kernel.interrupts.raise_line(INT_PLD_LINE)
        self.vim.handle_interrupt(INT_PLD_LINE)


class TestSetupExecution:
    def test_param_page_written_and_mapped(self):
        rig = VimRig()
        rig.map_buffer(0, 100, fill=bytes(100))
        rig.vim.setup_execution([7, 9], rig.process)
        entry = rig.imu.tlb.probe(PARAM_OBJECT, 0)
        assert entry is not None
        base = rig.dpram.page_base(entry.ppage)
        assert rig.dpram.read_word(base) == 7
        assert rig.dpram.read_word(base + 4) == 9

    def test_eager_mapping_preloads_fitting_objects(self):
        rig = VimRig()
        data = bytes(range(256)) * 16  # 4096 bytes = 2 pages
        rig.map_buffer(0, 4096, fill=data)
        rig.vim.setup_execution([1], rig.process)
        assert rig.imu.tlb.probe(0, 0) is not None
        assert rig.imu.tlb.probe(0, 1) is not None
        frame = rig.imu.tlb.probe(0, 0).ppage
        assert rig.dpram.cpu_read_page(frame)[:16] == data[:16]

    def test_eager_mapping_stops_at_capacity(self):
        rig = VimRig()
        rig.map_buffer(0, 32 * 1024, fill=bytes(32 * 1024))  # 16 pages
        rig.vim.setup_execution([1], rig.process)
        resident = [e for e in rig.imu.tlb.entries() if e.obj == 0]
        assert len(resident) == rig.dpram.num_pages - 1  # all but param

    def test_eager_mapping_can_be_disabled(self):
        rig = VimRig(eager_mapping=False)
        rig.map_buffer(0, 4096, fill=bytes(4096))
        rig.vim.setup_execution([1], rig.process)
        assert rig.imu.tlb.probe(0, 0) is None

    def test_no_objects_rejected(self):
        rig = VimRig()
        with pytest.raises(VimError):
            rig.vim.setup_execution([1], rig.process)

    def test_too_many_params_rejected(self):
        rig = VimRig()
        rig.map_buffer(0, 100, fill=bytes(100))
        with pytest.raises(VimError):
            rig.vim.setup_execution([0] * 600, rig.process)

    def test_reserved_object_id_rejected(self):
        rig = VimRig()
        buffer = rig.kernel.user_memory.alloc("x", 10, rig.process.pid)
        # 254 is the last legal user id; PARAM_OBJECT (255) is reserved.
        rig.vim.map_object(MappedObject(254, buffer, 10, Direction.IN))
        mapped = MappedObject(1, buffer, 10, Direction.IN)
        mapped.obj_id = PARAM_OBJECT  # simulate a corrupted descriptor
        with pytest.raises(VimError):
            rig.vim.map_object(mapped)


class TestFaultService:
    def test_fault_loads_page_and_restarts(self):
        rig = VimRig(eager_mapping=False)
        payload = bytes([5] * 3000)
        rig.map_buffer(0, 3000, fill=payload)
        rig.vim.setup_execution([1], rig.process)
        rig.fake_fault(0, 2500)  # vpage 1
        entry = rig.imu.tlb.probe(0, 1)
        assert entry is not None
        assert rig.imu.state is ImuState.TRANSLATE
        assert rig.meas.counters.page_faults == 1
        offset, length = 2048, 3000 - 2048
        frame_data = rig.dpram.cpu_read_page(entry.ppage, length)
        assert frame_data == payload[offset : offset + length]

    def test_fault_on_unmapped_object_rejected(self):
        rig = VimRig()
        rig.map_buffer(0, 100, fill=bytes(100))
        rig.vim.setup_execution([1], rig.process)
        with pytest.raises(VimError):
            rig.fake_fault(9, 0)

    def test_fault_beyond_object_rejected(self):
        rig = VimRig()
        rig.map_buffer(0, 100, fill=bytes(100))
        rig.vim.setup_execution([1], rig.process)
        with pytest.raises(VimError):
            rig.fake_fault(0, 4096)

    def test_eviction_when_full(self):
        rig = VimRig()
        rig.map_buffer(0, 32 * 1024, fill=bytes(32 * 1024))
        rig.vim.setup_execution([1], rig.process)  # fills all frames
        rig.fake_fault(0, 31 * 1024)
        assert rig.meas.counters.evictions >= 1
        assert rig.imu.tlb.probe(0, 15) is not None

    def test_dirty_eviction_writes_back(self):
        rig = VimRig()
        mapped = rig.map_buffer(0, 32 * 1024, Direction.INOUT, bytes(32 * 1024))
        rig.vim.setup_execution([1], rig.process)
        # Dirty the first resident page through the hardware path.
        entry = rig.imu.tlb.probe(0, 0)
        rig.dpram.pld_write(rig.dpram.page_base(entry.ppage), 0xAB, size=1)
        entry.dirty = True
        # Fault enough times to evict every resident page (FIFO).
        for vpage in range(8, 15):
            rig.fake_fault(0, vpage * 2048)
        assert rig.meas.counters.writebacks >= 1
        assert mapped.buffer.read(0, 1) == b"\xab"
        assert 0 in mapped.written_back

    def test_param_frame_reused_after_release(self):
        rig = VimRig()
        rig.map_buffer(0, 32 * 1024, fill=bytes(32 * 1024))
        rig.vim.setup_execution([1], rig.process)
        param_frame = rig.vim.allocator.param_frame()
        # Coprocessor releases the parameter page, then faults.
        rig.imu.tlb.invalidate(PARAM_OBJECT, 0)
        rig.imu.sr.set(StatusRegister.PARAM_RELEASED)
        rig.fake_fault(0, 15 * 2048)
        assert rig.meas.counters.evictions == 0
        assert rig.imu.tlb.probe(0, 15).ppage == param_frame


class TestEvictionCandidates:
    """The frames a policy may evict; ``random`` picks one by index."""

    def test_ascending_frame_order_without_the_param_frame(self):
        rig = VimRig()
        rig.map_buffer(0, 4 * 2048)
        alloc = rig.vim.allocator
        # Loaded out of frame order, with the parameters in between.
        for vpage, frame in enumerate((6, 1, 4, 3)):
            alloc.assign(frame, 0, vpage)
        alloc.assign_param(5)
        assert rig.vim._eviction_candidates() == [1, 3, 4, 6]

    def test_pinned_objects_frames_excluded(self):
        rig = VimRig()
        rig.map_buffer(0, 2 * 2048)
        rig.map_buffer(1, 2 * 2048, hints=Hint.PINNED)
        alloc = rig.vim.allocator
        for frame, (obj_id, vpage) in enumerate(((1, 0), (0, 0), (1, 1), (0, 1))):
            alloc.assign(frame, obj_id, vpage)
        assert rig.vim._eviction_candidates() == [1, 3]

    def test_shared_mode_offers_a_neighbours_frames(self):
        rig = VimRig(shared=True)
        neighbour = rig.kernel.spawn("neighbour")
        theirs_id = tag_obj(neighbour.pid, 0)
        mine_id = tag_obj(rig.process.pid, 0)
        rig.map_buffer(theirs_id, 2 * 2048, fill=bytes(4096), process=neighbour)
        rig.map_buffer(mine_id, 32 * 1024, fill=bytes(32 * 1024))
        rig.vim.setup_execution([1], neighbour)
        rig.fake_done(neighbour)
        rig.vim.setup_execution([1], rig.process)  # fills the DP-RAM
        alloc = rig.vim.allocator
        assert alloc.allocate_free() is None
        theirs = {alloc.frame_of(theirs_id, vpage) for vpage in range(2)}
        candidates = rig.vim._eviction_candidates()
        assert theirs <= set(candidates)
        assert candidates == [frame for frame, _owner in alloc.data_pages()]
        assert alloc.param_frame() not in candidates


class TestReleaseTenant:
    def test_frees_exactly_that_tenants_frames_entries_and_objects(self):
        rig = VimRig(shared=True)
        neighbour = rig.kernel.spawn("neighbour")
        theirs_id = tag_obj(neighbour.pid, 0)
        mine_id = tag_obj(rig.process.pid, 0)
        rig.map_buffer(theirs_id, 2 * 2048, fill=bytes(4096), process=neighbour)
        rig.map_buffer(mine_id, 2 * 2048, fill=bytes(4096))
        rig.vim.setup_execution([1], neighbour)
        rig.fake_done(neighbour)
        rig.vim.setup_execution([1], rig.process)
        alloc = rig.vim.allocator
        pages = alloc.data_pages()
        entries = {(e.obj, e.vpage) for e in rig.imu.tlb.entries()}
        assert {owner[0] for _frame, owner in pages} == {theirs_id, mine_id}
        rig.vim.release_tenant(neighbour.pid)
        assert alloc.data_pages() == [
            (frame, owner) for frame, owner in pages if owner[0] == mine_id
        ]
        assert {(e.obj, e.vpage) for e in rig.imu.tlb.entries()} == {
            key for key in entries if key[0] != theirs_id
        }
        assert set(rig.vim.objects) == {mine_id}
        assert alloc.param_frame() is not None


class TestTransferModes:
    def _dp_time(self, mode):
        rig = VimRig(transfer_mode=mode, eager_mapping=False)
        rig.map_buffer(0, 2048, fill=bytes(2048))
        rig.vim.setup_execution([1], rig.process)
        before = rig.meas.buckets[Bucket.SW_DP]
        rig.fake_fault(0, 0)
        return rig.meas.buckets[Bucket.SW_DP] - before

    def test_double_costs_twice_single(self):
        # §4.1: the simple implementation "makes two transfers each
        # time a page is loaded or unloaded".
        single = self._dp_time(TransferMode.SINGLE)
        double = self._dp_time(TransferMode.DOUBLE)
        assert double == 2 * single


class TestDoneService:
    def test_done_flushes_dirty_and_wakes(self):
        rig = VimRig()
        mapped = rig.map_buffer(1, 2048, Direction.OUT)
        rig.vim.setup_execution([1], rig.process)
        entry = rig.imu.tlb.probe(1, 0)
        rig.dpram.cpu_write_page(entry.ppage, b"\x42" * 2048)
        entry.dirty = True
        rig.process.sleep()
        rig.imu.sr.set(StatusRegister.DONE)
        rig.kernel.interrupts.raise_line(INT_PLD_LINE)
        rig.vim.handle_interrupt(INT_PLD_LINE)
        assert rig.vim.execution_done
        assert mapped.buffer.snapshot() == b"\x42" * 2048
        assert rig.process.wakeups == 1
        assert not rig.imu.sr.done

    def test_clean_pages_not_copied(self):
        rig = VimRig()
        rig.map_buffer(0, 2048, fill=bytes(2048))
        rig.vim.setup_execution([1], rig.process)
        rig.process.sleep()
        before = rig.meas.counters.bytes_from_dpram
        rig.imu.sr.set(StatusRegister.DONE)
        rig.kernel.interrupts.raise_line(INT_PLD_LINE)
        rig.vim.handle_interrupt(INT_PLD_LINE)
        assert rig.meas.counters.bytes_from_dpram == before

    def test_shared_done_leaves_a_neighbours_dirty_page(self):
        # Shared mode: a neighbour's dirty page is the neighbour's to
        # flush at its own end of operation, not this tenant's.
        rig = VimRig(shared=True)
        neighbour = rig.kernel.spawn("neighbour")
        theirs_id = tag_obj(neighbour.pid, 0)
        mine_id = tag_obj(rig.process.pid, 0)
        theirs = rig.map_buffer(theirs_id, 2048, Direction.OUT, process=neighbour)
        mine = rig.map_buffer(mine_id, 2048, Direction.OUT)
        rig.vim.setup_execution([1], neighbour)
        rig.fake_done(neighbour)
        rig.vim.setup_execution([1], rig.process)
        for obj_id, byte in ((theirs_id, b"\x17"), (mine_id, b"\x42")):
            entry = rig.imu.tlb.probe(obj_id, 0)
            rig.dpram.cpu_write_page(entry.ppage, byte * 2048)
            entry.dirty = True
        counters = rig.meas.counters
        before = (counters.writebacks, counters.bytes_from_dpram)
        rig.fake_done(rig.process)
        assert mine.buffer.snapshot() == b"\x42" * 2048
        assert theirs.buffer.snapshot() == bytes(2048)
        assert rig.imu.tlb.probe(theirs_id, 0).dirty
        assert (counters.writebacks, counters.bytes_from_dpram) == (
            before[0] + 1, before[1] + 2048
        )

    def test_shared_done_leaves_a_neighbours_displaced_dirty_page(self):
        # The same filter for a page whose dirty TLB entry was displaced
        # (TLB smaller than the frame count): the shadow-dirty page is
        # the neighbour's to flush, at the neighbour's end of operation.
        rig = VimRig(shared=True, tlb_capacity=2)
        neighbour = rig.kernel.spawn("neighbour")
        theirs_id = tag_obj(neighbour.pid, 0)
        mine_id = tag_obj(rig.process.pid, 0)
        theirs = rig.map_buffer(theirs_id, 2048, Direction.OUT, process=neighbour)
        mine = rig.map_buffer(mine_id, 2048, Direction.OUT)
        rig.vim.setup_execution([1], neighbour)
        rig.fake_done(neighbour)
        entry = rig.imu.tlb.probe(theirs_id, 0)
        rig.dpram.cpu_write_page(entry.ppage, b"\x17" * 2048)
        entry.dirty = True
        # Two TLB entries: this tenant's parameters and its page
        # displace the neighbour's dirty translation.
        rig.vim.setup_execution([1], rig.process)
        assert rig.imu.tlb.probe(theirs_id, 0) is None
        entry = rig.imu.tlb.probe(mine_id, 0)
        rig.dpram.cpu_write_page(entry.ppage, b"\x42" * 2048)
        entry.dirty = True
        counters = rig.meas.counters
        before = counters.writebacks
        rig.fake_done(rig.process)
        assert mine.buffer.snapshot() == b"\x42" * 2048
        assert theirs.buffer.snapshot() == bytes(2048)
        assert counters.writebacks == before + 1
        rig.vim.setup_execution([1], neighbour)
        rig.fake_done(neighbour)
        assert theirs.buffer.snapshot() == b"\x17" * 2048
        assert counters.writebacks == before + 2

    def test_interrupt_without_cause_rejected(self):
        rig = VimRig()
        rig.map_buffer(0, 100, fill=bytes(100))
        rig.vim.setup_execution([1], rig.process)
        rig.kernel.interrupts.raise_line(INT_PLD_LINE)
        rig.imu.sr.value = 0
        with pytest.raises(VimError):
            rig.vim.handle_interrupt(INT_PLD_LINE)
