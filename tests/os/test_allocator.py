"""Unit tests for the DP-RAM frame allocator."""

import pytest

from repro.errors import VimError
from repro.os.vim.allocator import FrameAllocator


class TestAllocation:
    def test_all_frames_start_free(self):
        alloc = FrameAllocator(8)
        assert alloc.free_frames() == list(range(8))
        assert alloc.resident_count() == 0

    def test_allocate_free_lowest_first(self):
        alloc = FrameAllocator(8)
        assert alloc.allocate_free() == 0

    def test_assign_and_lookup(self):
        alloc = FrameAllocator(8)
        alloc.assign(3, obj_id=1, vpage=2)
        assert alloc.frame_of(1, 2) == 3
        assert alloc.owner_of(3) == (1, 2)
        assert 3 not in alloc.free_frames()

    def test_double_assign_rejected(self):
        alloc = FrameAllocator(8)
        alloc.assign(0, 1, 0)
        with pytest.raises(VimError):
            alloc.assign(0, 2, 0)

    def test_duplicate_residency_rejected(self):
        # A virtual page may live in at most one frame.
        alloc = FrameAllocator(8)
        alloc.assign(0, 1, 0)
        with pytest.raises(VimError):
            alloc.assign(1, 1, 0)

    def test_exhaustion_returns_none(self):
        alloc = FrameAllocator(2)
        alloc.assign(0, 0, 0)
        alloc.assign(1, 0, 1)
        assert alloc.allocate_free() is None

    def test_minimum_two_frames(self):
        with pytest.raises(VimError):
            FrameAllocator(1)


class TestRelease:
    def test_release_frees(self):
        alloc = FrameAllocator(4)
        alloc.assign(2, 0, 0)
        alloc.release(2)
        assert alloc.frame_of(0, 0) is None
        assert 2 in alloc.free_frames()

    def test_release_free_frame_rejected(self):
        with pytest.raises(VimError):
            FrameAllocator(4).release(0)

    def test_out_of_range_rejected(self):
        alloc = FrameAllocator(4)
        with pytest.raises(VimError):
            alloc.release(4)
        with pytest.raises(VimError):
            alloc.assign(-1, 0, 0)

    def test_reset(self):
        alloc = FrameAllocator(4)
        alloc.assign(0, 0, 0)
        alloc.assign_param(1)
        alloc.reset()
        assert alloc.free_frames() == [0, 1, 2, 3]
        assert alloc.param_frame() is None


class TestParamFrame:
    def test_assign_param(self):
        alloc = FrameAllocator(4)
        alloc.assign_param(0)
        assert alloc.param_frame() == 0
        assert alloc.owner_of(0) is None  # param is not a data page
        assert alloc.data_pages() == []

    def test_single_param_frame(self):
        alloc = FrameAllocator(4)
        alloc.assign_param(0)
        with pytest.raises(VimError):
            alloc.assign_param(1)

    def test_param_release(self):
        alloc = FrameAllocator(4)
        alloc.assign_param(2)
        alloc.release(2)
        assert alloc.param_frame() is None

    def test_data_frames_excludes_param(self):
        alloc = FrameAllocator(4)
        alloc.assign_param(0)
        alloc.assign(1, 5, 0)
        assert alloc.data_pages() == [(1, (5, 0))]
