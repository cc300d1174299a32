"""Unit tests for the paged dual-port RAM."""

import numpy as np
import pytest

from repro.errors import MemoryAccessError
from repro.hw.dpram import DualPortRam


class TestGeometry:
    def test_epxa1_defaults(self, dpram: DualPortRam):
        # "logically organised in eight 2KB pages (total 16KB)" (§4)
        assert dpram.size == 16 * 1024
        assert dpram.page_size == 2 * 1024
        assert dpram.num_pages == 8

    def test_page_base(self, dpram: DualPortRam):
        assert dpram.page_base(0) == 0
        assert dpram.page_base(3) == 3 * 2048

    def test_page_of(self, dpram: DualPortRam):
        assert dpram.page_of(0) == 0
        assert dpram.page_of(2047) == 0
        assert dpram.page_of(2048) == 1

    def test_page_out_of_range(self, dpram: DualPortRam):
        with pytest.raises(MemoryAccessError):
            dpram.page_base(8)
        with pytest.raises(MemoryAccessError):
            dpram.page_of(16 * 1024)

    def test_page_size_must_divide(self):
        with pytest.raises(MemoryAccessError):
            DualPortRam(size=10_000, page_size=3_000)

    def test_page_size_must_be_power_of_two(self):
        with pytest.raises(MemoryAccessError):
            DualPortRam(size=12_000, page_size=3_000)


class TestPorts:
    def test_pld_word_roundtrip(self, dpram: DualPortRam):
        dpram.pld_write(100, 0xCAFE, size=2)
        assert dpram.pld_read(100, size=2) == 0xCAFE
        assert dpram.pld_writes == 1
        assert dpram.pld_reads == 1

    def test_both_ports_see_same_bytes(self, dpram: DualPortRam):
        # The defining property of a dual-port memory.
        dpram.cpu_write_page(1, b"\x11\x22\x33\x44")
        assert dpram.pld_read(dpram.page_base(1), size=4) == 0x44332211

    def test_cpu_page_read_clamped(self, dpram: DualPortRam):
        dpram.cpu_write_page(0, b"abc")
        assert dpram.cpu_read_page(0, 3) == b"abc"

    def test_cpu_page_overflow_rejected(self, dpram: DualPortRam):
        with pytest.raises(MemoryAccessError):
            dpram.cpu_write_page(0, bytes(2049))
        with pytest.raises(MemoryAccessError):
            dpram.cpu_read_page(0, 4096)

    def test_cpu_write_offset(self, dpram: DualPortRam):
        dpram.cpu_write_page(2, b"zz", offset=10)
        assert dpram.read(dpram.page_base(2) + 10, 2) == b"zz"

    def test_cpu_write_offset_overflow_rejected(self, dpram: DualPortRam):
        with pytest.raises(MemoryAccessError):
            dpram.cpu_write_page(0, bytes(100), offset=2000)

    def test_wide_buffer_checked_against_the_page_by_its_bytes(
        self, dpram: DualPortRam
    ):
        # 1024 int16 items are 2048 bytes: at offset 1024 they overrun
        # page 0 and must not reach page 1.
        with pytest.raises(MemoryAccessError):
            dpram.cpu_write_page(0, np.ones(1024, dtype=np.int16), offset=1024)
        assert dpram.cpu_read_page(1) == bytes(dpram.page_size)
        dpram.cpu_write_page(0, np.ones(512, dtype=np.int16), offset=1024)
        assert dpram.cpu_read_page(0)[1024:] == b"\x01\x00" * 512

    def test_port_counters_independent(self, dpram: DualPortRam):
        dpram.cpu_write_page(0, b"x")
        dpram.pld_read(0, size=1)
        assert dpram.cpu_writes == 1
        assert dpram.cpu_reads == 0
        assert dpram.pld_reads == 1
