"""Unit tests for the backing-store memory models."""

import numpy as np
import pytest

from repro.errors import MemoryAccessError
from repro.hw.memory import Memory


class TestMemory:
    def test_roundtrip(self):
        mem = Memory("m", 64)
        mem.write(10, b"hello")
        assert mem.read(10, 5) == b"hello"

    def test_initialised_to_zero(self):
        mem = Memory("m", 16)
        assert mem.read(0, 16) == bytes(16)

    def test_out_of_range_read_rejected(self):
        mem = Memory("m", 16)
        with pytest.raises(MemoryAccessError):
            mem.read(12, 8)

    def test_out_of_range_write_rejected(self):
        mem = Memory("m", 16)
        with pytest.raises(MemoryAccessError):
            mem.write(15, b"ab")

    def test_negative_address_rejected(self):
        mem = Memory("m", 16)
        with pytest.raises(MemoryAccessError):
            mem.read(-1, 4)

    def test_zero_size_rejected(self):
        with pytest.raises(MemoryAccessError):
            Memory("m", 0)

    def test_word_roundtrip_little_endian(self):
        mem = Memory("m", 16)
        mem.write_word(4, 0x11223344, size=4)
        assert mem.read(4, 4) == bytes([0x44, 0x33, 0x22, 0x11])
        assert mem.read_word(4, size=4) == 0x11223344

    def test_half_and_byte_words(self):
        mem = Memory("m", 16)
        mem.write_word(0, 0xBEEF, size=2)
        mem.write_word(2, 0x7F, size=1)
        assert mem.read_word(0, size=2) == 0xBEEF
        assert mem.read_word(2, size=1) == 0x7F

    def test_unsupported_word_size_rejected(self):
        mem = Memory("m", 16)
        with pytest.raises(MemoryAccessError):
            mem.read_word(0, size=3)
        with pytest.raises(MemoryAccessError):
            mem.write_word(0, 1, size=8)

    def test_access_counters(self):
        mem = Memory("m", 16)
        mem.write(0, b"x")
        mem.read(0, 1)
        mem.read(0, 1)
        assert mem.writes == 1
        assert mem.reads == 2

    def test_fill(self):
        mem = Memory("m", 8)
        mem.fill(0xAA)
        assert mem.read(0, 8) == bytes([0xAA] * 8)

    def test_view_is_shared(self):
        mem = Memory("m", 8)
        mem.view()[3] = 99
        assert mem.read(3, 1) == bytes([99])
        mem.write(5, b"\x07")
        assert mem.view()[5] == 7
        assert mem.view() is mem.view()

    def test_write_stores_the_bytes_of_a_wide_buffer(self):
        # Two int16 items are four bytes: the write stores all four and
        # never resizes the store.
        mem = Memory("m", 8)
        mem.write(2, np.array([1, 2], dtype=np.int16))
        assert mem.read(0, 8) == bytes([0, 0, 1, 0, 2, 0, 0, 0])
        assert len(mem.view()) == 8

    def test_wide_buffer_bounds_checked_by_its_bytes(self):
        mem = Memory("m", 8)
        with pytest.raises(MemoryAccessError):
            mem.write(6, np.array([1, 2], dtype=np.int16))
        assert mem.read(0, 8) == bytes(8)
        assert len(mem.view()) == 8
