"""Unit tests for the interrupt controller."""

import pytest

from repro.errors import HardwareError
from repro.hw.interrupts import NUM_LINES, InterruptController


class TestLines:
    def test_raise_and_pending(self):
        ic = InterruptController()
        ic.raise_line(0)
        assert ic.is_pending(0)
        assert ic.pending_unmasked() == [0]

    def test_raise_is_idempotent_while_pending(self):
        ic = InterruptController()
        ic.raise_line(2)
        ic.raise_line(2)
        assert ic.raised_count[2] == 1

    def test_clear(self):
        ic = InterruptController()
        ic.raise_line(1)
        ic.clear(1)
        assert not ic.is_pending(1)

    def test_re_raise_after_clear_counts(self):
        ic = InterruptController()
        ic.raise_line(1)
        ic.clear(1)
        ic.raise_line(1)
        assert ic.raised_count[1] == 2

    def test_out_of_range_rejected(self):
        ic = InterruptController()
        with pytest.raises(HardwareError):
            ic.raise_line(NUM_LINES)
        with pytest.raises(HardwareError):
            ic.clear(-1)


class TestMasking:
    def test_masked_line_not_dispatched(self):
        ic = InterruptController()
        ic.raise_line(0)
        ic.mask(0)
        assert ic.pending_unmasked() == []
        assert ic.is_pending(0)  # still asserted, just masked

    def test_unmask_restores_dispatch(self):
        ic = InterruptController()
        ic.raise_line(0)
        ic.mask(0)
        ic.unmask(0)
        assert ic.pending_unmasked() == [0]


class TestDispatch:
    def test_dispatch_runs_handler(self):
        ic = InterruptController()
        seen = []

        def handler(line):
            seen.append(line)
            ic.clear(line)

        ic.register(3, handler)
        ic.raise_line(3)
        assert ic.dispatch() == 1
        assert seen == [3]

    def test_unhandled_interrupt_raises(self):
        ic = InterruptController()
        ic.raise_line(0)
        with pytest.raises(HardwareError):
            ic.dispatch()

    def test_duplicate_handler_rejected(self):
        ic = InterruptController()
        ic.register(0, lambda line: None)
        with pytest.raises(HardwareError):
            ic.register(0, lambda line: None)

    def test_unregister_allows_reregister(self):
        ic = InterruptController()
        ic.register(0, lambda line: None)
        ic.unregister(0)
        ic.register(0, lambda line: ic.clear(line))

    def test_level_triggered_semantics(self):
        # A handler that does not clear leaves the line pending.
        ic = InterruptController()
        ic.register(0, lambda line: None)
        ic.raise_line(0)
        ic.dispatch()
        assert ic.is_pending(0)

    def test_lower_lines_dispatch_first(self):
        ic = InterruptController()
        order = []

        def make(line):
            def handler(which):
                order.append(which)
                ic.clear(which)

            return handler

        ic.register(2, make(2))
        ic.register(1, make(1))
        ic.raise_line(2)
        ic.raise_line(1)
        ic.dispatch()
        assert order == [1, 2]
