"""Interrupt controller.

The IMU requests OS service by raising ``INT_PLD`` (Figure 4).  The
controller models level-triggered lines with masking and a registry of
handlers, mirroring how the VIM kernel module hooks the PLD interrupt
on the real board.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import HardwareError

Handler = Callable[[int], None]

#: Interrupt lines on the controller.  The IMU raises INT_PLD on line 0
#: (:data:`repro.imu.imu.INT_PLD_LINE`) and the DMA engine INT_DMA on
#: line 1 (:data:`repro.hw.dma.INT_DMA_LINE`).
NUM_LINES = 8


class InterruptController:
    """Level-triggered interrupt lines with per-line masking.

    Lines are raised by hardware models and *dispatched* by whoever owns
    the CPU control flow (the kernel model), which matches the paper's
    structure: the IMU raises ``INT_PLD``; Linux dispatches to the VIM.
    """

    def __init__(self) -> None:
        self._pending = [False] * NUM_LINES
        self._masked = [False] * NUM_LINES
        self._handlers: dict[int, Handler] = {}
        self.raised_count = [0] * NUM_LINES
        #: Pending, unmasked lines as a bit set (bit *n* = line *n*):
        #: nonzero exactly when :meth:`pending_unmasked` is non-empty,
        #: kept up to date so a hardware window's stop test is one read.
        self.active = 0

    def _check(self, line: int) -> None:
        if not 0 <= line < NUM_LINES:
            raise HardwareError(f"interrupt line {line} out of range")

    def register(self, line: int, handler: Handler) -> None:
        """Install *handler* for *line* (one handler per line)."""
        self._check(line)
        if line in self._handlers:
            raise HardwareError(f"interrupt line {line} already has a handler")
        self._handlers[line] = handler

    def unregister(self, line: int) -> None:
        """Remove the handler for *line*."""
        self._check(line)
        self._handlers.pop(line, None)

    def raise_line(self, line: int) -> None:
        """Assert an interrupt line (idempotent while pending)."""
        self._check(line)
        if not self._pending[line]:
            self._pending[line] = True
            self.raised_count[line] += 1
            if not self._masked[line]:
                self.active |= 1 << line

    def clear(self, line: int) -> None:
        """De-assert a line (done by the handler after servicing)."""
        self._check(line)
        self._pending[line] = False
        self.active &= ~(1 << line)

    def mask(self, line: int) -> None:
        """Prevent a line from being dispatched."""
        self._check(line)
        self._masked[line] = True
        self.active &= ~(1 << line)

    def unmask(self, line: int) -> None:
        """Allow a line to be dispatched again."""
        self._check(line)
        self._masked[line] = False
        if self._pending[line]:
            self.active |= 1 << line

    def is_pending(self, line: int) -> bool:
        """True if *line* is asserted (whether or not masked)."""
        self._check(line)
        return self._pending[line]

    def pending_unmasked(self) -> list[int]:
        """Lines that are pending and unmasked, lowest number first."""
        active = self.active
        return [line for line in range(NUM_LINES) if active >> line & 1]

    def dispatch(self) -> int:
        """Run handlers for all pending unmasked lines.

        Returns the number of handler invocations.  A handler is
        expected to :meth:`clear` its line; if it does not, the line is
        considered still pending (level-triggered semantics) and will be
        dispatched again on the next call.
        """
        count = 0
        for line in self.pending_unmasked():
            handler = self._handlers.get(line)
            if handler is None:
                raise HardwareError(f"unhandled interrupt on line {line}")
            handler(line)
            count += 1
        return count
