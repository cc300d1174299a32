"""The discrete-event simulation engine.

The engine is the spine of the whole reproduction: hardware clock
domains schedule their rising edges as events, while operating-system
work (which we model analytically rather than instruction by
instruction) advances time in bulk with :meth:`Engine.advance`.

:class:`Engine` is an integer-time event queue with stable FIFO
ordering for simultaneous events.  It is intentionally minimal because
the paper's claims are about *architectural* interleavings (faults,
stalls, copies), not about electrical timing.

Simultaneous events run in the order they were scheduled.  An event
may instead state the instant it counts as scheduled at (``since``):
a clock domain that sleeps through idle edges schedules the edge it
wakes on as if the edge before it had scheduled it, so that edge ties
with other events exactly as under per-edge ticking.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError


class Engine:
    """An integer-picosecond discrete-event simulator.

    Events are ``(time, since, sequence, callback)`` entries kept in a
    binary heap, where *since* is the instant the event was scheduled
    at.  Simultaneous events therefore run in scheduling order (FIFO,
    the sequence number breaking ties within one instant), which keeps
    every experiment in the repository exactly reproducible.
    """

    def __init__(self) -> None:
        self._now = 0
        # Scheduling instant of the event running now (or run last);
        # after advance() the deadline, since everything up to it ran.
        self._since = 0
        self._queue: list[tuple[int, int, int, Callable[[], Any]]] = []
        self._seq = 0
        # Handles cancelled but still in the heap, skipped when popped.
        # cancel() admits only a handle it finds in the heap, so this
        # stays a subset of the heap's handles: pending() is exactly
        # len(queue) - len(cancelled), and cancelling an executed or
        # never-issued handle leaves no phantom behind.
        self._cancelled: set[int] = set()

    @property
    def now(self) -> int:
        """Current simulated time in picoseconds."""
        return self._now

    @property
    def since(self) -> int:
        """The instant the event running now was scheduled at.

        Together with :attr:`now` it places a would-be event at the
        current instant: one scheduled at an earlier instant than
        ``since`` would already have run, one scheduled later would not.
        """
        return self._since

    def schedule(self, delay_ps: int, callback: Callable[[], Any]) -> int:
        """Schedule *callback* to run ``delay_ps`` from now.

        Returns an event handle usable with :meth:`cancel`.
        """
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule in the past ({delay_ps} ps)")
        return self.schedule_at(self._now + delay_ps, callback)

    def schedule_at(
        self,
        time_ps: int,
        callback: Callable[[], Any],
        since: int | None = None,
    ) -> int:
        """Schedule *callback* at absolute time ``time_ps``.

        *since* (default: now) is the instant the event ranks as
        scheduled at among simultaneous events.
        """
        if time_ps < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps, now is {self._now} ps"
            )
        handle = self._seq
        self._seq += 1
        heapq.heappush(
            self._queue,
            (time_ps, self._now if since is None else since, handle, callback),
        )
        return handle

    def cancel(self, handle: int) -> None:
        """Cancel a previously scheduled event.

        Cancellation is lazy: the event stays in the heap and is skipped
        when popped.  Cancelling a handle that already ran (or was never
        issued) is a no-op.  The heap holds one entry per running clock
        domain and a few one-shot events, so the search is short.
        """
        if handle in self._cancelled:
            return
        for entry in self._queue:
            if entry[2] == handle:
                self._cancelled.add(handle)
                return

    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events."""
        return len(self._queue) - len(self._cancelled)

    def _pop(self) -> tuple[int, int, int, Callable[[], Any]] | None:
        while self._queue:
            entry = heapq.heappop(self._queue)
            handle = entry[2]
            if handle in self._cancelled:
                self._cancelled.discard(handle)
                continue
            return entry
        return None

    def step(self) -> bool:
        """Run the earliest pending event.  Returns False if none left."""
        entry = self._pop()
        if entry is None:
            return False
        self._now, self._since, _, callback = entry
        callback()
        return True

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_time_ps: int | None = None,
    ) -> bool:
        """Run events until *predicate* becomes true.

        Returns True if the predicate was satisfied, False if the event
        queue drained first.  Raises :class:`SimulationError` if
        ``max_time_ps`` (absolute) is exceeded — the guard every test
        uses against livelocked hardware.
        """
        queue = self._queue
        cancelled = self._cancelled
        heappop = heapq.heappop
        while not predicate():
            # _pop(), inlined: this runs once per event.
            while queue:
                entry = heappop(queue)
                if entry[2] not in cancelled:
                    break
                cancelled.discard(entry[2])
            else:
                return False
            if max_time_ps is not None and entry[0] > max_time_ps:
                # Put it back under its original handle: the caller may
                # want to continue later, and the event must stay
                # cancellable and keep its FIFO rank among simultaneous
                # events.
                heapq.heappush(queue, entry)
                raise SimulationError(
                    f"run_until exceeded {max_time_ps} ps without satisfying "
                    f"predicate (now={self._now} ps)"
                )
            self._now, self._since, _, callback = entry
            callback()
        return True

    def advance(self, delay_ps: int) -> None:
        """Advance simulated time by ``delay_ps``, firing due events.

        This is how modelled CPU work (an OS copy loop, an interrupt
        handler) consumes time: the clock moves forward in one step and
        any hardware events that were already scheduled inside the
        window still fire at their proper instants.
        """
        if delay_ps < 0:
            raise SimulationError(f"cannot advance by negative time ({delay_ps})")
        deadline = self._now + delay_ps
        while self._queue:
            # Purge cancelled entries so the peek sees the next *live*
            # event; otherwise step() could skip past the deadline and
            # the final assignment would move time backwards.
            while self._queue and self._queue[0][2] in self._cancelled:
                _, _, handle, _ = heapq.heappop(self._queue)
                self._cancelled.discard(handle)
            if not self._queue:
                break
            if self._queue[0][0] > deadline:
                break
            self.step()
        self._now = deadline
        self._since = deadline

    def drain(self, max_events: int = 10_000_000) -> int:
        """Run every pending event; returns the number executed."""
        count = 0
        while self.step():
            count += 1
            if count > max_events:
                raise SimulationError("drain exceeded max_events; livelock?")
        return count


class FastEngine(Engine):
    """Never built: the name outlives the removed second backend.

    ``perfbench/tracer.py`` wraps ``FastEngine.run_until``, looked up in
    the class ``__dict__``, in every ``--trace 1`` pass, so the name
    and that attribute stay until the benchmark stops patching them.
    """

    run_until = Engine.run_until
