"""The discrete-event simulation engine.

The engine is the spine of the whole reproduction: hardware clock
domains schedule their rising edges as events, while operating-system
work (which we model analytically rather than instruction by
instruction) advances time in bulk with :meth:`Engine.advance`.

:class:`Engine` is an integer-time event queue with stable FIFO
ordering for simultaneous events.  It is intentionally minimal because
the paper's claims are about *architectural* interleavings (faults,
stalls, copies), not about electrical timing.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError


class Engine:
    """An integer-picosecond discrete-event simulator.

    Events are ``(time, sequence, callback)`` triples kept in a binary
    heap; the sequence number makes ordering of simultaneous events
    deterministic (FIFO in scheduling order), which keeps every
    experiment in the repository exactly reproducible.
    """

    def __init__(self) -> None:
        self._now = 0
        self._queue: list[tuple[int, int, Callable[[], Any]]] = []
        self._seq = 0
        self._cancelled: set[int] = set()
        # Handles currently live in the heap (scheduled, not yet run,
        # not cancelled).  Keeping this exact — instead of deriving
        # pending() from len(queue) - len(cancelled) — means cancelling
        # an already-executed or never-issued handle is a no-op rather
        # than a permanent phantom that makes pending() undercount and
        # the cancelled set grow without bound over long runs.
        self._live: set[int] = set()

    @property
    def now(self) -> int:
        """Current simulated time in picoseconds."""
        return self._now

    def schedule(self, delay_ps: int, callback: Callable[[], Any]) -> int:
        """Schedule *callback* to run ``delay_ps`` from now.

        Returns an event handle usable with :meth:`cancel`.
        """
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule in the past ({delay_ps} ps)")
        return self.schedule_at(self._now + delay_ps, callback)

    def schedule_at(self, time_ps: int, callback: Callable[[], Any]) -> int:
        """Schedule *callback* at absolute time ``time_ps``."""
        if time_ps < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps, now is {self._now} ps"
            )
        handle = self._seq
        self._seq += 1
        heapq.heappush(self._queue, (time_ps, handle, callback))
        self._live.add(handle)
        return handle

    def cancel(self, handle: int) -> None:
        """Cancel a previously scheduled event.

        Cancellation is lazy: the event stays in the heap and is skipped
        when popped.  Cancelling a handle that already ran (or was never
        issued) is a no-op.
        """
        if handle in self._live:
            self._live.discard(handle)
            self._cancelled.add(handle)

    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events."""
        return len(self._live)

    def peek(self) -> int | None:
        """Time of the next live event, or None when the queue is empty."""
        while self._queue and self._queue[0][1] in self._cancelled:
            _, handle, _ = heapq.heappop(self._queue)
            self._cancelled.discard(handle)
        return self._queue[0][0] if self._queue else None

    def _pop(self) -> tuple[int, int, Callable[[], Any]] | None:
        while self._queue:
            time_ps, handle, callback = heapq.heappop(self._queue)
            if handle in self._cancelled:
                self._cancelled.discard(handle)
                continue
            self._live.discard(handle)
            return time_ps, handle, callback
        return None

    def step(self) -> bool:
        """Run the earliest pending event.  Returns False if none left."""
        item = self._pop()
        if item is None:
            return False
        time_ps, _, callback = item
        self._now = time_ps
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
        while not predicate():
            item = self._pop()
            if item is None:
                return False
            time_ps, handle, callback = item
            if max_time_ps is not None and time_ps > max_time_ps:
                # Put it back under its original handle: the caller may
                # want to continue later, and the event must stay
                # cancellable and keep its FIFO rank among simultaneous
                # events.
                heapq.heappush(self._queue, (time_ps, handle, callback))
                self._live.add(handle)
                raise SimulationError(
                    f"run_until exceeded {max_time_ps} ps without satisfying "
                    f"predicate (now={self._now} ps)"
                )
            self._now = time_ps
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
            while self._queue and self._queue[0][1] in self._cancelled:
                _, handle, _ = heapq.heappop(self._queue)
                self._cancelled.discard(handle)
            if not self._queue:
                break
            time_ps, _, _ = self._queue[0]
            if time_ps > deadline:
                break
            self.step()
        self._now = deadline

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
