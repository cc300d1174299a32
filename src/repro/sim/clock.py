"""Clock domains.

The paper's platform mixes several clocks: the ARM stripe at 133 MHz,
the adpcm coprocessor and its IMU at 40 MHz, the IDEA coprocessor at
6 MHz with its memory subsystem and IMU at 24 MHz.  A
:class:`ClockDomain` turns an :class:`~repro.sim.engine.Engine` event
stream into rising-edge callbacks for every component attached to it.

Most edges change nothing: a core computing for twenty cycles, an IMU
idling between requests or counting down a translation.  A
:class:`Clocked` component says, on every edge it runs, how many edges
it can sleep through, and the domain runs only the edges some
component needs.  The edges in between are counted, not run.

Domains can be paused.  While the OS services a page fault the fabric
clocks are paused by the runner — not because real hardware gates its
clock, but because ticking a stalled coprocessor contributes nothing to
the model and would dominate simulation run time.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.time import Frequency

#: ``Clocked.tick`` result: no edge is needed until :meth:`Clocked.wake`.
UNTIL_WOKEN = 0

#: Due edge of a handler asleep until woken.
_NEVER = 1 << 62


class Clocked:
    """A component that declares the edges it can sleep through.

    ``tick()`` runs one rising edge and returns how many edges from this
    one the component next needs: 1 for the next edge, *n* for the
    *n*-th, :data:`UNTIL_WOKEN` for none until :meth:`wake` is called.
    ``idle(edges)`` stands for *edges* ticks the component slept
    through and must leave every counter as those ticks would have.

    Every tick must be safe on an edge the component did not ask for;
    a direct ``tick()`` call always advances exactly one edge.  The
    component calls :meth:`wake` whenever something it samples changes
    other than through its own tick (a port it is sensitive to, a state
    the OS reset); it then runs on the first edge of its domain that
    has not run yet.
    """

    #: Set by the clock domain running this component.
    _waker: Callable[[], None] | None = None

    def tick(self) -> int:
        """One rising edge; returns the edges until the next one needed."""
        raise NotImplementedError

    def idle(self, edges: int) -> None:
        """Account *edges* edges slept through."""
        raise NotImplementedError

    def wake(self) -> None:
        """Run on the next edge that has not run yet."""
        waker = self._waker
        if waker is not None:
            waker()

    def sense(self, *signals) -> None:
        """Wake on every change of *signals* (the sensitivity list)."""
        for signal in signals:
            signal.observe(self._sensed)

    def _sensed(self, _signal, _value: int) -> None:
        # wake(), inlined: this runs on every access.
        waker = self._waker
        if waker is not None:
            waker()


class _Slot:
    """One attached handler: its edge callback and where it stands."""

    __slots__ = ("tick", "idle", "component", "position", "due", "last", "waker")

    def __init__(self, tick, idle, component, position: int, edge: int) -> None:
        self.tick = tick
        #: Accounts slept-through edges; None runs the handler every edge.
        self.idle = idle
        self.component = component
        self.position = position
        #: Index of the next edge the handler must run on.
        self.due = edge + 1
        #: Index of the last edge run or accounted for the handler.
        self.last = edge
        self.waker = None


class ClockDomain:
    """A periodic rising-edge source bound to an engine.

    Handlers attached with :meth:`attach` run in attachment order on
    each edge they need, which gives deterministic intra-cycle ordering
    (e.g. the IMU samples coprocessor outputs *after* the coprocessor
    has driven them if the coprocessor was attached first).  A plain
    callable needs every edge; a :class:`Clocked` component needs only
    the edges it asks for or is woken on.  The domain runs the earliest
    edge any handler needs and counts the others: :attr:`cycles` is the
    edges accounted (equal, whenever the domain is stopped, to the
    edges per-edge ticking would have run), :attr:`executed` the edges
    actually run.

    Each run edge is one engine event, scheduled as if by the edge
    before it (even when that edge was slept through), so an edge
    coinciding with another event runs in the engine's order of
    scheduling, exactly as under per-edge ticking.
    """

    def __init__(self, engine: Engine, name: str, frequency: Frequency) -> None:
        self.engine = engine
        self.name = name
        self.frequency = frequency
        self.period_ps = frequency.period_ps
        #: Edges accounted (run or slept through).
        self.cycles = 0
        #: Edges run.
        self.executed = 0
        self._slots: list[_Slot] = []
        self._running = False
        self._next_event: int | None = None
        self._next_edge = _NEVER
        # Time of edge 0 on the current edge grid (edge k is at
        # origin + k * period).
        self._origin = 0
        # While an edge runs: its index and the position of the handler
        # running now (-1 outside the domain's own edge).
        self._edge = 0
        self._active = -1
        # The edge event's callback, bound once instead of once per edge.
        self._run_edge = self._tick

    def attach(self, handler: Callable[[], object] | Clocked) -> None:
        """Attach a rising-edge handler.

        *handler* is a callable run on every edge, or a
        :class:`Clocked` component whose ``tick`` runs on the edges it
        needs.
        """
        if isinstance(handler, Clocked):
            slot = _Slot(
                handler.tick, handler.idle, handler, len(self._slots), self.cycles
            )
            slot.waker = partial(self._wake, slot)
            if self._running:
                handler._waker = slot.waker
        else:
            slot = _Slot(handler, None, None, len(self._slots), self.cycles)
        self._slots.append(slot)
        if self._running:
            # Due on the first edge that has not run yet.
            slot.due = _NEVER
            self._wake(slot)
            slot.last = slot.due - 1

    def detach(self, handler: Callable[[], object] | Clocked) -> None:
        """Remove a previously attached handler."""
        for slot in self._slots:
            if slot.component is handler or (
                slot.component is None and slot.tick == handler
            ):
                break
        else:
            raise ValueError(f"{handler!r} is not attached to {self.name!r}")
        self._slots.remove(slot)
        if slot.component is not None and slot.component._waker is slot.waker:
            slot.component._waker = None
        for position, other in enumerate(self._slots):
            other.position = position

    @property
    def running(self) -> bool:
        """True while the domain is generating edges."""
        return self._running

    def start(self) -> None:
        """Begin ticking on a new edge grid, its first edge one period away.

        A handler part-way through a timed sleep resumes what is left
        of it on the new grid.
        """
        if self._running:
            raise SimulationError(f"clock domain {self.name!r} already running")
        self._running = True
        self._origin = self.engine.now - self.cycles * self.period_ps
        for slot in self._slots:
            if slot.component is not None:
                slot.component._waker = slot.waker
        self._schedule(self._first_due())

    def stop(self) -> None:
        """Stop ticking; settle every count to the edges that have run.

        Edges slept through up to now are accounted as per-edge ticking
        would have run them, and the pending edge (if any) is cancelled.
        """
        if not self._running:
            return
        self._running = False
        if self._next_event is not None:
            self.engine.cancel(self._next_event)
            self._next_event = None
        if self._active < 0:
            self.cycles = self._open_edge() - 1
        self._next_edge = _NEVER
        cycles = self.cycles
        for slot in self._slots:
            upto = min(cycles, slot.due - 1)
            if upto > slot.last:
                if slot.idle is not None:
                    slot.idle(upto - slot.last)
                slot.last = upto

    # -- edge scheduling ---------------------------------------------------

    def _first_due(self) -> int:
        due = self.cycles + 1 if not self._slots else _NEVER
        for slot in self._slots:
            if slot.due < due:
                due = slot.due
        return due

    def _schedule(self, edge: int) -> None:
        """Schedule the run of *edge*, ranked as if its predecessor had."""
        self._next_edge = edge
        if edge >= _NEVER:
            self._next_event = None
            return
        period_ps = self.period_ps
        time_ps = self._origin + edge * period_ps
        self._next_event = self.engine.schedule_at(
            time_ps, self._run_edge, time_ps - period_ps
        )

    def _open_edge(self) -> int:
        """Index of the first edge that has not run yet (between events).

        The engine's current event ranks after every event scheduled at
        an earlier instant, so a grid edge at the current instant has
        run iff the edge before it came earlier than that event's
        scheduling instant.
        """
        engine = self.engine
        now = engine.now
        edge, offset = divmod(now - self._origin, self.period_ps)
        if offset or now - self.period_ps < engine.since:
            edge += 1
        return max(edge, self.cycles + 1)

    def _wake(self, slot: _Slot) -> None:
        if self._active >= 0:
            # Woken by a handler of this edge: a handler still to come
            # samples the change on this edge, one already past on the
            # next.
            due = self._edge + (slot.position <= self._active)
        elif not self._running:
            due = self.cycles + 1
        else:
            due = self._open_edge()
        if due < slot.due:
            slot.due = due
            if self._running and self._active < 0 and due < self._next_edge:
                if self._next_event is not None:
                    self.engine.cancel(self._next_event)
                self._schedule(due)

    def _tick(self) -> None:
        edge = self._next_edge
        self.cycles = edge
        self.executed += 1
        self._edge = edge
        try:
            for slot in self._slots:
                if slot.due > edge:
                    continue
                self._active = slot.position
                idle = slot.idle
                if idle is None:
                    slot.last = edge
                    slot.due = edge + 1
                    slot.tick()
                    continue
                if edge - slot.last > 1:
                    idle(edge - slot.last - 1)
                slot.last = edge
                wait = slot.tick()
                slot.due = edge + wait if wait else _NEVER
        finally:
            self._active = -1
        if self._running:
            # _first_due and _schedule, inlined: this runs once per edge.
            due = edge + 1 if not self._slots else _NEVER
            for slot in self._slots:
                if slot.due < due:
                    due = slot.due
            self._next_edge = due
            if due < _NEVER:
                period_ps = self.period_ps
                time_ps = self._origin + due * period_ps
                self._next_event = self.engine.schedule_at(
                    time_ps, self._run_edge, time_ps - period_ps
                )
            else:
                self._next_event = None

    def elapsed_ps(self, cycles: int) -> int:
        """Duration of *cycles* edges of this clock in picoseconds."""
        return cycles * self.period_ps

    def __repr__(self) -> str:
        return f"ClockDomain({self.name!r}, {self.frequency})"
