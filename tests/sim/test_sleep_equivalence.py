"""Sleeping through edges is indistinguishable from running them.

The same seeded idle pattern drives a :class:`~repro.sim.clock.Clocked`
handler, which sleeps, and a plain handler, which runs every edge and
counts its way through the same waits.  Around them: a second domain
that wakes the handler at random, one-shots scheduled before each
window on the handler's edge grid (stopping the window, waking the
handler, or both), and OS time between windows.  Both runs must log the
same ``(engine.now, cycles, handler edges)`` on every edge the handler
acts on and at every stop.
"""

import random

import pytest

from repro.sim.clock import UNTIL_WOKEN, ClockDomain, Clocked
from repro.sim.engine import Engine
from repro.sim.time import mhz

PERIOD_PS = 10_000  # the handler's 100 MHz domain


class _Pattern:
    """The handler's behaviour: log each active edge, draw the next wait."""

    def __init__(self, engine: Engine, domain: ClockDomain, seed: int, log: list):
        self.engine = engine
        self.domain = domain
        self.rng = random.Random(seed)
        self.log = log
        self.edges = 0

    def act(self) -> int:
        self.log.append(("edge", self.engine.now, self.domain.cycles, self.edges))
        return self.rng.choice((1, 1, 2, 3, 5, 8, UNTIL_WOKEN, UNTIL_WOKEN))


class _Sleeping(_Pattern, Clocked):
    def tick(self) -> int:
        self.edges += 1
        return self.act()

    def idle(self, edges: int) -> None:
        self.edges += edges


class _PerEdge(_Pattern):
    """Runs every edge; acts when its wait is over or it was woken."""

    left = 1
    woken = False

    def wake(self) -> None:
        self.woken = True

    def edge(self) -> None:
        self.edges += 1
        self.left -= 1
        if self.woken or self.left == 0:
            self.woken = False
            # A wait "until woken" never runs out by counting.
            self.left = self.act() or -1


def _run(sleeping: bool, seed: int, other_mhz: float) -> tuple[list, int, int]:
    engine = Engine()
    domain = ClockDomain(engine, "handler", mhz(100.0))
    other = ClockDomain(engine, "other", mhz(other_mhz))
    log: list = []
    if sleeping:
        handler = _Sleeping(engine, domain, seed, log)
        domain.attach(handler)
    else:
        handler = _PerEdge(engine, domain, seed, log)
        domain.attach(handler.edge)
    wakes = random.Random(seed + 1)

    def other_edge() -> None:
        if wakes.random() < 0.2:
            handler.wake()

    other.attach(other_edge)
    plan = random.Random(seed + 2)
    for _window in range(12):
        stop = [False]

        def shot(kind: str) -> None:
            if kind != "stop":
                handler.wake()
            if kind != "wake":
                stop[0] = True

        start = engine.now
        shots = [
            engine.schedule_at(
                start + plan.randrange(1, 40) * PERIOD_PS,
                lambda kind=plan.choice(("stop", "wake", "both")): shot(kind),
            )
            for _ in range(plan.randrange(1, 4))
        ]
        shots.append(engine.schedule_at(start + 45 * PERIOD_PS, lambda: shot("stop")))
        domain.start()
        other.start()
        engine.run_until(lambda: stop[0], max_time_ps=start + 50 * PERIOD_PS)
        domain.stop()
        other.stop()
        for handle in shots:
            engine.cancel(handle)
        log.append(("stop", engine.now, domain.cycles, handler.edges))
        engine.advance(plan.choice((0, 5_000, PERIOD_PS, 123_456)))
    return log, domain.cycles, domain.executed


@pytest.mark.parametrize("other_mhz", [25.0, 250.0], ids=["slower", "faster"])
@pytest.mark.parametrize("seed", range(8))
def test_sleeping_handler_matches_per_edge_handler(seed: int, other_mhz: float):
    slept, cycles, executed = _run(True, seed, other_mhz)
    ticked, per_edge_cycles, per_edge_executed = _run(False, seed, other_mhz)
    assert slept == ticked
    assert cycles == per_edge_cycles == per_edge_executed
    assert executed < cycles
