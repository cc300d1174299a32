"""Unit tests for clock domains."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import ClockDomain
from repro.sim.engine import Engine
from repro.sim.time import mhz


class TestTicking:
    def test_edges_arrive_at_period_multiples(self, engine: Engine):
        domain = ClockDomain(engine, "clk", mhz(40.0))
        times = []
        domain.attach(lambda: times.append(engine.now))
        domain.start()
        engine.run_until(lambda: len(times) >= 3)
        domain.stop()
        assert times == [25_000, 50_000, 75_000]

    def test_cycle_counter(self, engine: Engine, clock_40mhz: ClockDomain):
        clock_40mhz.start()
        engine.run_until(lambda: clock_40mhz.cycles >= 5)
        clock_40mhz.stop()
        assert clock_40mhz.cycles == 5

    def test_handlers_run_in_attachment_order(self, engine: Engine):
        domain = ClockDomain(engine, "clk", mhz(40.0))
        log = []
        domain.attach(lambda: log.append("imu"))
        domain.attach(lambda: log.append("core"))
        domain.start()
        engine.run_until(lambda: len(log) >= 2)
        domain.stop()
        assert log[:2] == ["imu", "core"]

    def test_detach_removes_handler(self, engine: Engine):
        domain = ClockDomain(engine, "clk", mhz(40.0))
        log = []
        handler = lambda: log.append("x")  # noqa: E731
        domain.attach(handler)
        domain.detach(handler)
        domain.start()
        engine.advance(100_000)
        domain.stop()
        assert log == []


class TestStartStop:
    def test_double_start_rejected(self, engine: Engine, clock_40mhz: ClockDomain):
        clock_40mhz.start()
        with pytest.raises(SimulationError):
            clock_40mhz.start()

    def test_stop_is_idempotent(self, clock_40mhz: ClockDomain):
        clock_40mhz.stop()  # never started: no-op
        clock_40mhz.start()
        clock_40mhz.stop()
        clock_40mhz.stop()

    def test_stop_cancels_pending_edge(self, engine: Engine):
        domain = ClockDomain(engine, "clk", mhz(40.0))
        ticks = []
        domain.attach(lambda: ticks.append(engine.now))
        domain.start()
        domain.stop()
        engine.advance(1_000_000)
        assert ticks == []

    def test_restart_resumes_from_now(self, engine: Engine):
        domain = ClockDomain(engine, "clk", mhz(40.0))
        ticks = []
        domain.attach(lambda: ticks.append(engine.now))
        domain.start()
        engine.run_until(lambda: len(ticks) >= 1)
        domain.stop()
        engine.advance(1_000_000)  # OS busy; fabric paused
        domain.start()
        engine.run_until(lambda: len(ticks) >= 2)
        domain.stop()
        assert ticks[1] == ticks[0] + 1_000_000 + domain.period_ps

    def test_two_domains_interleave_by_frequency(self, engine: Engine):
        fast = ClockDomain(engine, "imu", mhz(24.0))
        slow = ClockDomain(engine, "core", mhz(6.0))
        log = []
        fast.attach(lambda: log.append("f"))
        slow.attach(lambda: log.append("s"))
        fast.start()
        slow.start()
        engine.run_until(lambda: log.count("s") >= 2)
        fast.stop()
        slow.stop()
        # Roughly four fast edges per slow edge (24 MHz vs 6 MHz).
        first_slow = log.index("s")
        assert log[:first_slow].count("f") in (3, 4)

    def test_elapsed_ps(self, clock_40mhz: ClockDomain):
        assert clock_40mhz.elapsed_ps(4) == 100_000


class TestOrdering:
    """Coincident events run in the engine's FIFO order of scheduling.

    Every edge is scheduled by the edge before it (the first by
    ``start``), so at a shared instant the event scheduled earliest
    runs first.  The interleavings are literal: any change to the
    event order fails here before it moves a golden row.
    """

    def test_one_shot_runs_before_coincident_edge(self, engine: Engine):
        log = []
        domain = ClockDomain(engine, "d", mhz(100.0))  # 10 000 ps period
        domain.attach(lambda: log.append(("edge", engine.now)))
        domain.start()
        # Scheduled after start, but before edge 2 schedules edge 3.
        engine.schedule_at(30_000, lambda: log.append(("shot", engine.now)))
        engine.run_until(lambda: len(log) >= 6)
        domain.stop()
        assert log == [
            ("edge", 10_000), ("edge", 20_000), ("shot", 30_000),
            ("edge", 30_000), ("edge", 40_000), ("edge", 50_000),
        ]

    def test_slower_domain_wins_shared_edge(self, engine: Engine):
        # The fast domain starts first, yet the slow domain's edge at
        # 40 000 ps was scheduled at 0 and the fast one's at 30 000.
        log = []
        fast = ClockDomain(engine, "fastclk", mhz(100.0))
        slow = ClockDomain(engine, "slowclk", mhz(25.0))
        fast.attach(lambda: log.append(("f", engine.now)))
        slow.attach(lambda: log.append(("s", engine.now)))
        fast.start()
        slow.start()
        engine.run_until(lambda: len(log) >= 10)
        fast.stop()
        slow.stop()
        assert log == [
            ("f", 10_000), ("f", 20_000), ("f", 30_000),
            ("s", 40_000), ("f", 40_000),
            ("f", 50_000), ("f", 60_000), ("f", 70_000),
            ("s", 80_000), ("f", 80_000),
        ]

    def test_rescheduling_chain_runs_after_each_edge(self, engine: Engine):
        # Each shot reschedules itself one period ahead from inside its
        # own run, i.e. after the coincident edge has rescheduled.
        log = []
        domain = ClockDomain(engine, "d", mhz(100.0))
        domain.attach(lambda: log.append(("edge", engine.now)))
        domain.start()

        def shot():
            log.append(("shot", engine.now))
            if len(log) < 10:
                engine.schedule(10_000, shot)

        engine.schedule(10_000, shot)
        engine.run_until(lambda: len(log) >= 10)
        domain.stop()
        assert log == [
            ("edge", 10_000), ("shot", 10_000),
            ("edge", 20_000), ("shot", 20_000),
            ("edge", 30_000), ("shot", 30_000),
            ("edge", 40_000), ("shot", 40_000),
            ("edge", 50_000), ("shot", 50_000),
        ]

    def test_handler_attached_after_start_runs_from_next_edge(
        self, engine: Engine
    ):
        domain = ClockDomain(engine, "d", mhz(100.0))
        hits = []
        domain.start()
        engine.step()  # edge 1: no handler yet
        domain.attach(lambda: hits.append(engine.now))
        engine.step()
        assert hits == [20_000]
        assert domain.cycles == 2

    def test_handler_stopping_its_domain_halts_it(self, engine: Engine):
        domain = ClockDomain(engine, "d", mhz(100.0))
        edges = []

        def handler():
            edges.append(engine.now)
            if len(edges) == 2:
                domain.stop()

        domain.attach(handler)
        domain.start()
        assert engine.drain() == 2
        assert edges == [10_000, 20_000]
        assert domain.cycles == 2

    def test_run_until_deadline_stops_at_last_edge(self, engine: Engine):
        domain = ClockDomain(engine, "d", mhz(100.0))
        domain.attach(lambda: None)
        domain.start()
        with pytest.raises(SimulationError):
            engine.run_until(lambda: False, max_time_ps=35_000)
        assert (engine.now, domain.cycles) == (30_000, 3)
