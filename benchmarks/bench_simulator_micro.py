"""Microbenchmarks of the simulation substrate itself.

Not a paper artefact — these track the cost of the reproduction's own
machinery (event dispatch, clock edges, full small runs) so that
regressions in simulator performance are visible in CI.  Unlike the
figure benches these use real repeated timing rounds.
"""

from repro.exp import CellConfig, run_cell, run_sweep
from repro.sim.clock import ClockDomain
from repro.sim.engine import Engine
from repro.sim.time import mhz


def test_micro_event_dispatch(benchmark):
    def dispatch_10k():
        engine = Engine()
        state = {"count": 0}

        def tick():
            state["count"] += 1
            if state["count"] < 10_000:
                engine.schedule(10, tick)

        engine.schedule(10, tick)
        engine.drain()
        return state["count"]

    assert benchmark(dispatch_10k) == 10_000


def test_micro_clock_domain_ticks(benchmark):
    def tick_10k():
        engine = Engine()
        domain = ClockDomain(engine, "clk", mhz(40.0))
        domain.attach(lambda: None)
        domain.start()
        engine.run_until(lambda: domain.cycles >= 10_000)
        domain.stop()
        return domain.cycles

    assert benchmark(tick_10k) >= 10_000


def test_micro_full_vim_cell(benchmark):
    config = CellConfig(app="vadd", input_bytes=64 * 4, seed=1)

    def run():
        return run_cell(config)

    result = benchmark(run)
    assert result.vim_speedup > 0


def test_micro_serial_sweep_dispatch(benchmark):
    # Cost of the sweep engine itself (expansion, hashing, dispatch) on
    # top of the two cells it runs.
    configs = [
        CellConfig(app="vadd", input_bytes=64 * 4, seed=seed) for seed in (1, 2)
    ]

    def run():
        return run_sweep(configs, jobs=1)

    result = benchmark(run)
    assert result.executed == len(configs)
