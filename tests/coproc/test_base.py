"""Unit tests for the coprocessor FSM base class."""

import pytest

from repro.coproc.base import Coprocessor
from repro.errors import CoprocessorError
from repro.imu.imu import INT_PLD_LINE
from tests.helpers import ScriptCore, make_direct_rig, make_imu_rig


class TestLifecycle:
    def test_core_idles_until_start(self):
        rig = make_imu_rig([("compute", 1)])
        rig.domain.start()
        rig.engine.advance(10 * rig.domain.period_ps)
        rig.domain.stop()
        assert not rig.core.started
        assert rig.core.cycles == 0

    def test_start_begins_behavior(self):
        rig = make_imu_rig([("compute", 3)])
        rig.run()
        assert rig.core.started
        assert rig.core.finished

    def test_finish_asserts_cp_fin(self):
        rig = make_imu_rig([("compute", 1)])
        rig.run()
        assert rig.imu.ports.cp_fin.value == 1

    def test_cycles_counted_per_tick(self):
        rig = make_imu_rig([("compute", 5)])
        rig.run()
        # 5 compute yields + the final generator return tick.
        assert rig.core.cycles == 6

    def test_reset_allows_rerun(self):
        rig = make_imu_rig([("compute", 2)])
        rig.run()
        rig.core.reset()
        assert not rig.core.started
        assert not rig.core.finished
        assert rig.core.cycles == 0

    def test_unbound_core_rejects_tick(self):
        core = ScriptCore([("compute", 1)])
        with pytest.raises(CoprocessorError):
            core.tick()

    def test_behavior_must_be_overridden(self):
        core = Coprocessor()
        with pytest.raises(NotImplementedError):
            next(core.behavior())

    def test_ticks_after_finish_are_noops(self):
        rig = make_imu_rig([("compute", 1)])
        rig.run()
        cycles = rig.core.cycles
        rig.core.tick()
        assert rig.core.cycles == cycles


class TestParamHelpers:
    def test_read_param_via_imu_uses_param_page(self):
        from repro.coproc.ports import PARAM_OBJECT

        rig = make_imu_rig([("param", 2)])
        rig.imu.tlb.insert(PARAM_OBJECT, 0, 0)
        rig.dpram.write_word(8, 1234)
        rig.run()
        assert rig.core.results == [1234]

    def test_read_param_via_direct_registers(self):
        engine, _, iface, core, domain = make_direct_rig([("param", 1)])
        iface.param_regs = [5, 6]
        iface.start_coprocessor()
        domain.start()
        engine.run_until(
            lambda: core.finished, max_time_ps=1_000 * domain.period_ps
        )
        domain.stop()
        assert core.results == [6]

    def test_missing_direct_param_rejected(self):
        engine, _, iface, core, domain = make_direct_rig([("param", 3)])
        iface.param_regs = [1]
        iface.start_coprocessor()
        domain.start()
        with pytest.raises(CoprocessorError):
            engine.run_until(
                lambda: core.finished, max_time_ps=1_000 * domain.period_ps
            )
        domain.stop()

    def test_release_params_noop_on_direct(self):
        engine, _, iface, core, domain = make_direct_rig([("release_params",)])
        iface.param_regs = [0]
        iface.start_coprocessor()
        domain.start()
        engine.run_until(
            lambda: core.finished, max_time_ps=1_000 * domain.period_ps
        )
        domain.stop()
        assert core.finished
        assert iface.ports.cp_param_done.value == 0


class _TickCountingCore(ScriptCore):
    """Counts its edges, and notes the count at each issue and each
    CP_TLBHIT rise."""

    def __init__(self, script: list[tuple]) -> None:
        super().__init__(script)
        self.ticks = 0
        self.ticks_at_issue: list[int] = []
        self.ticks_at_rise: list[int] = []

    def bind(self, iface) -> None:
        super().bind(iface)
        self.ports.cp_req.observe(
            lambda _s, _v: self.ticks_at_issue.append(self.ticks)
        )
        self.ports.cp_tlbhit.observe(
            lambda _s, value: value and self.ticks_at_rise.append(self.ticks)
        )

    def tick(self) -> int:
        self.ticks += 1
        return super().tick()


class TestAccessWait:
    """A core sleeps from each issue to the CP_TLBHIT rise.

    A read hit, a write hit after it (issued while CP_TLBHIT is still
    high from the read) and a read that misses, served by hand.  The
    edge after an issue changed nothing, so sleeping through it moves
    no cycle count, data-ready edge or value: those are literals.
    """

    SCRIPT = [("read", 0, 4), ("write", 0, 8, 0x55), ("read", 1, 12)]

    @pytest.mark.parametrize(
        "options, cycles, stamps",
        [
            ({}, 12, [4, 7, 12]),
            ({"core_mhz": 6.0, "imu_mhz": 24.0, "sync_cycles": 6}, 12, [4, 7, 12]),
            ({"pipelined": True}, 5, [2, 3, 5]),
        ],
        ids=["single-domain", "dual-domain-1:4", "pipelined"],
    )
    def test_no_core_edge_between_issue_and_rise(self, options, cycles, stamps):
        rig = make_imu_rig(self.SCRIPT, core_type=_TickCountingCore, **options)
        rig.imu.tlb.insert(0, 0, 2)
        rig.dpram.write_word(rig.dpram.page_base(2) + 4, 0xDEAD)
        rig.run(until=lambda: rig.imu.stalled_on_fault)
        # The "VIM" maps object 1 and restarts the translation.
        rig.imu.tlb.insert(1, 0, 5)
        rig.dpram.write_word(rig.dpram.page_base(5) + 12, 0xBEEF)
        rig.imu.restart_translation()
        rig.interrupts.clear(INT_PLD_LINE)
        rig.run()
        core = rig.core
        assert len(core.ticks_at_issue) == 3
        assert core.ticks_at_rise == core.ticks_at_issue
        assert rig.imu.faults == 1
        assert core.cycles == cycles
        assert core.stamps == stamps
        assert core.results == [0xDEAD, None, 0xBEEF]
        assert rig.dpram.read_word(rig.dpram.page_base(2) + 8) == 0x55
