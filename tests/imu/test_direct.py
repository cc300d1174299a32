"""Unit tests for the direct (typical-coprocessor) interface."""

import pytest

from repro.errors import CapacityError, HardwareError
from repro.hw.dpram import DualPortRam
from repro.imu.direct import DirectInterface
from tests.helpers import make_direct_rig


def run_rig(engine, iface, core, domain, max_cycles=10_000):
    iface.start_coprocessor()
    domain.start()
    engine.run_until(
        lambda: core.finished,
        max_time_ps=engine.now + max_cycles * domain.period_ps,
    )
    domain.stop()


class TestWindows:
    def test_read_through_window(self):
        engine, dpram, iface, core, domain = make_direct_rig([("read", 0, 4)])
        iface.set_object_window(0, base=1024, size=64)
        dpram.write_word(1028, 0xFACE)
        run_rig(engine, iface, core, domain)
        assert core.results == [0xFACE]

    def test_write_through_window(self):
        engine, dpram, iface, core, domain = make_direct_rig(
            [("write", 1, 0, 0xAB, 1)]
        )
        iface.set_object_window(1, base=2048, size=16)
        run_rig(engine, iface, core, domain)
        assert dpram.read_word(2048, size=1) == 0xAB

    def test_window_exceeding_dpram_rejected(self):
        iface = DirectInterface(DualPortRam())
        with pytest.raises(CapacityError):
            iface.set_object_window(0, base=0, size=17 * 1024)
        with pytest.raises(CapacityError):
            iface.set_object_window(0, base=15 * 1024, size=2 * 1024)

    def test_unconfigured_object_rejected(self):
        engine, _, iface, core, domain = make_direct_rig([("read", 5, 0)])
        with pytest.raises(HardwareError):
            run_rig(engine, iface, core, domain)

    def test_out_of_window_access_rejected(self):
        engine, _, iface, core, domain = make_direct_rig([("read", 0, 64)])
        iface.set_object_window(0, base=0, size=64)
        with pytest.raises(HardwareError):
            run_rig(engine, iface, core, domain)


class TestTiming:
    def test_two_edge_access(self):
        engine, dpram, iface, core, domain = make_direct_rig([("read", 0, 0)])
        iface.set_object_window(0, 0, 64)
        run_rig(engine, iface, core, domain)
        assert core.stamps == [2]

    def test_direct_beats_translated_access(self):
        # The reason the typical version is faster per access.
        from tests.helpers import make_imu_rig

        engine, dpram, iface, core, domain = make_direct_rig([("read", 0, 0)])
        iface.set_object_window(0, 0, 64)
        run_rig(engine, iface, core, domain)
        rig = make_imu_rig([("read", 0, 0)])
        rig.imu.tlb.insert(0, 0, 0)
        rig.run()
        assert core.stamps[0] < rig.core.stamps[0]


class TestParamsAndDone:
    def test_param_regs(self):
        engine, _, iface, core, domain = make_direct_rig(
            [("param", 0), ("param", 1)]
        )
        iface.param_regs = [11, 22]
        run_rig(engine, iface, core, domain)
        assert core.results == [11, 22]

    def test_done_flag_on_finish(self):
        engine, _, iface, core, domain = make_direct_rig([("compute", 3)])
        run_rig(engine, iface, core, domain)
        # done latches one edge after CP_FIN; tick once more
        domain.start()
        engine.run_until(lambda: iface.done, max_time_ps=engine.now + 10 * domain.period_ps)
        domain.stop()
        assert iface.done
