"""Unit tests for traced signals."""

import pytest

from repro.errors import SimulationError
from repro.sim.signal import Signal, SignalBundle


class TestSignal:
    def test_initial_value(self):
        assert Signal("s", width=8, init=5).value == 5

    def test_set_and_read(self):
        sig = Signal("s", width=8)
        sig.set(200)
        assert sig.value == 200

    def test_width_enforced_on_set(self):
        sig = Signal("s", width=4)
        with pytest.raises(SimulationError):
            sig.set(16)

    def test_width_enforced_on_init(self):
        with pytest.raises(SimulationError):
            Signal("s", width=2, init=4)

    def test_zero_width_rejected(self):
        with pytest.raises(SimulationError):
            Signal("s", width=0)

    def test_observer_fires_on_change(self):
        sig = Signal("s", width=8)
        seen = []
        sig.observe(lambda s, v: seen.append(v))
        sig.set(1)
        sig.set(2)
        assert seen == [1, 2]

    def test_observer_skipped_on_same_value(self):
        sig = Signal("s", width=8, init=7)
        seen = []
        sig.observe(lambda s, v: seen.append(v))
        sig.set(7)
        assert seen == []

    def test_unobserve(self):
        sig = Signal("s", width=8)
        seen = []
        observer = lambda s, v: seen.append(v)  # noqa: E731
        sig.observe(observer)
        sig.unobserve(observer)
        sig.set(3)
        assert seen == []

    def test_bool_conversion(self):
        assert not Signal("s")
        assert Signal("s", init=1)


class TestSignalBundle:
    def test_new_prefixes_names(self):
        bundle = SignalBundle("cp")
        sig = bundle.new("addr", width=32)
        assert sig.name == "cp.addr"

    def test_iteration_in_declaration_order(self):
        bundle = SignalBundle("cp")
        a = bundle.new("a")
        b = bundle.new("b")
        assert list(bundle) == [a, b]
        assert len(bundle) == 2
