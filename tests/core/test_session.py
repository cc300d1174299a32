"""Tests for coprocessor sessions (repeated FPGA_EXECUTE, §3.3)."""

import numpy as np
import pytest

from repro.apps import adpcm, workloads
from repro.coproc.base import Coprocessor
from repro.coproc.bitstream import Bitstream
from repro.coproc.kernels import adpcm as adpcm_core
from repro.coproc.kernels import vector_add as vadd_core
from repro.coproc.ports import PARAM_OBJECT
from repro.core.drivers import adpcm_workload
from repro.core.runner import run_vim
from repro.core.session import CoprocessorSession, VirtualInterface
from repro.core.system import System
from repro.core.tenancy import run_tenants
from repro.errors import FpgaError, SimulationError, VimError
from repro.hw.fpga import PldResources
from repro.imu.imu import INT_PLD_LINE
from repro.os.process import ProcessState
from repro.os.vim.objects import Hint
from repro.os.workload import Workload
from repro.sim.time import mhz


def vadd_session(system=None):
    return CoprocessorSession(system or System(), vadd_core.bitstream())


class TestLifecycle:
    def test_load_happens_once(self):
        system = System()
        with vadd_session(system) as session:
            a = workloads.random_words(8, seed=1)
            b = workloads.random_words(8, seed=2)
            session.map_input(0, "A", a.astype("<u4").tobytes())
            session.map_input(1, "B", b.astype("<u4").tobytes())
            session.map_output(2, "C", 32)
            for _ in range(3):
                session.execute([8])
        assert system.fabric.configurations == 1
        assert session.executions == 3

    def test_close_releases_everything(self):
        system = System()
        session = vadd_session(system)
        session.map_input(0, "A", bytes(32))
        session.close()
        assert system.fabric.owner_pid is None
        assert system.kernel.user_memory.allocated == 0
        # Idempotent.
        session.close()

    def test_closed_session_rejects_use(self):
        session = vadd_session()
        session.close()
        with pytest.raises(VimError):
            session.map_input(0, "A", bytes(4))
        with pytest.raises(VimError):
            session.execute([1])

    def test_exclusive_fabric_across_sessions(self):
        system = System()
        first = vadd_session(system)
        with pytest.raises(FpgaError):
            CoprocessorSession(system, adpcm_core.bitstream())
        first.close()

    def test_refused_session_leaves_the_interrupt_lines_alone(self):
        # FPGA_LOAD comes before the interrupt lines are claimed, so a
        # session refused the fabric takes no handler from the session
        # that holds it.
        def add_vectors(session, seed):
            a = workloads.random_words(8, seed=seed)
            b = workloads.random_words(8, seed=seed + 100)
            session.map_input(0, "A", a.astype("<u4").tobytes())
            session.map_input(1, "B", b.astype("<u4").tobytes())
            session.map_output(2, "C", 32)
            result = session.execute([8])
            assert (np.frombuffer(result.outputs[2], dtype="<u4") == a + b).all()

        system = System()
        with vadd_session(system) as first:
            with pytest.raises(FpgaError):
                CoprocessorSession(system, adpcm_core.bitstream())
            add_vectors(first, seed=1)
        with vadd_session(system) as second:
            add_vectors(second, seed=2)

    def test_closed_solo_session_leaves_no_process_to_dispatch(self):
        system = System()
        run_vim(system, adpcm_workload(1024))
        result = run_tenants(system, [Workload(spec=adpcm_workload(1024, seed=2))])
        assert len(result.tenants[0].outputs) == 1

    def test_refused_session_leaves_no_process_to_dispatch(self):
        system = System()
        owner = vadd_session(system)
        with pytest.raises(FpgaError):
            CoprocessorSession(system, adpcm_core.bitstream())
        owner.close()
        assert owner.process.state is ProcessState.TERMINATED
        result = run_tenants(system, [Workload(spec=adpcm_workload(1024, seed=2))])
        assert len(result.tenants[0].outputs) == 1


class TestRepeatedExecution:
    def test_results_independent_per_execute(self):
        with vadd_session() as session:
            a_buf = session.map_input(0, "A", bytes(32))
            b_buf = session.map_input(1, "B", bytes(32))
            session.map_output(2, "C", 32)
            for seed in (3, 4):
                a = workloads.random_words(8, seed=seed)
                b = workloads.random_words(8, seed=seed + 100)
                a_buf.fill_from(a.astype("<u4").tobytes())
                b_buf.fill_from(b.astype("<u4").tobytes())
                result = session.execute([8])
                got = np.frombuffer(result.outputs[2], dtype="<u4")
                assert (got == a + b).all()

    def test_streaming_adpcm_chunks_bit_exact(self):
        chunk = 512
        stream = workloads.adpcm_stream(4 * chunk, seed=9)
        with CoprocessorSession(System(), adpcm_core.bitstream()) as session:
            src = session.map_input(0, "in", stream[:chunk])
            session.map_output(1, "out", 4 * chunk)
            for start in range(0, len(stream), chunk):
                src.fill_from(stream[start : start + chunk])
                result = session.execute([chunk])
                expected = adpcm.decode(stream[start : start + chunk])
                assert result.outputs[1] == expected.astype("<i2").tobytes()

    def test_each_execute_gets_fresh_measurement(self):
        with vadd_session() as session:
            session.map_input(0, "A", bytes(64))
            session.map_input(1, "B", bytes(64))
            session.map_output(2, "C", 64)
            first = session.execute([16])
            second = session.execute([16])
        assert first.measurement is not second.measurement
        assert first.measurement.total_ps == second.measurement.total_ps

    def test_verify_refuses_a_result_without_a_reference(self):
        """A session result has no software reference to check against."""
        with vadd_session() as session:
            session.map_input(0, "A", bytes(32))
            session.map_input(1, "B", bytes(32))
            session.map_output(2, "C", 32)
            result = session.execute([8])
        result.outputs[2] = b"\xff" * 32
        with pytest.raises(VimError, match="exec-1/vim-session: no reference"):
            result.verify()

    def test_partial_param_change_between_executes(self):
        # Process only a prefix of the mapped vectors on the second run.
        with vadd_session() as session:
            a = workloads.random_words(16, seed=1)
            b = workloads.random_words(16, seed=2)
            session.map_input(0, "A", a.astype("<u4").tobytes())
            session.map_input(1, "B", b.astype("<u4").tobytes())
            session.map_output(2, "C", 64)
            session.execute([16])
            result = session.execute([4])
            got = np.frombuffer(result.outputs[2], dtype="<u4")[:4]
            assert (got == (a + b)[:4]).all()


class TestHints:
    def _run_adpcm(self, hints=Hint.NONE, size=8 * 1024):
        stream = workloads.adpcm_stream(size, seed=5)
        with CoprocessorSession(System(), adpcm_core.bitstream()) as session:
            session.map_input(0, "in", stream, hints=hints)
            session.map_output(1, "out", 4 * size)
            result = session.execute([size])
            expected = adpcm.decode(stream).astype("<i2").tobytes()
            assert result.outputs[1] == expected
            return result

    def test_stream_hint_prefetches(self):
        plain = self._run_adpcm()
        hinted = self._run_adpcm(hints=Hint.STREAM)
        assert hinted.measurement.counters.prefetches > 0

    def test_pinned_object_never_evicted(self):
        result = self._run_adpcm(hints=Hint.PINNED)
        # The 8 KB input (4 pages) stays resident; only output pages
        # cycle, so no input page is ever reloaded.
        assert result.measurement.counters.bytes_to_dpram <= 8 * 1024

    def test_unpinnable_pressure_rejected(self):
        # Pinning an object larger than the DP-RAM leaves no frames to
        # service other faults: the VIM must refuse rather than hang.
        size = 20 * 1024
        stream = workloads.adpcm_stream(size, seed=6)
        with CoprocessorSession(System(), adpcm_core.bitstream()) as session:
            session.map_input(0, "in", stream, hints=Hint.PINNED)
            session.map_output(1, "out", 4 * size)
            with pytest.raises(VimError, match="pinned"):
                session.execute([size])


class _ComputeForever(Coprocessor):
    """Never finishes: one datapath computation longer than any guard."""

    name = "compute-forever"

    def behavior(self):
        yield from self.read_param(0)
        yield from self.compute(10**9)


class _ReadOnce(Coprocessor):
    """Reads one word of object 0 and finishes."""

    name = "read-once"

    def behavior(self):
        yield from self.read(0, 0)


class _WritesItsParams(Coprocessor):
    """Overwrites its parameter page and never releases it."""

    name = "writes-params"

    def behavior(self):
        count = yield from self.read_param(0)
        yield from self.write(PARAM_OBJECT, 4, count + 1)
        yield from self.read(0, 0)


def _bitstream(core_factory):
    return Bitstream(
        name=core_factory.name,
        core_factory=core_factory,
        core_frequency=mhz(40.0),
        resources=PldResources(logic_elements=100, memory_bits=0),
    )


def _tight_guard(system, edges=1_000):
    # The default guard allows millions of edges; a short one keeps the
    # livelock tests fast without changing what they check.
    system.fabric_ticks_limit = lambda workload_bytes: edges
    return system


class TestLivelockGuard:
    def test_core_stuck_in_one_long_compute_raises(self):
        system = _tight_guard(System())
        with CoprocessorSession(system, _bitstream(_ComputeForever)) as session:
            session.map_input(0, "in", bytes(64))
            with pytest.raises(SimulationError, match="run_until exceeded"):
                session.execute([1])

    def test_core_spinning_on_tlbhit_raises(self):
        # INT_PLD masked: the fault is never serviced, the IMU stays in
        # FAULT and the core waits for CP_TLBHIT forever.
        system = _tight_guard(System())
        session = CoprocessorSession(
            system,
            _bitstream(_ReadOnce),
            VirtualInterface(system, eager_mapping=False),
        )
        with session:
            session.map_input(0, "in", bytes(64))
            system.interrupts.mask(INT_PLD_LINE)
            with pytest.raises(SimulationError, match="run_until exceeded"):
                session.execute([1])
            assert session.imu.stalled_on_fault

    def test_fault_service_does_not_use_up_the_guard(self):
        # About 9 200 fabric edges fit the 12 000-edge budget, but the
        # six faults' OS service alone lasts longer than the budget:
        # only hardware windows may count against it.
        system = _tight_guard(System(), edges=12_000)
        session = CoprocessorSession(
            system,
            vadd_core.bitstream(),
            VirtualInterface(system, eager_mapping=False),
        )
        with session:
            session.map_input(0, "A", bytes(4096))
            session.map_input(1, "B", bytes(4096))
            session.map_output(2, "C", 4096)
            result = session.execute([1024])
        measurement = result.measurement
        assert measurement.counters.page_faults == 6
        budget_ps = 12_000 * vadd_core.bitstream().iface_frequency.period_ps
        assert measurement.hw_ps < budget_ps
        assert measurement.total_ps - measurement.hw_ps > budget_ps


class TestEndOfOperationFlush:
    def test_a_written_parameter_page_is_not_written_back(self):
        # The parameter page belongs to no mapped object: the flush
        # skips it even when the core wrote it and kept it.
        with CoprocessorSession(System(), _bitstream(_WritesItsParams)) as session:
            session.map_input(0, "in", bytes(64))
            result = session.execute([7])
        assert result.measurement.counters.writebacks == 0
