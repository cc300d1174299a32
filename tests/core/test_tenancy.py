"""Tests for multi-tenant execution (shared DP-RAM, scheduler arbitration).

The two load-bearing claims: the round-robin scheduler interleaves
tenants without starving anyone, and cross-tenant eviction can reorder
*time* but never *bytes* — every tenant's outputs stay byte-identical
to its solo-session run.
"""

import pytest

from repro.core.drivers import adpcm_workload, idea_workload, vector_add_workload
from repro.core.session import CoprocessorSession, VirtualInterface
from repro.core.system import System
from repro.core.tenancy import run_tenants
from repro.coproc.kernels import vector_add as vadd_core
from repro.errors import OsError, ReproError, SyscallError
from repro.imu.imu import INT_PLD_LINE
from repro.os.vim.objects import Direction
from repro.os.workload import Workload


def _adpcm_tenants(count: int, repeats: int = 2, input_bytes: int = 2 * 1024):
    return [
        Workload(spec=adpcm_workload(input_bytes, seed=1 + i), repeats=repeats)
        for i in range(count)
    ]


class TestWorkload:
    def test_repeats_validated(self):
        with pytest.raises(OsError):
            Workload(spec=adpcm_workload(1024), repeats=0)

    def test_tenant_name_defaults(self):
        workload = Workload(spec=adpcm_workload(1024))
        assert workload.tenant_name(2) == "tenant2-adpcmdecode-1KB"
        named = Workload(spec=adpcm_workload(1024), name="svc")
        assert named.tenant_name(2) == "svc"


class TestSchedulerArbitration:
    def test_three_tenants_no_starvation(self):
        """Every tenant completes all repeats; dispatches stay balanced."""
        result = run_tenants(System(), _adpcm_tenants(3, repeats=2))
        assert len(result.tenants) == 3
        for tenant in result.tenants:
            assert len(tenant.outputs) == 2
            assert tenant.dispatches == 2
        # Round-robin: dispatch counts differ by at most one at any
        # point, so totals are exactly equal for equal repeats.
        dispatches = [t.dispatches for t in result.tenants]
        assert max(dispatches) - min(dispatches) == 0

    def test_context_switch_accounting(self):
        """One dispatch per execution plus one final pick per tenant."""
        tenants = 3
        repeats = 2
        result = run_tenants(System(), _adpcm_tenants(tenants, repeats=repeats))
        assert result.context_switches == tenants * repeats + tenants

    def test_unequal_repeats_short_tenant_exits_early(self):
        workloads = [
            Workload(spec=adpcm_workload(2 * 1024, seed=1), repeats=1),
            Workload(spec=adpcm_workload(2 * 1024, seed=2), repeats=3),
        ]
        result = run_tenants(System(), workloads)
        assert [len(t.outputs) for t in result.tenants] == [1, 3]
        assert [t.dispatches for t in result.tenants] == [1, 3]

    def test_sleep_wake_cycle_per_execution(self):
        """FPGA_EXECUTE sleeps the caller; the interrupt re-queues it."""
        system = System()
        result = run_tenants(system, _adpcm_tenants(2, repeats=2))
        assert result.context_switches > 0
        # Processes were woken once per execution before terminating.
        for run in result.tenants:
            assert len(run.outputs) == 2


class TestSharedResidency:
    def test_contended_outputs_byte_identical_to_solo_sessions(self):
        """Cross-tenant eviction never leaks into functional outputs.

        The solo side is a real single-tenant CoprocessorSession (not
        just the software reference), executed the same number of
        times.
        """
        def build(seed):
            return adpcm_workload(2 * 1024, seed=seed)

        repeats = 2
        contended = run_tenants(
            System(),
            [Workload(spec=build(1), repeats=repeats),
             Workload(spec=build(2), repeats=repeats)],
        )
        # Contention actually happened: somebody stole a page.
        assert sum(t.measurement.counters.steals for t in contended.tenants) > 0
        for seed, tenant in zip((1, 2), contended.tenants):
            spec = build(seed)
            system = System()
            with CoprocessorSession(system, spec.bitstream) as session:
                for obj in spec.objects:
                    session.map_object(
                        obj.obj_id, obj.name, obj.size, obj.direction,
                        data=obj.data,
                    )
                solo_outputs = []
                for _ in range(repeats):
                    run = session.execute(list(spec.params))
                    solo_outputs.append(dict(run.outputs))
            assert tuple(solo_outputs) == tenant.outputs

    def test_steals_and_losses_balance(self):
        result = run_tenants(System(), _adpcm_tenants(3, repeats=2))
        stolen = sum(t.measurement.counters.steals for t in result.tenants)
        lost = sum(t.pages_lost for t in result.tenants)
        assert stolen == lost
        assert stolen > 0

    def test_solo_run_has_no_cross_tenant_traffic(self):
        result = run_tenants(System(), _adpcm_tenants(1, repeats=2))
        tenant = result.tenants[0]
        assert tenant.measurement.counters.steals == 0
        assert tenant.pages_lost == 0

    def test_mixed_apps_share_the_window(self):
        """adpcm and IDEA tenants time-share fabric and DP-RAM."""
        system = System()
        workloads = [
            Workload(spec=adpcm_workload(2 * 1024, seed=1), repeats=2),
            Workload(spec=idea_workload(4 * 1024, seed=2), repeats=2),
        ]
        result = run_tenants(system, workloads)
        # Different bitstreams: the fabric is reconfigured on every
        # turn handoff.
        for tenant in result.tenants:
            assert tenant.reconfigurations == 2

    def test_same_bitstream_keeps_fabric_warm_in_between(self):
        """A tenant running back-to-back turns does not reconfigure."""
        result = run_tenants(System(), _adpcm_tenants(1, repeats=3))
        assert result.tenants[0].reconfigurations == 1

    def test_small_dpram_contention(self, small_soc):
        """Tenants survive on a 4-frame DP-RAM (param page contended)."""
        system = System(small_soc)
        workloads = [
            Workload(spec=vector_add_workload(96, seed=1 + i), repeats=2)
            for i in range(2)
        ]
        result = run_tenants(system, workloads)
        assert all(len(t.outputs) == 2 for t in result.tenants)


class TestLifecycle:
    def test_everything_released_after_run(self):
        system = System()
        run_tenants(system, _adpcm_tenants(2))
        assert system.fabric.owner_pid is None
        assert system.kernel.user_memory.allocated == 0
        # The interrupt line is free for a follow-on solo session.
        system.interrupts.register(INT_PLD_LINE, lambda line: None)
        system.interrupts.unregister(INT_PLD_LINE)

    def test_shared_interface_close_idempotent(self):
        system = System()
        shared = VirtualInterface(system, shared=True)
        shared.open()
        shared.close()
        shared.close()

    def test_empty_workload_list_rejected(self):
        with pytest.raises(ReproError):
            run_tenants(System(), [])

    def test_verification_cannot_be_switched_off(self):
        # Every execution is verified; there is no option to skip it.
        with pytest.raises(TypeError, match="verify"):
            run_tenants(System(), _adpcm_tenants(1), verify=False)

    def test_object_id_beyond_cp_obj_wire_rejected(self):
        """Ids outside the 8-bit CP_OBJ range would alias ASID tags."""
        system = System()
        shared = VirtualInterface(system, shared=True)
        shared.open()
        session = CoprocessorSession(system, vadd_core.bitstream(), shared)
        try:
            with pytest.raises(SyscallError):
                session.map_object(
                    256, "A", 32, Direction.IN, data=bytes(32)
                )
        finally:
            session.close()
            shared.close()

    def test_solo_session_object_id_range_still_enforced(self):
        with CoprocessorSession(System(), vadd_core.bitstream()) as session:
            with pytest.raises(SyscallError):
                session.map_input(300, "A", bytes(32))

    def test_tenant_lookup_by_name(self):
        result = run_tenants(System(), _adpcm_tenants(2))
        assert result.tenant(result.tenants[1].name) is result.tenants[1]
        with pytest.raises(ReproError):
            result.tenant("nonexistent")
