"""CONT — multi-process contention for one DP-RAM (ROADMAP scenario).

The paper's OS integration (FPGA_EXECUTE sleeps the caller, the
end-of-operation interrupt re-queues it) is exercised with several
tenant processes sharing the interface window: the round-robin
scheduler interleaves their executions, pages stay resident between a
tenant's turns, and a neighbour's fault may steal them.  The sweep
scales the tenant count at a fixed per-tenant job, so the extra faults
and the steal traffic are attributable to contention alone.
"""

from repro.exp import contention


def test_cont_tenant_scaling():
    rows = contention(
        app="adpcm", input_kb=4, tenant_counts=(1, 2, 3), repeats=2
    )
    solo, *contended = rows
    # The solo baseline cannot steal from anyone.
    assert solo.config.tenants == 1
    assert solo.steals == 0
    for row in contended:
        # Contention shows up as cross-tenant evictions and as a fault
        # count at least the sum of what each tenant needs alone.
        assert row.steals > 0, row.label
        assert row.page_faults >= solo.page_faults, row.label
        # Makespan grows with the number of tenants (more total work).
        assert row.vim_ms > solo.vim_ms, row.label
    # Every tenant's outputs were verified bit-exact against its solo
    # reference inside the cell runner; per-tenant columns line up.
    for row in rows:
        assert len(row.tenant_labels) == row.config.tenants
        assert sum(row.tenant_steals) == row.steals
        assert sum(row.tenant_faults) == row.page_faults
