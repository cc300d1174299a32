"""Multi-tenant execution: N sessions contending for one DP-RAM.

The paper's OS story — ``FPGA_EXECUTE`` sleeps the caller, the
end-of-operation interrupt re-queues it — only becomes visible when
several processes actually share the interface window.  This module is
that scenario:

* one :class:`~repro.core.session.VirtualInterface` built with
  ``shared=True`` is the one IMU and the one VIM every tenant goes
  through, so the DP-RAM frame pool and the CAM TLB are genuinely
  shared (translations are ASID-tagged per tenant);
* :func:`run_tenants` spawns one process per
  :class:`~repro.os.workload.Workload`, and lets the kernel's
  round-robin scheduler arbitrate: the dispatched tenant issues one
  ``FPGA_EXECUTE``, sleeps, is woken by the end-of-operation interrupt
  and goes to the back of the queue — so tenants interleave executions
  A, B, C, A, B, C, … until everyone has finished its repeats;
* between a tenant's turns its pages stay resident; a neighbour's
  page fault may *steal* them (evict across tenants, writing dirty
  data back first), which is the contention the per-tenant
  fault/evict/steal accounting quantifies.

The PLD fabric itself stays exclusive per §3.1 — it is time-shared,
re-acquired through ``FPGA_LOAD`` whenever a tenant's turn starts and
someone else configured it last.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accounting import Measurement
from repro.core.runner import verify_outputs
from repro.core.session import CoprocessorSession, VirtualInterface
from repro.core.system import System
from repro.errors import ReproError
from repro.os.scheduler import scheduling_policy
from repro.os.vim.objects import Direction
from repro.os.workload import Workload
from repro.sim.time import to_ms


@dataclass(frozen=True)
class TenantRun:
    """Everything one tenant did during a multi-tenant run.

    The tenant's time, faults, evictions, steals and write-backs are
    its ``measurement``; ``counters.steals`` counts the evictions of
    *another* tenant's page that this tenant's faults performed.  The
    execution count is ``len(outputs)``.
    """

    #: Tenant process name.
    name: str
    #: Name of the workload spec the tenant ran.
    workload: str
    #: CPU/HW time decomposition and event counters accumulated over
    #: all executions.
    measurement: Measurement
    #: Output bytes of every execution, in order (``outputs[k]`` maps
    #: the workload's OUT object ids to their snapshots after call k).
    outputs: tuple[dict[int, bytes], ...]
    #: Address-space id tagging the tenant's objects and translations.
    asid: int
    #: Times the scheduler dispatched this tenant's process.
    dispatches: int
    #: This tenant's resident pages evicted by other tenants.
    pages_lost: int
    #: Fabric reconfigurations paid when this tenant took the PLD over.
    reconfigurations: int


@dataclass(frozen=True)
class MultiTenantResult:
    """Outcome of :func:`run_tenants`."""

    #: Per-tenant records, in workload order.
    tenants: tuple[TenantRun, ...]
    #: Wall-clock simulated time from first dispatch to last wakeup.
    makespan_ms: float
    #: Scheduler dispatches over the whole run.
    context_switches: int

    def tenant(self, name: str) -> TenantRun:
        """Look up a tenant record by process name."""
        for run in self.tenants:
            if run.name == name:
                return run
        raise ReproError(f"no tenant named {name!r}")


def run_tenants(
    system: System,
    workloads: list[Workload],
    sched: str = "rr",
    **options,
) -> MultiTenantResult:
    """Run *workloads* as contending tenant processes on *system*.

    Every execution's outputs are checked bit-exactly against the
    workload's software reference (which is also what its solo run
    produces), so cross-tenant corruption can never go unnoticed.

    Parameters
    ----------
    system:
        A freshly built :class:`~repro.core.system.System`; its DP-RAM,
        frame pool and TLB are shared by every tenant.
    workloads:
        One :class:`~repro.os.workload.Workload` per tenant.  Each
        tenant issues ``spec.repeats`` FPGA_EXECUTE calls, one per
        scheduler dispatch.
    sched:
        Scheduling-policy axis value (one of
        :data:`repro.os.scheduler.SCHEDS`): how the run queue picks the
        next tenant.  Each workload's ``priority`` is the weight the
        ``priority`` and ``wrr`` policies dispatch by.
    **options:
        Keyword arguments of the one shared
        :class:`~repro.core.session.VirtualInterface`.  A *recorder*
        (:class:`~repro.trace.record.TraceRecorder`) installed there
        captures the interleaved per-access address stream of all
        tenants.

    Returns
    -------
    MultiTenantResult
        Per-tenant measurements, output snapshots and the scheduling
        and contention counts no measurement holds, plus the run's
        makespan.
    """
    if not workloads:
        raise ReproError("run_tenants needs at least one workload")
    for workload in workloads:
        if workload.repeats > 1 and any(
            spec.direction is Direction.INOUT for spec in workload.spec.objects
        ):
            # An INOUT object carries exec N's writes into exec N+1, so
            # the per-execution verify against the one-shot software
            # reference (and the solo-run timing baseline) is meaningless.
            raise ReproError(
                f"workload {workload.spec.name!r} has an INOUT object and "
                f"repeats={workload.repeats}: repeated execution would feed "
                "each run the previous run's output, which the software "
                "reference cannot model; use repeats=1 for INOUT workloads"
            )
    kernel = system.kernel
    # The dispatch policy is installed before any tenant is spawned, so
    # the very first pick already follows it.
    kernel.scheduler.policy = scheduling_policy(sched)
    interface = VirtualInterface(system, shared=True, **options)
    interface.open()
    sessions: list[CoprocessorSession] = []
    try:
        # One state per tenant, in workload order (the result's order).
        by_pid: dict[int, dict] = {}
        for index, workload in enumerate(workloads):
            session = CoprocessorSession(
                system,
                workload.spec.bitstream,
                interface,
                process_name=workload.tenant_name(index),
                priority=workload.priority,
            )
            sessions.append(session)
            for spec in workload.spec.objects:
                session.map_object(
                    spec.obj_id, spec.name, spec.size, spec.direction, data=spec.data
                )
            by_pid[session.process.pid] = {
                "session": session,
                "workload": workload,
                "remaining": workload.repeats,
                "measurement": Measurement(name=session.process.name),
                "outputs": [],
                "dispatches": 0,
                # The reference computation is pure and the inputs
                # never change across repeats: compute it once.
                "expected": workload.spec.reference(),
            }
        start_ps = system.engine.now
        switches_before = kernel.scheduler.context_switches
        while True:
            process = kernel.scheduler.pick_next()
            if process is None:
                break
            state = by_pid.get(process.pid)
            if state is None:
                raise ReproError(
                    f"scheduler dispatched unknown process {process.pid}"
                )
            if state["remaining"] == 0:
                process.terminate()
                continue
            state["dispatches"] += 1
            workload = state["workload"]
            session = state["session"]
            result = session.execute(
                list(workload.spec.params),
                label=f"{process.name}/exec-{session.executions + 1}",
                measurement=state["measurement"],
            )
            # A mismatch here is cross-tenant corruption: the reference
            # is also what the tenant's solo session produces.
            verify_outputs(
                f"{process.name}/exec-{session.executions}",
                state["expected"],
                result.outputs,
            )
            state["outputs"].append(dict(result.outputs))
            state["remaining"] -= 1
        makespan_ps = system.engine.now - start_ps
        total_switches = kernel.scheduler.context_switches - switches_before
        runs = tuple(
            TenantRun(
                name=state["session"].process.name,
                workload=state["workload"].spec.name,
                measurement=state["measurement"],
                outputs=tuple(state["outputs"]),
                asid=pid,
                dispatches=state["dispatches"],
                pages_lost=interface.vim.pages_lost.get(pid, 0),
                reconfigurations=state["session"].reconfigurations,
            )
            for pid, state in by_pid.items()
        )
        return MultiTenantResult(
            tenants=runs,
            makespan_ms=to_ms(makespan_ps),
            context_switches=total_switches,
        )
    finally:
        for session in sessions:
            session.close()
        interface.close()
