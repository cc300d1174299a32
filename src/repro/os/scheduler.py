"""The run-queue scheduler and its pluggable dispatch policies.

The current process yields the CPU when it sleeps on ``FPGA_EXECUTE``
and the end-of-operation wakeup re-queues it at the tail — the control
flow an OS port of the VIM has to integrate with.  Single-shot
experiments exercise it with one process (as the paper's do);
multi-tenant runs (:func:`repro.core.tenancy.run_tenants`) put several
contending processes on this queue and let the *policy* decide whose
``FPGA_EXECUTE`` goes next.

The queue mechanics (state transitions, preemption back to the tail,
the ``context_switches`` counter) live in :class:`Scheduler` and are
policy-independent; the one genuinely policy-shaped decision — *which*
READY process to dispatch — is delegated to a
:class:`SchedulingPolicy`.  Three policies ship:

* :class:`RoundRobinPolicy` (``"rr"``) — the historical rotation:
  always the head of the queue, so tenants interleave A, B, C, A, B, C;
* :class:`StrictPriorityPolicy` (``"priority"``) — the highest
  :attr:`~repro.os.process.Process.priority` wins, queue order breaking
  ties.  With all priorities equal the tie-break always picks the
  head, so the dispatch sequence is *identical* to round-robin — the
  invariant the scheduler-equivalence tests pin down;
* :class:`WeightedRoundRobinPolicy` (``"wrr"``) — rotation, but a
  process holds the CPU for ``priority`` consecutive dispatches before
  the queue rotates past it.  All-weights-one again degenerates to
  round-robin.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol, Sequence

from repro.errors import OsError
from repro.os.process import Process, ProcessState

#: Scheduling-policy axis values (``--sched`` on the CLI).
SCHEDS = ("rr", "priority", "wrr")


class SchedulingPolicy(Protocol):
    """Picks which READY process the scheduler dispatches next.

    Implementations are consulted with the current READY queue (in
    queue order, stale entries already dropped) and return the index of
    the process to dispatch.  They may keep state across calls (the
    weighted policy tracks its current burst) but must be deterministic
    — sweep results depend on the dispatch sequence being a pure
    function of the workload.
    """

    #: Axis value naming the policy (one of :data:`SCHEDS`).
    name: str

    def select(self, ready: Sequence[Process]) -> int:
        """The index (into *ready*, non-empty) to dispatch next."""
        ...


class RoundRobinPolicy:
    """Dispatch the head of the queue; preempted processes rejoin at
    the tail, so the rotation visits every tenant in turn."""

    name = "rr"

    def select(self, ready: Sequence[Process]) -> int:
        return 0


class StrictPriorityPolicy:
    """Dispatch the highest-priority READY process.

    Ties break by queue position (earliest wins), so a queue of
    equal-priority processes behaves exactly like round-robin — and a
    single high-priority tenant monopolises the coprocessor whenever it
    is READY, which is the starvation behaviour a contention sweep
    wants to measure, not hide.
    """

    name = "priority"

    def select(self, ready: Sequence[Process]) -> int:
        best = 0
        for index in range(1, len(ready)):
            if ready[index].priority > ready[best].priority:
                best = index
        return best


class WeightedRoundRobinPolicy:
    """Round-robin where a process gets ``priority`` back-to-back turns.

    The rotation order is the queue order, but the policy re-selects
    the process it dispatched last until that process has received
    ``priority`` consecutive dispatches (its *burst*), then moves on.
    A process that leaves the READY queue (finished its repeats, or
    still sleeping when the next dispatch happens) forfeits the rest of
    its burst.
    """

    name = "wrr"

    def __init__(self) -> None:
        self._last_pid: int | None = None
        self._burst = 0

    def select(self, ready: Sequence[Process]) -> int:
        if self._last_pid is not None:
            for index, process in enumerate(ready):
                if process.pid == self._last_pid and self._burst < process.priority:
                    self._burst += 1
                    return index
        self._last_pid = ready[0].pid
        self._burst = 1
        return 0


def scheduling_policy(name: str) -> SchedulingPolicy:
    """Build the :class:`SchedulingPolicy` for axis value *name*."""
    if name == "rr":
        return RoundRobinPolicy()
    if name == "priority":
        return StrictPriorityPolicy()
    if name == "wrr":
        return WeightedRoundRobinPolicy()
    raise OsError(f"unknown scheduling policy {name!r}; choices: {SCHEDS}")


class Scheduler:
    """Run-queue mechanics around a pluggable dispatch policy."""

    def __init__(self, policy: SchedulingPolicy | None = None) -> None:
        self._ready: deque[Process] = deque()
        self._current: Process | None = None
        self.context_switches = 0
        self.policy: SchedulingPolicy = (
            policy if policy is not None else RoundRobinPolicy()
        )

    @property
    def current(self) -> Process | None:
        """The process currently holding the CPU."""
        return self._current

    def enqueue(self, process: Process) -> None:
        """Add a READY process to the run queue."""
        if process.state is not ProcessState.READY:
            raise OsError(
                f"cannot enqueue process {process.pid} in state "
                f"{process.state.value}"
            )
        self._ready.append(process)

    def pick_next(self) -> Process | None:
        """Dispatch the policy's pick (None if nothing is READY)."""
        if self._current is not None and self._current.state is ProcessState.RUNNING:
            # Preempt: back to the tail of the queue.
            self._current.state = ProcessState.READY
            self._ready.append(self._current)
        self._current = None
        # Drop stale entries (terminated mid-queue) in queue order, so
        # the policy only ever sees dispatchable candidates.
        ready = [p for p in self._ready if p.state is ProcessState.READY]
        self._ready = deque(ready)
        if not ready:
            return None
        index = self.policy.select(ready)
        if not 0 <= index < len(ready):
            raise OsError(
                f"policy {self.policy.name!r} selected index {index} "
                f"out of {len(ready)} READY processes"
            )
        candidate = ready[index]
        del self._ready[index]
        candidate.state = ProcessState.RUNNING
        self._current = candidate
        self.context_switches += 1
        return candidate

    def sleep_current(self) -> None:
        """Block the current process (it leaves the CPU)."""
        if self._current is None:
            raise OsError("no current process to sleep")
        self._current.sleep()
        self._current = None

    def wake(self, process: Process) -> None:
        """Unblock *process* and put it back on the run queue."""
        process.wake()
        self._ready.append(process)
