"""The lease board: pending-cell state for the sweep service.

The distributed executor (:mod:`repro.exp.service`) is pull-based:
workers ask the coordinator for work, and the coordinator hands out
**leases** — a cell plus a deadline.  This module is the state machine
behind that, kept free of HTTP, threads and wall clocks so the whole
fault-tolerance protocol is unit-testable with an injected clock:

* a cell enters as ``queued``, is ``leased`` to exactly one worker at
  a time, and ends ``done`` (result ingested) or ``failed`` (attempt
  budget exhausted, or a result conflict);
* a lease must be renewed by heartbeat (or completed) before its
  deadline; an expired lease re-queues the cell for any other worker
  — this is what makes a ``kill -9``'d worker survivable;
* every re-queue backs off exponentially (``backoff * 2**(attempt-1)``
  before the cell is leasable again), and after ``max_attempts``
  granted leases the cell is declared failed instead of looping
  forever on a poisoned input;
* results of *expired* leases are still usable: cells are
  deterministic, so a late completion from a presumed-dead worker is
  accepted (and, if the cell was re-computed meanwhile, the duplicate
  is cross-checked upstream through the same conflict detection the
  shard merger uses).

The board itself is not thread-safe; the service serialises access
with one lock (board operations are all O(cells) or better, so the
lock is never held across simulation or I/O).
"""

from __future__ import annotations

import secrets
import time
from dataclasses import dataclass
from typing import Callable

#: Task lifecycle states (``counts()`` reports one bucket per state).
TASK_STATES = ("queued", "leased", "done", "failed")


@dataclass
class Task:
    """One pending cell and its scheduling state."""

    key: str  #: config hash (the cell's identity everywhere)
    config: dict  #: the CellConfig dict shipped to workers
    status: str = "queued"  #: one of :data:`TASK_STATES`
    attempts: int = 0  #: leases granted so far
    not_before: float = 0.0  #: earliest board time the cell is leasable
    lease_id: str | None = None  #: current lease, when ``leased``
    worker: str | None = None  #: holder of the current lease
    deadline: float = 0.0  #: board time the current lease expires
    error: str | None = None  #: terminal diagnosis, when ``failed``


@dataclass(frozen=True)
class Lease:
    """What a worker receives: a cell, an identity, and a deadline."""

    lease_id: str
    key: str
    config: dict
    worker: str
    timeout: float  #: seconds until expiry without heartbeat/complete


@dataclass(frozen=True)
class BoardCounts:
    """Cell counts per lifecycle state."""

    queued: int = 0
    leased: int = 0
    done: int = 0
    failed: int = 0

    @property
    def pending(self) -> int:
        """Cells still owed a result (queued or leased)."""
        return self.queued + self.leased


class LeaseBoard:
    """Lease/heartbeat/expiry bookkeeping for pending cells.

    Parameters
    ----------
    lease_timeout : float
        Seconds a lease lives without a heartbeat.  Renewals reset the
        full window.
    max_attempts : int
        Lease grants a cell may consume before it is declared failed
        (a cell that kills its worker every time must not wedge the
        service forever).
    backoff : float
        Base of the re-queue backoff: after the *n*-th expired or
        failed attempt the cell is not leasable for
        ``backoff * 2**(n-1)`` seconds.
    clock : callable
        Monotonic time source (injectable for tests).
    on_event : callable, optional
        ``on_event(message)`` observer for lease-lifecycle events
        (grants, expiries, failures) — the service routes this to its
        log so CI can assert that a re-lease actually happened.
    """

    def __init__(
        self,
        lease_timeout: float = 30.0,
        max_attempts: int = 3,
        backoff: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        on_event: Callable[[str], None] | None = None,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError(f"lease timeout must be > 0, got {lease_timeout}")
        if max_attempts < 1:
            raise ValueError(f"max attempts must be >= 1, got {max_attempts}")
        if backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {backoff}")
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self.backoff = backoff
        self._clock = clock
        self._on_event = on_event or (lambda message: None)
        self._tasks: dict[str, Task] = {}  # key -> task
        self._by_lease: dict[str, Task] = {}  # current lease id -> task
        self._lease_history: dict[str, str] = {}  # every lease id -> key
        self._granted = 0  # lease id counter
        # Lease ids carry a per-board token: the counter restarts
        # with every coordinator, and a worker still holding a
        # lease from a previous one must not match a new lease.
        self._token = secrets.token_hex(4)

    # -- intake --------------------------------------------------------

    def add(self, key: str, config: dict) -> bool:
        """Track *key* as a pending cell; ``False`` if already known.

        A failed cell is re-queued by a fresh submission (the new job
        explicitly asked for it, so it deserves a fresh attempt
        budget); done cells stay done.
        """
        task = self._tasks.get(key)
        if task is not None:
            if task.status == "failed":
                task.status = "queued"
                task.attempts = 0
                task.not_before = 0.0
                task.error = None
                return True
            return False
        self._tasks[key] = Task(key=key, config=dict(config))
        return True

    # -- the worker-facing protocol ------------------------------------

    def lease(self, worker: str) -> Lease | None:
        """Grant the next leasable cell to *worker*, or ``None``.

        Cells are granted in sorted-key order (deterministic across
        coordinator runs, like every other ordering in the sweep
        stack), skipping cells inside their backoff window.
        """
        now = self._expire()
        for key in sorted(self._tasks):
            task = self._tasks[key]
            if task.status != "queued" or task.not_before > now:
                continue
            task.attempts += 1
            self._granted += 1
            lease_id = f"L{self._granted}-{self._token}-{key[:8]}"
            task.status = "leased"
            task.lease_id = lease_id
            task.worker = worker
            task.deadline = now + self.lease_timeout
            self._by_lease[lease_id] = task
            self._lease_history[lease_id] = key
            self._on_event(
                f"leased cell {key} to {worker} as {lease_id} "
                f"(attempt {task.attempts}/{self.max_attempts})"
            )
            return Lease(
                lease_id=lease_id,
                key=key,
                config=dict(task.config),
                worker=worker,
                timeout=self.lease_timeout,
            )
        return None

    def heartbeat(self, lease_id: str) -> bool:
        """Renew a live lease's deadline; ``False`` for a stale one."""
        now = self._expire()
        task = self._by_lease.get(lease_id)
        if task is None:
            return False
        task.deadline = now + self.lease_timeout
        return True

    def task_for(self, lease_id: str) -> Task | None:
        """The task a lease (live or historic) was granted for."""
        self._expire()
        key = self._lease_history.get(lease_id)
        return self._tasks.get(key) if key is not None else None

    def mark_done(self, key: str) -> None:
        """Terminal success: the cell's result has been ingested."""
        task = self._tasks[key]
        self._release(task)
        task.status = "done"
        task.error = None

    def mark_failed(self, key: str, error: str) -> None:
        """Terminal failure (e.g. a result conflict): fail the cell now."""
        task = self._tasks[key]
        self._release(task)
        task.status = "failed"
        task.error = error
        self._on_event(f"cell {key} failed: {error}")

    def fail(self, lease_id: str, error: str) -> bool:
        """Worker-reported attempt failure: re-queue with backoff.

        Returns ``False`` for a stale lease (the cell moved on — an
        expiry already re-queued it, or another worker finished it);
        the report is then ignored.
        """
        now = self._expire()
        task = self._by_lease.get(lease_id)
        if task is None:
            return False
        self._retry(task, now, f"worker {task.worker} reported: {error}")
        return True

    # -- introspection -------------------------------------------------

    def counts(self) -> BoardCounts:
        """Cells per lifecycle state (after lazy expiry)."""
        self._expire()
        buckets = dict.fromkeys(TASK_STATES, 0)
        for task in self._tasks.values():
            buckets[task.status] += 1
        return BoardCounts(**buckets)

    def status_of(self, key: str) -> str | None:
        """Lifecycle state of one cell, or ``None`` if untracked."""
        self._expire()
        task = self._tasks.get(key)
        return task.status if task is not None else None

    def errors(self) -> dict[str, str]:
        """Terminal diagnosis per failed cell."""
        self._expire()
        return {
            key: task.error or "failed"
            for key, task in self._tasks.items()
            if task.status == "failed"
        }

    # -- internals -----------------------------------------------------

    def _release(self, task: Task) -> None:
        if task.lease_id is not None:
            self._by_lease.pop(task.lease_id, None)
        task.lease_id = None
        task.worker = None

    def _retry(self, task: Task, now: float, reason: str) -> None:
        """Re-queue a leased cell, or fail it when the budget is gone."""
        lease_id, worker = task.lease_id, task.worker
        self._release(task)
        if task.attempts >= self.max_attempts:
            task.status = "failed"
            task.error = (
                f"gave up after {task.attempts} attempt(s); last: {reason}"
            )
            self._on_event(f"cell {task.key} failed: {task.error}")
            return
        task.status = "queued"
        task.not_before = now + self.backoff * 2 ** (task.attempts - 1)
        self._on_event(
            f"lease {lease_id} on cell {task.key} held by {worker} "
            f"{reason}; requeued (attempt {task.attempts}/"
            f"{self.max_attempts}, leasable in "
            f"{task.not_before - now:.1f}s)"
        )

    def _expire(self) -> float:
        """Re-queue every lease past its deadline; returns *now*.

        Called lazily from every public operation, so the board needs
        no timer thread — the next worker interaction (or status poll)
        surfaces the expiry.
        """
        now = self._clock()
        for task in list(self._by_lease.values()):
            if task.deadline < now:
                self._retry(task, now, "expired")
        return now
