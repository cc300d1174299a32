"""Sweep-as-a-service: the HTTP coordinator and its client.

This is the distributed generalisation of ``repro sweep --shard I/N``:
instead of pre-partitioning a grid across machines, a lightweight
coordinator accepts :class:`~repro.exp.spec.SweepSpec` submissions,
dedups them against its :class:`~repro.exp.store.SqliteStore` by
config hash (**a cache hit costs zero simulation** — the "millions of
users" path), and leases only the genuinely novel cells to a
pull-based worker pool (:mod:`repro.exp.worker`) with heartbeats,
per-lease timeouts and bounded retry (:mod:`repro.exp.leasing`).
Results are ingested under the same equality contract the shard
merger uses (a duplicate row must equal the stored one), so the
service store is byte-identical to what a local ``repro sweep`` over
the same grid would have written — the property the ``sweep-service``
CI job asserts with ``repro diff``.

Everything is stdlib: ``http.server.ThreadingHTTPServer`` with a JSON
protocol, ``urllib`` on the client side.  The wire format is dicts of
primitives produced by :meth:`CellConfig.to_dict` /
:meth:`CellResult.to_dict`, which already round-trip exactly (floats
via ``repr``), so distribution cannot perturb a single byte of a row.

Protocol (all bodies JSON)::

    GET  /api/health            -> {"ok": true}
    POST /api/submit            {"cells": [config..]} -> {"job", counts}
    GET  /api/status            -> global board counts + per-job states
    GET  /api/status/<job>      -> one job's progress counts
    GET  /api/results/<job>     -> {"rows": [result..]} (submit order)
    POST /api/lease             {"worker": id} -> {"lease": {..} | null}
    POST /api/heartbeat         {"lease": id} -> {"ok": bool}
    POST /api/complete          {"lease": id, "result": {..}} -> {"ok"}
    POST /api/fail              {"lease": id, "error": msg} -> {"ok"}

Run identity (lease ids, worker names, attempt counts, timestamps)
never enters result payloads or :func:`~repro.exp.spec.config_hash` —
the hash covers *what* was computed, never *who* computed it or
*when*, which is exactly why a service-run store and a local store
can be diffed row for row.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable
from urllib import error as urlerror
from urllib import request as urlrequest

from repro.errors import ReproError
from repro.exp.leasing import LeaseBoard
from repro.exp.results import CellResult
from repro.exp.spec import CellConfig
from repro.exp.store import open_store
from repro.exp.sweep import SweepResult

#: Job lifecycle states reported by ``/api/status``.
JOB_STATES = ("running", "done", "failed")


@dataclass
class Job:
    """One accepted submission: an ordered grid plus dedup bookkeeping.

    ``keys`` preserves the submitted cell order *including duplicates*
    (results are returned in exactly that order, mirroring
    :func:`~repro.exp.sweep.run_sweep`'s grid-order rows); ``configs``
    maps each unique key to its config for store reads; ``hits`` are
    the keys served from the store at submit time — they cost zero
    simulation and are reported as "from cache" exactly like a local
    incremental sweep would.
    """

    job_id: int
    keys: list[str]  #: submitted order, duplicates preserved
    configs: dict[str, CellConfig] = field(default_factory=dict)
    hits: set[str] = field(default_factory=set)


def _from_payload(build: Callable, payload, what: str):
    """``build(payload)`` for JSON from outside; malformed is a ReproError.

    ``from_dict`` checks field names, not value types, so a wrongly
    typed or missing field raises ``TypeError``, ``KeyError``,
    ``ValueError`` or ``AttributeError``.  The HTTP handler answers a
    :class:`~repro.errors.ReproError` with a 400; anything else would
    end the request's thread without a response.
    """
    try:
        return build(payload)
    except (TypeError, KeyError, ValueError, AttributeError) as error:
        raise ReproError(
            f"{what} is malformed ({type(error).__name__}: {error})"
        ) from None


class SweepService:
    """Coordinator state: one result store, one lease board, N jobs.

    Thread-safe: every public method takes the one service lock, which
    is never held across simulation (the coordinator never simulates)
    and only across single-row store I/O.

    Parameters
    ----------
    store_path : str or Path
        The service's SQLite result store, created if missing.  This is the store a finished
        submission's rows are read back from, and the artifact CI
        diffs against a local run.
    lease_timeout, max_attempts, backoff : float, int, float
        The fault-tolerance knobs, passed to
        :class:`~repro.exp.leasing.LeaseBoard`.
    clock : callable
        Monotonic time source (injectable for tests).
    log : callable, optional
        ``log(message)`` sink for lease-lifecycle events; defaults to
        silent.  ``repro serve`` routes this to stderr so CI can
        assert a mid-run worker kill really took the re-lease path.
    """

    def __init__(
        self,
        store_path: str | Path,
        lease_timeout: float = 30.0,
        max_attempts: int = 3,
        backoff: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        log: Callable[[str], None] | None = None,
    ) -> None:
        self._log = log or (lambda message: None)
        self._store = open_store(store_path, create=True, threadsafe=True)
        self._board = LeaseBoard(
            lease_timeout=lease_timeout,
            max_attempts=max_attempts,
            backoff=backoff,
            clock=clock,
            on_event=self._log,
        )
        self._jobs: dict[int, Job] = {}
        self._next_job = 1
        self._lock = threading.RLock()
        self._draining = False

    # -- submission ----------------------------------------------------

    def submit(self, cells: list[dict]) -> dict:
        """Accept a grid; dedup against the store; queue the rest.

        Parameters
        ----------
        cells : list of dict
            ``CellConfig.to_dict()`` payloads in grid order.  Anything
            else, or an invalid config, raises
            :class:`~repro.errors.ReproError` naming the cell (the
            HTTP layer maps that to a 400).

        Returns
        -------
        dict
            ``{"job", "cells", "hits", "pending"}`` — *cells* counts
            unique configurations, *hits* those served instantly from
            the store, *pending* those queued (or already in flight
            for an earlier job — in-flight dedup means concurrent
            submissions of overlapping grids never simulate a cell
            twice).
        """
        if not cells:
            raise ReproError("a submission needs at least one cell")
        if not isinstance(cells, list):
            raise ReproError("a submission's cells must be a JSON list")
        configs = [
            _from_payload(CellConfig.from_dict, payload, f"cell {index}")
            for index, payload in enumerate(cells)
        ]
        with self._lock:
            if self._draining:
                raise ReproError(
                    "coordinator is shutting down; not accepting work"
                )
            job = Job(job_id=self._next_job, keys=[])
            self._next_job += 1
            for config in configs:
                key = config.key()
                job.keys.append(key)
                if key in job.configs:
                    continue
                job.configs[key] = config
                if self._board.status_of(key) in ("queued", "leased"):
                    continue  # in-flight dedup across jobs
                if self._store.get(config) is not None:
                    job.hits.add(key)
                    continue
                self._board.add(key, config.to_dict())
            self._jobs[job.job_id] = job
            pending = len(job.configs) - len(job.hits)
            self._log(
                f"job {job.job_id}: {len(job.configs)} unique cell(s), "
                f"{len(job.hits)} hit(s), {pending} pending"
            )
            return {
                "job": job.job_id,
                "cells": len(job.configs),
                "hits": len(job.hits),
                "pending": pending,
            }

    # -- the worker protocol -------------------------------------------

    def lease(self, worker: str) -> dict | None:
        """Grant the next cell to *worker* (``None``: nothing leasable)."""
        with self._lock:
            if self._draining:
                return None
            lease = self._board.lease(worker)
            if lease is None:
                return None
            return {
                "lease": lease.lease_id,
                "key": lease.key,
                "config": lease.config,
                "timeout": lease.timeout,
            }

    def heartbeat(self, lease_id: str) -> bool:
        """Renew a lease; ``False`` means it is stale (stop working)."""
        with self._lock:
            return self._board.heartbeat(lease_id)

    def complete(self, lease_id: str, result_payload: dict) -> dict:
        """Ingest one worker result under merge-grade conflict checks.

        The row is validated (parse + key match against the lease),
        then written through the store unless an equal row is already
        present; a *different* row for the same key is a conflict —
        the same contract as :func:`~repro.exp.merge.merge_into` — and
        fails the cell loudly (a conflicting result means a broken
        determinism assumption, never something to paper over).

        Late completions from expired leases are accepted: the cell is
        deterministic, so the result is just as good, and if another
        worker finished first the duplicate is checked for equality
        like any re-merge.
        """
        result = _from_payload(
            CellResult.from_dict, result_payload, f"result of lease {lease_id}"
        )
        with self._lock:
            task = self._board.task_for(lease_id)
            if task is None:
                return {"ok": False, "stale": True}
            if result.key != task.key:
                raise ReproError(
                    f"lease {lease_id} is for cell {task.key} but the "
                    f"result hashes to {result.key}"
                )
            existing = self._store.get(result.config)
            if existing is None:
                self._store.put(result)
            elif existing != result:
                error = (
                    f"conflicting results for config {result.key}: "
                    f"lease {lease_id} disagrees with the stored row"
                )
                self._board.mark_failed(task.key, error)
                raise ReproError(error)
            if task.status != "done":
                self._board.mark_done(task.key)
            return {"ok": True, "stale": False}

    def fail(self, lease_id: str, error: str) -> bool:
        """Worker-reported cell failure: re-queue with backoff."""
        with self._lock:
            return self._board.fail(lease_id, str(error))

    # -- progress / results --------------------------------------------

    def status(self, job_id: int | None = None) -> dict:
        """Global board counts, or one job's progress breakdown."""
        with self._lock:
            if job_id is None:
                counts = self._board.counts()
                return {
                    "queued": counts.queued,
                    "leased": counts.leased,
                    "done": counts.done,
                    "failed": counts.failed,
                    "draining": self._draining,
                    "jobs": {
                        str(job.job_id): self._job_state(job)
                        for job in self._jobs.values()
                    },
                }
            job = self._job(job_id)
            buckets = {"queued": 0, "leased": 0, "done": 0, "failed": 0}
            for key in job.configs:
                if key in job.hits:
                    continue
                status = self._board.status_of(key) or "queued"
                buckets[status] += 1
            return {
                "job": job.job_id,
                "state": self._job_state(job),
                "cells": len(job.configs),
                "hits": len(job.hits),
                "simulated": buckets["done"],
                **buckets,
                "errors": [
                    error
                    for key, error in self._board.errors().items()
                    if key in job.configs
                ],
            }

    def results(self, job_id: int) -> list[dict]:
        """A finished job's rows, submit order, straight off the store."""
        with self._lock:
            job = self._job(job_id)
            state = self._job_state(job)
            if state == "failed":
                errors = "; ".join(
                    error
                    for key, error in self._board.errors().items()
                    if key in job.configs
                )
                raise ReproError(f"job {job_id} failed: {errors}")
            if state != "done":
                raise ReproError(f"job {job_id} is still running")
            rows = []
            for key in job.keys:
                row = self._store.get(job.configs[key])
                if row is None:
                    raise ReproError(
                        f"job {job_id}: cell {key} vanished from the store"
                    )
                rows.append(row.to_dict())
            return rows

    # -- lifecycle -----------------------------------------------------

    def drain(self) -> None:
        """Stop accepting submissions and granting leases.

        In-flight leases keep their deadlines: their completions (and
        heartbeats) are still honoured, so a graceful shutdown lets
        running cells land rather than wasting them.  Pending queued
        cells simply stay queued for a future coordinator run against
        the same store — nothing is lost, because all durable state is
        the store itself.
        """
        with self._lock:
            self._draining = True
            self._log("draining: no new submissions or leases")

    def close(self) -> None:
        """Release the store (idempotent).  Call after :meth:`drain`."""
        with self._lock:
            self._store.close()

    # -- internals -----------------------------------------------------

    def _job(self, job_id: int) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ReproError(f"unknown job {job_id}")
        return job

    def _job_state(self, job: Job) -> str:
        for key in job.configs:
            if key in job.hits:
                continue
            status = self._board.status_of(key)
            if status == "failed":
                return "failed"
        for key in job.configs:
            if key in job.hits:
                continue
            if self._board.status_of(key) != "done":
                return "running"
        return "done"


# ----------------------------------------------------------------------
# The HTTP layer
# ----------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    """JSON request routing onto the owning server's service."""

    # Connection reuse matters for the polling client/worker loops.
    protocol_version = "HTTP/1.1"
    #: Seconds a connection may stay silent in the middle of a request
    #: (or between requests) before the handler drops it, so a client
    #: that sends less than its Content-Length cannot hold a thread.
    timeout = 10.0

    @property
    def service(self) -> SweepService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass  # lease-lifecycle events are logged by the service itself

    def _reply(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict:
        text = self.headers.get("Content-Length") or "0"
        try:
            length = int(text)
        except ValueError:
            length = -1
        if length < 0:
            # The end of the body is unknown, so nothing after it on
            # this connection can be parsed as the next request.
            self.close_connection = True
            raise ReproError(f"bad Content-Length {text!r}")
        raw = self.rfile.read(length) if length else b""
        if len(raw) != length:
            # The client stopped sending: never act on part of a body.
            self.close_connection = True
            raise ReproError(
                f"request body is {len(raw)} bytes, "
                f"but Content-Length is {length}"
            )
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except ValueError as error:
            raise ReproError(f"request body is not JSON: {error}")
        if not isinstance(payload, dict):
            raise ReproError("request body must be a JSON object")
        return payload

    def _job_id(self, prefix: str) -> int | None:
        if not self.path.startswith(prefix):
            return None
        try:
            return int(self.path[len(prefix):])
        except ValueError:
            raise ReproError(f"bad job id in {self.path!r}")

    def do_GET(self) -> None:  # noqa: N802 (stdlib name)
        try:
            if self.path == "/api/health":
                self._reply({"ok": True})
            elif self.path == "/api/status":
                self._reply(self.service.status())
            elif (job := self._job_id("/api/status/")) is not None:
                self._reply(self.service.status(job))
            elif (job := self._job_id("/api/results/")) is not None:
                self._reply({"rows": self.service.results(job)})
            else:
                self._reply({"error": f"unknown path {self.path}"}, 404)
        except ReproError as error:
            self._reply({"error": str(error)}, 400)

    def do_POST(self) -> None:  # noqa: N802 (stdlib name)
        try:
            body = self._body()
            if self.path == "/api/submit":
                self._reply(self.service.submit(body.get("cells") or []))
            elif self.path == "/api/lease":
                lease = self.service.lease(
                    str(body.get("worker") or "anonymous")
                )
                self._reply({"lease": lease})
            elif self.path == "/api/heartbeat":
                ok = self.service.heartbeat(str(body.get("lease") or ""))
                self._reply({"ok": ok})
            elif self.path == "/api/complete":
                self._reply(self.service.complete(
                    str(body.get("lease") or ""), body.get("result") or {},
                ))
            elif self.path == "/api/fail":
                ok = self.service.fail(
                    str(body.get("lease") or ""),
                    str(body.get("error") or "unspecified worker error"),
                )
                self._reply({"ok": ok})
            else:
                self._reply({"error": f"unknown path {self.path}"}, 404)
        except ReproError as error:
            self._reply({"error": str(error)}, 400)


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`SweepService`.

    ``daemon_threads`` so a coordinator kill never hangs on a stuck
    worker connection — worker state is reconstructible from leases.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: SweepService):
        super().__init__(address, _Handler)
        self.service = service


def serve_forever(
    store_path: str | Path,
    host: str = "127.0.0.1",
    port: int = 8037,
    lease_timeout: float = 30.0,
    max_attempts: int = 3,
    backoff: float = 1.0,
) -> int:
    """``repro serve``: run a coordinator until interrupted.

    Prints one ``serving on http://host:port`` line once the socket is
    bound (CI boots the service in the background and polls
    ``/api/health``), then blocks, logging lease-lifecycle events to
    stderr as ``serve: ...`` lines.  SIGINT/SIGTERM drain the service
    (in-flight leases may still land) and close the store.
    """
    import signal

    service = SweepService(
        store_path,
        lease_timeout=lease_timeout,
        max_attempts=max_attempts,
        backoff=backoff,
        log=lambda message: print(
            f"serve: {message}", file=sys.stderr, flush=True
        ),
    )
    server = ServiceServer((host, port), service)

    def _stop(_signum, _frame):
        # shutdown() must run off the serving thread or it deadlocks.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    print(
        f"serving on http://{server.server_address[0]}:"
        f"{server.server_address[1]} (store: {store_path})",
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        service.drain()
        server.server_close()
        service.close()
    return 0


# ----------------------------------------------------------------------
# The client ("repro submit" and the worker's transport)
# ----------------------------------------------------------------------


def call(url: str, path: str, payload: dict | None = None,
         timeout: float = 30.0) -> dict:
    """One JSON request against a coordinator; errors as ReproError."""
    request = urlrequest.Request(
        url.rstrip("/") + path,
        data=(
            json.dumps(payload).encode("utf-8")
            if payload is not None else None
        ),
        headers={"Content-Type": "application/json"},
        method="POST" if payload is not None else "GET",
    )
    try:
        with urlrequest.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read())
    except urlerror.HTTPError as error:
        try:
            detail = json.loads(error.read()).get("error", "")
        except ValueError:
            detail = ""
        raise ReproError(
            f"coordinator rejected {path}: {detail or error}"
        )
    except (urlerror.URLError, OSError, ValueError) as error:
        raise ReproError(f"cannot reach coordinator at {url}: {error}")


def submit_sweep(
    url: str,
    cells,
    poll: float = 0.5,
    progress: Callable[[str], None] | None = None,
    timeout: float | None = None,
) -> SweepResult:
    """Submit a grid and block until the merged rows stream back.

    Parameters
    ----------
    url : str
        Coordinator base URL (e.g. ``http://127.0.0.1:8037``).
    cells : iterable of CellConfig
        The grid, in order (e.g. ``SweepSpec.expand()``).
    poll : float
        Seconds between progress polls.
    progress : callable, optional
        ``progress(line)`` sink invoked whenever the queued / leased /
        simulated / hit counts change (``repro submit`` routes this to
        stderr, keeping stdout a pure report).
    timeout : float, optional
        Give up (raise) after this many seconds without completion.

    Returns
    -------
    SweepResult
        Rows in submitted order, duplicates included; ``executed``
        counts the cells the worker pool simulated for this job and
        ``cached`` those the coordinator's store served, so a
        resubmission of a completed grid reports ``executed == 0``.
    """
    progress = progress or (lambda line: None)
    submitted = call(
        url, "/api/submit",
        {"cells": [cell.to_dict() for cell in cells]},
    )
    job = submitted["job"]
    progress(
        f"job {job}: {submitted['cells']} unique cell(s), "
        f"{submitted['hits']} served from the store, "
        f"{submitted['pending']} queued"
    )
    deadline = time.monotonic() + timeout if timeout is not None else None
    last = None
    while True:
        status = call(url, f"/api/status/{job}")
        line = (
            f"job {job}: {status['queued']} queued, "
            f"{status['leased']} leased, "
            f"{status['simulated']} simulated, {status['hits']} hits"
        )
        if line != last:
            progress(line)
            last = line
        if status["state"] == "failed":
            raise ReproError(
                f"job {job} failed: " + "; ".join(status["errors"])
            )
        if status["state"] == "done":
            break
        if deadline is not None and time.monotonic() > deadline:
            raise ReproError(
                f"job {job} did not complete within {timeout:.0f}s "
                f"(last status: {line})"
            )
        time.sleep(poll)
    payload = call(url, f"/api/results/{job}")
    rows = tuple(CellResult.from_dict(row) for row in payload["rows"])
    status = call(url, f"/api/status/{job}")
    return SweepResult(
        rows=rows, executed=status["simulated"], cached=status["hits"],
    )
