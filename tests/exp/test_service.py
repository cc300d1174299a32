"""Tests for the sweep service (``repro.exp.service``).

Two layers: :class:`SweepService` driven directly (submission dedup,
duplicate/conflicting result ingestion, graceful shutdown — fast,
using fabricated synthetic-app rows, no simulation), and one HTTP
end-to-end run over real cells proving the service path produces
exactly what a local :func:`~repro.exp.sweep.run_sweep` produces.
"""

import json
import socket
import threading
import time
from dataclasses import replace
from urllib import error as urlerror
from urllib import request as urlrequest

import pytest

from repro.errors import ReproError
from repro.exp import run_sweep
from repro.exp.results import CellResult
from repro.exp.service import (
    ServiceServer,
    SweepService,
    _Handler,
    call,
    submit_sweep,
)
from repro.exp.spec import CellConfig, SweepSpec
from repro.exp.store import open_store
from repro.exp.worker import run_worker

#: A fast 2-cell grid of real cells for the end-to-end test.
GRID = SweepSpec(apps=("vadd",), input_bytes=(1024,), policies=("fifo", "lru"))


def _config(seed: int) -> CellConfig:
    return CellConfig(app="synthetic", input_bytes=1024, seed=seed)


def _fake_result(config: CellConfig) -> CellResult:
    """A valid row without simulating."""
    seed = config.seed
    return CellResult(
        config=config,
        key=config.key(),
        label=config.label(),
        workload=f"synthetic-{seed}",
        sw_ms=10.0 + seed * 0.001,
        vim_ms=2.0 + seed * 0.0005,
        hw_ms=1.0,
        sw_dp_ms=0.5,
        sw_imu_ms=0.25,
        sw_other_ms=0.25 + seed * 0.0005,
        vim_speedup=(10.0 + seed * 0.001) / (2.0 + seed * 0.0005),
        page_faults=seed % 97,
        compulsory_loads=seed % 11,
        evictions=seed % 7,
        writebacks=seed % 5,
        prefetches=0,
        bytes_to_dpram=1024 * (seed % 13),
        bytes_from_dpram=512 * (seed % 13),
        tlb_hit_rate=0.9,
    )


@pytest.fixture
def service(tmp_path):
    service = SweepService(tmp_path / "store", lease_timeout=10.0)
    yield service
    service.close()


def _submit(service, configs):
    return service.submit([config.to_dict() for config in configs])


def _complete_next(service, worker="w"):
    """Lease one cell and complete it with a fabricated row."""
    lease = service.lease(worker)
    assert lease is not None
    config = CellConfig.from_dict(lease["config"])
    reply = service.complete(lease["lease"], _fake_result(config).to_dict())
    assert reply == {"ok": True, "stale": False}
    return lease, config


class TestSubmission:
    def test_submit_queues_novel_cells(self, service):
        accepted = _submit(service, [_config(1), _config(2)])
        assert accepted["cells"] == 2
        assert accepted["hits"] == 0
        assert accepted["pending"] == 2
        assert service.status(accepted["job"])["state"] == "running"

    def test_submit_dedups_against_the_store(self, service):
        job1 = _submit(service, [_config(1)])
        _complete_next(service)
        assert service.status(job1["job"])["state"] == "done"
        # Same cell again: served from the store, nothing queued.
        job2 = _submit(service, [_config(1), _config(2)])
        assert job2["hits"] == 1
        assert job2["pending"] == 1

    def test_submit_dedups_in_flight_across_jobs(self, service):
        _submit(service, [_config(1)])
        job2 = _submit(service, [_config(1)])
        # Not a hit (no result yet), but not queued twice either.
        assert job2["hits"] == 0
        assert service.status()["queued"] == 1
        _complete_next(service)
        # One completion finishes both jobs.
        assert service.status(1)["state"] == "done"
        assert service.status(job2["job"])["state"] == "done"

    def test_submit_preserves_duplicate_cells_in_results(self, service):
        job = _submit(service, [_config(1), _config(1), _config(2)])
        assert job["cells"] == 2  # unique
        _complete_next(service)
        _complete_next(service)
        rows = service.results(job["job"])
        assert len(rows) == 3  # submit order, duplicates included
        assert rows[0] == rows[1]

    def test_empty_and_invalid_submissions_are_rejected(self, service):
        with pytest.raises(ReproError):
            service.submit([])
        with pytest.raises(ReproError):
            service.submit([{"app": "no-such-app"}])

    def test_results_refuse_while_running(self, service):
        job = _submit(service, [_config(1)])
        with pytest.raises(ReproError, match="still running"):
            service.results(job["job"])
        with pytest.raises(ReproError, match="unknown job"):
            service.status(999)


class TestMalformedPayloads:
    """Outside JSON that ``from_dict`` cannot build is a 400, not a crash."""

    #: Bodies whose cells or result have a wrongly typed or missing field.
    BODIES = [
        ("/api/submit", {"cells": [{"input_bytes": "x"}]}),
        ("/api/submit", {"cells": [3]}),
        ("/api/submit", {"cells": 3}),
        ("/api/complete", {"lease": "L1", "result": {"key": "k"}}),
    ]

    @pytest.fixture
    def url(self, service):
        server = ServiceServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{server.server_address[1]}"
        server.shutdown()
        server.server_close()

    def test_each_body_gets_a_400_and_the_coordinator_keeps_serving(
        self, url
    ):
        for path, body in self.BODIES:
            request = urlrequest.Request(
                url + path,
                data=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urlerror.HTTPError) as excinfo:
                urlrequest.urlopen(request, timeout=10)
            assert excinfo.value.code == 400, (path, body)
            assert json.loads(excinfo.value.read())["error"], (path, body)
        assert call(url, "/api/health") == {"ok": True}

    def test_an_unknown_policy_or_soc_gets_a_400_and_no_job(
        self, url, service
    ):
        for cell, name in (({"app": "vadd", "policy": "bogus"}, "'bogus'"),
                           ({"app": "vadd", "soc": "EPXA99"}, "'EPXA99'")):
            request = urlrequest.Request(
                url + "/api/submit",
                data=json.dumps(
                    {"cells": [_config(1).to_dict(), cell]}
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urlerror.HTTPError) as excinfo:
                urlrequest.urlopen(request, timeout=10)
            assert excinfo.value.code == 400
            assert name in json.loads(excinfo.value.read())["error"]
        status = service.status()
        assert status["jobs"] == {} and status["queued"] == 0

    def test_a_bad_content_length_gets_a_400_and_the_coordinator_keeps_serving(
        self, url
    ):
        host, port = url.removeprefix("http://").split(":")
        for length in (b"abc", b"-1"):
            # urllib always sends a valid length: speak HTTP by hand.
            with socket.create_connection((host, int(port)), timeout=5) as conn:
                conn.sendall(
                    b"POST /api/submit HTTP/1.1\r\nHost: coordinator\r\n"
                    b"Content-Length: " + length + b"\r\n\r\n"
                )
                # The coordinator closes the connection after the reply,
                # because it cannot tell where the body ends.
                reply = b""
                while chunk := conn.recv(4096):
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 "), (length, reply)
            assert json.loads(body)["error"], length
        assert call(url, "/api/health") == {"ok": True}

    def test_a_short_body_is_refused_and_never_waited_for(
        self, url, service, monkeypatch
    ):
        assert 0 < _Handler.timeout <= 60
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        host, port = url.removeprefix("http://").split(":")

        def post(body: bytes, length: int, shut: bool) -> tuple[bytes, float]:
            """Send *body* under Content-Length *length*; the reply."""
            with socket.create_connection((host, int(port)), timeout=5) as conn:
                conn.sendall(
                    b"POST /api/submit HTTP/1.1\r\nHost: coordinator\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (length, body)
                )
                if shut:
                    conn.shutdown(socket.SHUT_WR)
                start = time.monotonic()
                reply = b""
                while chunk := conn.recv(4096):
                    reply += chunk
                return reply, time.monotonic() - start

        # A client that stops sending mid-body is dropped, unanswered,
        # once the connection has been silent for the timeout.
        reply, waited = post(b'{"cells": []}', 100, shut=False)
        assert reply == b""
        assert waited < 3
        # A body that ends early is refused, naming both counts.
        reply, _ = post(b'{"cells": []}', 100, shut=True)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), reply
        error = json.loads(body)["error"]
        assert "13" in error and "100" in error, error
        # A valid submission declared longer than sent creates no job.
        cells = json.dumps({"cells": [_config(1).to_dict()]}).encode("utf-8")
        reply, _ = post(cells, len(cells) + 10, shut=True)
        assert reply.startswith(b"HTTP/1.1 400 "), reply
        assert service.status()["jobs"] == {}
        assert call(url, "/api/health") == {"ok": True}

    def test_errors_name_the_cell(self, service):
        with pytest.raises(ReproError, match="cell 1 is malformed"):
            service.submit([_config(1).to_dict(), {"input_bytes": "x"}])
        with pytest.raises(ReproError, match="must be a JSON list"):
            service.submit(3)
        with pytest.raises(ReproError, match="result of lease L1"):
            service.complete("L1", {"key": "k"})


class TestIngestion:
    def test_identical_duplicate_completion_is_accepted(self, service):
        """Lease expiry + late worker: both rows land, once."""
        _submit(service, [_config(1)])
        lease, config = _complete_next(service)
        # The same (historic) lease completes again with an equal row —
        # deterministic cells make this legal, and it must not conflict.
        reply = service.complete(
            lease["lease"], _fake_result(config).to_dict()
        )
        assert reply["ok"] is True
        assert service.status(1)["state"] == "done"

    def test_conflicting_duplicate_completion_fails_the_cell(self, service):
        _submit(service, [_config(1)])
        lease, config = _complete_next(service)
        wrong = replace(_fake_result(config), page_faults=12345)
        with pytest.raises(ReproError, match="conflicting results"):
            service.complete(lease["lease"], wrong.to_dict())
        status = service.status(1)
        assert status["state"] == "failed"
        assert any("conflicting" in error for error in status["errors"])
        with pytest.raises(ReproError, match="failed"):
            service.results(1)

    def test_stale_lease_completion_is_flagged(self, service):
        _submit(service, [_config(1)])
        reply = service.complete(
            "L999-deadbeef", _fake_result(_config(1)).to_dict()
        )
        assert reply == {"ok": False, "stale": True}

    def test_result_for_the_wrong_cell_is_rejected(self, service):
        _submit(service, [_config(1), _config(2)])
        lease = service.lease("w")
        other = next(
            config for config in (_config(1), _config(2))
            if config.key() != lease["key"]
        )
        with pytest.raises(ReproError, match="hashes to"):
            service.complete(lease["lease"], _fake_result(other).to_dict())

    def test_worker_failure_requeues(self, service):
        _submit(service, [_config(1)])
        lease = service.lease("w")
        assert service.fail(lease["lease"], "boom") is True
        status = service.status(1)
        assert status["state"] == "running"
        assert status["queued"] == 1


class TestShutdown:
    def test_drain_stops_submissions_and_leases(self, service):
        _submit(service, [_config(1), _config(2)])
        assert service.lease("w") is not None
        service.drain()
        assert service.lease("w2") is None  # nothing new granted
        with pytest.raises(ReproError, match="shutting down"):
            _submit(service, [_config(3)])

    def test_drain_honours_in_flight_completions(self, service, tmp_path):
        """Graceful shutdown: a running cell still lands its result."""
        _submit(service, [_config(1)])
        lease = service.lease("w")
        service.drain()
        config = CellConfig.from_dict(lease["config"])
        assert service.heartbeat(lease["lease"]) is True
        reply = service.complete(
            lease["lease"], _fake_result(config).to_dict()
        )
        assert reply["ok"] is True
        assert service.status(1)["state"] == "done"
        service.close()
        # The row is durable: a fresh service over the same store
        # serves the cell as a hit.
        fresh = SweepService(tmp_path / "store", lease_timeout=10.0)
        try:
            resubmitted = _submit(fresh, [_config(1)])
            assert (resubmitted["hits"], resubmitted["pending"]) == (1, 0)
            assert fresh.status(resubmitted["job"])["state"] == "done"
        finally:
            fresh.close()

    def test_restart_resumes_from_the_store(self, service, tmp_path):
        """A restarted coordinator needs nothing but the store."""
        configs = [_config(1), _config(2), _config(3)]
        _submit(service, configs)
        in_flight = service.lease("w")
        _, done = _complete_next(service)
        service.drain()
        service.close()

        restarted = SweepService(tmp_path / "store", lease_timeout=10.0)
        try:
            job = _submit(restarted, configs)
            assert (job["hits"], job["pending"]) == (1, 2)
            # The old lease died with the old board: its late
            # completion is flagged stale and stores nothing.
            late = CellConfig.from_dict(in_flight["config"])
            reply = restarted.complete(
                in_flight["lease"], _fake_result(late).to_dict()
            )
            assert reply == {"ok": False, "stale": True}
            with open_store(tmp_path / "store") as store:
                assert store.get(done) is not None
                assert store.get(late) is None
            assert restarted.status(job["job"])["queued"] == 2
            # The new board's first lease goes to the same cell, as the
            # old board's did; the old lease still matches nothing.
            reissued = restarted.lease("w2")
            assert reissued["key"] == in_flight["key"]
            assert not restarted.heartbeat(in_flight["lease"])
            reply = restarted.complete(
                in_flight["lease"], _fake_result(late).to_dict()
            )
            assert reply == {"ok": False, "stale": True}
            assert restarted.status(job["job"])["leased"] == 1
            reply = restarted.complete(
                reissued["lease"], _fake_result(late).to_dict()
            )
            assert reply == {"ok": True, "stale": False}
            _complete_next(restarted)
            assert restarted.lease("w") is None
            assert restarted.status(job["job"])["state"] == "done"
            rows = restarted.results(job["job"])
            assert rows == [_fake_result(c).to_dict() for c in configs]
        finally:
            restarted.close()


class TestEndToEnd:
    """The service path vs the local path, over real cells, via HTTP."""

    @pytest.fixture
    def coordinator(self, tmp_path):
        service = SweepService(tmp_path / "service-store", lease_timeout=10.0)
        server = ServiceServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        stop = threading.Event()
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(url=url, worker_id="w1", poll=0.02, stop=stop,
                        log=lambda message: None),
            daemon=True,
        )
        worker.start()
        yield url, tmp_path / "service-store"
        stop.set()
        worker.join(timeout=5)
        server.shutdown()
        server.server_close()
        service.close()

    def test_submitted_rows_match_a_local_sweep(self, coordinator, tmp_path):
        url, store_path = coordinator
        outcome = submit_sweep(url, GRID.expand(), poll=0.02)
        local = run_sweep(GRID, cache_dir=tmp_path / "local-store")
        assert [row.to_dict() for row in outcome.rows] \
            == [row.to_dict() for row in local.rows]
        assert (outcome.executed, outcome.cached) == (2, 0)
        # The service store holds exactly the local store's rows.
        with open_store(store_path) as service_store, \
                open_store(tmp_path / "local-store") as local_store:
            assert [row.to_dict() for row in service_store.iter_rows()] \
                == [row.to_dict() for row in local_store.iter_rows()]

    def test_resubmission_is_all_cache_hits(self, coordinator):
        url, _store_path = coordinator
        first = submit_sweep(url, GRID.expand(), poll=0.02)
        again = submit_sweep(url, GRID.expand(), poll=0.02)
        assert (first.executed, first.cached) == (2, 0)
        assert (again.executed, again.cached) == (0, 2)
        assert [row.to_dict() for row in again.rows] \
            == [row.to_dict() for row in first.rows]

    def test_health_and_unknown_routes(self, coordinator):
        url, _store_path = coordinator
        assert call(url, "/api/health") == {"ok": True}
        with pytest.raises(ReproError, match="unknown path"):
            call(url, "/api/nonsense")
