"""Record → replay round-trip tests for the address-trace subsystem.

Three layers under test, bottom-up: the trace *file format*
(:mod:`repro.trace.record` — canonical bytes, digest checking, loud
failure on corruption), the *recording driver*
(:func:`repro.exp.record.record_cell` — deterministic byte-identical
files, verified runs), and the *replay app*
(:mod:`repro.apps.tracefile` — replaying a recorded run twice yields
byte-identical ``CellResult`` rows, and the digest pins the identity).
"""

import gzip
import json

import pytest

from repro.apps import tracefile
from repro.cli import main
from repro.exp.record import record_cell
from repro.exp.cell import run_cell
from repro.exp.spec import CellConfig
from repro.trace.record import (
    TraceError,
    TraceObject,
    TraceOp,
    load_trace,
    trace_digest_of,
    write_trace,
)

#: A small, fast cell with a non-trivial access pattern to record.
RECORD_CONFIG = CellConfig(app="synthetic", input_bytes=2 * 1024)


def _tiny_trace(tmp_path, name="t.gz", **overrides):
    """Write a minimal hand-built one-object trace file."""
    fields = dict(
        meta={"note": "unit"},
        objects=[TraceObject(0, 1, "data", 8, "inout", bytes(8))],
        ops=[TraceOp(0, False, 1, 0, 4), TraceOp(0, True, 1, 4, 4)],
    )
    fields.update(overrides)
    path = tmp_path / name
    return path, write_trace(path, **fields)


def _corrupt_deflate(path):
    """Give the first deflate block the reserved block type (BTYPE 3)."""
    data = bytearray(path.read_bytes())
    data[10] |= 0b110  # the gzip header is 10 bytes: no file name
    path.write_bytes(data)


class TestTraceFormat:
    def test_round_trip(self, tmp_path):
        path, written = _tiny_trace(tmp_path)
        loaded = load_trace(path)
        assert loaded == written
        assert trace_digest_of(path) == written.digest

    def test_same_content_same_bytes(self, tmp_path):
        a, _ = _tiny_trace(tmp_path, "a.gz")
        b, _ = _tiny_trace(tmp_path, "b.gz")
        assert a.read_bytes() == b.read_bytes()

    def test_existing_file_needs_force(self, tmp_path):
        path, _ = _tiny_trace(tmp_path)
        with pytest.raises(TraceError, match="force"):
            _tiny_trace(tmp_path)
        _tiny_trace(tmp_path, force=True)  # same kwargs path, now allowed

    def test_corrupt_body_fails_loudly(self, tmp_path):
        path, _ = _tiny_trace(tmp_path)
        with gzip.open(path, "rb") as stream:
            header = stream.readline()
            body = stream.read()
        tampered = json.loads(body)
        tampered["ops"][0][3] = 4  # move the first read
        with open(path, "wb") as raw:
            with gzip.GzipFile(filename="", fileobj=raw, mode="wb") as out:
                out.write(header + json.dumps(tampered).encode())
        with pytest.raises(TraceError, match="digest"):
            load_trace(path)

    def test_not_a_trace_rejected(self, tmp_path):
        path = tmp_path / "noise.gz"
        with gzip.open(path, "wb") as out:
            out.write(b'{"format": "something-else"}\nrest')
        with pytest.raises(TraceError, match="format marker"):
            trace_digest_of(path)

    @pytest.mark.parametrize("read", [trace_digest_of, load_trace],
                             ids=["digest", "load"])
    def test_corrupt_deflate_stream_rejected(self, tmp_path, read):
        path, _ = _tiny_trace(tmp_path)
        _corrupt_deflate(path)
        with pytest.raises(TraceError, match="cannot read trace"):
            read(path)

    def test_sweep_over_a_corrupt_trace_exits_2(self, tmp_path, capsys):
        path, _ = _tiny_trace(tmp_path)
        _corrupt_deflate(path)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--app", "trace", "--trace", str(path),
                  "--cache", str(tmp_path / "s.sqlite")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: cannot read trace")
        assert err.count("\n") == 1

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="does not exist"):
            load_trace(tmp_path / "absent.gz")

    def test_op_outside_object_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="outside object"):
            _tiny_trace(tmp_path, ops=[TraceOp(0, False, 1, 6, 4)])

    def test_op_against_unknown_object_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="unknown object"):
            _tiny_trace(tmp_path, ops=[TraceOp(0, False, 9, 0, 4)])

    def test_bad_image_length_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="declared size"):
            _tiny_trace(
                tmp_path,
                objects=[TraceObject(0, 1, "data", 8, "inout", bytes(4))],
            )


class TestRecordCell:
    def test_recording_is_deterministic(self, tmp_path):
        a = record_cell(RECORD_CONFIG, tmp_path / "a.gz")
        b = record_cell(RECORD_CONFIG, tmp_path / "b.gz")
        assert a.digest == b.digest
        assert (tmp_path / "a.gz").read_bytes() == (tmp_path / "b.gz").read_bytes()
        assert len(a.trace.ops) > 0

    def test_replicated_cell_rejected(self, tmp_path):
        with pytest.raises(Exception, match="replicates"):
            record_cell(
                CellConfig(app="synthetic", replicates=2), tmp_path / "t.gz"
            )

    def test_multi_tenant_record_remaps_tenants(self, tmp_path):
        config = CellConfig(
            app="adpcm", input_bytes=2 * 1024,
            tenants=2, tenant_mix="adpcm+idea", tenant_repeats=2,
        )
        outcome = record_cell(config, tmp_path / "mt.gz")
        assert outcome.trace.tenant_count == 2
        # Tenant ids are workload-order indices, not spawn-order pids.
        assert {o.tenant for o in outcome.trace.objects} == {0, 1}


class TestReplay:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "synthetic.gz"
        return record_cell(RECORD_CONFIG, path)

    def test_two_replays_byte_identical(self, recorded):
        config = CellConfig(app="trace", trace_path=str(recorded.path))
        first = run_cell(config).to_dict()
        second = run_cell(config).to_dict()
        assert first == second

    def test_replay_verifies_against_reference(self, recorded):
        row = run_cell(
            CellConfig(app="trace", trace_path=str(recorded.path))
        )
        assert row.label == f"trace-{recorded.digest[:10]}"
        assert row.vim_ms > 0

    def test_digest_mismatch_fails_loudly(self, recorded):
        config = CellConfig(
            app="trace",
            trace_path=str(recorded.path),
            trace_digest="0" * 64,
        )
        with pytest.raises(TraceError, match="does not match"):
            run_cell(config)

    def test_reference_is_replayed_once(self, recorded, monkeypatch):
        calls = []
        replay = tracefile.replay_reference

        def counted(*args):
            calls.append(args)
            return replay(*args)

        monkeypatch.setattr(tracefile, "replay_reference", counted)
        run_cell(CellConfig(app="trace", trace_path=str(recorded.path)))
        assert len(calls) == 1
        workload = tracefile.trace_workload(recorded.path)
        first = workload.reference()
        first.clear()
        assert workload.reference()
        assert len(calls) == 2

    def test_identity_is_digest_not_path(self, recorded, tmp_path):
        copy = tmp_path / "elsewhere.gz"
        copy.write_bytes(recorded.path.read_bytes())
        original = CellConfig(app="trace", trace_path=str(recorded.path))
        moved = CellConfig(app="trace", trace_path=str(copy))
        assert original.key() == moved.key()
        assert original.label() == moved.label()

    def test_multi_tenant_trace_replays(self, tmp_path):
        config = CellConfig(
            app="adpcm", input_bytes=2 * 1024,
            tenants=2, tenant_mix="adpcm+idea", tenant_repeats=2,
        )
        outcome = record_cell(config, tmp_path / "mt.gz")
        row = run_cell(CellConfig(app="trace", trace_path=str(tmp_path / "mt.gz")))
        # Flattened replay covers every recorded access exactly once.
        assert row.label == f"trace-{outcome.digest[:10]}"
