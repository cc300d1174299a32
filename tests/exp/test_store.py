"""Tests for the result store (``repro.exp.store``).

:class:`~repro.exp.store.SqliteStore` is the one contract between the
sweep engine and everything that reads results back (merge, diff,
report, history), so its invariants are pinned for both ways rows
arrive: swept straight into a store, and imported from a legacy JSON
cache directory with ``repro merge``.  An import must reproduce the
directory's rows, reports and grid fingerprint exactly.
"""

import json
import random
import sqlite3

import pytest

from repro.errors import ReproError
from repro.exp import run_sweep
from repro.exp.cache import iter_classified, iter_dump_rows
from repro.exp.merge import merge_into
from repro.exp.report import load_cache_rows, render_report
from repro.exp.spec import (
    CACHE_VERSION,
    SweepSpec,
    fingerprint_from_keys,
    grid_fingerprint,
)
from repro.exp.store import SqliteStore, is_sqlite_file, open_store
from tests.store_helpers import write_dump, write_legacy_dir

#: A fast 2-cell grid (1 KB vector-add, two policies).
GRID = SweepSpec(apps=("vadd",), input_bytes=(1024,), policies=("fifo", "lru"))


@pytest.fixture(params=("json", "sqlite"))
def populated(request, tmp_path):
    """A store holding the 2-cell GRID, plus its rows.

    ``sqlite``: swept straight into the store; ``json``: swept into a
    legacy JSON cache directory layout and imported with a merge.
    """
    path = tmp_path / "store.sqlite"
    if request.param == "sqlite":
        rows = run_sweep(GRID, cache_dir=path).rows
    else:
        rows = run_sweep(GRID).rows
        merge_into(path, [write_legacy_dir(tmp_path / "legacy", rows)])
    return path, request.param, rows


class TestProtocolConformance:
    def test_kind_and_len(self, populated):
        path, _origin, rows = populated
        with open_store(path) as store:
            assert isinstance(store, SqliteStore)
            assert len(store) == len(rows) == 2

    def test_get_hits_exact_config(self, populated):
        from dataclasses import replace

        path, _origin, rows = populated
        with open_store(path) as store:
            for row in rows:
                assert store.get(row.config) == row
            assert store.get(replace(rows[0].config, input_bytes=4096)) is None

    def test_iter_classified_key_sorted(self, populated):
        path, _origin, _rows = populated
        with open_store(path) as store:
            entries = list(store.iter_classified())
        assert [status for _o, status, _r in entries] == ["ok", "ok"]
        keys = [result.key for _o, _s, result in entries]
        assert keys == sorted(keys)

    def test_iter_report_rows_label_key_sorted(self, populated):
        path, _origin, _rows = populated
        with open_store(path) as store:
            rows = list(store.iter_report_rows())
            # Iterating the store is the same report-order walk.
            assert list(store) == rows
        assert [(r.label, r.key) for r in rows] == sorted(
            (r.label, r.key) for r in rows
        )

    def test_counts_and_identical_report(self, populated):
        path, _origin, _rows = populated
        with open_store(path) as store:
            counts = store.counts()
        assert (counts.ok, counts.stale, counts.invalid) == (2, 0, 0)
        assert counts.skipped == 0 and counts.total == 2

    def test_rerun_simulates_nothing(self, populated):
        path, _origin, _rows = populated
        result = run_sweep(GRID, cache_dir=path)
        assert result.executed == 0
        assert result.cached == 2


class TestLenCountsOnlyLoadableRows:
    """Regression: ``len`` used to count every ``*.json`` file.

    On the seed, the JSON cache's ``__len__`` counted directory
    entries, so a corrupt file or a stale-version row inflated the
    count past what any consumer could actually load.  The legacy
    reader and the store both pin the corrected semantics.
    """

    def test_json_corrupt_and_stale_files_not_counted(self, tmp_path):
        legacy = write_legacy_dir(tmp_path / "legacy", run_sweep(GRID).rows)
        (legacy / "0123456789abcdef.json").write_text("{not json")
        stale_payload = {
            "version": CACHE_VERSION - 1,
            "result": {"anything": True},
        }
        (legacy / "fedcba9876543210.json").write_text(
            json.dumps(stale_payload)
        )
        statuses = [status for _p, status, _r in iter_classified(legacy)]
        assert statuses.count("ok") == 2  # the seed said 4
        summary = merge_into(tmp_path / "store.sqlite", [legacy])
        assert (summary.written, summary.skipped) == (2, 2)
        with open_store(tmp_path / "store.sqlite") as store:
            assert len(store) == 2

    def test_sqlite_stale_versions_not_counted(self, tmp_path):
        path = tmp_path / "store.sqlite"
        run_sweep(GRID, cache_dir=path)
        db = sqlite3.connect(path)
        db.execute(
            "UPDATE results SET cache_version = cache_version - 1 "
            "WHERE rowid = 1"
        )
        db.commit()
        db.close()
        with open_store(path) as store:
            assert len(store) == 1
            assert store.counts().stale == 1


class TestSqliteVersioning:
    def test_identical_reput_appends_nothing(self, tmp_path):
        path = tmp_path / "store.sqlite"
        rows = run_sweep(GRID, cache_dir=path).rows
        with open_store(path, create=True) as store:
            for row in rows:
                store.put(row)
            versions = [v for _k, _l, v, _r, _res in store.iter_versions()]
        assert versions == [1, 1]

    def test_changed_payload_appends_next_version(self, tmp_path):
        from dataclasses import replace

        path = tmp_path / "store.sqlite"
        rows = run_sweep(GRID, cache_dir=path).rows
        changed = replace(rows[0], vim_ms=rows[0].vim_ms + 1.0)
        with open_store(path) as store:
            store.put(changed)
            latest = store.get(rows[0].config)
            versions = {
                key: version
                for key, _l, version, _r, _res in store.iter_versions()
            }
        assert latest == changed  # reads serve the latest version
        assert versions[rows[0].key] == 2

    def test_each_writing_open_is_one_run(self, tmp_path):
        path = tmp_path / "store.sqlite"
        run_sweep(GRID, cache_dir=path)
        run_sweep(
            SweepSpec(apps=("vadd",), input_bytes=(2048,)), cache_dir=path
        )
        with open_store(path) as store:
            runs = store.runs()
        assert [run.rows for run in runs] == [2, 1]
        assert [run.run_id for run in runs] == [1, 2]

    def test_readonly_open_records_no_run(self, tmp_path):
        path = tmp_path / "store.sqlite"
        run_sweep(GRID, cache_dir=path)
        with open_store(path) as store:
            list(store.iter_report_rows())
        with open_store(path) as store:
            assert len(store.runs()) == 1

    def test_wal_mode_enabled(self, tmp_path):
        path = tmp_path / "store.sqlite"
        run_sweep(GRID, cache_dir=path)
        db = sqlite3.connect(path)
        assert db.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        db.close()

    def test_metric_columns_match_payload(self, tmp_path):
        path = tmp_path / "store.sqlite"
        rows = run_sweep(GRID, cache_dir=path).rows
        db = sqlite3.connect(path)
        by_key = {
            key: (vim_ms, faults)
            for key, vim_ms, faults in db.execute(
                "SELECT key, vim_ms, page_faults FROM results"
            )
        }
        db.close()
        for row in rows:
            assert by_key[row.key] == (row.vim_ms, row.page_faults)


class TestOpenStore:
    def test_detects_existing_backends(self, tmp_path):
        sqlite_path = tmp_path / "odd-name"  # magic beats the suffix
        run_sweep(GRID, cache_dir=sqlite_path)
        assert is_sqlite_file(sqlite_path)
        assert isinstance(open_store(sqlite_path), SqliteStore)

    def test_missing_path_creates_sqlite_whatever_suffix(self, tmp_path):
        for name in ("x.sqlite", "x.sqlite3", "x.db", "x"):
            open_store(tmp_path / name, create=True).close()
            assert is_sqlite_file(tmp_path / name)

    def test_kind_contradiction_is_an_error(self, tmp_path):
        # A legacy JSON cache directory is never reinterpreted as a
        # store, even with create=True: the error names the import.
        legacy = write_legacy_dir(tmp_path / "cache", run_sweep(GRID).rows)
        for create in (False, True):
            with pytest.raises(ReproError, match="repro merge NEW.sqlite"):
                open_store(legacy, create=create)

    def test_missing_path_without_create_raises(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            open_store(tmp_path / "missing")

    def test_row_dump_is_not_a_store(self, tmp_path):
        dump = tmp_path / "rows.json"
        dump.write_text("[]")
        with pytest.raises(ReproError, match="not a result store"):
            open_store(dump)

    def test_sweep_store_contradiction_fails_before_simulating(
        self, tmp_path, monkeypatch
    ):
        # An existing directory is never a store: the sweep refuses it
        # before simulating anything, and points at the import.
        import repro.exp.sweep as sweep_module

        monkeypatch.setattr(
            sweep_module, "run_cell",
            lambda config: pytest.fail("simulated despite a bad store"),
        )
        (tmp_path / "cache").mkdir()
        with pytest.raises(ReproError, match="repro merge"):
            run_sweep(GRID, cache_dir=tmp_path / "cache")


#: Seeded-random grids for the import round-trip property (same
#: regression-corpus convention as test_property_invariants: append,
#: never reorder).
def _random_specs(count):
    rng = random.Random(0xC0FFEE)
    pools = {
        "apps": ("vadd", "synthetic"),
        "input_bytes": (1024, 2048),
        "policies": ("fifo", "lru"),
        "seeds": (1, 2),
    }
    for _ in range(count):
        yield SweepSpec(**{
            axis: tuple(
                rng.sample(values, rng.randint(1, len(values)))
            )
            for axis, values in pools.items()
        })


class TestMigrationRoundTrip:
    """Legacy JSON -> SQLite -> row dump -> SQLite loses nothing."""

    @pytest.mark.parametrize(
        "spec", _random_specs(5), ids=lambda s: grid_fingerprint(s.expand())
    )
    def test_round_trip_property(self, tmp_path, spec):
        rows = run_sweep(spec).rows
        legacy = write_legacy_dir(tmp_path / "legacy", rows)
        imported = tmp_path / "imported.sqlite"
        merge_into(imported, [legacy])
        with open_store(imported) as store:
            dump = write_dump(tmp_path / "rows.json", list(store.iter_rows()))
        back = tmp_path / "back.sqlite"
        merge_into(back, [dump])
        legacy_rows = [r for _p, _s, r in iter_classified(legacy)]
        dumped_rows = [r for _o, r in iter_dump_rows(dump)]
        assert sorted(dumped_rows, key=lambda r: r.key) == legacy_rows
        # Same rows in, same report out — and the same fingerprint, so
        # the CI cache key is invariant under the import.
        report_md = render_report(legacy_rows)
        expected = grid_fingerprint(spec.expand())
        for path in (imported, back):
            assert render_report(load_cache_rows(path).rows) == report_md
            with open_store(path) as store:
                keys = [r.key for r in store.iter_rows()]
            assert keys == sorted(keys)
            assert fingerprint_from_keys(keys) == expected

    def test_migrated_fingerprint_matches(self, tmp_path):
        legacy = write_legacy_dir(tmp_path / "legacy", run_sweep(GRID).rows)
        imported = tmp_path / "imported.sqlite"
        merge_into(imported, [legacy])
        fp_a = fingerprint_from_keys(
            r.key for _p, _s, r in iter_classified(legacy)
        )
        with open_store(imported) as store:
            fp_b = fingerprint_from_keys(r.key for r in store.iter_rows())
        assert fp_a == fp_b == grid_fingerprint(GRID.expand())
