"""Tests for cache lookups (``SqliteStore.get``) and the legacy reader.

A sweep re-run is only as trustworthy as the store's ``get``: any
doubt about a stored row — a corrupt payload, a stale
``CACHE_VERSION``, a config that differs from the one asked for —
must read as a miss, never as a wrong row.  The legacy JSON-directory
reader (:func:`repro.exp.cache.iter_classified`, what ``repro merge``
imports old caches through) keeps the same gatekeeper.
"""

import json
import sqlite3

from repro.exp import cache as cache_module
from repro.exp import spec as spec_module
from repro.exp import store as store_module
from repro.exp.cache import iter_classified
from repro.exp.cell import run_cell
from repro.exp.spec import CACHE_VERSION, CellConfig
from repro.exp.store import open_store
from tests.store_helpers import corrupt, execute, payloads, write_legacy_dir

#: The smallest meaningful cell: a 64-element vector add.
TINY = CellConfig(app="vadd", input_bytes=256)


def _store(tmp_path, *rows):
    store = open_store(tmp_path / "store.sqlite", create=True)
    for row in rows:
        store.put(row)
    return store


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        result = run_cell(TINY)
        with _store(tmp_path, result) as store:
            assert store.get(TINY) == result

    def test_miss_on_empty_cache(self, tmp_path):
        with _store(tmp_path) as store:
            assert store.get(TINY) is None

    def test_miss_on_different_config(self, tmp_path):
        with _store(tmp_path, run_cell(TINY)) as store:
            other = CellConfig(app="vadd", input_bytes=256, policy="lru")
            assert store.get(other) is None

    def test_legacy_fast_row_serves_the_reference_config(self, tmp_path):
        # Rows priced by the removed second engine say "fast"; they were
        # byte-identical to reference rows by contract, so they keep
        # serving and load as "reference".
        path = tmp_path / "store.sqlite"
        result = run_cell(TINY)
        _store(tmp_path, result).close()
        execute(
            path,
            "UPDATE results SET payload = replace(payload, ?, ?)",
            ('"engine": "reference"', '"engine": "fast"'),
        )
        assert '"engine": "fast"' in payloads(path)[TINY.key()]
        with open_store(path) as store:
            hit = store.get(TINY)
        assert hit == result
        assert hit.config.engine == "reference"

    def test_len_counts_entries(self, tmp_path):
        with _store(tmp_path) as store:
            assert len(store) == 0
            store.put(run_cell(TINY))
            assert len(store) == 1


class TestDefensiveLoads:
    def test_corrupt_file_degrades_to_miss(self, tmp_path):
        _store(tmp_path, run_cell(TINY)).close()
        corrupt(tmp_path / "store.sqlite", TINY.key())
        with open_store(tmp_path / "store.sqlite") as store:
            assert store.get(TINY) is None

    def test_version_mismatch_degrades_to_miss(self, tmp_path):
        path = tmp_path / "store.sqlite"
        _store(tmp_path, run_cell(TINY)).close()
        db = sqlite3.connect(path)
        (payload,) = db.execute("SELECT payload FROM results").fetchone()
        db.close()
        decoded = json.loads(payload)
        decoded["version"] = -1
        execute(path, "UPDATE results SET payload = ?", (json.dumps(decoded),))
        with open_store(path) as store:
            assert store.get(TINY) is None

    def test_config_mismatch_inside_file_degrades_to_miss(self, tmp_path):
        # A re-keyed row whose stored config differs from the requested
        # one must never be returned.
        path = tmp_path / "store.sqlite"
        _store(tmp_path, run_cell(TINY)).close()
        other = CellConfig(app="vadd", input_bytes=256, seed=9)
        execute(path, "UPDATE results SET key = ?", (other.key(),))
        with open_store(path) as store:
            assert store.get(other) is None

    def test_creates_directory(self, tmp_path):
        path = tmp_path / "deep" / "cache.sqlite"
        open_store(path, create=True).close()
        assert path.is_file()

    def test_cache_version_bump_invalidates_everything(
        self, tmp_path, monkeypatch
    ):
        # A schema bump (e.g. 2 -> 3 for the dma axis and the
        # tlb_refills column) must turn every stored cell into a clean
        # miss: the hash moves (new key) *and* a row written under the
        # old version is refused even if found.
        path = tmp_path / "store.sqlite"
        _store(tmp_path, run_cell(TINY)).close()
        old_key = TINY.key()
        for module in (spec_module, cache_module, store_module):
            monkeypatch.setattr(
                module, "CACHE_VERSION", module.CACHE_VERSION + 1
            )
        assert TINY.key() != old_key  # the hash covers the version
        with open_store(path) as store:
            assert store.get(TINY) is None
        # Even a hash collision cannot resurrect it: re-key the old row
        # onto the new key and the version check still refuses.
        execute(path, "UPDATE results SET key = ?", (TINY.key(),))
        with open_store(path) as store:
            assert store.get(TINY) is None


class TestIterClassified:
    def test_statuses_cover_ok_stale_and_invalid(self, tmp_path):
        other = CellConfig(app="vadd", input_bytes=256, seed=2)
        ok, stale = run_cell(TINY), run_cell(other)
        write_legacy_dir(tmp_path, [ok, stale])
        stale_path = tmp_path / f"{stale.key}.json"
        payload = json.loads(stale_path.read_text(encoding="utf-8"))
        payload["version"] = CACHE_VERSION + 1
        stale_path.write_text(json.dumps(payload), encoding="utf-8")
        (tmp_path / "zz-corrupt.json").write_text("][", encoding="utf-8")
        by_status = {
            status: path.name
            for path, status, _result in iter_classified(tmp_path)
        }
        assert by_status == {
            "ok": f"{ok.key}.json",
            "stale-version": stale_path.name,
            "invalid": "zz-corrupt.json",
        }

    def test_renamed_entry_is_invalid_not_stale(self, tmp_path):
        write_legacy_dir(tmp_path, [run_cell(TINY)])
        (tmp_path / f"{TINY.key()}.json").rename(tmp_path / f"{'0' * 16}.json")
        [(_, status, result)] = list(iter_classified(tmp_path))
        assert status == "invalid" and result is None
