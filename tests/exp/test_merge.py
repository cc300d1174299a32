"""Tests for merging shard stores (``repro.exp.merge``).

The merge is what turns N per-machine shard stores back into the one
durable result store: merged payloads must be byte-identical to an
unsharded run's store (so re-runs simulate nothing and reports
byte-match), and two sources disagreeing about one config hash must
fail loudly instead of silently picking a winner.
"""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.exp import run_sweep
from repro.exp.merge import merge_into
from repro.exp.spec import SweepSpec, shard_cells
from repro.exp.store import open_store
from tests.store_helpers import (
    corrupt,
    execute,
    make_stale,
    payloads,
    store_keys,
    write_dump,
)

#: A fast 2-cell grid (1 KB vector-add, two policies).
GRID = SweepSpec(apps=("vadd",), input_bytes=(1024,), policies=("fifo", "lru"))


def _tamper(store, **deltas) -> str:
    """Append a changed version of *store*'s first row; return its key."""
    with open_store(store) as handle:
        row = next(handle.iter_rows())
        handle.put(replace(row, **{
            field: getattr(row, field) + delta
            for field, delta in deltas.items()
        }))
    return row.key


@pytest.fixture()
def shard_caches(tmp_path):
    """Two shard stores plus the unsharded reference store."""
    cells = GRID.expand()
    for index in (1, 2):
        run_sweep(
            shard_cells(cells, index, 2),
            cache_dir=tmp_path / f"shard{index}",
        )
    run_sweep(GRID, cache_dir=tmp_path / "full")
    return tmp_path


class TestMerge:
    def test_merged_cache_is_byte_identical_to_unsharded(self, shard_caches):
        dest = shard_caches / "merged"
        summary = merge_into(
            dest, [shard_caches / "shard1", shard_caches / "shard2"]
        )
        assert summary.written == 2
        assert summary.identical == 0
        assert summary.skipped == 0
        assert payloads(dest) == payloads(shard_caches / "full")

    def test_rerun_against_merged_cache_simulates_nothing(self, shard_caches):
        dest = shard_caches / "merged"
        merge_into(dest, [shard_caches / "shard1", shard_caches / "shard2"])
        result = run_sweep(GRID, cache_dir=dest)
        assert result.executed == 0
        assert result.cached == 2

    def test_remerge_is_idempotent(self, shard_caches):
        dest = shard_caches / "merged"
        merge_into(dest, [shard_caches / "shard1", shard_caches / "shard2"])
        again = merge_into(
            dest, [shard_caches / "shard1", shard_caches / "shard2"]
        )
        assert again.written == 0
        assert again.identical == 2

    def test_duplicate_entries_across_sources_are_identical_not_conflicts(
        self, shard_caches
    ):
        # Both shards plus the full cache: every entry appears twice.
        summary = merge_into(
            shard_caches / "merged",
            [
                shard_caches / "full",
                shard_caches / "shard1",
                shard_caches / "shard2",
            ],
        )
        assert summary.written == 2
        assert summary.identical == 2

    def test_legacy_fast_dump_merges_as_identical(self, tmp_path, capsys):
        # A row dump priced by the removed second engine differs from
        # the reference store only in its "engine" field; `repro merge`
        # reads it as "reference", so its rows are identical, not
        # conflicts.
        rows = run_sweep(GRID, cache_dir=tmp_path / "ref.sqlite").rows
        before = payloads(tmp_path / "ref.sqlite")
        dump = write_dump(tmp_path / "fast.json", rows)
        text = dump.read_text(encoding="utf-8")
        legacy = text.replace('"engine": "reference"', '"engine": "fast"')
        assert legacy.count('"engine": "fast"') == 2
        dump.write_text(legacy, encoding="utf-8")
        assert main(
            ["merge", str(tmp_path / "ref.sqlite"), str(dump)]
        ) == 0
        assert "0 written, 2 identical" in capsys.readouterr().out
        assert payloads(tmp_path / "ref.sqlite") == before

    def test_rows_json_dump_is_a_valid_source(self, shard_caches, tmp_path):
        rows = run_sweep(GRID, cache_dir=shard_caches / "full").rows
        dump = tmp_path / "rows.json"
        dump.write_text(
            json.dumps([r.to_dict() for r in rows]), encoding="utf-8"
        )
        dest = tmp_path / "from-dump"
        summary = merge_into(dest, [dump])
        assert summary.written == 2
        assert payloads(dest) == payloads(shard_caches / "full")


class TestConflicts:
    def test_failed_merge_writes_nothing(self, shard_caches):
        # A conflicted merge must not leave a half-merged destination:
        # a later report over it would silently render the first-seen
        # copy of the contested hash.
        _tamper(shard_caches / "shard2", vim_ms=1.0)
        dest = shard_caches / "merged"
        with pytest.raises(ReproError, match="nothing was written"):
            merge_into(
                dest,
                [
                    shard_caches / "shard1",
                    shard_caches / "full",  # disagrees with shard2 now
                    shard_caches / "shard2",
                ],
            )
        assert not dest.exists()  # not even an empty store appears

    def test_conflicting_entry_for_same_hash_rejected(self, shard_caches):
        # Tamper one shard entry: same config hash, different numbers.
        _tamper(shard_caches / "shard1", vim_ms=1.0)
        with pytest.raises(ReproError, match="conflict"):
            merge_into(
                shard_caches / "merged",
                [shard_caches / "full", shard_caches / "shard1"],
            )

    def test_conflict_message_names_the_hash(self, shard_caches):
        key = _tamper(shard_caches / "shard1", page_faults=7)
        with pytest.raises(ReproError, match=key):
            merge_into(
                shard_caches / "merged",
                [shard_caches / "full", shard_caches / "shard1"],
            )

    def test_dest_conflict_reported_once_across_duplicate_sources(
        self, shard_caches
    ):
        # The same diverging hash arriving from two source copies must
        # count as ONE contested hash, not one conflict per copy.
        dest = shard_caches / "full"
        _tamper(shard_caches / "shard1", vim_ms=1.0)
        with pytest.raises(ReproError, match="1 merge conflict"):
            merge_into(
                dest, [shard_caches / "shard1", shard_caches / "shard1"]
            )

    def test_source_vs_source_conflict_reported_once(self, shard_caches):
        # Same dedupe rule when the first copy came from a source
        # rather than a pre-existing destination entry.
        _tamper(shard_caches / "shard1", vim_ms=1.0)
        with pytest.raises(ReproError, match="1 merge conflict"):
            merge_into(
                shard_caches / "merged",
                [
                    shard_caches / "full",
                    shard_caches / "shard1",
                    shard_caches / "shard1",
                ],
            )

    def test_conflict_with_preexisting_destination_entry(self, shard_caches):
        # Merge into a destination that already holds a diverging row.
        dest = shard_caches / "full"
        tampered_src = shard_caches / "shard1"
        _tamper(tampered_src, evictions=1)
        with pytest.raises(ReproError, match="pre-existing"):
            merge_into(dest, [tampered_src])


class TestDegradation:
    def test_stale_version_entries_skipped(self, shard_caches):
        shard1 = shard_caches / "shard1"
        make_stale(shard1, store_keys(shard1)[0])
        summary = merge_into(
            shard_caches / "merged",
            [shard_caches / "shard1", shard_caches / "shard2"],
        )
        assert summary.skipped == 1
        assert summary.written == 1

    def test_corrupt_entry_skipped(self, shard_caches):
        shard2 = shard_caches / "shard2"
        corrupt(shard2, store_keys(shard2)[0])
        summary = merge_into(
            shard_caches / "merged",
            [shard_caches / "shard1", shard_caches / "shard2"],
        )
        assert summary.skipped == 1

    def test_renamed_cache_entry_skipped(self, shard_caches):
        # Same rule as the report loader: a row must be stored under
        # its config hash; a re-keyed row is skipped, not re-keyed back.
        execute(
            shard_caches / "shard1",
            "UPDATE results SET key = '0000000000000000'",
        )
        summary = merge_into(
            shard_caches / "merged",
            [shard_caches / "shard1", shard_caches / "shard2"],
        )
        assert summary.skipped == 1
        assert summary.written == 1

    def test_all_sources_unusable_rejected(self, shard_caches, tmp_path):
        # A merge that writes nothing usable (e.g. all shards predate a
        # CACHE_VERSION bump) must fail here, not downstream at report
        # time with a misleading "no loadable results".
        for source in ("shard1", "shard2"):
            for key in store_keys(shard_caches / source):
                make_stale(shard_caches / source, key)
        dest = tmp_path / "dest"
        with pytest.raises(ReproError, match="nothing to merge"):
            merge_into(
                dest, [shard_caches / "shard1", shard_caches / "shard2"]
            )
        assert not dest.exists()

    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            merge_into(tmp_path / "dest", [tmp_path / "nope"])

    def test_non_list_json_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        with pytest.raises(ReproError, match="row dump"):
            merge_into(tmp_path / "dest", [bad])

    def test_file_destination_rejected(self, shard_caches, tmp_path):
        # Swapping DEST with a dump source must be a clean error, not
        # a SQLite traceback.
        dump = tmp_path / "rows.json"
        dump.write_text("[]", encoding="utf-8")
        with pytest.raises(ReproError, match="not a SQLite store"):
            merge_into(dump, [shard_caches / "shard1"])


class TestDryRun:
    """``merge --dry-run``: full validation, zero writes."""

    def test_dry_run_counts_without_writing(self, shard_caches):
        dest = shard_caches / "merged"
        summary = merge_into(
            dest,
            [shard_caches / "shard1", shard_caches / "shard2"],
            dry_run=True,
        )
        assert summary.dry_run
        assert summary.written == 2
        assert summary.identical == 0
        assert summary.conflicts == ()
        assert "dry-run: would merge" in str(summary)
        assert not dest.exists()

    def test_dry_run_counts_match_the_real_merge(self, shard_caches):
        dest = shard_caches / "merged"
        sources = [shard_caches / "shard1", shard_caches / "shard2"]
        dry = merge_into(dest, sources, dry_run=True)
        wet = merge_into(dest, sources)
        assert (dry.written, dry.identical, dry.skipped) == (
            wet.written, wet.identical, wet.skipped
        )

    def test_dry_run_collects_conflicts_instead_of_raising(
        self, shard_caches
    ):
        _tamper(shard_caches / "shard1", vim_ms=1.0)
        dest = shard_caches / "merged"
        summary = merge_into(
            dest,
            [shard_caches / "shard1", shard_caches / "full"],
            dry_run=True,
        )
        assert len(summary.conflicts) == 1
        assert "conflicting results for config" in str(summary.conflicts[0])
        assert not dest.exists()

    def test_dry_run_leaves_existing_destination_untouched(
        self, shard_caches
    ):
        dest = shard_caches / "merged"
        merge_into(dest, [shard_caches / "shard1"])
        before = payloads(dest)
        summary = merge_into(
            dest, [shard_caches / "shard2"], dry_run=True
        )
        assert summary.written == 1
        assert payloads(dest) == before
