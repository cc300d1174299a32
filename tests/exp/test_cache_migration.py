"""Cache migration behaviour across ``CACHE_VERSION`` bumps.

A version bump (v4 → v5 added the replication summary columns and the
synthetic-pattern fields) must degrade *loudly and legibly*: old
entries of a legacy JSON cache directory classify as
``"stale-version"`` — recognisably "re-run me", never "corrupt" — and
a merge (the import path for such directories) fed nothing but stale
entries fails with an explicit error instead of writing an empty store
that a later report would misdiagnose.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.exp.cache import iter_classified
from repro.exp.cell import run_cell
from repro.exp.merge import merge_into
from repro.exp.spec import CACHE_VERSION, CellConfig
from repro.exp.store import open_store
from tests.store_helpers import write_legacy_dir

#: The previous on-disk schema version, as real pre-bump caches have.
OLD_VERSION = CACHE_VERSION - 1

#: One cheap cell, used wherever a genuine current-version entry or a
#: downgraded copy of one is needed.
CELL = CellConfig(app="vadd", input_bytes=1024)


def _entry_paths(root):
    return sorted(root.glob("*.json"))


@pytest.fixture()
def current_cache(tmp_path):
    """A legacy cache directory holding one current-version entry."""
    return write_legacy_dir(tmp_path / "current", [run_cell(CELL)])


def _downgrade(path) -> None:
    """Rewrite a real entry as its previous-version ancestor."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["version"] = OLD_VERSION
    # Strip the columns the bump introduced, as a real v4 file lacks
    # them (CellResult.from_dict must not be what saves us here —
    # classification happens before the row parse is trusted).
    for column in list(payload["result"]):
        if column.endswith(("_mean", "_cv")):
            del payload["result"][column]
    path.write_text(json.dumps(payload), encoding="utf-8")


class TestClassification:
    def test_old_version_entry_is_stale_not_corrupt(self, current_cache):
        _downgrade(_entry_paths(current_cache)[0])
        [(path, status, result)] = iter_classified(current_cache)
        assert status == "stale-version"
        assert result is None

    def test_minimal_old_payload_is_stale(self, tmp_path):
        # Even a hand-written ancestor with an unparsable result body
        # counts as stale: the version field alone tells the story.
        (tmp_path / "deadbeefdeadbeef.json").write_text(
            json.dumps({"version": OLD_VERSION, "result": {}}),
            encoding="utf-8",
        )
        [(_, status, result)] = iter_classified(tmp_path)
        assert status == "stale-version"
        assert result is None

    def test_corrupt_json_is_invalid_not_stale(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json", encoding="utf-8")
        [(_, status, result)] = iter_classified(tmp_path)
        assert status == "invalid"
        assert result is None

    def test_current_entry_is_ok(self, current_cache):
        [(_, status, result)] = iter_classified(current_cache)
        assert status == "ok"
        assert result is not None


class TestMergeDegradesLoudly:
    def test_all_stale_source_fails_with_explicit_error(
        self, current_cache, tmp_path
    ):
        _downgrade(_entry_paths(current_cache)[0])
        with pytest.raises(ReproError, match="nothing to merge"):
            merge_into(tmp_path / "merged", [current_cache])
        # A failed merge leaves no half-written destination behind.
        assert not (tmp_path / "merged").exists()

    def test_cli_merge_exits_nonzero_on_all_stale(
        self, current_cache, tmp_path, capsys
    ):
        _downgrade(_entry_paths(current_cache)[0])
        with pytest.raises(SystemExit) as excinfo:
            main(["merge", str(tmp_path / "merged"), str(current_cache)])
        assert excinfo.value.code == 2
        assert "nothing to merge" in capsys.readouterr().err

    def test_mixed_merge_skips_stale_and_reports_it(
        self, current_cache, tmp_path
    ):
        stale_dir = write_legacy_dir(tmp_path / "stale", [run_cell(CELL)])
        _downgrade(_entry_paths(stale_dir)[0])
        summary = merge_into(
            tmp_path / "merged", [current_cache, stale_dir]
        )
        assert summary.written == 1
        assert summary.skipped == 1
        # The merged store holds exactly the current-version entry.
        with open_store(tmp_path / "merged") as store:
            [(_, status, result)] = store.iter_classified()
        assert status == "ok"
        assert result is not None
