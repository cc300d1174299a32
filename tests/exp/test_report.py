"""Tests for store-driven reporting (``repro.exp.report``).

Golden-output tests render the committed fixture rows
(``tests/exp/fixtures/report_rows.json``, a ``repro sweep --json``
dump written by ``tools/make_report_fixture.py``), merged into a
SQLite store, through ``repro report`` itself, and compare
byte-for-byte against the committed golden files — if
``CACHE_VERSION`` is ever bumped, the fixture goes stale and these
tests fail until the regeneration script is re-run (one command; see
the tool's docstring).

The end-to-end class asserts the PR's acceptance criterion: a report
rendered from two merged shard stores is byte-identical to the report
of a single unsharded run.
"""

import random
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.exp import run_sweep
from repro.exp.cache import iter_dump_rows
from repro.exp.merge import merge_into
from repro.exp.report import (
    FORMATS,
    load_cache_rows,
    render_report,
    render_table,
)
from repro.exp.spec import SweepSpec, shard_cells
from tests.store_helpers import (
    corrupt,
    execute,
    make_stale,
    store_keys,
    write_legacy_dir,
    write_store,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _golden(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8").rstrip("\n")


def _fixture_rows(name: str = "report_rows.json"):
    return [row for _origin, row in iter_dump_rows(FIXTURES / name)]


@pytest.fixture(scope="module")
def fixture_stores(tmp_path_factory):
    """The committed fixture dumps merged into (current, baseline) stores."""
    root = tmp_path_factory.mktemp("fixtures")
    stores = (root / "report.sqlite", root / "baseline.sqlite")
    for store, dump in zip(stores, ("report_rows.json", "baseline_rows.json")):
        merge_into(store, [FIXTURES / dump])
    return stores


def _report(capsys, *argv) -> str:
    """``repro report ARGV``'s stdout, minus the final newline."""
    assert main(["report", *map(str, argv)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return out[:-1]


class TestGoldenOutputs:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_flat_report_matches_golden(self, fmt, fixture_stores, capsys):
        text = _report(capsys, "--cache", fixture_stores[0], "--format", fmt)
        assert text == _golden(f"report.{fmt}")

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_grouped_report_matches_golden(self, fmt, fixture_stores, capsys):
        text = _report(
            capsys, "--cache", fixture_stores[0],
            "--group-by", "policy", "--format", fmt,
        )
        assert text == _golden(f"report_by_policy.{fmt}")

    def test_rendering_order_is_canonical(self):
        rows = _fixture_rows()
        shuffled = rows[:]
        random.Random(7).shuffle(shuffled)
        assert render_report(shuffled) == render_report(rows)

    def test_baseline_annotated_report_matches_golden(
        self, fixture_stores, capsys
    ):
        current, baseline = fixture_stores
        text = _report(capsys, "--cache", current, "--baseline", baseline)
        assert text == _golden("report_vs_baseline.md")
        # The library path renders the same bytes.
        assert render_report(
            load_cache_rows(current).rows,
            baseline=load_cache_rows(baseline).rows,
        ) == text

    def test_no_baseline_is_byte_identical_to_pre_feature_output(
        self, fixture_stores
    ):
        # baseline=None must not perturb the historical golden bytes.
        rows = load_cache_rows(fixture_stores[0]).rows
        assert render_report(rows, fmt="md") == _golden("report.md")

    def test_legacy_directory_import_renders_the_golden_report(
        self, tmp_path, capsys
    ):
        # A legacy JSON cache directory (one <key>.json per cell) is
        # imported with `repro merge NEW.sqlite DIR`; the imported
        # store reports exactly the rows the directory held.
        legacy = write_legacy_dir(tmp_path / "legacy", _fixture_rows())
        assert main(["merge", str(tmp_path / "new.sqlite"), str(legacy)]) == 0
        assert "4 written" in capsys.readouterr().out
        text = _report(capsys, "--cache", tmp_path / "new.sqlite")
        assert text == _golden("report.md")


class TestCacheLoading:
    def test_rows_sorted_by_label_then_key(self, fixture_stores):
        loaded = load_cache_rows(fixture_stores[0])
        order = [(r.label, r.key) for r in loaded.rows]
        assert order == sorted(order)
        assert loaded.skipped == 0

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            load_cache_rows(tmp_path / "absent")

    def test_empty_directory_rejected(self, tmp_path):
        # A directory is never a store: a legacy JSON cache is imported
        # with `repro merge` first.
        (tmp_path / "cache").mkdir()
        with pytest.raises(ReproError, match="repro merge"):
            load_cache_rows(tmp_path / "cache")

    def test_empty_store_rejected(self, tmp_path):
        write_store(tmp_path / "cache.sqlite", [])
        with pytest.raises(ReproError, match="no loadable"):
            load_cache_rows(tmp_path / "cache.sqlite")

    def test_allow_empty_returns_no_rows(self, tmp_path):
        # The baseline loader's degradation path: an empty or all-stale
        # store means "nothing to compare", not a failed report.
        write_store(tmp_path / "cache.sqlite", [])
        loaded = load_cache_rows(tmp_path / "cache.sqlite", allow_empty=True)
        assert loaded.rows == () and loaded.skipped == 0

    def test_stale_and_corrupt_entries_skipped(self, tmp_path):
        store = write_store(tmp_path / "cache.sqlite", _fixture_rows())
        good = load_cache_rows(store)
        # Break one entry's version and another's JSON.
        keys = store_keys(store)
        make_stale(store, keys[0])
        corrupt(store, keys[1])
        degraded = load_cache_rows(store)
        assert degraded.skipped == 2
        assert len(degraded.rows) == len(good.rows) - 2

    def test_renamed_entry_fails_hash_check(self, tmp_path):
        store = write_store(tmp_path / "cache.sqlite", _fixture_rows())
        execute(
            store,
            "UPDATE results SET key = '0000000000000000' WHERE key = ?",
            (store_keys(store)[0],),
        )
        assert load_cache_rows(store).skipped == 1


def _synthetic_row(config, index=0):
    """A hand-written CellResult (no simulation) for rendering tests."""
    from repro.exp.results import CellResult

    return CellResult(
        config=config,
        key=config.key(),
        label=config.label(),
        workload="synthetic",
        sw_ms=10.0,
        vim_ms=1.0 + index,
        hw_ms=0.5,
        sw_dp_ms=0.3,
        sw_imu_ms=0.02,
        sw_other_ms=0.01,
        vim_speedup=10.0 / (1.0 + index),
        page_faults=index,
        compulsory_loads=1,
        evictions=0,
        writebacks=0,
        prefetches=0,
        bytes_to_dpram=1024,
        bytes_from_dpram=1024,
        tlb_hit_rate=1.0,
    )


class TestGrouping:
    def test_numeric_axes_group_in_numeric_order(self):
        from repro.exp.spec import CellConfig

        rows = [
            _synthetic_row(CellConfig(page_bytes=page), index)
            for index, page in enumerate((512, 1024, 2048))
        ]
        text = render_report(rows, group_by=("page_bytes",), fmt="md")
        positions = [text.index(f"page_bytes={p}") for p in (512, 1024, 2048)]
        assert positions == sorted(positions)

    def test_none_axis_values_group_first(self):
        from repro.exp.spec import CellConfig

        rows = [
            _synthetic_row(CellConfig(page_bytes=1024), 0),
            _synthetic_row(CellConfig(), 1),  # page_bytes=None (preset)
        ]
        text = render_report(rows, group_by=("page_bytes",), fmt="md")
        assert text.index("page_bytes=None") < text.index("page_bytes=1024")

    def test_baseline_annotations(self):
        import csv as csv_module
        import io

        from repro.exp.spec import CellConfig

        configs = [CellConfig(), CellConfig(policy="lru")]
        current = [_synthetic_row(configs[0], 0), _synthetic_row(configs[1], 1)]
        baseline = [_synthetic_row(configs[0], 2)]  # lru cell is new
        text = render_report(current, fmt="csv", baseline=baseline)
        header, base_kept, new = csv_module.reader(io.StringIO(text))
        vim = header.index("VIM ms")
        assert base_kept[vim] == "1.000 (-2.000, -66.7%)"
        assert new[vim] == "2.000 (new)"

    def test_baseline_equal_cells_annotated_as_equal(self):
        from repro.exp.spec import CellConfig

        rows = [_synthetic_row(CellConfig())]
        text = render_report(rows, fmt="md", baseline=rows)
        assert "1.000 (=)" in text

    def test_baseline_only_cells_listed_after_tables(self):
        from repro.exp.spec import CellConfig

        kept = _synthetic_row(CellConfig())
        gone = _synthetic_row(CellConfig(policy="lru"), 1)
        text = render_report([kept], fmt="md", baseline=[kept, gone])
        assert text.endswith(
            "1 baseline cell(s) absent from this cache: adpcm-8KB/lru"
        )

    def test_baseline_csv_stays_pure_records(self):
        # The prose trailer would corrupt a CSV consumer; annotations
        # ride inside quoted fields instead.
        import csv as csv_module
        import io

        from repro.exp.spec import CellConfig

        kept = _synthetic_row(CellConfig())
        gone = _synthetic_row(CellConfig(policy="lru"), 1)
        text = render_report([kept], fmt="csv", baseline=[kept, gone])
        assert "absent from this cache" not in text
        parsed = list(csv_module.reader(io.StringIO(text)))
        assert len(parsed) == 2  # header + the one current row
        assert all(len(row) == len(parsed[0]) for row in parsed)


class TestValidation:
    def test_unknown_format_rejected(self):
        rows = _fixture_rows()
        with pytest.raises(ReproError, match="format"):
            render_report(rows, fmt="pdf")

    def test_unknown_group_axis_rejected(self):
        rows = _fixture_rows()
        with pytest.raises(ReproError, match="axis"):
            render_report(rows, group_by=("colour",))

    def test_render_table_rejects_unknown_format(self):
        with pytest.raises(ReproError, match="format"):
            render_table(["a"], [[1]], fmt="html")

    def test_csv_grouping_is_flat_with_leading_axes(self):
        rows = _fixture_rows()
        text = render_report(rows, group_by=("policy",), fmt="csv")
        lines = text.splitlines()
        assert lines[0].startswith("policy,")
        assert len(lines) == 1 + len(rows)


class TestEndToEnd:
    #: Fast 2-cell grid for the real-simulation acceptance check.
    GRID = SweepSpec(
        apps=("vadd",), input_bytes=(1024,), policies=("fifo", "lru")
    )

    def test_sharded_merge_report_byte_identical_to_unsharded(self, tmp_path):
        cells = self.GRID.expand()
        for index in (1, 2):
            run_sweep(
                shard_cells(cells, index, 2),
                cache_dir=tmp_path / f"shard{index}.sqlite",
            )
        run_sweep(self.GRID, cache_dir=tmp_path / "full.sqlite")
        merge_into(
            tmp_path / "merged.sqlite",
            [tmp_path / "shard1.sqlite", tmp_path / "shard2.sqlite"],
        )
        for fmt in FORMATS:
            merged = render_report(
                load_cache_rows(tmp_path / "merged.sqlite").rows, fmt=fmt
            )
            unsharded = render_report(
                load_cache_rows(tmp_path / "full.sqlite").rows, fmt=fmt
            )
            assert merged == unsharded, fmt
