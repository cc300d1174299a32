"""Tests for cross-run diffing (``repro.exp.diff``).

All stores here are synthetic (hand-written rows stored through the
real :class:`~repro.exp.store.SqliteStore`, no simulation), so each
test controls the injected deltas exactly.  The golden test diffs the
committed row dumps ``tests/exp/fixtures/baseline_rows.json`` and
``report_rows.json`` — regenerate both with
``tools/make_report_fixture.py`` after a ``CACHE_VERSION`` bump.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.exp.diff import (
    DEFAULT_METRICS,
    diff_stores,
    render_diff,
    scalar_delta,
)
from repro.exp.results import COLUMNS, CellResult
from repro.exp.spec import CellConfig
from tests.store_helpers import corrupt, make_stale, store_keys, write_store

FIXTURES = Path(__file__).parent / "fixtures"


def _row(config: CellConfig, vim_ms=1.0, faults=0, dma=0) -> CellResult:
    """A hand-written result row with controllable diff metrics."""
    return CellResult(
        config=config,
        key=config.key(),
        label=config.label(),
        workload="synthetic",
        sw_ms=10.0,
        vim_ms=vim_ms,
        hw_ms=0.5,
        sw_dp_ms=0.3,
        sw_imu_ms=0.02,
        sw_other_ms=0.01,
        vim_speedup=10.0 / vim_ms,
        page_faults=faults,
        compulsory_loads=1,
        evictions=0,
        writebacks=0,
        prefetches=0,
        bytes_to_dpram=1024,
        bytes_from_dpram=1024,
        tlb_hit_rate=1.0,
        dma_transfers=dma,
    )


CONFIGS = [
    CellConfig(app="vadd", input_bytes=1024, policy=policy)
    for policy in ("fifo", "lru")
]


def _write_cache(path, rows):
    return write_store(path, rows)


@pytest.fixture
def identical_caches(tmp_path):
    rows = [_row(config) for config in CONFIGS]
    return (
        _write_cache(tmp_path / "a.sqlite", rows),
        _write_cache(tmp_path / "b.sqlite", rows),
    )


class TestIdenticalRuns:
    def test_empty_diff_and_no_regressions(self, identical_caches):
        result = diff_stores(*identical_caches)
        assert len(result.cells) == len(CONFIGS)
        assert result.changed_cells == ()
        assert result.regressions == ()
        assert not result.has_regressions
        assert result.added == () and result.removed == ()

    def test_renders_all_zero_table(self, identical_caches):
        text = render_diff(diff_stores(*identical_caches))
        for line in text.splitlines()[2:2 + len(CONFIGS)]:
            cells = line.split()
            assert set(cells[1:-1]) == {"0"}
            assert cells[-1] == "ok"
        assert "0 changed, 0 regression(s)" in text

    def test_fingerprints_match(self, identical_caches):
        base, current = diff_stores(*identical_caches).fingerprints()
        assert base == current


class TestToleranceClassification:
    def _diff(self, tmp_path, vim_factor, **kwargs):
        base = [_row(config) for config in CONFIGS]
        current = [
            dataclasses.replace(
                row, vim_ms=row.vim_ms * vim_factor,
                vim_speedup=row.sw_ms / (row.vim_ms * vim_factor),
            )
            for row in base
        ]
        return diff_stores(
            _write_cache(tmp_path / "a.sqlite", base),
            _write_cache(tmp_path / "b.sqlite", current),
            **kwargs,
        )

    def test_exact_by_default_any_drift_is_a_change(self, tmp_path):
        result = self._diff(tmp_path, 1.000001)
        assert len(result.changed_cells) == len(CONFIGS)
        assert result.has_regressions  # vim_ms up = worse

    def test_rtol_straddle(self, tmp_path):
        # +5% vim_ms: invisible at rtol=0.1, a regression at rtol=0.01.
        assert not self._diff(tmp_path, 1.05, rtol=0.1).changed_cells
        tight = self._diff(tmp_path, 1.05, rtol=0.01)
        assert tight.has_regressions
        delta = tight.cells[0].deltas[0]
        assert delta.metric == "vim_ms"
        assert delta.changed and delta.regressed
        assert delta.relative == pytest.approx(0.05)

    def test_atol_straddle(self, tmp_path):
        # +0.05 ms on vim_ms: invisible at atol=0.1, visible at 0.01.
        only_vim = {"metrics": ("vim_ms",)}
        assert not self._diff(tmp_path, 1.05, atol=0.1,
                              **only_vim).changed_cells
        assert self._diff(tmp_path, 1.05, atol=0.01,
                          **only_vim).changed_cells

    def test_improvement_changes_but_never_regresses(self, tmp_path):
        result = self._diff(tmp_path, 0.9)  # faster + higher speedup
        assert len(result.changed_cells) == len(CONFIGS)
        assert not result.has_regressions

    def test_lower_speedup_is_a_regression(self):
        delta = scalar_delta("speedup", 10.0, 9.0, higher_is_worse=False)
        assert delta.changed and delta.regressed
        assert scalar_delta("speedup", 9.0, 10.0,
                            higher_is_worse=False).regressed is False

    def test_directionless_metric_never_gates(self, tmp_path):
        base = [_row(config, dma=4) for config in CONFIGS]
        current = [dataclasses.replace(row, dma_transfers=8) for row in base]
        result = diff_stores(
            _write_cache(tmp_path / "a.sqlite", base),
            _write_cache(tmp_path / "b.sqlite", current),
            metrics=("dma_transfers",),
        )
        assert len(result.changed_cells) == len(CONFIGS)
        assert not result.has_regressions

    def test_negative_tolerance_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="tolerances"):
            self._diff(tmp_path, 1.0, rtol=-0.1)

    def test_unknown_metric_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="metric"):
            self._diff(tmp_path, 1.0, metrics=("warp_factor",))


class TestAddedRemovedStale:
    def test_added_and_removed_cells_reported(self, tmp_path):
        extra = CellConfig(app="vadd", input_bytes=2048)
        base = _write_cache(
            tmp_path / "a.sqlite", [_row(CONFIGS[0]), _row(CONFIGS[1])]
        )
        current = _write_cache(
            tmp_path / "b.sqlite", [_row(CONFIGS[0]), _row(extra)]
        )
        result = diff_stores(base, current)
        assert [r.label for r in result.added] == [extra.label()]
        assert [r.label for r in result.removed] == [CONFIGS[1].label()]
        assert not result.has_regressions  # shape changes never gate
        text = render_diff(result)
        assert "added (current only): vadd-2KB" in text
        assert "removed (baseline only): vadd-1KB/lru" in text
        assert "grids differ" in text

    def test_stale_version_reported_distinctly(self, tmp_path):
        rows = [_row(config) for config in CONFIGS]
        base = _write_cache(tmp_path / "a.sqlite", rows)
        current = _write_cache(tmp_path / "b.sqlite", rows)
        make_stale(base, store_keys(base)[0])
        result = diff_stores(base, current)
        assert result.baseline.stale == 1
        assert result.baseline.invalid == 0
        assert len(result.added) == 1  # its counterpart lost its match
        text = render_diff(result)
        assert "1 stale-version file(s)" in text
        assert "CACHE_VERSION" in text

    def test_invalid_file_reported_separately_from_stale(self, tmp_path):
        rows = [_row(config) for config in CONFIGS]
        base = _write_cache(tmp_path / "a.sqlite", rows)
        current = _write_cache(tmp_path / "b.sqlite", rows)
        corrupt(base, store_keys(base)[0])
        result = diff_stores(base, current)
        assert result.baseline.stale == 0
        assert result.baseline.invalid == 1
        assert "1 invalid file(s)" in render_diff(result)

    def test_all_stale_baseline_is_not_a_regression(self, tmp_path):
        # The CACHE_VERSION-bump escape hatch: nothing comparable, no
        # gate, and the renderer says so.
        rows = [_row(config) for config in CONFIGS]
        base = _write_cache(tmp_path / "a.sqlite", rows)
        current = _write_cache(tmp_path / "b.sqlite", rows)
        for key in store_keys(base):
            make_stale(base, key)
        result = diff_stores(base, current)
        assert result.cells == ()
        assert not result.has_regressions
        assert "no comparable cells" in render_diff(result)


class TestSources:
    def test_json_dump_as_either_side(self, tmp_path):
        rows = [_row(config) for config in CONFIGS]
        cache = _write_cache(tmp_path / "a.sqlite", rows)
        dump = tmp_path / "rows.json"
        dump.write_text(
            json.dumps([row.to_dict() for row in rows]), encoding="utf-8"
        )
        for pair in ((cache, dump), (dump, cache)):
            result = diff_stores(*pair)
            assert len(result.cells) == len(CONFIGS)
            assert not result.changed_cells

    def test_dump_with_conflicting_duplicates_rejected(self, tmp_path):
        row = _row(CONFIGS[0])
        clash = dataclasses.replace(row, vim_ms=row.vim_ms + 1.0)
        dump = tmp_path / "rows.json"
        dump.write_text(
            json.dumps([row.to_dict(), clash.to_dict()]), encoding="utf-8"
        )
        with pytest.raises(ReproError, match="two different results"):
            diff_stores(dump, dump)

    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            diff_stores(tmp_path / "absent", tmp_path / "absent")

    def test_empty_directory_rejected(self, tmp_path):
        # A directory is never a side: a legacy JSON cache is imported
        # with `repro merge` first.
        (tmp_path / "empty").mkdir()
        with pytest.raises(ReproError, match="repro merge"):
            diff_stores(tmp_path / "empty", tmp_path / "empty")

    def test_empty_store_rejected(self, tmp_path):
        empty = write_store(tmp_path / "empty.sqlite", [])
        with pytest.raises(ReproError, match="holds no result rows"):
            diff_stores(empty, empty)

    def test_non_list_dump_rejected(self, tmp_path):
        dump = tmp_path / "rows.json"
        dump.write_text("{}", encoding="utf-8")
        with pytest.raises(ReproError, match="not a SQLite result store"):
            diff_stores(dump, dump)


class TestRendering:
    def test_golden_fixture_diff(self):
        result = diff_stores(FIXTURES / "baseline_rows.json",
                             FIXTURES / "report_rows.json")
        text = render_diff(result, fmt="md")
        golden = (FIXTURES / "diff.md").read_text(encoding="utf-8")
        assert text == golden.rstrip("\n")

    def test_metrics_become_columns(self, identical_caches):
        result = diff_stores(*identical_caches, metrics=("vim_ms", "faults"))
        header = render_diff(result, fmt="md").splitlines()[0]
        assert header == "| cell | Δ vim_ms | Δ faults | status |"

    def test_grouped_rendering_follows_the_diff(self, identical_caches):
        # The diff records its axes, so its table can only be grouped
        # along the axes whose values its cells carry.
        result = diff_stores(*identical_caches, group_by=("policy",))
        assert result.group_by == ("policy",)
        lines = render_diff(result, fmt="md").splitlines()
        assert lines[0].startswith("| policy | cells |")
        assert lines[2].startswith("| fifo | 1 |")

    def test_default_metrics_are_known(self):
        assert set(DEFAULT_METRICS) <= set(COLUMNS)

    def test_csv_is_pure_records(self, tmp_path):
        # csv must stay machine-parseable: the table only, no summary
        # prose, notes, or bars (those are md/ascii furniture).
        import csv as csv_module
        import io

        base = [_row(config) for config in CONFIGS]
        current = [
            dataclasses.replace(row, vim_ms=row.vim_ms * 2) for row in base
        ]
        result = diff_stores(
            _write_cache(tmp_path / "a.sqlite", base),
            _write_cache(tmp_path / "b.sqlite", current),
        )
        ascii_text = render_diff(result, fmt="ascii")
        assert "Δ vim_ms vs baseline:" in ascii_text
        assert "cell(s) compared" in ascii_text
        csv_text = render_diff(result, fmt="csv")
        assert "vs baseline:" not in csv_text
        assert "cell(s) compared" not in csv_text
        parsed = list(csv_module.reader(io.StringIO(csv_text)))
        assert len(parsed) == 1 + len(CONFIGS)
        assert all(len(row) == len(parsed[0]) for row in parsed)

    def test_md_bars_are_fenced(self, tmp_path):
        base = [_row(CONFIGS[0])]
        current = [dataclasses.replace(base[0], vim_ms=2.0)]
        result = diff_stores(
            _write_cache(tmp_path / "a.sqlite", base),
            _write_cache(tmp_path / "b.sqlite", current),
        )
        text = render_diff(result, fmt="md")
        assert "```\nΔ vim_ms vs baseline:" in text
