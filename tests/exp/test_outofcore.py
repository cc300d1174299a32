"""Out-of-core guarantees of the store consumers (merge/diff/report).

The streaming rewrites only count if they actually stream: a ~5k-row
SQLite fixture goes through every consumer under two tripwires —

* a **live-row tripwire**: every :class:`CellResult` parsed out of the
  store is tracked by weakref, and at checkpoints during the pass the
  number still alive must stay a small constant.  A regression to
  "load everything, then process" trips it immediately (5k live rows
  vs a bound of 32);
* a **tracemalloc tripwire**: the traced allocation peak of a full
  pass stays far below the store's payload volume.

The fixture rows are synthesised (fast deterministic metrics under
real config hashing) because what is under test is the I/O shape, not
the simulator.
"""

import gc
import tracemalloc
import weakref

import pytest

import repro.exp.store as store_module
from repro.cli import main
from repro.exp.diff import diff_stores
from repro.exp.merge import merge_into
from repro.exp.spec import SweepSpec
from repro.exp.store import open_store
from tests.store_helpers import fake_result

#: Rows in the big fixture.  ~5k distinct cells via the seed axis.
ROWS = 5000

#: Live parsed rows allowed at any checkpoint.  The streaming passes
#: hold one row per source plus a couple of temporaries; materialising
#: the fixture would put ~5000 here.
MAX_LIVE_ROWS = 32

#: Traced allocation ceiling for one full pass (bytes).  The fixture's
#: payloads alone exceed 5 MB, so a pass that loads them all cannot
#: stay under this.
MAX_TRACED_PEAK = 4 * 1024 * 1024

#: The diff's ceiling is higher: its *output* (one lean CellDiff with
#: six MetricDeltas per cell) is O(n) by design, just ~4x smaller than
#: two sides of materialised CellResults — which would blow well past
#: this bound.
MAX_DIFF_TRACED_PEAK = 16 * 1024 * 1024


def _grid(rows: int) -> SweepSpec:
    return SweepSpec(
        apps=("synthetic",), input_bytes=(1024,), seeds=tuple(range(rows))
    )


def _populate(path, configs):
    with open_store(path, create=True) as store:
        for config in configs:
            store.put(fake_result(config))


@pytest.fixture(scope="module")
def big_store(tmp_path_factory):
    """One ~5k-row SQLite store, built once for the whole module."""
    path = tmp_path_factory.mktemp("outofcore") / "big.sqlite"
    _populate(path, _grid(ROWS).expand())
    return path


class _LiveRowTripwire:
    """Weakref-tracks every parsed row; trips if too many stay alive."""

    def __init__(self, real_parse_entry):
        self._parse = real_parse_entry
        self._refs = []
        self.parsed = 0
        self.max_alive = 0

    def __call__(self, payload):
        result = self._parse(payload)
        if result is not None:
            self._refs.append(weakref.ref(result))
            self.parsed += 1
            if self.parsed % 500 == 0:
                self.checkpoint()
        return result

    def checkpoint(self):
        gc.collect()
        alive = sum(1 for ref in self._refs if ref() is not None)
        self.max_alive = max(self.max_alive, alive)
        assert alive <= MAX_LIVE_ROWS, (
            f"{alive} parsed rows alive mid-pass (> {MAX_LIVE_ROWS}): "
            "the consumer is materialising the store"
        )


@pytest.fixture()
def live_rows(monkeypatch):
    """Arm the tripwire on the store layer's payload gatekeeper."""
    tripwire = _LiveRowTripwire(store_module.parse_entry)
    monkeypatch.setattr(store_module, "parse_entry", tripwire)
    return tripwire


class TestOutOfCore:
    def test_report_streams(self, big_store, live_rows, capsys):
        # Exactly what a flat `repro report` runs, output captured.
        tracemalloc.start()
        assert main(["report", "--cache", str(big_store)]) == 0
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        live_rows.checkpoint()
        out = capsys.readouterr().out
        assert live_rows.parsed >= ROWS
        assert out.count("\n") == ROWS + 2  # header + rule + final newline
        assert peak < MAX_TRACED_PEAK

    def test_diff_streams(self, big_store, tmp_path, live_rows):
        # A second store differing in a slice of cells, so the diff
        # has real changes to carry, not just an identical scan.
        other = tmp_path / "other.sqlite"
        _populate(other, _grid(ROWS).expand())
        with open_store(other) as store:
            from dataclasses import replace

            for config in _grid(10).expand():
                row = fake_result(config)
                store.put(replace(row, vim_ms=row.vim_ms * 2.0))
        tracemalloc.start()
        result = diff_stores(big_store, other)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        live_rows.checkpoint()
        assert len(result.cells) == ROWS
        assert sum(1 for cell in result.cells if cell.changed) == 10
        assert result.has_regressions  # vim_ms doubled on 10 cells
        assert peak < MAX_DIFF_TRACED_PEAK

    def test_merge_streams(self, big_store, tmp_path, live_rows):
        # Overlapping shards: rows 0..4999 plus 2500..5499 -> 5500
        # distinct cells, 2500 identical duplicates cross-checked.
        shard = tmp_path / "shard.sqlite"
        _populate(
            shard,
            SweepSpec(
                apps=("synthetic",),
                input_bytes=(1024,),
                seeds=tuple(range(2500, 5500)),
            ).expand(),
        )
        dest = tmp_path / "merged.sqlite"
        tracemalloc.start()
        summary = merge_into(dest, [big_store, shard])
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        live_rows.checkpoint()
        assert summary.written == 5500
        assert summary.identical == 2500
        assert peak < MAX_TRACED_PEAK
        with open_store(dest) as merged:
            assert len(merged) == 5500

