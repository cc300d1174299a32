"""Tests for grid execution: parallelism, caching, determinism.

The acceptance bar of the sweep engine: ``jobs=N`` output is byte-
identical to serial, re-runs against a cache simulate nothing, and any
two cells with equal configs produce equal results.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp import run_cell, run_sweep
from repro.exp.spec import CellConfig, SweepSpec

#: Small, fault-producing grid: 2 policies x 2 page sizes on 2 KB adpcm.
GRID = SweepSpec(
    apps=("adpcm",),
    input_bytes=(2 * 1024,),
    policies=("fifo", "lru"),
    page_bytes=(512, 1024),
)

#: Hypothesis settings for full-simulation examples.
E2E = settings(max_examples=8, deadline=None)


def _dump(rows) -> bytes:
    return json.dumps(
        [r.to_dict() for r in rows], sort_keys=True
    ).encode("utf-8")


class TestGridExecution:
    def test_rows_follow_grid_order(self):
        result = run_sweep(GRID)
        assert [r.config for r in result.rows] == GRID.expand()
        assert result.executed == 4
        assert result.cached == 0

    def test_parallel_equals_serial_byte_identical(self):
        serial = run_sweep(GRID, jobs=1)
        parallel = run_sweep(GRID, jobs=4)
        assert _dump(serial.rows) == _dump(parallel.rows)

    def test_duplicate_configs_simulated_once(self):
        config = CellConfig(app="vadd", input_bytes=256)
        result = run_sweep([config, config, config])
        assert result.executed == 1
        assert len(result) == 3
        assert result.rows[0] == result.rows[1] == result.rows[2]

    def test_jobs_must_be_positive(self):
        with pytest.raises(Exception):
            run_sweep(GRID, jobs=0)


class TestCaching:
    def test_second_run_simulates_nothing(self, tmp_path):
        store = tmp_path / "store.sqlite"
        first = run_sweep(GRID, jobs=2, cache_dir=store)
        assert first.executed == 4
        second = run_sweep(GRID, jobs=1, cache_dir=store)
        assert second.executed == 0
        assert second.cached == 4
        assert _dump(first.rows) == _dump(second.rows)

    def test_grid_growth_is_incremental(self, tmp_path):
        store = tmp_path / "store.sqlite"
        run_sweep(GRID, cache_dir=store)
        grown = dataclasses.replace(GRID, policies=("fifo", "lru", "random"))
        result = run_sweep(grown, cache_dir=store)
        assert result.cached == 4  # the old cells
        assert result.executed == 2  # only the new policy's cells


class TestDeterminism:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        elements=st.integers(min_value=1, max_value=256),
        policy=st.sampled_from(["fifo", "lru", "random", "second-chance"]),
    )
    @E2E
    def test_equal_configs_produce_equal_results(self, seed, elements, policy):
        config = CellConfig(
            app="vadd", input_bytes=elements * 4, seed=seed, policy=policy
        )
        first = run_cell(config)
        second = run_cell(config)
        assert first == second
        assert first.to_dict() == second.to_dict()
