"""STORE — SQLite result-store throughput.

Times the store layer itself, not the simulator: synthetic rows under
real config hashing are written, read back, and rendered through the
streaming flat report at 1k and 10k cells.  Every ``extra_info`` key
is ``wall_``-prefixed on purpose: store throughput is harness wall
time on shared CI runners, so ``tools/bench_diff.py`` reports these
numbers but never gates on them (the byte-identity and out-of-core
guarantees are gated by the tier-1 suite instead).
"""

import io
import time
import tracemalloc

import pytest
from conftest import emit

from repro.exp.report import render_table, write_report
from repro.exp.results import CellResult
from repro.exp.spec import SweepSpec
from repro.exp.store import open_store


def _fake_result(config) -> CellResult:
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


def _rows(cells: int):
    spec = SweepSpec(
        apps=("synthetic",), input_bytes=(1024,), seeds=tuple(range(cells))
    )
    return [_fake_result(config) for config in spec.expand()]


def _exercise(path, rows):
    """One full store lifecycle; returns per-phase wall seconds."""
    timings = {}
    start = time.perf_counter()
    with open_store(path, create=True) as store:
        for row in rows:
            store.put(row)
    timings["store"] = time.perf_counter() - start
    start = time.perf_counter()
    with open_store(path) as store:
        loaded = sum(1 for _ in store.iter_rows())
    timings["load"] = time.perf_counter() - start
    assert loaded == len(rows)
    start = time.perf_counter()
    tracemalloc.start()
    with open_store(path) as store:
        write_report(store, io.StringIO(), fmt="md")
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    timings["report"] = time.perf_counter() - start
    timings["report_peak_kb"] = peak / 1024
    return timings


@pytest.mark.parametrize("cells", [1000, 10000])
def test_store_throughput(benchmark, tmp_path, cells):
    rows = _rows(cells)
    path = tmp_path / "bench.sqlite"

    timings = benchmark.pedantic(
        _exercise, args=(path, rows), rounds=1, iterations=1
    )
    emit(
        f"STORE: SQLite, {cells} cells",
        render_table(
            ["phase", "wall s"],
            [["store", f"{timings['store']:.3f}"],
             ["load", f"{timings['load']:.3f}"],
             ["report", f"{timings['report']:.3f}"],
             ["report peak KB", f"{timings['report_peak_kb']:.0f}"]],
        ),
    )
    benchmark.extra_info["wall_store_s"] = round(timings["store"], 4)
    benchmark.extra_info["wall_load_s"] = round(timings["load"], 4)
    benchmark.extra_info["wall_report_s"] = round(timings["report"], 4)
    benchmark.extra_info["wall_report_peak_kb"] = round(
        timings["report_peak_kb"], 1
    )
