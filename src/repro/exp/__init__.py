"""The sweep/scenario engine: every experiment is a grid of cells.

The paper's evaluation is a design space — {workload} x {input size} x
{page size} x {policy} x {transfer mode} x {prefetch} x {TLB capacity}
x {SoC} — and each point of it is an independent, deterministic
simulation.  This package makes that structure first-class:

* :class:`~repro.exp.spec.CellConfig` — one grid point, a frozen
  bag of primitives (picklable, hashable, JSON-serialisable);
* :class:`~repro.exp.spec.SweepSpec` — a declarative axes product
  that expands to a list of cells;
* :func:`~repro.exp.cell.run_cell` — execute one cell (software
  reference, VIM-based run, optionally the typical coprocessor);
* :func:`~repro.exp.sweep.run_sweep` — execute a whole grid across a
  ``multiprocessing`` pool, with an incremental result store keyed by
  config hash;
* :mod:`~repro.exp.store` — the result store: one append-only SQLite
  file, :class:`~repro.exp.store.SqliteStore`;
* :func:`~repro.exp.spec.shard_cells` — deterministic cross-machine
  grid partitioning (``repro sweep --shard I/N``);
* :mod:`~repro.exp.merge` — recombine shard stores / row dumps (and
  import legacy JSON cache directories) into one store as key-sorted
  streams, with conflict detection;
* :mod:`~repro.exp.report` — render the paper's tables straight from
  a result store, no re-simulation (``repro report``);
* :mod:`~repro.exp.record` — run one cell under a trace recorder and
  write its address-trace file (``repro record``), replayable as the
  ``trace`` app;
* :mod:`~repro.exp.diff` — compare two stores into a typed regression
  table with tolerance-gated exit semantics (``repro diff``), per
  cell or aggregated per axis group (``--group-by``);
* :mod:`~repro.exp.history` — per-run metric time series over an
  append-only store (``repro history``);
* :mod:`~repro.exp.leasing`, :mod:`~repro.exp.service` and
  :mod:`~repro.exp.worker` — the distributed executor: an HTTP
  coordinator that dedups submissions against its store and leases
  novel cells to a fault-tolerant pull-based worker pool
  (``repro serve`` / ``repro worker`` / ``repro submit``);
* :mod:`~repro.exp.api` — the paper's figure/ablation drivers as thin
  sweeps over this engine.

Adding a scenario to the repository means adding an axis value here,
not writing a new driver file.
"""

from repro.exp.api import (
    Figure7Result,
    ablation_page_size,
    ablation_pipelined,
    ablation_policies,
    ablation_prefetch,
    ablation_tlb_capacity,
    ablation_transfers,
    contention,
    figure7,
    figure8,
    figure9,
    imu_overhead_rows,
    portability,
    translation_overhead,
)
from repro.exp.cell import build_tenant_workloads, run_cell
from repro.exp.diff import (
    DiffResult,
    MetricDelta,
    diff_stores,
    render_diff,
    scalar_delta,
)
from repro.exp.history import (
    HistoryResult,
    HistorySeries,
    load_history,
    render_history,
)
from repro.exp.merge import (
    MergeConflict,
    MergeSummary,
    merge_into,
)
from repro.exp.record import RecordOutcome, record_cell
from repro.exp.report import (
    FORMATS,
    delta_bar_chart,
    load_cache_rows,
    render_report,
    render_table,
    stacked_bar_chart,
    write_report,
)
from repro.exp.results import CellResult
from repro.exp.spec import (
    CellConfig,
    SweepSpec,
    config_hash,
    grid_fingerprint,
    shard_cells,
)
from repro.exp.store import (
    RunRecord,
    SqliteStore,
    StoreCounts,
    open_store,
)
from repro.exp.sweep import SweepResult, run_sweep

__all__ = [
    "CellConfig",
    "CellResult",
    "DiffResult",
    "FORMATS",
    "Figure7Result",
    "HistoryResult",
    "HistorySeries",
    "MergeConflict",
    "MergeSummary",
    "MetricDelta",
    "RecordOutcome",
    "RunRecord",
    "SqliteStore",
    "StoreCounts",
    "SweepResult",
    "SweepSpec",
    "ablation_page_size",
    "ablation_pipelined",
    "ablation_policies",
    "ablation_prefetch",
    "ablation_tlb_capacity",
    "ablation_transfers",
    "build_tenant_workloads",
    "config_hash",
    "contention",
    "delta_bar_chart",
    "diff_stores",
    "figure7",
    "figure8",
    "figure9",
    "grid_fingerprint",
    "imu_overhead_rows",
    "load_cache_rows",
    "load_history",
    "merge_into",
    "open_store",
    "portability",
    "record_cell",
    "render_diff",
    "render_history",
    "render_report",
    "render_table",
    "run_cell",
    "run_sweep",
    "scalar_delta",
    "shard_cells",
    "stacked_bar_chart",
    "translation_overhead",
    "write_report",
]
