#!/usr/bin/env python
"""Regenerate the committed fixture row dumps and golden outputs.

Run from the repository root::

    PYTHONPATH=src python tools/make_report_fixture.py

Everything it writes lives under ``tests/exp/fixtures/`` in the
``repro sweep --json`` row-dump format, so the expected bytes live in
git and a refresh shows up as a reviewable diff.  Two kinds of dump:

* **Report fixtures** (``report_rows.json``, ``baseline_rows.json`` and
  the rendered goldens).  The report, diff and history golden tests
  (``tests/exp/test_report.py``, ``tests/exp/test_diff.py``,
  ``tests/exp/test_cli_goldens.py``) render tables from these rows.
  The rows are synthetic — deterministic hand-written numbers, no
  simulation — so the goldens never depend on simulation timing.
* **Golden rows** (``golden_rows.json``): real simulated rows for a
  fixed corpus of configurations (:func:`golden_configs`).
  ``tests/exp/test_golden_rows.py`` re-runs every config and requires
  the fresh row to equal the committed one field for field, which makes
  the corpus the oracle for refactors of the simulation spine.  A
  change that moves a golden row changes what the simulator computes;
  regenerating the file is then a deliberate, reviewed decision.
  The last row replays ``golden_trace.gz``, a trace the script records
  from :data:`TRACE_SOURCE` first; that row stores its ``trace_path``
  relative to the fixture directory.

Every row carries its real config hash, which embeds
:data:`~repro.exp.spec.CACHE_VERSION`.  Consequently, **whenever
``CACHE_VERSION`` is bumped** (or a ``CellConfig``/``CellResult`` field
changes), the committed dumps go stale and the golden tests fail.  The
fix is one command: re-run this script and commit the refreshed
``tests/exp/fixtures/`` tree alongside the bump.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import sqlite3
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import build_parser, main as repro_main, spec_from_args  # noqa: E402
from repro.exp.cache import iter_dump_rows  # noqa: E402
from repro.exp.cell import run_cell  # noqa: E402
from repro.exp.diff import diff_stores, render_diff  # noqa: E402
from repro.exp.merge import merge_into  # noqa: E402
from repro.exp.record import record_cell  # noqa: E402
from repro.exp.report import render_report  # noqa: E402
from repro.exp.results import CellResult  # noqa: E402
from repro.exp.spec import CellConfig  # noqa: E402
from repro.exp.store import open_store  # noqa: E402

FIXTURE_DIR = REPO_ROOT / "tests" / "exp" / "fixtures"
ROWS_DUMP = FIXTURE_DIR / "report_rows.json"
BASELINE_DUMP = FIXTURE_DIR / "baseline_rows.json"
GOLDEN_DUMP = FIXTURE_DIR / "golden_rows.json"
GOLDEN_TRACE = FIXTURE_DIR / "golden_trace.gz"

#: The fixture grid: 2 apps x 2 policies at 4 KB.
GRID = [
    CellConfig(app=app, input_bytes=4 * 1024, policy=policy)
    for app in ("adpcm", "idea")
    for policy in ("fifo", "lru")
]

#: Golden renderings the tests compare byte-for-byte.
GOLDENS = {
    "report.md": {"fmt": "md", "group_by": ()},
    "report.csv": {"fmt": "csv", "group_by": ()},
    "report.ascii": {"fmt": "ascii", "group_by": ()},
    "report_by_policy.md": {"fmt": "md", "group_by": ("policy",)},
    "report_by_policy.csv": {"fmt": "csv", "group_by": ("policy",)},
}

#: Goldens of the command line: ``repro ARGV``'s stdout, run in a
#: directory holding the stores :func:`write_fixture_stores` builds.
CLI_GOLDENS = {
    "diff.ascii": "diff baseline.sqlite report.sqlite --format ascii",
    "diff_by_policy.md":
        "diff baseline.sqlite report.sqlite --group-by policy --format md",
    "diff_by_policy.ascii":
        "diff baseline.sqlite report.sqlite --group-by policy",
    "diff_by_app_policy.md":
        "diff baseline.sqlite report.sqlite --group-by app policy "
        "--format md",
    "diff_by_app_policy.ascii":
        "diff baseline.sqlite report.sqlite --group-by app policy",
    "diff_cv.md": "diff baseline.sqlite report.sqlite --bands cv --format md",
    "diff_metrics.md":
        "diff baseline.sqlite report.sqlite --metric typical_ms prefetches "
        "tlb_hit_rate vim_speedup_mean vim_ms_cv --format md",
    "report_by_policy.ascii":
        "report --cache report.sqlite --group-by policy --format ascii",
    "report_by_policy_vs_baseline.md":
        "report --cache report.sqlite --baseline baseline.sqlite "
        "--group-by policy",
    "history.md": "history vim_ms history.sqlite --format md",
    "history.ascii": "history vim_ms history.sqlite",
}


#: Hand-picked golden configurations, each covering a mechanism whose
#: event order is easy to disturb: dual-domain IDEA, TLB pressure
#: (faults and evictions mid-run), DMA one-shot completions racing
#: clock edges, overlapped prefetch, the pipelined IMU's different
#: translation latency, and the multi-tenant session interleaving
#: (clock stop/start per interrupt).
CURATED = [
    CellConfig(app="adpcm", input_bytes=2 * 1024),
    CellConfig(app="adpcm", input_bytes=4 * 1024, policy="lru", tlb_capacity=4),
    CellConfig(app="idea", input_bytes=2 * 1024),
    CellConfig(app="vadd", input_bytes=4 * 1024, transfer="dma"),
    CellConfig(
        app="vadd", input_bytes=4 * 1024,
        prefetch="overlapped", prefetch_depth=2, transfer="dma",
    ),
    CellConfig(app="adpcm", input_bytes=2 * 1024, pipelined_imu=True),
    CellConfig(app="adpcm", input_bytes=2 * 1024, with_typical=True),
    CellConfig(
        app="adpcm", input_bytes=2 * 1024,
        tenants=2, tenant_mix="adpcm+idea", tenant_repeats=2,
    ),
    # The synthetic app: the only workload whose access pattern is
    # non-sequential and phase-changing, so faults land at irregular
    # word offsets.  The DP-RAM override forces faulting at small
    # (fast) input sizes.
    CellConfig(app="synthetic", input_bytes=4 * 1024),
    CellConfig(
        app="synthetic", input_bytes=8 * 1024,
        dpram_bytes=4 * 1024, page_bytes=1024, policy="lru",
        syn_locality_pct=60, syn_read_pct=50, syn_phases=3,
    ),
    CellConfig(
        app="synthetic", input_bytes=8 * 1024,
        dpram_bytes=4 * 1024, page_bytes=512, transfer="dma",
        syn_stride=5, syn_read_pct=0,
    ),
    # tenant_repeats stays 1: the synthetic data object is INOUT, and
    # run_tenants refuses to repeat INOUT workloads (exec N+1 would see
    # exec N's writes, which the one-shot reference cannot model).
    CellConfig(
        app="synthetic", input_bytes=4 * 1024,
        dpram_bytes=4 * 1024, tenants=2,
        tenant_mix="synthetic+adpcm",
    ),
]

#: The CI smoke design space: the ``SMOKE_GRID`` and
#: ``SMOKE_SCHED_CELL`` sweep flags of ``.github/workflows/ci.yml``.
SMOKE_FLAGS = (
    "--app adpcm --kb 2 --policy fifo lru --page 1024 2048 "
    "--transfer double dma",
    "--app adpcm --kb 2 --tenants 2 --tenant-mix adpcm:2+idea "
    "--sched priority",
)


def random_configs(count: int) -> list[CellConfig]:
    """A seeded sample of the axis space (small inputs, fast to run).

    The seed is fixed so the sample is reproducible, but it still
    sweeps corners no one thought to hand-pick.  Keep the generator
    stable: appending new axes is fine, reordering draws is not.
    """
    rng = random.Random(0xD47E2004)
    configs = []
    while len(configs) < count:
        tenants = rng.choice([1, 1, 1, 2])
        config = CellConfig(
            app=rng.choice(("adpcm", "idea", "vadd")),
            input_bytes=rng.choice((1024, 2048, 4096)),
            seed=rng.randrange(1, 100),
            policy=rng.choice(("fifo", "lru")),
            transfer=rng.choice(("double", "single", "dma")),
            prefetch=rng.choice(("none", "sequential", "overlapped")),
            tlb_capacity=rng.choice((None, 4, 8)),
            pipelined_imu=rng.random() < 0.25,
            tenants=tenants,
            tenant_repeats=rng.choice((1, 2)) if tenants > 1 else 1,
        )
        configs.append(config)
    return configs


def random_synthetic_configs(count: int) -> list[CellConfig]:
    """A seeded sample of the synthetic-pattern axes.

    Separate generator (own seed) so adding synthetic draws cannot
    perturb the :func:`random_configs` sample; same stability rule —
    append draws, never reorder them.
    """
    rng = random.Random(0x5E9D47E2)
    configs = []
    while len(configs) < count:
        configs.append(CellConfig(
            app="synthetic",
            input_bytes=rng.choice((2048, 4096, 8192)),
            seed=rng.randrange(1, 100),
            dpram_bytes=rng.choice((None, 4096)),
            page_bytes=rng.choice((None, 512, 1024)),
            policy=rng.choice(("fifo", "lru")),
            transfer=rng.choice(("double", "single", "dma")),
            syn_stride=rng.choice((1, 3, 7)),
            syn_locality_pct=rng.choice((0, 50, 80, 100)),
            syn_read_pct=rng.choice((0, 50, 70, 100)),
            syn_phases=rng.choice((1, 2, 4)),
        ))
    return configs


def smoke_configs() -> list[CellConfig]:
    """The CI smoke cells, expanded exactly as ``repro sweep`` would."""
    parser = build_parser()
    cells = []
    for flags in SMOKE_FLAGS:
        spec = spec_from_args(parser.parse_args(["sweep", *flags.split()]))
        cells.extend(spec.expand())
    return cells


#: Event-order corners the lists above miss: faults in the dual-domain
#: IDEA system (alone and racing DMA completions), translation latencies
#: other than four cycles, the pipelined and typical IDEA versions, and
#: contended cells that fault mid-run under a mixed-domain tenant mix
#: and weighted scheduling.
EVENT_ORDER = [
    CellConfig(app="idea", input_bytes=4 * 1024, dpram_bytes=4 * 1024),
    CellConfig(
        app="idea", input_bytes=4 * 1024, dpram_bytes=4 * 1024,
        transfer="dma", prefetch="overlapped",
    ),
    CellConfig(app="idea", input_bytes=2 * 1024, access_cycles=6),
    CellConfig(app="idea", input_bytes=2 * 1024, pipelined_imu=True),
    CellConfig(app="idea", input_bytes=2 * 1024, with_typical=True),
    CellConfig(app="adpcm", input_bytes=2 * 1024, access_cycles=2),
    CellConfig(
        app="adpcm", input_bytes=2 * 1024, dpram_bytes=4 * 1024,
        policy="lru", access_cycles=3,
    ),
    CellConfig(
        app="idea", input_bytes=4 * 1024, dpram_bytes=4 * 1024,
        tenants=2, tenant_mix="adpcm+idea",
    ),
    CellConfig(
        app="synthetic", input_bytes=4 * 1024, dpram_bytes=4 * 1024,
        tenants=3, tenant_mix="synthetic:2+adpcm", sched="wrr",
    ),
    # 2 048 faults whose OS service lasts far longer than the fabric
    # livelock budget: the guard must count hardware windows only.
    CellConfig(
        app="adpcm", input_bytes=2 * 1024, dpram_bytes=4 * 1024,
        prefetch="aggressive",
    ),
]

#: TLB-state corners: second-chance, the one policy that writes through
#: TLB entries (it clears their reference bits), on sequential, random
#: and contended cells; and a TLB smaller than the frame count, whose
#: refills take the displacement and shadow-dirty paths, alone and
#: with two tenants sharing the TLB.
TLB_STATE = [
    CellConfig(
        app="adpcm", input_bytes=4 * 1024, dpram_bytes=4 * 1024,
        policy="second-chance",
    ),
    CellConfig(
        app="synthetic", input_bytes=8 * 1024, dpram_bytes=4 * 1024,
        page_bytes=512, policy="second-chance",
        syn_locality_pct=50, syn_read_pct=50,
    ),
    CellConfig(
        app="synthetic", input_bytes=8 * 1024, dpram_bytes=4 * 1024,
        page_bytes=512, policy="lru", tlb_capacity=4, syn_read_pct=30,
    ),
    CellConfig(
        app="synthetic", input_bytes=4 * 1024, dpram_bytes=4 * 1024,
        tenants=2, policy="second-chance",
    ),
    CellConfig(
        app="synthetic", input_bytes=4 * 1024, dpram_bytes=4 * 1024,
        page_bytes=512, tenants=2, tenant_mix="synthetic+adpcm",
        policy="lru", tlb_capacity=4,
    ),
]


#: The portability claim of §4 on the larger presets: the paper-size
#: adpcm and IDEA cells on the EPXA4 and EPXA10, whose bigger DP-RAM
#: absorbs more of the working set.
SOC_PRESETS = [
    CellConfig(app=app, input_bytes=kb * 1024, soc=soc)
    for soc in ("EPXA4", "EPXA10")
    for app, kb in (("adpcm", 8), ("idea", 32))
]


#: The ``random`` policy with evictions, solo and contended.  It picks
#: its victim by index into the VIM's candidate list, so these rows pin
#: that list's order (ascending frame number), which no other policy
#: observes.
RANDOM_EVICTION = [
    CellConfig(
        app="synthetic", input_bytes=8 * 1024, dpram_bytes=4 * 1024,
        page_bytes=512, policy="random",
        syn_locality_pct=50, syn_read_pct=50,
    ),
    CellConfig(
        app="idea", input_bytes=4 * 1024, dpram_bytes=4 * 1024,
        tenants=2, tenant_mix="adpcm+idea", policy="random",
    ),
]


#: The cell recorded to ``golden_trace.gz``.
TRACE_SOURCE = CellConfig(app="synthetic", input_bytes=4 * 1024, seed=1)


def golden_configs() -> list[CellConfig]:
    """The golden corpus, in dump order (new lists go at the end)."""
    return (
        CURATED
        + random_configs(4)
        + random_synthetic_configs(4)
        + smoke_configs()
        + EVENT_ORDER
        + TLB_STATE
        + SOC_PRESETS
        + RANDOM_EVICTION
    )


def trace_replay_row() -> CellResult:
    """Record :data:`TRACE_SOURCE` and replay it: the trace app's row.

    The replay runs on 512 B pages in a 2 KB DP-RAM, where it faults
    and evicts.
    """
    record_cell(TRACE_SOURCE, GOLDEN_TRACE, force=True)
    config = CellConfig(
        app="trace", trace_path=str(GOLDEN_TRACE), page_bytes=512, dpram_bytes=2048
    )
    row = run_cell(config)
    relative = dataclasses.replace(config, trace_path=GOLDEN_TRACE.name)
    return dataclasses.replace(row, config=relative)


def synthetic_result(config: CellConfig, index: int) -> CellResult:
    """A deterministic hand-written row for one fixture config."""
    base = 1.0 + index * 0.25
    hw = base * 0.5
    sw_dp = base * 0.3
    sw_imu = base * 0.02
    sw_other = base * 0.01
    vim = hw + sw_dp + sw_imu + sw_other
    sw = base * 10.0
    return CellResult(
        config=config,
        key=config.key(),
        label=config.label(),
        workload=f"{config.app}-fixture",
        sw_ms=sw,
        vim_ms=vim,
        hw_ms=hw,
        sw_dp_ms=sw_dp,
        sw_imu_ms=sw_imu,
        sw_other_ms=sw_other,
        vim_speedup=sw / vim,
        page_faults=3 * index,
        compulsory_loads=2,
        evictions=index,
        writebacks=index // 2,
        prefetches=0,
        bytes_to_dpram=4096 * (index + 1),
        bytes_from_dpram=4096,
        tlb_hit_rate=0.9,
    )


def baseline_result(row: CellResult, index: int) -> CellResult | None:
    """The baseline variant of one fixture row.

    Deliberately exercises every diff classification: row 0 is
    identical, row 1's baseline is *faster* (so the current row reads
    as a regression), row 2's baseline has *more* faults (so the
    current row reads as an improvement), and row 3 is absent from the
    baseline entirely (an added cell / ``(new)`` annotation).  The
    moved columns' ``_mean`` summaries are re-derived from the moved
    values, so a ``--bands cv`` diff sees the same movements.
    """
    if index == 3:
        return None
    if index == 1:
        vim = row.vim_ms * 0.9
        return dataclasses.replace(
            row, vim_ms=vim, vim_speedup=row.sw_ms / vim,
            vim_ms_mean=None, vim_speedup_mean=None,
        )
    if index == 2:
        return dataclasses.replace(
            row, page_faults=row.page_faults + 2, page_faults_mean=None
        )
    return row


def write_dump(path: Path, rows: list[CellResult]) -> None:
    """Write *rows* exactly as ``repro sweep --json`` does."""
    with path.open("w", encoding="utf-8") as handle:
        json.dump([row.to_dict() for row in rows], handle,
                  sort_keys=True, indent=1)
        handle.write("\n")


def write_fixture_stores(directory: Path) -> None:
    """Build the stores the :data:`CLI_GOLDENS` read, from the dumps.

    ``report.sqlite`` and ``baseline.sqlite`` hold the two dumps.
    ``history.sqlite`` holds the baseline rows as run 1 and the current
    rows as run 2, with each run's ``created_utc`` fixed by SQL.
    """
    merge_into(directory / "report.sqlite", [ROWS_DUMP])
    merge_into(directory / "baseline.sqlite", [BASELINE_DUMP])
    history = directory / "history.sqlite"
    for dump in (BASELINE_DUMP, ROWS_DUMP):
        with open_store(history, create=True) as store:
            for _origin, row in iter_dump_rows(dump):
                store.put(row)
    db = sqlite3.connect(history)
    with db:
        db.execute(
            "UPDATE runs SET created_utc = "
            "printf('2004-02-%02dT12:00:00Z', run_id)"
        )
    db.close()


def cli_output(argv: str) -> str:
    """What ``repro ARGV`` prints to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        repro_main(argv.split())
    return out.getvalue()


def main() -> int:
    rows = [
        synthetic_result(config, index)
        for index, config in enumerate(
            sorted(GRID, key=lambda c: (c.app, c.policy))
        )
    ]
    baseline_rows = [
        base
        for index, row in enumerate(rows)
        if (base := baseline_result(row, index)) is not None
    ]
    write_dump(ROWS_DUMP, rows)
    write_dump(BASELINE_DUMP, baseline_rows)
    for name, options in GOLDENS.items():
        text = render_report(
            rows, group_by=options["group_by"], fmt=options["fmt"]
        )
        (FIXTURE_DIR / name).write_text(text + "\n", encoding="utf-8")
    annotated = render_report(rows, fmt="md", baseline=baseline_rows)
    (FIXTURE_DIR / "report_vs_baseline.md").write_text(
        annotated + "\n", encoding="utf-8"
    )
    diff_text = render_diff(diff_stores(BASELINE_DUMP, ROWS_DUMP), fmt="md")
    (FIXTURE_DIR / "diff.md").write_text(diff_text + "\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as work:
        write_fixture_stores(Path(work))
        with contextlib.chdir(work):
            for name, argv in CLI_GOLDENS.items():
                (FIXTURE_DIR / name).write_text(
                    cli_output(argv), encoding="utf-8"
                )
    golden_rows = [run_cell(config) for config in golden_configs()]
    golden_rows.append(trace_replay_row())
    write_dump(GOLDEN_DUMP, golden_rows)
    print(
        f"wrote {len(rows)}+{len(baseline_rows)} dumped rows, "
        f"{len(golden_rows)} simulated golden rows and "
        f"{len(GOLDENS) + len(CLI_GOLDENS) + 2} golden file(s) under "
        f"{FIXTURE_DIR.relative_to(REPO_ROOT)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
