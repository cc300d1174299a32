#!/usr/bin/env python
"""Regenerate the committed report-fixture row dumps and golden outputs.

Run from the repository root::

    PYTHONPATH=src python tools/make_report_fixture.py

The report and diff golden tests (``tests/exp/test_report.py``,
``tests/exp/test_diff.py``) render tables from **committed** row
dumps, in the ``repro sweep --json`` format, so the expected bytes
live in git and never depend on simulation timing.  The fixture rows
are synthetic — deterministic hand-written numbers, no simulation —
but every row carries its real config hash, which embeds
:data:`~repro.exp.spec.CACHE_VERSION`.

Consequently, **whenever ``CACHE_VERSION`` is bumped** (or a
``CellConfig``/``CellResult`` field changes), the committed dumps go
stale and the golden tests fail.  The fix is one command: re-run this
script and commit the refreshed ``tests/exp/fixtures/`` tree alongside
the bump.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.exp.diff import diff_stores, render_diff  # noqa: E402
from repro.exp.report import render_report  # noqa: E402
from repro.exp.results import CellResult  # noqa: E402
from repro.exp.spec import CellConfig  # noqa: E402

FIXTURE_DIR = REPO_ROOT / "tests" / "exp" / "fixtures"
ROWS_DUMP = FIXTURE_DIR / "report_rows.json"
BASELINE_DUMP = FIXTURE_DIR / "baseline_rows.json"

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
    baseline entirely (an added cell / ``(new)`` annotation).
    """
    if index == 3:
        return None
    if index == 1:
        vim = row.vim_ms * 0.9
        return dataclasses.replace(
            row, vim_ms=vim, vim_speedup=row.sw_ms / vim
        )
    if index == 2:
        return dataclasses.replace(row, page_faults=row.page_faults + 2)
    return row


def write_dump(path: Path, rows: list[CellResult]) -> None:
    """Write *rows* exactly as ``repro sweep --json`` does."""
    with path.open("w", encoding="utf-8") as handle:
        json.dump([row.to_dict() for row in rows], handle,
                  sort_keys=True, indent=1)
        handle.write("\n")


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
    print(
        f"wrote {len(rows)}+{len(baseline_rows)} dumped rows and "
        f"{len(GOLDENS) + 2} golden file(s) under "
        f"{FIXTURE_DIR.relative_to(REPO_ROOT)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
