#!/usr/bin/env python
"""Diff two pytest-benchmark JSON files (``BENCH_results.json``).

Run from the repository root::

    PYTHONPATH=src python tools/bench_diff.py BASELINE.json CURRENT.json \
        [--rtol R] [--atol A] [--format {md,csv,ascii}] [--fail-on-wall]

The benchmarks job uploads ``BENCH_results.json`` every run; this tool
turns two of them into the same kind of regression table ``repro
diff`` renders for sweep caches, through the same tolerance machinery
(:func:`repro.exp.diff.scalar_delta`).  Two kinds of numbers live in a
benchmark row, and they are treated differently:

* ``extra_info`` — the **simulated** milliseconds/speedups/fault
  counts the bench asserted on.  These are deterministic, so any
  beyond-tolerance change is a behaviour change and fails the diff
  (exit 1) regardless of direction — and a key that *vanishes* is
  lost gate coverage, which fails the same way.  Keys prefixed
  ``wall_`` are the exception: they hold wall-clock-derived numbers
  (e.g. the service bench's ``wall_warm_hits_per_s``), which are as
  noisy as ``stats.mean`` — they are reported alongside it but never
  gate, not even under ``--fail-on-wall`` (such a key carries no
  regression direction a tolerance could classify).
* ``stats.mean`` — harness **wall time**.  Noisy on shared CI
  runners, so it is reported but gates only with ``--fail-on-wall``
  (where an increase beyond tolerance is the regression).

Added/removed benchmarks are reported distinctly and never fail the
diff.  Exit status: 1 on failures as defined above, 2 on usage errors,
else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.errors import ReproError  # noqa: E402  (repo import)
from repro.exp.diff import (  # noqa: E402
    MetricDelta,
    format_delta_cell,
    scalar_delta,
)
from repro.exp.report import FORMATS, format_cell, render_table  # noqa: E402


def load_benchmarks(path: Path) -> dict[str, dict]:
    """Read one pytest-benchmark JSON file, keyed by benchmark fullname."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ReproError(f"unreadable benchmark file {path}: {error}")
    rows = payload.get("benchmarks") if isinstance(payload, dict) else None
    if not isinstance(rows, list) or not rows:
        raise ReproError(
            f"{path} is not a pytest-benchmark JSON file "
            "(no 'benchmarks' list)"
        )
    return {row["fullname"]: row for row in rows}


def flatten_extra_info(info: dict) -> dict[str, float]:
    """Numeric ``extra_info`` entries, lists flattened as ``name[i]``."""
    flat: dict[str, float] = {}
    for key, value in sorted(info.items()):
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            flat[key] = value
        elif isinstance(value, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in value
        ):
            for index, item in enumerate(value):
                flat[f"{key}[{index}]"] = item
    return flat


def diff_benchmarks(
    baseline: dict[str, dict],
    current: dict[str, dict],
    rtol: float,
    atol: float,
):
    """Match benchmarks by fullname and classify wall + extra_info.

    Returns
    -------
    tuple
        ``(matched, added, removed)``: per matched benchmark its wall
        mean delta, the extra_info deltas over the shared keys, and
        the extra_info keys that vanished / appeared (a vanished key
        is lost gate coverage, so it counts as a change); added /
        removed are the unmatched benchmark fullnames of each side.
    """
    matched = []
    for name in sorted(baseline.keys() & current.keys()):
        base_row, current_row = baseline[name], current[name]
        wall = scalar_delta(
            "wall_mean_s",
            base_row["stats"]["mean"],
            current_row["stats"]["mean"],
            rtol=rtol,
            atol=atol,
            higher_is_worse=True,
        )
        base_info = flatten_extra_info(base_row.get("extra_info") or {})
        current_info = flatten_extra_info(current_row.get("extra_info") or {})
        shared = sorted(base_info.keys() & current_info.keys())
        info_deltas = [
            # Direction-agnostic: extra_info holds deterministic
            # simulated numbers, so any change is a behaviour change.
            scalar_delta(
                key, base_info[key], current_info[key],
                rtol=rtol, atol=atol, higher_is_worse=None,
            )
            for key in shared
            if not key.startswith("wall_")
        ]
        # wall_-prefixed keys are harness timing (see module docstring):
        # tracked for the report, never part of the deterministic gate.
        wall_info = [
            (key, base_info[key], current_info[key])
            for key in shared
            if key.startswith("wall_")
        ]
        lost_keys = sorted(
            key for key in base_info.keys() - current_info.keys()
            if not key.startswith("wall_")
        )
        new_keys = sorted(
            key for key in current_info.keys() - base_info.keys()
            if not key.startswith("wall_")
        )
        matched.append((name, wall, info_deltas, wall_info, lost_keys, new_keys))
    added = sorted(current.keys() - baseline.keys())
    removed = sorted(baseline.keys() - current.keys())
    return matched, added, removed


def _info_cell(deltas: list[MetricDelta], lost: list[str],
               new: list[str]) -> str:
    changed = [d for d in deltas if d.changed]
    if not deltas and not lost and not new:
        return "-"
    if not changed and not lost and not new:
        return "="
    parts = [
        f"{d.metric}: {format_cell(d.base)}→{format_cell(d.current)}"
        for d in changed
    ]
    parts += [f"{key}: removed" for key in lost]
    parts += [f"{key}: new" for key in new]
    return "; ".join(parts)


def render_bench_diff(
    matched, added, removed, rtol: float, atol: float, fmt: str,
    fail_on_wall: bool,
) -> tuple[str, bool]:
    """Render the table + summary; returns (text, failed)."""
    rows = []
    info_changed = 0
    wall_regressed = 0
    for name, wall, info_deltas, wall_info, lost_keys, new_keys in matched:
        changed = [d for d in info_deltas if d.changed]
        # A vanished key is lost gate coverage — as loud as a change.
        info_changed += bool(changed or lost_keys)
        wall_regressed += wall.regressed
        if changed or lost_keys:
            status = "CHANGED"
        elif wall.regressed:
            status = "slower" if not fail_on_wall else "REGRESSION"
        else:
            status = "ok"
        wall_cell = format_delta_cell(wall, marker="")
        if wall_info:
            # Keep the harness-timing ratios next to the wall mean they
            # share a noise profile with, away from the gated column.
            wall_cell += "; " + "; ".join(
                f"{key}: {format_cell(base)}→{format_cell(current)}"
                for key, base, current in wall_info
            )
        rows.append([
            # The status column carries the verdict, so the wall cell
            # skips the regression marker.
            name, wall_cell,
            _info_cell(info_deltas, lost_keys, new_keys), status,
        ])
    table = render_table(
        ["benchmark", "Δ wall (s); wall_* info", "simulated numbers", "status"],
        rows,
        fmt,
    )
    failed = info_changed > 0 or (fail_on_wall and wall_regressed > 0)
    lines = [
        table,
        "",
        f"{len(matched)} benchmark(s) compared: {info_changed} with "
        f"simulated-number changes, {wall_regressed} wall-time "
        f"regression(s){' (gated)' if fail_on_wall else ' (informational)'}; "
        f"{len(added)} added, {len(removed)} removed "
        f"(rtol={rtol:g}, atol={atol:g})",
    ]
    if added:
        lines.append("added (current only): " + ", ".join(added))
    if removed:
        lines.append("removed (baseline only): " + ", ".join(removed))
    return "\n".join(lines), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_diff",
        description="diff two pytest-benchmark JSON files "
        "(deterministic extra_info gates; wall time is informational)",
    )
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--rtol", type=float, default=0.0)
    parser.add_argument("--atol", type=float, default=0.0)
    parser.add_argument("--format", default="ascii", choices=FORMATS)
    parser.add_argument(
        "--fail-on-wall", action="store_true",
        help="also fail on wall-time mean regressions beyond tolerance "
        "(noisy on shared runners; off by default)",
    )
    args = parser.parse_args(argv)
    try:
        baseline = load_benchmarks(args.baseline)
        current = load_benchmarks(args.current)
        text, failed = render_bench_diff(
            *diff_benchmarks(baseline, current, args.rtol, args.atol),
            rtol=args.rtol,
            atol=args.atol,
            fmt=args.format,
            fail_on_wall=args.fail_on_wall,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
