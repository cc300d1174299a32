#!/usr/bin/env python
"""Print the baseline-cache key for a ``repro sweep`` flag string.

Run from the repository root (the CI baseline jobs do)::

    PYTHONPATH=src python tools/grid_key.py "$SMOKE_GRID"
    v3-1a2b3c4d5e6f

The output is ``v<CACHE_VERSION>-<grid_fingerprint>``: the fingerprint
is computed over the sorted config hashes of the expanded grid
(:func:`repro.exp.spec.grid_fingerprint`), so it is a pure function of
*which* configurations the flags describe — reformatting or reordering
the flag string cannot fork a baseline lineage, and a ``CACHE_VERSION``
bump (covered by the config hashes, and spelled out in the prefix for
debuggability) starts a fresh one.  CI uses it to key the
``actions/cache`` entries the PR regression gate restores.

Arguments are the sweep axis flags, as separate argv entries or as one
quoted string (both spellings shell-split identically).  A design
space built from *several* sweep invocations into one cache (the CI
smoke grid plus its extra scheduling/trace cells) is keyed by joining
the flag strings with a literal ``--`` separator::

    PYTHONPATH=src python tools/grid_key.py "$SMOKE_GRID" -- \
        "$SMOKE_SCHED_CELL" -- "$SMOKE_TRACE_CELL"

Each segment is parsed as its own grid and the fingerprint covers the
de-duplicated union of the expanded cells, so segment order cannot
fork the lineage either.  Note a trace segment resolves its digest
from the trace file, which therefore must exist (record it first).

A grid the CLI would refuse (``--tenants 0``, ``--preset`` together
with an axis flag, a missing trace file) is reported as the CLI
reports it: ``error: ...`` on stderr and exit status 2.
"""

from __future__ import annotations

import shlex
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import build_parser, spec_from_args  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.exp.spec import (  # noqa: E402
    CACHE_VERSION,
    SweepSpec,
    grid_fingerprint,
)


def _split_segments(tokens: list[str]) -> list[list[str]]:
    """Split the token stream on literal ``--`` separators."""
    segments: list[list[str]] = [[]]
    for token in tokens:
        if token == "--":
            segments.append([])
        else:
            segments[-1].append(token)
    return [segment for segment in segments if segment]


def _grid_cells(segments: list[list[str]]) -> list:
    """The unique cells of every segment's grid, in first-seen order."""
    cells = {}
    for segment in segments:
        args = build_parser().parse_args(["sweep", *segment])
        spec = spec_from_args(args)
        for cell in spec.expand() if isinstance(spec, SweepSpec) else spec:
            cells.setdefault(cell.key(), cell)
    return list(cells.values())


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    tokens = [token for arg in argv for token in shlex.split(arg)]
    segments = _split_segments(tokens)
    if not segments:
        print("usage: grid_key.py SWEEP_FLAGS [-- SWEEP_FLAGS]...",
              file=sys.stderr)
        return 2
    try:
        cells = _grid_cells(segments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"v{CACHE_VERSION}-{grid_fingerprint(cells)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
