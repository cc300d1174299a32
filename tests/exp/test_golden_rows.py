"""Golden rows: every committed row must re-simulate field for field.

``tests/exp/fixtures/golden_rows.json`` is a ``repro sweep --json``
dump of real simulated rows, written by ``tools/make_report_fixture.py``
for a fixed corpus: a curated list of configurations whose event order
is easy to disturb (dual-domain IDEA, faulting LRU, DMA completions
racing clock edges, overlapped prefetch, the pipelined IMU,
contention), two seeded-random samples of the axis space, and the CI
smoke design space.  Each row's config is re-run through ``run_cell``
and the fresh row must equal the committed one — same timing, same
counters, same fault ordering, same cache hash.

This is the oracle for refactors of the simulation spine: a change
that moves any row changes what the simulator computes.  Regenerate
the file only on purpose, and review its diff.
"""

import json
from pathlib import Path

import pytest

from repro.exp.cell import run_cell
from repro.exp.spec import CellConfig

GOLDEN_ROWS = json.loads(
    (Path(__file__).parent / "fixtures" / "golden_rows.json").read_text(
        encoding="utf-8"
    )
)


@pytest.mark.parametrize(
    "row", GOLDEN_ROWS, ids=lambda row: f"{row['label']}-s{row['config']['seed']}"
)
def test_row_matches_golden(row):
    config = CellConfig.from_dict(row["config"])
    assert run_cell(config).to_dict() == row
