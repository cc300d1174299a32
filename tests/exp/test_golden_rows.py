"""Golden rows: every committed row must re-simulate field for field.

``tests/exp/fixtures/golden_rows.json`` is a ``repro sweep --json``
dump of real simulated rows, written by ``tools/make_report_fixture.py``
for a fixed corpus: a curated list of configurations whose event order
is easy to disturb (dual-domain IDEA, faulting LRU, DMA completions
racing clock edges, overlapped prefetch, the pipelined IMU,
contention), two seeded-random samples of the axis space, the CI smoke
design space, a list of event-order corners (dual-domain faults,
translation latencies other than four cycles, the typical IDEA
version, faulting mixed-domain contention), TLB-state corners, the
paper-size adpcm and IDEA cells on the EPXA4 and EPXA10 presets, and
the ``random`` policy with evictions, solo and contended (it picks by
index, so these rows pin the eviction-candidate order), and one
replay of ``golden_trace.gz``, a trace recorded from a synthetic cell.
Each row's config is re-run through ``run_cell`` and the fresh row must
equal the committed one — same timing, same counters, same fault
ordering, same cache hash.  The replay row stores its ``trace_path``
relative to the fixture directory; the test resolves it before the run
and compares every other field.

This is the oracle for refactors of the simulation spine: a change
that moves any row changes what the simulator computes.  Regenerate
the file only on purpose, and review its diff.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.exp.cell import run_cell
from repro.exp.record import record_cell
from repro.exp.spec import CellConfig
from repro.trace.record import load_trace

FIXTURES = Path(__file__).parent / "fixtures"

GOLDEN_ROWS = json.loads(
    (FIXTURES / "golden_rows.json").read_text(encoding="utf-8")
)

TRACE_ROWS = [row for row in GOLDEN_ROWS if row["config"]["app"] == "trace"]


@pytest.mark.parametrize(
    "row", GOLDEN_ROWS, ids=lambda row: f"{row['label']}-s{row['config']['seed']}"
)
def test_row_matches_golden(row):
    config = CellConfig.from_dict(row["config"])
    if config.trace_path is not None:
        config = replace(config, trace_path=str(FIXTURES / config.trace_path))
    fresh = run_cell(config).to_dict()
    fresh["config"]["trace_path"] = row["config"]["trace_path"]
    assert fresh == row


@pytest.mark.parametrize("row", TRACE_ROWS, ids=lambda row: row["label"])
def test_recorder_reproduces_golden_trace(row, tmp_path):
    # Re-recording the trace's own source cell must give the digest the
    # replay row was keyed under, which pins the recorder too.
    source = load_trace(FIXTURES / row["config"]["trace_path"]).meta["cell"]
    outcome = record_cell(CellConfig.from_dict(source), tmp_path / "trace.gz")
    assert outcome.digest == row["config"]["trace_digest"]
