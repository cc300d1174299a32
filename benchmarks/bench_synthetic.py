"""SYN — the parameterised access-pattern probe + replication layer.

Two shape checks no paper figure covers: (1) the synthetic app's
locality axis actually moves the fault rate the way a paging system
predicts (a hot working set that fits DP-RAM faults less than a
uniform walk over the same object), and (2) replicated cells report
cross-seed mean/CV columns whose noise is small enough for the
``--bands cv`` regression gate to be meaningful (CV well under the
3-sigma band of a real cost regression).
"""

from dataclasses import replace

from repro.exp.cell import run_cell
from repro.exp.spec import CellConfig, SweepSpec
from repro.exp.sweep import run_sweep

#: 32 KB object on the EPXA1's 16 KB DP-RAM: every cell must page.
_BASE = CellConfig(app="synthetic", input_bytes=32 * 1024)

#: The locality axis, uniform walk to hot-set-only.  A smaller object
#: over a constrained DP-RAM keeps even the fully-uniform (maximally
#: thrashing) cell inside the runner's livelock guard.
_SPEC = SweepSpec(
    apps=("synthetic",),
    input_bytes=(8 * 1024,),
    dpram_bytes=(4 * 1024,),
    page_bytes=(1024,),
    syn_locality_pcts=(0, 50, 80, 100),
)


def test_syn_locality_moves_the_fault_rate():
    rows = run_sweep(_SPEC)
    by_locality = {r.config.syn_locality_pct: r for r in rows}
    # A fully-hot pattern (working set = 1 KB, fits DP-RAM) faults far
    # less than a uniform walk over the whole 8 KB object.
    assert by_locality[100].page_faults < by_locality[0].page_faults
    # And the trend is monotone non-increasing along the axis.
    faults = [by_locality[pct].page_faults for pct in (0, 50, 80, 100)]
    assert faults == sorted(faults, reverse=True)


def test_syn_replication_noise_is_bandable():
    row = run_cell(replace(_BASE, replicates=5))
    # Replicate 0 is the cell's own seed: primary columns are exact.
    assert row.vim_ms_mean > 0
    assert abs(row.vim_ms_mean - row.vim_ms) / row.vim_ms < 0.25
    # Seed noise exists (the pattern genuinely varies) but stays well
    # inside what a 3-sigma band absorbs vs a 2x cost regression.
    assert row.vim_ms_cv > 0.0
    assert row.vim_ms_cv < 0.1
