"""FIG9 — IDEA execution times (paper Figure 9).

Paper series at 4/8/16/32 KB: pure software (26/53/105/211 ms), the
normal (typical) coprocessor — which "exceeds available memory" beyond
8 KB — and the VIM-based coprocessor.  Speedups: ~18x for the normal
coprocessor while it fits, ~11-12x for the VIM version at every size.
``python -m repro fig9`` prints the table.
"""

from repro.exp import figure9

#: Paper-reported software times (ms) per input size (kB).
PAPER_SW_MS = {4: 26.0, 8: 53.0, 16: 105.0, 32: 211.0}


def test_fig9_idea_three_versions():
    rows = figure9()
    by_kb = {r.config.input_bytes // 1024: r for r in rows}
    # Software times match the paper closely (same cost model scale).
    for kb, paper_ms in PAPER_SW_MS.items():
        assert abs(by_kb[kb].sw_ms - paper_ms) / paper_ms < 0.10, kb
    # Capacity cliff: in+out fits 16 KB DP-RAM only up to 8 KB inputs.
    assert by_kb[4].typical_fits and by_kb[8].typical_fits
    assert not by_kb[16].typical_fits and not by_kb[32].typical_fits
    # Speedup shape: typical ~18x, VIM ~11-12x, at every size.
    for kb in (4, 8):
        assert 15.0 < by_kb[kb].typical_speedup < 22.0
    for row in rows:
        assert 9.0 < row.vim_speedup < 14.0, row
    # The VIM version keeps working where the typical one cannot.
    assert by_kb[32].vim_speedup > 9.0
