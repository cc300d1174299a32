"""FIG8 — adpcmdecode execution times (paper Figure 8).

Paper series at 2/4/8 KB inputs: pure software vs the VIM-based
coprocessor (stacked into HW, SW(DP), SW(IMU)); speedups annotated
1.5x / 1.5x / 1.6x; no page faults at 2 KB, faults from 4 KB onwards.
``python -m repro fig8`` prints the table.
"""

from repro.exp import figure8


def test_fig8_adpcm_sw_vs_vim():
    rows = figure8()
    two, four, eight = rows
    # Paper: all data fits at 2 KB -> no faults; faults from 4 KB on.
    assert two.page_faults == 0
    assert four.page_faults > 0
    assert eight.page_faults > 0
    # Paper speedups: 1.5x / 1.5x / 1.6x — shape: ~1.5x and stable.
    for row in rows:
        assert 1.3 < row.vim_speedup < 1.8, row
    # Paper: SW curve lands in the 2-18 ms band.
    assert 2.0 < two.sw_ms < 20.0
    assert eight.sw_ms < 20.0
    # "The speedup is only moderately affected" by misses.
    assert abs(eight.vim_speedup - two.vim_speedup) < 0.3
