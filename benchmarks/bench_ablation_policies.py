"""ABL2 — page-replacement policies (paper §3.3).

"When no page is available for allocation, several replacement
policies are possible (e.g., first-in first-out, least recently used,
random)."  The sweep compares all four implemented policies on the
fault-heavy 8 KB adpcm run and on the 32 KB IDEA run.
"""

from repro.exp import ablation_policies
from repro.exp.spec import CellConfig


def test_abl2_replacement_policies():
    results = {
        "adpcm-8KB": ablation_policies(
            CellConfig(app="adpcm", input_bytes=8 * 1024)
        ),
        "idea-32KB": ablation_policies(
            CellConfig(app="idea", input_bytes=32 * 1024)
        ),
    }
    for name, rows in results.items():
        labels = list(rows)
        assert labels == ["fifo", "lru", "random", "second-chance"], name
        # Sequential streaming: every sane policy lands within 15 % of
        # the best (the paper uses plain FIFO for its measurements).
        best = min(r.vim_ms for r in rows.values())
        for row in rows.values():
            assert row.vim_ms < 1.15 * best, (name, row)
