"""ABL5 — TLB capacity sensitivity.

The prototype sizes its TLB to one entry per DP-RAM page.  This sweep
shrinks the TLB below the frame count, which forces translation-only
faults for pages that are still resident — quantifying how much of the
paper's design rests on the full-size CAM.
"""

from repro.exp import ablation_tlb_capacity
from repro.exp.spec import CellConfig


def test_abl5_tlb_capacity():
    rows = ablation_tlb_capacity(
        cell=CellConfig(app="adpcm", input_bytes=4 * 1024), capacities=(2, 4, 8)
    )
    two, four, eight = rows.values()
    # Fewer TLB entries -> monotonically more translation churn and
    # more time; the data-moving fault count is a property of the
    # frame pool and stays put.
    assert two.tlb_refills >= four.tlb_refills >= eight.tlb_refills
    assert two.tlb_refills > eight.tlb_refills
    assert two.page_faults == eight.page_faults
    assert two.vim_ms > eight.vim_ms
