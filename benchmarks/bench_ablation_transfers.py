"""ABL3 — double- vs single- vs DMA-transfer VIM (paper §4.1).

"The significant overhead in the dual-port RAM management ... is
largely caused by our simple implementation of the VIM which makes two
transfers each time a page is loaded or unloaded ...  We are currently
removing this limitation."  The ablation quantifies the whole roadmap:
halving the copies (``single``) and then removing the CPU from the
copy path entirely (``dma`` — descriptor programming plus asynchronous
bus time instead of per-word copy cycles).
"""

from repro.exp import ablation_transfers
from repro.exp.spec import CellConfig


def test_abl3_transfer_modes():
    results = {
        "adpcm-8KB": ablation_transfers(
            CellConfig(app="adpcm", input_bytes=8 * 1024)
        ),
        "idea-16KB": ablation_transfers(
            CellConfig(app="idea", input_bytes=16 * 1024)
        ),
    }
    for name, rows in results.items():
        double, single, dma = rows.values()
        # Halving the copies halves SW(DP), leaves hardware untouched.
        assert abs(double.sw_dp_ms - 2 * single.sw_dp_ms) / double.sw_dp_ms < 0.01
        assert abs(double.hw_ms - single.hw_ms) < 1e-9
        assert single.vim_ms < double.vim_ms
        # The DMA engine removes the CPU copies entirely: only
        # descriptor programming and drain waits remain in SW(DP).
        assert dma.sw_dp_ms < single.sw_dp_ms
        assert abs(dma.hw_ms - double.hw_ms) < 1e-9
        assert dma.vim_ms < single.vim_ms
        assert dma.dma_transfers > 0
        assert double.dma_transfers == single.dma_transfers == 0
        # Different copy engines, same page movements.
        assert dma.page_faults == double.page_faults
