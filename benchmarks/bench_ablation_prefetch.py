"""ABL4 — speculative prefetching (paper §3.3).

"Also, speculative actions as prefetching could be used in order to
avoid translation misses."  The sweep compares no prefetch,
conservative sequential prefetch (free frames only) and aggressive
prefetch (may evict) on the streaming adpcm workload.

Expected shape: aggressive prefetch sharply cuts the fault count but is
time-neutral, because this VIM performs prefetch copies inside the
fault service.  The *overlapped* configuration adds the paper's second
future-work ingredient ("overlapping of processor and coprocessor
execution"): the same prefetches now also save time.
"""

from repro.exp import ablation_prefetch
from repro.exp.spec import CellConfig


def test_abl4_prefetching():
    rows = ablation_prefetch(cell=CellConfig(app="adpcm", input_bytes=8 * 1024))
    none, conservative, aggressive, overlapped = rows.values()
    assert aggressive.page_faults < none.page_faults
    assert aggressive.prefetches > 0
    # Conservative prefetch never evicts, so it can never be worse in
    # fault count than no prefetch.
    assert conservative.page_faults <= none.page_faults
    # Time neutrality without overlap (within 5%).
    assert abs(aggressive.vim_ms - none.vim_ms) / none.vim_ms < 0.05
    # With overlap the avoided faults become actual time savings.
    assert overlapped.page_faults == aggressive.page_faults
    assert overlapped.vim_ms < none.vim_ms
