"""ABL6 — interface-memory page-size sweep.

The prototype fixes 2 KB pages (8 frames in 16 KB).  This sweep keeps
the DP-RAM capacity constant and varies the page size, exposing the
classic virtual-memory trade-off on the interface memory: small pages
fault often (every fault is an OS round-trip), large pages fault
rarely but copy coarsely and leave fewer frames to allocate.  The
expected shape is a U with the paper's 2 KB at or near the bottom.
"""

from repro.exp import ablation_page_size


def test_abl6_page_size():
    by_label = ablation_page_size()
    # Fault count falls monotonically with page size.
    faults = [r.page_faults for r in by_label.values()]
    assert faults == sorted(faults, reverse=True)
    # The paper's 2 KB choice is the fastest configuration of the sweep.
    best = min(by_label, key=lambda label: by_label[label].vim_ms)
    assert best == "2048B"
    # Tiny pages pay measurably more OS time.
    assert by_label["512B"].sw_imu_ms > by_label["2048B"].sw_imu_ms
