"""TXT1 / TXT2 — the overhead claims of §4.1.

TXT1: "the software execution time for IMU management ... is up to
2.5% of the total execution time."

TXT2: "The hardware execution time includes address translation, whose
overhead is unfortunately not always negligible (in the IDEA case
around 20%)."

``python -m repro overheads`` prints both.
"""

from repro.exp import imu_overhead_rows, translation_overhead


def test_txt1_imu_management_overhead():
    rows = imu_overhead_rows()
    worst = max(fraction for _, fraction in rows)
    assert worst <= 0.025


def test_txt2_translation_overhead():
    fraction = translation_overhead()
    assert 0.10 < fraction < 0.30
