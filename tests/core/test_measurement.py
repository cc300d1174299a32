"""Unit tests for the measurement decomposition."""

import pytest

from repro.accounting import Bucket, Measurement
from repro.errors import ReproError


class TestCharging:
    def test_total_is_hw_plus_buckets(self):
        meas = Measurement()
        meas.add_hw(1000)
        meas.charge(Bucket.SW_DP, 200)
        meas.charge(Bucket.SW_IMU, 50)
        meas.charge(Bucket.SW_OTHER, 30)
        assert meas.total_ps == 1280

    def test_negative_charges_rejected(self):
        meas = Measurement()
        with pytest.raises(ReproError):
            meas.charge(Bucket.SW_DP, -1)
        with pytest.raises(ReproError):
            meas.add_hw(-1)

    def test_bucket_views(self):
        meas = Measurement()
        meas.charge(Bucket.SW_DP, 10)
        meas.charge(Bucket.SW_IMU, 20)
        meas.charge(Bucket.SW_OTHER, 30)
        meas.charge(Bucket.SW_APP, 40)
        assert meas.sw_dp_ps == 10
        assert meas.sw_imu_ps == 20
        assert meas.sw_other_ps == 30
        assert meas.sw_app_ps == 40

    def test_total_ms(self):
        meas = Measurement()
        meas.add_hw(3_000_000_000)
        assert meas.total_ms == pytest.approx(3.0)

    def test_fraction(self):
        meas = Measurement()
        meas.add_hw(900)
        meas.charge(Bucket.SW_IMU, 100)
        assert meas.fraction(Bucket.SW_IMU) == pytest.approx(0.1)

    def test_fraction_of_empty_measurement(self):
        assert Measurement().fraction(Bucket.SW_DP) == 0.0


class TestSpeedup:
    def test_speedup_over(self):
        fast = Measurement(name="hw")
        fast.add_hw(100)
        slow = Measurement(name="sw")
        slow.charge(Bucket.SW_APP, 1100)
        assert fast.speedup_over(slow) == pytest.approx(11.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ReproError):
            Measurement().speedup_over(Measurement())
