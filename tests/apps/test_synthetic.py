"""Unit tests for the parameterised synthetic access pattern.

The synthetic app is the design-space probe: these tests pin the
properties the sweep layer leans on — seeded determinism, parameter
validation, the op-count/locality/read-ratio contracts, and the
bit-exact software oracle the coprocessor core is verified against.
"""

import pytest

from repro.apps import synthetic, workloads as gen
from repro.core.drivers import synthetic_workload
from repro.errors import ReproError

NBYTES = 4096
NWORDS = NBYTES // synthetic.WORD_BYTES


class TestAccessPattern:
    def test_deterministic_per_seed(self):
        kwargs = dict(seed=7, stride=3, locality_pct=60, read_pct=40, phases=2)
        assert synthetic.access_pattern(NBYTES, **kwargs) == \
            synthetic.access_pattern(NBYTES, **kwargs)

    def test_seed_changes_the_pattern(self):
        assert synthetic.access_pattern(NBYTES, seed=1) != \
            synthetic.access_pattern(NBYTES, seed=2)

    def test_pattern_stream_decoupled_from_dataset_stream(self):
        # The pattern draws from an offset seed, so it never replays
        # the dataset generator's draws for the same cell seed.
        data = gen.random_bytes(NBYTES, seed=1)
        ops = synthetic.access_pattern(NBYTES, seed=1)
        redrawn = gen.random_bytes(NBYTES, seed=1)
        assert data == redrawn  # pattern generation is side-effect free
        assert ops == synthetic.access_pattern(NBYTES, seed=1)

    def test_one_op_per_word(self):
        for phases in (1, 3, 7):
            ops = synthetic.access_pattern(NBYTES, phases=phases)
            assert len(ops) == NWORDS

    def test_addresses_word_aligned_and_in_range(self):
        for _, addr in synthetic.access_pattern(NBYTES, locality_pct=0):
            assert addr % synthetic.WORD_BYTES == 0
            assert 0 <= addr < NBYTES

    def test_read_ratio_extremes(self):
        all_reads = synthetic.access_pattern(NBYTES, read_pct=100)
        assert not any(is_write for is_write, _ in all_reads)
        all_writes = synthetic.access_pattern(NBYTES, read_pct=0)
        assert all(is_write for is_write, _ in all_writes)

    def test_full_locality_confines_each_phase_to_a_hot_window(self):
        hot_words = max(1, NWORDS // synthetic.HOT_SET_DIVISOR)
        for phases in (1, 2):
            ops = synthetic.access_pattern(
                NBYTES, locality_pct=100, phases=phases
            )
            distinct = {addr for _, addr in ops}
            assert len(distinct) <= hot_words * phases

    def test_zero_locality_spreads_beyond_the_hot_window(self):
        hot_words = max(1, NWORDS // synthetic.HOT_SET_DIVISOR)
        ops = synthetic.access_pattern(NBYTES, locality_pct=0)
        assert len({addr for _, addr in ops}) > hot_words

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(nbytes=2), "at least one word"),
            (dict(nbytes=NBYTES, stride=0), "stride"),
            (dict(nbytes=NBYTES, locality_pct=101), "locality"),
            (dict(nbytes=NBYTES, read_pct=-1), "read ratio"),
            (dict(nbytes=NBYTES, phases=0), "phase count"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ReproError, match=match):
            synthetic.access_pattern(**kwargs)


class TestReference:
    def test_pure_read_pattern_leaves_data_untouched(self):
        data = gen.random_bytes(NBYTES, seed=3)
        ops = synthetic.access_pattern(NBYTES, seed=3, read_pct=100)
        assert synthetic.run_reference(data, ops) == data

    def test_writes_change_the_image_deterministically(self):
        data = gen.random_bytes(NBYTES, seed=3)
        ops = synthetic.access_pattern(NBYTES, seed=3, read_pct=0)
        image = synthetic.run_reference(data, ops)
        assert image != data
        assert image == synthetic.run_reference(data, ops)
        assert len(image) == len(data)

    def test_write_semantics_match_the_core_op(self):
        # One write at address 8 under the initial accumulator.
        data = bytes(16)
        image = synthetic.run_reference(data, [(True, 8)])
        expected = synthetic.write_value(synthetic.ACC_INIT, 8)
        assert image[8:12] == expected.to_bytes(4, "little")
        assert image[:8] == data[:8] and image[12:] == data[12:]

    def test_mix_functions_wrap_at_32_bits(self):
        assert 0 <= synthetic.mix_read(0xFFFFFFFF, 0x12345678) <= 0xFFFFFFFF
        assert 0 <= synthetic.write_value(0xFFFFFFFF, NBYTES) <= 0xFFFFFFFF
        assert 0 <= synthetic.mix_write(0xFFFFFFFF, 0xFFFFFFFF) <= 0xFFFFFFFF


class TestWorkload:
    def test_reference_matches_oracle(self):
        workload = synthetic_workload(
            NBYTES, seed=5, stride=3, locality_pct=60, read_pct=50, phases=2
        )
        [spec] = workload.objects
        ops = synthetic.access_pattern(
            NBYTES, seed=5, stride=3, locality_pct=60, read_pct=50, phases=2
        )
        assert workload.reference() == {
            spec.obj_id: synthetic.run_reference(spec.data, ops)
        }

    def test_sw_cycles_scale_with_ops(self):
        workload = synthetic_workload(NBYTES)
        assert workload.sw_cycles == synthetic.sw_cycles(NWORDS)
        assert workload.params == (NWORDS,)
