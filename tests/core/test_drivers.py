"""Unit tests for the workload builders."""

import numpy as np
import pytest

from repro.apps import adpcm as adpcm_app
from repro.apps import idea as idea_app
from repro.core.drivers import (
    adpcm_encode_workload,
    adpcm_workload,
    idea_workload,
    synthetic_workload,
    vector_add_workload,
)
from repro.errors import ReproError
from repro.exp.cell import run_cell
from repro.exp.spec import CellConfig
from repro.os.vim.objects import Direction


class TestAdpcmWorkload:
    def test_object_shapes(self):
        workload = adpcm_workload(2048)
        in_spec, out_spec = workload.objects
        assert in_spec.direction == Direction.IN
        assert out_spec.direction == Direction.OUT
        assert out_spec.size == 4 * in_spec.size

    def test_params_carry_input_size(self):
        assert adpcm_workload(1024).params == (1024,)

    def test_reference_decodes_stream(self):
        workload = adpcm_workload(256, seed=3)
        expected = adpcm_app.decode(workload.objects[0].data)
        assert workload.reference()[1] == expected.astype("<i2").tobytes()

    def test_invalid_size_rejected(self):
        with pytest.raises(ReproError):
            adpcm_workload(0)

    def test_seed_changes_stream(self):
        assert (
            adpcm_workload(128, seed=1).objects[0].data
            != adpcm_workload(128, seed=2).objects[0].data
        )


class TestIdeaWorkload:
    def test_params_are_count_plus_subkeys(self):
        workload = idea_workload(512)
        assert workload.params[0] == 64  # blocks
        assert len(workload.params) == 1 + idea_app.NUM_SUBKEYS

    def test_non_multiple_of_block_rejected(self):
        with pytest.raises(ReproError):
            idea_workload(100)

    def test_reference_is_real_encryption(self):
        workload = idea_workload(64, seed=2)
        ciphertext = workload.reference()[1]
        assert len(ciphertext) == 64
        assert ciphertext != workload.objects[0].data

    def test_subkeys_match_reference_key_schedule(self):
        workload = idea_workload(64, seed=5)
        subkeys = list(workload.params[1:])
        # Decrypting the reference output with the inverted schedule
        # recovers the plaintext: the params really are the schedule.
        ciphertext = workload.reference()[1]
        inv = idea_app.invert_key(subkeys)
        recovered = b"".join(
            idea_app.crypt_block(ciphertext[i : i + 8], inv)
            for i in range(0, 64, 8)
        )
        assert recovered == workload.objects[0].data


class TestVectorAddWorkload:
    def test_three_objects(self):
        workload = vector_add_workload(16)
        directions = [s.direction for s in workload.objects]
        assert directions == [Direction.IN, Direction.IN, Direction.OUT]

    def test_reference_adds(self):
        workload = vector_add_workload(8, seed=1)
        a = np.frombuffer(workload.objects[0].data, dtype="<u4")
        b = np.frombuffer(workload.objects[1].data, dtype="<u4")
        c = np.frombuffer(workload.reference()[2], dtype="<u4")
        assert (c == a + b).all()

    def test_total_bytes(self):
        assert vector_add_workload(16).total_bytes == 3 * 64

    def test_invalid_count_rejected(self):
        with pytest.raises(ReproError):
            vector_add_workload(-1)

    def test_sw_cycles_positive(self):
        assert vector_add_workload(16).sw_cycles > 0


class TestReferenceComputedOnce:
    """A builder computes the expected output once, with the workload."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        """Count the calls of the ADPCM software decoder."""
        calls = []
        decode = adpcm_app.decode

        def counted(*args, **kwargs):
            calls.append(args)
            return decode(*args, **kwargs)

        monkeypatch.setattr(adpcm_app, "decode", counted)
        return calls

    def test_solo_cell_decodes_once(self, decodes):
        # The software run and the VIM run's verification share it.
        run_cell(CellConfig(app="adpcm", input_bytes=1024))
        assert len(decodes) == 1

    def test_each_tenant_decodes_once(self, decodes):
        run_cell(CellConfig(app="adpcm", input_bytes=1024, tenants=2))
        assert len(decodes) == 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda: adpcm_workload(256),
            lambda: adpcm_encode_workload(256),
            lambda: idea_workload(256),
            lambda: vector_add_workload(64),
            lambda: synthetic_workload(1024),
        ],
        ids=["adpcm", "adpcm-enc", "idea", "vadd", "synthetic"],
    )
    def test_each_call_returns_a_fresh_dict(self, build):
        workload = build()
        first = workload.reference()
        first.clear()
        second = workload.reference()
        assert second
        assert second == workload.reference()
