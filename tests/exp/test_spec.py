"""Tests for cell configs, grid expansion, and config hashing."""

import dataclasses

import pytest

from repro.errors import ReproError
from repro.exp.spec import CellConfig, SweepSpec, config_hash


class TestCellConfig:
    def test_defaults_are_the_prototype(self):
        config = CellConfig()
        assert config.app == "adpcm"
        assert config.soc == "EPXA1"
        assert config.policy == "fifo"
        assert config.transfer == "double"
        assert config.page_bytes is None  # preset's 2 KB

    def test_unknown_app_rejected(self):
        with pytest.raises(ReproError):
            CellConfig(app="doom")

    def test_unknown_transfer_rejected(self):
        with pytest.raises(ReproError):
            CellConfig(transfer="triple")

    def test_second_engine_rejected(self):
        with pytest.raises(ReproError, match="one engine, 'reference'"):
            CellConfig(engine="fast")

    def test_dma_is_a_transfer_axis_value(self):
        config = CellConfig(transfer="dma")
        assert "dma" in config.label()
        assert CellConfig.from_dict(config.to_dict()) == config

    def test_unknown_prefetch_rejected(self):
        with pytest.raises(ReproError):
            CellConfig(prefetch="psychic")

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ReproError):
            CellConfig(input_bytes=0)

    def test_zero_tlb_capacity_rejected(self):
        # 0 is falsy and would silently select the full-size TLB.
        with pytest.raises(ReproError):
            CellConfig(tlb_capacity=0)

    def test_zero_prefetch_depth_rejected(self):
        with pytest.raises(ReproError):
            CellConfig(prefetch_depth=0)

    def test_zero_page_size_rejected(self):
        with pytest.raises(ReproError):
            CellConfig(page_bytes=0)

    def test_zero_dpram_size_rejected(self):
        with pytest.raises(ReproError):
            CellConfig(dpram_bytes=0)

    def test_dict_round_trip(self):
        config = CellConfig(
            app="idea", input_bytes=4096, policy="lru", tlb_capacity=4
        )
        assert CellConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ReproError):
            CellConfig.from_dict({"app": "adpcm", "input_bytes": 1024, "nope": 1})

    def test_label_mentions_non_default_axes_only(self):
        assert CellConfig(input_bytes=4096).label() == "adpcm-4KB"
        label = CellConfig(input_bytes=4096, policy="lru", page_bytes=512).label()
        assert "lru" in label and "page512" in label
        assert "fifo" not in label


class TestConfigHash:
    def test_stable_for_equal_configs(self):
        assert config_hash(CellConfig()) == config_hash(CellConfig())

    def test_every_field_is_significant(self):
        base = CellConfig()
        changed = [
            CellConfig(app="idea"),
            CellConfig(input_bytes=4096),
            CellConfig(seed=2),
            CellConfig(soc="EPXA4"),
            CellConfig(page_bytes=1024),
            CellConfig(dpram_bytes=32 * 1024),
            CellConfig(policy="lru"),
            CellConfig(transfer="single"),
            CellConfig(prefetch="sequential"),
            CellConfig(prefetch_depth=2),
            CellConfig(tlb_capacity=4),
            CellConfig(pipelined_imu=True),
            CellConfig(access_cycles=2),
            CellConfig(with_typical=True),
        ]
        digests = {config_hash(c) for c in changed}
        assert config_hash(base) not in digests
        assert len(digests) == len(changed)  # pairwise distinct too

    def test_hash_is_short_hex(self):
        digest = config_hash(CellConfig())
        assert len(digest) == 16
        int(digest, 16)  # parses as hex


class TestSweepSpec:
    def test_expansion_size_is_axes_product(self):
        spec = SweepSpec(
            apps=("adpcm", "idea"),
            input_bytes=(2048, 4096, 8192),
            policies=("fifo", "lru"),
        )
        cells = spec.expand()
        assert len(cells) == 12
        assert spec.size == 12

    def test_expansion_order_is_deterministic(self):
        spec = SweepSpec(policies=("fifo", "lru"), page_bytes=(1024, 2048))
        assert spec.expand() == spec.expand()

    def test_axis_nesting_order(self):
        # apps vary outermost, later axes innermost.
        spec = SweepSpec(apps=("adpcm", "idea"), policies=("fifo", "lru"))
        cells = spec.expand()
        assert [(c.app, c.policy) for c in cells] == [
            ("adpcm", "fifo"), ("adpcm", "lru"),
            ("idea", "fifo"), ("idea", "lru"),
        ]

    def test_with_typical_applies_to_every_cell(self):
        cells = SweepSpec(with_typical=True).expand()
        assert all(c.with_typical for c in cells)

    def test_default_spec_is_one_cell(self):
        cells = SweepSpec().expand()
        assert len(cells) == 1
        assert cells[0] == CellConfig()

    def test_spec_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SweepSpec().apps = ("idea",)


class TestGridFingerprint:
    def test_pure_function_of_the_config_set(self):
        from repro.exp.spec import grid_fingerprint

        grid = SweepSpec(policies=("fifo", "lru")).expand()
        shuffled = list(reversed(grid))
        duplicated = grid + grid
        prints = {
            grid_fingerprint(grid),
            grid_fingerprint(shuffled),
            grid_fingerprint(duplicated),
        }
        assert len(prints) == 1
        assert len(prints.pop()) == 12

    def test_different_grids_fingerprint_differently(self):
        from repro.exp.spec import grid_fingerprint

        a = SweepSpec(policies=("fifo",)).expand()
        b = SweepSpec(policies=("lru",)).expand()
        assert grid_fingerprint(a) != grid_fingerprint(b)
