"""Tests for the contention axes of the sweep engine.

The tenancy scenario family rides the same machinery as every other
axis: expansion, hashing, caching, parallel execution.  These tests
pin the integration points — config validation, per-tenant result
columns, JSON round-trips, and the CLI spelling.
"""

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.exp import build_tenant_workloads, contention, run_cell, run_sweep
from repro.exp.cell import build_workload
from repro.exp.results import CellResult
from repro.exp.spec import CellConfig, SweepSpec
from repro.exp.store import open_store


def _contended_config(**overrides):
    base = dict(
        app="adpcm", input_bytes=2 * 1024, tenants=2, tenant_repeats=2
    )
    base.update(overrides)
    return CellConfig(**base)


class TestConfigValidation:
    def test_tenants_must_be_positive(self):
        with pytest.raises(ReproError):
            CellConfig(tenants=0)

    def test_repeats_must_be_positive(self):
        with pytest.raises(ReproError):
            CellConfig(tenant_repeats=0)

    def test_mix_names_validated(self):
        with pytest.raises(ReproError):
            CellConfig(tenant_mix="adpcm+nonsense")

    def test_mix_plus_list_accepted(self):
        config = CellConfig(tenants=2, tenant_mix="adpcm+idea")
        assert config.tenant_mix == "adpcm+idea"

    def test_typical_incompatible_with_tenants(self):
        with pytest.raises(ReproError):
            CellConfig(tenants=2, with_typical=True)

    def test_label_shows_contention_axes(self):
        label = _contended_config(tenant_mix="adpcm+idea").label()
        assert "x2" in label
        assert "mix-adpcm+idea" in label
        assert "rep2" in label

    def test_default_cell_label_unchanged(self):
        assert CellConfig().label() == "adpcm-8KB"


class TestSpecExpansion:
    def test_tenant_axes_multiply_grid(self):
        spec = SweepSpec(tenants=(1, 2), tenant_repeats=(1, 2))
        assert spec.size == 4
        cells = spec.expand()
        assert len(cells) == 4
        assert [(c.tenants, c.tenant_repeats) for c in cells] == [
            (1, 1), (1, 2), (2, 1), (2, 2),
        ]

    def test_tenant_workloads_cycle_mix_and_offset_seeds(self):
        config = _contended_config(tenants=3, tenant_mix="adpcm+idea", seed=5)
        workloads = build_tenant_workloads(config)
        names = [w.spec.name for w in workloads]
        assert names[0].startswith("adpcm")
        assert names[1].startswith("idea")
        assert names[2].startswith("adpcm")
        solo = [
            build_workload(CellConfig(app=app, input_bytes=2 * 1024, seed=seed))
            for app, seed in (("adpcm", 5), ("idea", 6), ("adpcm", 7))
        ]
        assert [w.spec.objects[0].data for w in workloads] == [
            spec.objects[0].data for spec in solo
        ]
        assert all(w.repeats == 2 for w in workloads)


class TestContendedCell:
    def test_per_tenant_columns_consistent(self):
        row = run_cell(_contended_config())
        assert row.config.tenants == 2
        assert len(row.tenant_labels) == 2
        assert sum(row.tenant_faults) == row.page_faults
        assert sum(row.tenant_steals) == row.steals
        assert row.steals > 0
        assert row.vim_ms > 0
        assert row.sw_ms > 0

    def test_solo_cell_has_empty_tenant_columns(self):
        row = run_cell(CellConfig(app="adpcm", input_bytes=2 * 1024))
        assert row.tenant_labels == ()
        assert row.steals == 0

    def test_result_json_round_trip(self):
        row = run_cell(_contended_config())
        rebuilt = CellResult.from_dict(row.to_dict())
        assert rebuilt == row

    def test_cache_round_trip(self, tmp_path):
        row = run_cell(_contended_config())
        with open_store(tmp_path / "store.sqlite", create=True) as store:
            store.put(row)
            assert store.get(row.config) == row

    def test_parallel_equals_serial(self):
        configs = [
            _contended_config(seed=seed) for seed in (1, 2)
        ]
        serial = run_sweep(configs, jobs=1)
        parallel = run_sweep(configs, jobs=2)
        assert serial.rows == parallel.rows


class TestContentionDriver:
    def test_contention_rows_scale_tenants(self):
        rows = contention(
            app="adpcm", input_kb=2, tenant_counts=(1, 2), repeats=2
        )
        solo, duo = rows
        assert solo.config.tenants == 1
        assert duo.config.tenants == 2
        assert solo.steals == 0
        assert duo.steals > 0
        assert duo.vim_ms > solo.vim_ms


class TestCli:
    def test_sweep_with_tenants(self, capsys):
        assert main([
            "sweep", "--app", "adpcm", "--kb", "2",
            "--tenants", "1", "2", "--tenant-repeats", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "steals" in out
        assert "/x2/" in out
        assert "t0-adpcmdecode-2KB" in out

    def test_sweep_preset_contention(self):
        # Validate the preset grid without simulating it: every cell
        # constructible, exactly one solo baseline, mixed flavours in.
        from repro.cli import _SWEEP_PRESETS

        cells = _SWEEP_PRESETS["contention"]
        assert all(cell.tenant_repeats >= 2 for cell in cells)
        assert sum(1 for cell in cells if cell.tenants == 1) == 1
        assert any(cell.tenants > 1 for cell in cells)
        assert any(cell.tenant_mix != "same" for cell in cells)
        # No two preset cells may alias to the same simulation.
        assert len({cell.key() for cell in cells}) == len(cells)

    def test_solo_mix_canonicalised(self):
        solo_mixed = CellConfig(tenants=1, tenant_mix="adpcm+idea")
        solo_plain = CellConfig(tenants=1)
        assert solo_mixed == solo_plain
        assert solo_mixed.key() == solo_plain.key()

    def test_typical_incompatible_with_repeats(self):
        with pytest.raises(ReproError):
            CellConfig(tenant_repeats=2, with_typical=True)
