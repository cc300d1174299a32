"""Unit tests for the replication layer and the ``cv`` band policy.

The statistical replication contract, piece by piece: derived seeds,
the mean/CV summary math, the replicated cell path's row shape, the
seed-blind replica alignment, and the variance-derived tolerance bands
that ``repro diff --bands cv`` classifies against.  The end-to-end
version (two disjoint seed sets, pass; injected cost regression, fail)
lives in the CI ``replication-gate`` job — these are the fast local
pieces.
"""

from dataclasses import replace

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.exp import run_sweep
from repro.exp.cell import replicate_seed, run_cell
from repro.exp.diff import (
    BANDS,
    CV_BAND_SIGMA,
    METRICS,
    banded_delta,
    diff_stores,
)
from repro.exp.results import REPLICATED_COLUMNS, replicate_summary
from repro.exp.spec import CellConfig, SweepSpec, replica_hash

#: A cheap replicable cell: 1 KB vadd is deterministic per seed but
#: its dataset (and thus nothing timing-visible) varies across seeds.
CELL = CellConfig(app="vadd", input_bytes=1024)

#: A cell whose timing genuinely varies with the seed: the synthetic
#: pattern's fault ordering depends on the drawn addresses.
SYN_CELL = CellConfig(
    app="synthetic", input_bytes=4 * 1024,
    dpram_bytes=2 * 1024, page_bytes=512,
    syn_locality_pct=50,
)


class TestReplicateSummary:
    def test_mean_and_sample_cv(self):
        mean, cv = replicate_summary([2.0, 4.0, 6.0])
        assert mean == pytest.approx(4.0)
        # Sample std (ddof=1) of [2, 4, 6] is 2.0, so CV = 2/4.
        assert cv == pytest.approx(0.5)

    def test_single_value_has_zero_cv(self):
        assert replicate_summary([3.5]) == (3.5, 0.0)

    def test_zero_mean_has_zero_cv(self):
        assert replicate_summary([-1.0, 1.0]) == (0.0, 0.0)

    def test_empty_raises(self):
        with pytest.raises(ReproError, match="at least one value"):
            replicate_summary([])


class TestReplicateSeed:
    def test_replicate_zero_is_the_cell_seed(self):
        config = replace(CELL, seed=42, replicates=3)
        assert replicate_seed(config, 0) == 42

    def test_stride_gives_distinct_seeds(self):
        config = replace(CELL, seed=1, replicates=5)
        seeds = [replicate_seed(config, k) for k in range(5)]
        assert len(set(seeds)) == 5

    def test_index_out_of_range_raises(self):
        config = replace(CELL, replicates=2)
        with pytest.raises(ReproError, match="replicate index"):
            replicate_seed(config, 2)
        with pytest.raises(ReproError, match="replicate index"):
            replicate_seed(config, -1)


class TestReplicatedCellPath:
    def test_primary_columns_match_unreplicated_run(self):
        single = run_cell(CELL)
        replicated = run_cell(replace(CELL, replicates=3))
        # Replicate 0 runs the cell's own seed, so every primary
        # column is byte-for-byte the unreplicated row's.
        assert replicated.vim_ms == single.vim_ms
        assert replicated.page_faults == single.page_faults
        assert replicated.workload == single.workload

    def test_summary_columns_cover_every_replicated_metric(self):
        row = run_cell(replace(SYN_CELL, replicates=3))
        for name in REPLICATED_COLUMNS:
            assert getattr(row, f"{name}_mean") is not None
            assert getattr(row, f"{name}_cv") is not None
        # The synthetic pattern's timing varies across seeds, so at
        # least one CV is genuinely nonzero.
        assert any(
            getattr(row, f"{name}_cv") > 0.0 for name in REPLICATED_COLUMNS
        )

    def test_unreplicated_rows_autofill_exact_summaries(self):
        row = run_cell(CELL)
        assert row.vim_ms_mean == row.vim_ms
        assert row.vim_ms_cv == 0.0
        assert row.page_faults_mean == float(row.page_faults)

    def test_row_is_keyed_by_the_replicated_config(self):
        config = replace(CELL, replicates=2)
        row = run_cell(config)
        assert row.config == config
        assert row.key == config.key()
        assert row.label == config.label()

    def test_workload_override_is_refused(self):
        from repro.exp.cell import build_workload

        workload = build_workload(CELL)
        with pytest.raises(ReproError, match="workload override"):
            run_cell(replace(CELL, replicates=2), workload)


class TestReplicaHash:
    def test_seed_blind(self):
        assert replica_hash(replace(CELL, seed=1)) == replica_hash(
            replace(CELL, seed=1001)
        )

    def test_other_axes_fork_the_hash(self):
        assert replica_hash(CELL) != replica_hash(replace(CELL, policy="lru"))

    def test_distinct_from_config_hash_payload(self):
        # A replica hash must never collide namespaces with the config
        # hash of the same cell (both are 16-hex digests).
        from repro.exp.spec import config_hash

        assert replica_hash(CELL) != config_hash(CELL)


class TestBandedDelta:
    def _rows(self, base_cv: float, drift: float):
        base = run_cell(replace(SYN_CELL, replicates=2))
        base = replace(base, vim_ms_cv=base_cv)
        current = replace(
            base, vim_ms_mean=base.vim_ms_mean * (1.0 + drift)
        )
        return base, current

    def test_within_cv_band_passes(self):
        base, current = self._rows(base_cv=0.02, drift=0.05)
        delta = banded_delta(METRICS["vim_ms"], base, current)
        # Band is 3 * 0.02 = 6% relative; a 5% drift is inside.
        assert not delta.regressed
        assert CV_BAND_SIGMA == 3.0

    def test_beyond_cv_band_regresses(self):
        base, current = self._rows(base_cv=0.01, drift=0.05)
        delta = banded_delta(METRICS["vim_ms"], base, current)
        assert delta.regressed

    def test_deterministic_metric_collapses_to_exact(self):
        base, current = self._rows(base_cv=0.0, drift=1e-9)
        delta = banded_delta(METRICS["vim_ms"], base, current)
        assert delta.regressed

    def test_unreplicated_metric_uses_raw_tolerance(self):
        base, _ = self._rows(base_cv=0.5, drift=0.0)
        current = replace(base, evictions=base.evictions + 1)
        delta = banded_delta(METRICS["evictions"], base, current)
        # evictions carries no CV column: the 0.5 CV must not leak.
        assert delta.regressed


class TestCvAlignment:
    def _sweep(self, tmp_path, name, seed, replicates=2):
        spec = SweepSpec(
            apps=("vadd",), input_bytes=(1024,), seeds=(seed,),
            policies=("fifo", "lru"), replicates=replicates,
        )
        run_sweep(spec, cache_dir=tmp_path / name)
        return tmp_path / name

    def test_disjoint_seed_sets_align_and_pass(self, tmp_path):
        a = self._sweep(tmp_path, "a", seed=1)
        b = self._sweep(tmp_path, "b", seed=1001)
        exact = diff_stores(a, b)
        assert not exact.cells  # config hashes differ: nothing matches
        banded = diff_stores(a, b, bands="cv")
        assert len(banded.cells) == 2
        assert not banded.has_regressions
        # The cv fingerprint is seed-blind: same design space, same print.
        base_print, current_print = banded.fingerprints()
        assert base_print == current_print
        assert exact.fingerprints()[0] != exact.fingerprints()[1]

    def test_seed_axis_within_one_run_is_refused(self, tmp_path):
        spec = SweepSpec(apps=("vadd",), input_bytes=(1024,), seeds=(1, 2))
        run_sweep(spec, cache_dir=tmp_path / "axis")
        side = tmp_path / "axis"
        with pytest.raises(ReproError, match="differing only by seed"):
            diff_stores(side, side, bands="cv")

    def test_unknown_band_policy_is_refused(self, tmp_path):
        a = self._sweep(tmp_path, "a", seed=1)
        with pytest.raises(ReproError, match="unknown band policy"):
            diff_stores(a, a, bands="sigma")
        assert BANDS == ("exact", "cv")


class TestCli:
    def test_replicates_with_preset_is_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "sweep", "--preset", "smoke", "--replicates", "3",
                "--cache", str(tmp_path / "cache"),
            ])
        assert excinfo.value.code == 2
        assert "--preset" in capsys.readouterr().err

    def test_sweep_console_gains_summary_columns(self, tmp_path, capsys):
        assert main([
            "sweep", "--app", "vadd", "--kb", "1", "--replicates", "2",
            "--cache", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "ms mean" in out
        assert "ms CV" in out
        assert "faults mean" in out

    def test_diff_bands_cv_exits_clean_across_seed_sets(
        self, tmp_path, capsys
    ):
        for name, seed in (("a", "1"), ("b", "1001")):
            assert main([
                "sweep", "--app", "vadd", "--kb", "1",
                "--seed", seed, "--replicates", "2",
                "--cache", str(tmp_path / name),
            ]) == 0
        assert main([
            "diff", str(tmp_path / "a"), str(tmp_path / "b"),
            "--bands", "cv",
        ]) == 0
        out = capsys.readouterr().out
        assert "bands=cv" in out
