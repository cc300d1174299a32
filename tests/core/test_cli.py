"""Tests for the CLI (driven in-process via cli.main)."""

import argparse
import sqlite3
import time

import pytest

import repro.cli as cli
from repro.cli import (
    _GRID_FLAGS,
    build_parser,
    iter_option_actions,
    main,
    spec_from_args,
)
from repro.exp import store as store_module
from repro.exp.cache import iter_dump_rows
from repro.exp.spec import SweepSpec
from repro.exp.store import open_store
from tests.store_helpers import (
    fake_result,
    make_stale,
    store_keys,
    worsen,
    write_dump,
    write_legacy_dir,
    write_store,
)


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("fig7", "fig8", "fig9", "overheads", "ablations",
                        "portability", "run", "sweep", "serve", "worker",
                        "submit", "merge", "report", "history", "diff"):
            assert command in text

    @pytest.mark.parametrize("argv", [
        ["migrate", "a", "b.sqlite"],
        ["sweep", "--app", "vadd", "--cache", "x.sqlite", "--store", "sqlite"],
        ["serve", "--cache", "x.sqlite", "--store", "sqlite"],
        ["sweep", "--report", "--cache", "x.sqlite"],
        ["sweep", "--app", "vadd", "--engine", "reference"],
        ["submit", "http://127.0.0.1:9", "--engine", "reference"],
    ])
    def test_removed_commands_and_flags_are_argparse_errors(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestCommands:
    def test_fig7_prints_waveform(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "cp_tlbhit" in out
        assert "edge 4" in out

    def test_fig7_pipelined(self, capsys):
        assert main(["fig7", "--pipelined"]) == 0
        assert "edge 2" in capsys.readouterr().out

    def test_fig8_custom_sizes(self, capsys):
        assert main(["fig8", "--kb", "2"]) == 0
        out = capsys.readouterr().out
        assert "adpcm-2KB" in out
        assert "legend:" in out  # stacked chart rendered

    def test_fig9_capacity_marker(self, capsys):
        assert main(["fig9", "--kb", "16"]) == 0
        assert "exceeds memory" in capsys.readouterr().out

    def test_ablation_single(self, capsys):
        assert main(["ablations", "tlb"]) == 0
        out = capsys.readouterr().out
        assert "ablation: tlb" in out
        assert "tlb-2" in out

    def test_ablation_invalid_name(self):
        with pytest.raises(SystemExit):
            main(["ablations", "nonsense"])

    def test_run_vadd(self, capsys):
        assert main(["run", "vadd", "--kb", "1"]) == 0
        out = capsys.readouterr().out
        assert "software" in out
        assert "VIM" in out

    def test_run_idea_large_reports_capacity(self, capsys):
        assert main(["run", "idea", "--kb", "16"]) == 0
        assert "unavailable" in capsys.readouterr().out


class TestSweep:
    def test_sweep_grid_row_per_cell(self, capsys):
        assert main(["sweep", "--app", "vadd", "--kb", "1",
                     "--policy", "fifo", "lru"]) == 0
        out = capsys.readouterr().out
        assert "2 cells: 2 simulated, 0 from cache" in out
        assert "vadd-1KB/lru" in out

    def test_sweep_cache_makes_rerun_incremental(self, capsys, tmp_path):
        args = ["sweep", "--app", "vadd", "--kb", "1",
                "--cache", str(tmp_path / "cache")]
        assert main(args) == 0
        assert "1 simulated, 0 from cache" in capsys.readouterr().out
        assert main(args) == 0
        assert "0 simulated, 1 from cache" in capsys.readouterr().out

    def test_sweep_json_dump(self, capsys, tmp_path):
        import json

        path = tmp_path / "rows.json"
        assert main(["sweep", "--app", "vadd", "--kb", "1",
                     "--json", str(path)]) == 0
        rows = json.loads(path.read_text())
        assert len(rows) == 1
        assert rows[0]["config"]["app"] == "vadd"

    def test_sweep_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--app", "doom"])

    def test_sweep_rejects_unknown_soc(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--soc", "EPXA99"])

    def test_unknown_policy_refused_before_sweeping(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            cli.exp, "run_sweep",
            lambda *a, **k: pytest.fail("swept despite an unknown policy"),
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--app", "vadd", "--kb", "1",
                  "--policy", "fifo", "bogus",
                  "--cache", str(tmp_path / "s.sqlite")])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "s.sqlite").exists()

    def test_sweep_json_refuses_overwrite_without_force(self, capsys, tmp_path):
        path = tmp_path / "rows.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["sweep", "--app", "vadd", "--kb", "1", "--json", str(path)])
        assert path.read_text(encoding="utf-8") == "[]"  # untouched

    def test_sweep_json_missing_parent_dir_refused_up_front(
        self, tmp_path, monkeypatch
    ):
        import repro.cli as cli

        monkeypatch.setattr(
            cli.exp, "run_sweep",
            lambda *a, **k: pytest.fail("sweep ran despite doomed --json"),
        )
        with pytest.raises(SystemExit):
            main(["sweep", "--app", "vadd", "--kb", "1",
                  "--json", str(tmp_path / "missing" / "rows.json")])

    def test_sweep_json_directory_target_refused_even_with_force(
        self, tmp_path
    ):
        target = tmp_path / "results"
        target.mkdir()
        for extra in ([], ["--force"]):
            with pytest.raises(SystemExit):
                main(["sweep", "--app", "vadd", "--kb", "1",
                      "--json", str(target), *extra])

    def test_sweep_json_force_overwrites(self, capsys, tmp_path):
        import json

        path = tmp_path / "rows.json"
        path.write_text("[]", encoding="utf-8")
        assert main(["sweep", "--app", "vadd", "--kb", "1",
                     "--json", str(path), "--force"]) == 0
        assert len(json.loads(path.read_text(encoding="utf-8"))) == 1


class TestRecord:
    def test_record_refuses_its_target_before_simulating(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            cli, "record_cell",
            lambda *a, **k: pytest.fail("recorded despite a doomed OUT"),
        )
        existing = tmp_path / "existing.gz"
        existing.write_bytes(b"")
        directory = tmp_path / "traces"
        directory.mkdir()
        for out, extra, message in (
            (existing, [], "pass --force"),
            (directory, [], "is a directory"),
            (directory, ["--force"], "is a directory"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(["record", str(out), "--app", "vadd", "--kb", "1",
                      *extra])
            assert excinfo.value.code == 2
            assert message in capsys.readouterr().err
        assert existing.read_bytes() == b""


#: Each grid flag spelled with its ``SweepSpec`` default.  A default
#: that has no spelling (``None``, or ``False`` for a switch) is
#: spelled with the value it stands for on EPXA1 (``--page``,
#: ``--tlb``), with any value (``--trace``) or as the bare switch.
_DEFAULT_SPELLINGS = {
    "app": ["--app", "adpcm"],
    "kb": ["--kb", "8"],
    "seed": ["--seed", "1"],
    "soc": ["--soc", "EPXA1"],
    "page": ["--page", "2048"],
    "policy": ["--policy", "fifo"],
    "transfer": ["--transfer", "double"],
    "prefetch": ["--prefetch", "none"],
    "tlb": ["--tlb", "8"],
    "pipelined_too": ["--pipelined-too"],
    "tenants": ["--tenants", "1"],
    "tenant_mix": ["--tenant-mix", "same"],
    "tenant_repeats": ["--tenant-repeats", "1"],
    "sched": ["--sched", "rr"],
    "trace": ["--trace", "t.gz"],
    "syn_stride": ["--syn-stride", "1"],
    "syn_locality": ["--syn-locality", "80"],
    "syn_read": ["--syn-read", "70"],
    "syn_phases": ["--syn-phases", "1"],
    "typical": ["--typical"],
    "replicates": ["--replicates", "1"],
}

#: The commands that take the grid flags, with their positionals.
_GRID_COMMANDS = {
    "sweep": [],
    "submit": ["http://127.0.0.1:9"],
    "record": ["out.gz"],
}


class TestGridFlags:
    """``SweepSpec`` owns the default grid; ``--preset`` takes no flag."""

    def test_every_grid_flag_has_a_spelling(self):
        assert set(_DEFAULT_SPELLINGS) == set(_GRID_FLAGS)

    @pytest.mark.parametrize("command", sorted(_GRID_COMMANDS))
    def test_grid_flags_have_no_default_of_their_own(self, command):
        suppressed = {
            action.dest for owner, action in iter_option_actions()
            if owner == command and action.default is argparse.SUPPRESS
        }
        assert suppressed - {"help"} == set(_GRID_FLAGS)

    @pytest.mark.parametrize("command", sorted(_GRID_COMMANDS))
    def test_no_flags_is_the_default_grid(self, command):
        args = build_parser().parse_args([command, *_GRID_COMMANDS[command]])
        assert spec_from_args(args) == SweepSpec()

    @pytest.mark.parametrize("command", sorted(_GRID_COMMANDS))
    @pytest.mark.parametrize("dest", sorted(_GRID_FLAGS))
    def test_preset_refuses_every_grid_flag(
        self, command, dest, capsys, monkeypatch, tmp_path
    ):
        # Spelled with its default, the flag changes nothing, and is
        # still refused: the preset would silently override it.
        # Nothing is simulated, recorded or sent first.
        for owner, name in ((cli.exp, "run_sweep"), (cli, "submit_sweep"),
                            (cli, "record_cell")):
            monkeypatch.setattr(
                owner, name,
                lambda *a, name=name, **k: pytest.fail(f"{name} ran"),
            )
        monkeypatch.chdir(tmp_path)
        flag = _DEFAULT_SPELLINGS[dest]
        with pytest.raises(SystemExit) as excinfo:
            main([command, *_GRID_COMMANDS[command],
                  "--preset", "contention", *flag])
        assert excinfo.value.code == 2
        assert (
            "error: --preset contention defines the whole grid; axis "
            f"flag(s) {flag[0]} would be ignored"
        ) in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", [
        ["--format", "md"],
        ["--group-by", "policy"],
        ["--baseline", "b.sqlite"],
    ])
    def test_submit_report_flags_need_report(self, flag, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "submit_sweep", lambda *a, **k: pytest.fail("submitted")
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "http://127.0.0.1:9", *flag])
        assert excinfo.value.code == 2
        assert "add --report" in capsys.readouterr().err


class TestShardMergeReport:
    GRID = ["--app", "vadd", "--kb", "1", "--policy", "fifo", "lru"]

    def test_shard_runs_a_subset(self, capsys):
        assert main(["sweep", *self.GRID, "--shard", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "shard 1/2: 1 of 2 unique cells" in out
        assert "1 cells: 1 simulated" in out

    def test_shard_bad_syntax_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", *self.GRID, "--shard", "1of2"])

    def test_shard_out_of_range_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", *self.GRID, "--shard", "3/2"])

    def test_shard_merge_report_round_trip(self, capsys, tmp_path):
        for index in (1, 2):
            assert main(["sweep", *self.GRID, "--shard", f"{index}/2",
                         "--cache", str(tmp_path / f"shard{index}")]) == 0
        capsys.readouterr()
        assert main(["merge", str(tmp_path / "merged"),
                     str(tmp_path / "shard1"), str(tmp_path / "shard2")]) == 0
        assert "2 written" in capsys.readouterr().out
        # The merged cache serves the whole grid without simulating.
        assert main(["sweep", *self.GRID,
                     "--cache", str(tmp_path / "merged")]) == 0
        assert "0 simulated, 2 from cache" in capsys.readouterr().out
        # And `repro report` renders from it, no simulation at all.
        assert main(["report", "--cache", str(tmp_path / "merged"),
                     "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| cell |")
        assert "vadd-1KB/lru" in out

    def test_report_requires_cache(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report"])
        assert excinfo.value.code == 2
        assert "pass --cache" in capsys.readouterr().err

    def test_report_warns_about_skipped_entries_on_stderr(self, capsys,
                                                          tmp_path):
        cache = tmp_path / "cache"
        assert main(["sweep", *self.GRID, "--cache", str(cache)]) == 0
        make_stale(cache, store_keys(cache)[0])
        capsys.readouterr()
        assert main(["report", "--cache", str(cache)]) == 0
        captured = capsys.readouterr()
        # The warning goes to stderr; stdout stays the pure report.
        assert "skipped 1 stale/invalid cache entry" in captured.err
        assert "warning" not in captured.out
        assert captured.out.startswith("| cell |")

    def test_report_group_by_and_format(self, capsys, tmp_path):
        assert main(["sweep", *self.GRID,
                     "--cache", str(tmp_path / "cache")]) == 0
        capsys.readouterr()
        assert main(["report", "--cache", str(tmp_path / "cache"),
                     "--group-by", "policy", "--format", "ascii"]) == 0
        out = capsys.readouterr().out
        assert "== policy=fifo ==" in out
        assert "== policy=lru ==" in out

    def test_report_rejects_unknown_axis(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "--cache", str(tmp_path),
                  "--group-by", "colour"])

    def test_report_only_flags_rejected_without_report(self):
        # --group-by/--format shape `repro report` output; they are not
        # sweep flags, so argparse refuses them instead of a sweep
        # silently ignoring them.
        with pytest.raises(SystemExit):
            main(["sweep", *self.GRID, "--format", "csv"])
        with pytest.raises(SystemExit):
            main(["sweep", *self.GRID, "--group-by", "policy"])
        with pytest.raises(SystemExit):  # explicit default value too
            main(["sweep", *self.GRID, "--format", "md"])
        with pytest.raises(SystemExit):  # --force pairs with --json only
            main(["sweep", *self.GRID, "--force"])

    def test_preset_rejects_axis_flags(self):
        # The preset IS the grid; axis flags it would override must
        # fail loudly instead of running a different grid.
        with pytest.raises(SystemExit):
            main(["sweep", "--preset", "contention", "--app", "idea"])
        with pytest.raises(SystemExit):  # explicit default value too
            main(["sweep", "--preset", "contention", "--app", "adpcm"])

    def test_report_rejects_grid_selection_flags(self, capsys, tmp_path):
        # A report renders the whole store; grid flags are not report
        # flags, so a report under an "--app adpcm" heading that showed
        # every cell cannot happen: argparse refuses them.
        assert main(["sweep", *self.GRID,
                     "--cache", str(tmp_path / "cache")]) == 0
        for flags in (["--app", "idea"], ["--shard", "1/2"],
                      ["--app", "adpcm"], ["--ap", "adpcm"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["report", "--cache", str(tmp_path / "cache"), *flags])
            assert excinfo.value.code == 2

    def test_json_overwrite_refused_before_simulating(self, tmp_path,
                                                      monkeypatch):
        # The refusal must fire *before* the sweep runs, not after.
        import repro.cli as cli

        path = tmp_path / "rows.json"
        path.write_text("[]", encoding="utf-8")
        monkeypatch.setattr(
            cli.exp, "run_sweep",
            lambda *a, **k: pytest.fail("sweep ran despite doomed --json"),
        )
        with pytest.raises(SystemExit):
            main(["sweep", "--app", "vadd", "--kb", "1", "--json", str(path)])

    def test_merge_conflict_exits_nonzero(self, capsys, tmp_path):
        assert main(["sweep", *self.GRID,
                     "--cache", str(tmp_path / "a")]) == 0
        assert main(["sweep", *self.GRID,
                     "--cache", str(tmp_path / "b")]) == 0
        worsen(tmp_path / "b")
        with pytest.raises(SystemExit):
            main(["merge", str(tmp_path / "merged"),
                  str(tmp_path / "a"), str(tmp_path / "b")])

    def test_report_baseline_annotates_cells(self, capsys, tmp_path):
        assert main(["sweep", *self.GRID,
                     "--cache", str(tmp_path / "base")]) == 0
        assert main(["sweep", *self.GRID,
                     "--cache", str(tmp_path / "cur")]) == 0
        worsen(tmp_path / "cur", factor=2.0)
        capsys.readouterr()
        assert main(["report", "--cache", str(tmp_path / "cur"),
                     "--baseline", str(tmp_path / "base")]) == 0
        out = capsys.readouterr().out
        assert "+100.0%)" in out   # the doubled cell
        assert "(=)" in out        # the untouched cells

    def test_baseline_rejected_without_report(self, tmp_path):
        # --baseline shapes `repro report` output only; argparse
        # refuses it on a sweep like --group-by.
        with pytest.raises(SystemExit):
            main(["sweep", *self.GRID, "--baseline", str(tmp_path)])


class TestDiffCLI:
    GRID = ["--app", "vadd", "--kb", "1", "--policy", "fifo", "lru"]

    def _two_caches(self, tmp_path):
        for name in ("a", "b"):
            assert main(["sweep", *self.GRID,
                         "--cache", str(tmp_path / name)]) == 0
        return tmp_path / "a", tmp_path / "b"

    @staticmethod
    def _worsen(cache, factor=1.5):
        worsen(cache, factor)

    def test_identical_caches_all_zero_table_exit_0(self, capsys, tmp_path):
        a, b = self._two_caches(tmp_path)
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "0 changed, 0 regression(s)" in out
        assert "REGRESSION" not in out

    def test_regression_exits_1(self, capsys, tmp_path):
        a, b = self._two_caches(tmp_path)
        self._worsen(b)
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_improvement_exits_0(self, capsys, tmp_path):
        a, b = self._two_caches(tmp_path)
        self._worsen(a)  # baseline slower -> current is an improvement
        capsys.readouterr()
        assert main(["diff", str(a), str(b), "--metric", "vim_ms"]) == 0
        assert "changed" in capsys.readouterr().out

    def test_rtol_silences_small_regressions(self, capsys, tmp_path):
        a, b = self._two_caches(tmp_path)
        self._worsen(b, factor=1.05)
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 1
        assert main(["diff", str(a), str(b), "--rtol", "0.1"]) == 0

    def test_md_format(self, capsys, tmp_path):
        a, b = self._two_caches(tmp_path)
        capsys.readouterr()
        assert main(["diff", str(a), str(b), "--format", "md"]) == 0
        assert capsys.readouterr().out.startswith("| cell |")

    def test_missing_side_exits_2(self, tmp_path):
        a, _ = self._two_caches(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", str(a), str(tmp_path / "absent")])
        assert excinfo.value.code == 2

    def test_unknown_metric_rejected(self, tmp_path):
        a, b = self._two_caches(tmp_path)
        with pytest.raises(SystemExit):
            main(["diff", str(a), str(b), "--metric", "warp_factor"])


class TestStoreCli:
    """The store-layer CLI surface: legacy import, history, dry-run."""

    GRID = ["--app", "vadd", "--kb", "1", "--policy", "fifo", "lru"]

    def test_sqlite_cache_round_trip(self, capsys, tmp_path):
        store = tmp_path / "results.sqlite"
        assert main(["sweep", *self.GRID, "--cache", str(store)]) == 0
        assert "2 simulated, 0 from cache" in capsys.readouterr().out
        assert main(["sweep", *self.GRID, "--cache", str(store)]) == 0
        assert "0 simulated, 2 from cache" in capsys.readouterr().out

    def test_report_byte_identical_across_backends(self, capsys, tmp_path):
        # A legacy JSON cache imported with `repro merge` reports the
        # same bytes as the store the sweep itself wrote.
        store = tmp_path / "results.sqlite"
        assert main(["sweep", *self.GRID, "--cache", str(store),
                     "--json", str(tmp_path / "rows.json")]) == 0
        legacy = write_legacy_dir(tmp_path / "cache", [
            row for _origin, row in iter_dump_rows(tmp_path / "rows.json")
        ])
        capsys.readouterr()
        imported = tmp_path / "imported.sqlite"
        assert main(["merge", str(imported), str(legacy)]) == 0
        assert "2 written" in capsys.readouterr().out
        for fmt in ("md", "ascii", "csv"):
            outputs = []
            for path in (store, imported):
                assert main(["report", "--cache", str(path),
                             "--format", fmt]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]

    def test_directories_are_rejected_before_simulating(
        self, capsys, tmp_path, monkeypatch
    ):
        # A directory is never a store: sweep, report and diff refuse
        # one up front (exit 2), pointing at the legacy import.
        import repro.exp.sweep as sweep_module

        monkeypatch.setattr(
            sweep_module, "run_cell",
            lambda config: pytest.fail("simulated despite a bad store"),
        )
        legacy = tmp_path / "cache"
        legacy.mkdir()
        store = write_store(tmp_path / "x.sqlite", [])
        for argv in (["sweep", *self.GRID, "--cache", str(legacy)],
                     ["report", "--cache", str(legacy)],
                     ["diff", str(legacy), str(store)]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert f"repro merge NEW.sqlite {legacy}" in \
                capsys.readouterr().err

    def test_merge_dry_run_writes_nothing(self, capsys, tmp_path):
        source = tmp_path / "cache"
        assert main(["sweep", *self.GRID, "--cache", str(source)]) == 0
        capsys.readouterr()
        dest = tmp_path / "merged"
        assert main(["merge", "--dry-run", str(dest), str(source)]) == 0
        out = capsys.readouterr().out
        assert "dry-run: would merge" in out
        assert "2 written" in out
        assert not dest.exists()

    def test_merge_dry_run_reports_conflicts_exit_1(self, capsys, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for name in (a, b):
            assert main(["sweep", *self.GRID, "--cache", str(name)]) == 0
        TestDiffCLI._worsen(b)
        capsys.readouterr()
        dest = tmp_path / "merged"
        assert main(["merge", "--dry-run", str(dest), str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "1 conflict(s)" in out
        assert "conflicting results for config" in out
        assert not dest.exists()

    def test_diff_group_by_aggregates_per_axis(self, capsys, tmp_path):
        a = tmp_path / "a.sqlite"
        b = tmp_path / "b.sqlite"
        for name in (a, b):
            assert main(["sweep", *self.GRID, "--cache", str(name)]) == 0
        capsys.readouterr()
        assert main(["diff", str(a), str(b), "--group-by", "policy"]) == 0
        out = capsys.readouterr().out
        assert "policy" in out.splitlines()[0]
        assert "fifo" in out and "lru" in out
        assert "vadd-1KB" not in out  # aggregated, not per-cell

    def test_diff_streams_sqlite_same_as_json(self, capsys, tmp_path):
        # Two stores stream through the merge-join; their --json dumps
        # are sorted in memory.  Either way, the same bytes.
        for name in ("a", "b"):
            assert main(["sweep", *self.GRID,
                         "--cache", str(tmp_path / f"{name}.sqlite"),
                         "--json", str(tmp_path / f"{name}.json")]) == 0
        worsen(tmp_path / "b.sqlite")
        with open_store(tmp_path / "b.sqlite") as store:
            write_dump(tmp_path / "b.json", list(store.iter_rows()))
        capsys.readouterr()
        outputs = []
        for suffix in ("sqlite", "json"):
            assert main(["diff", str(tmp_path / f"a.{suffix}"),
                         str(tmp_path / f"b.{suffix}")]) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "REGRESSION" in outputs[0]

    def test_history_renders_per_run_series(self, capsys, tmp_path):
        store = tmp_path / "results.sqlite"
        assert main(["sweep", *self.GRID, "--cache", str(store)]) == 0
        assert main(["sweep", "--app", "vadd", "--kb", "2",
                     "--cache", str(store)]) == 0
        capsys.readouterr()
        assert main(["history", "vim_ms", str(store)]) == 0
        out = capsys.readouterr().out
        assert "vim_ms across 2 run(s)" in out
        assert "vadd-1KB" in out and "vadd-2KB" in out
        assert out.count("\n") >= 5  # title + table of two run rows

    def test_history_reads_the_run_table_once(
        self, capsys, tmp_path, monkeypatch
    ):
        store = tmp_path / "results.sqlite"
        assert main(["sweep", *self.GRID, "--cache", str(store)]) == 0
        assert main(["sweep", "--app", "vadd", "--kb", "2",
                     "--cache", str(store)]) == 0
        calls = []
        real_runs = store_module.SqliteStore.runs

        def counted_runs(self):
            calls.append(self.path)
            return real_runs(self)

        monkeypatch.setattr(store_module.SqliteStore, "runs", counted_runs)
        assert main(["history", "vim_ms", str(store), "--last", "1"]) == 0
        assert len(calls) == 1

    def test_history_cells_filter_and_last(self, capsys, tmp_path):
        store = tmp_path / "results.sqlite"
        assert main(["sweep", *self.GRID, "--cache", str(store)]) == 0
        capsys.readouterr()
        assert main(["history", "vim_ms", str(store),
                     "--cells", "lru", "--last", "1"]) == 0
        out = capsys.readouterr().out
        assert "vadd-1KB/lru" in out
        assert "vadd-1KB  " not in out  # the fifo cell is filtered out

    def test_history_on_json_cache_points_at_merge(self, capsys, tmp_path):
        cache = write_legacy_dir(tmp_path / "cache", [])
        with pytest.raises(SystemExit) as excinfo:
            main(["history", "vim_ms", str(cache)])
        assert excinfo.value.code == 2
        assert "repro merge" in capsys.readouterr().err

    def test_history_missing_store_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["history", "vim_ms", str(tmp_path / "absent.sqlite")])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err


class TestDamagedStore:
    """A damaged store is a clean exit 2, never a traceback or exit 1.

    For ``repro diff`` exit 1 means "regression", so a crash there
    would let CI read a corrupt baseline as a performance regression.
    """

    @pytest.fixture(scope="class")
    def damaged(self, tmp_path_factory):
        # 2,000 rows with three pages zeroed mid-file: the header and
        # schema still read, so the store opens and fails mid-cursor.
        path = tmp_path_factory.mktemp("damaged") / "store.sqlite"
        write_store(path, (
            fake_result(config) for config in SweepSpec(
                apps=("synthetic",), input_bytes=(1024,),
                seeds=tuple(range(2000)),
            ).expand()
        ))
        pages = path.stat().st_size // 4096
        with path.open("r+b") as handle:
            handle.seek(pages // 2 * 4096)
            handle.write(bytes(3 * 4096))
        return path

    @pytest.mark.parametrize("argv", [
        ["report", "--cache", "{store}"],
        ["report", "--cache", "{store}", "--group-by", "policy"],
        ["diff", "{store}", "{store}"],
        ["merge", "{out}", "{store}"],
        ["history", "vim_ms", "{store}"],
    ], ids=["report", "report-grouped", "diff", "merge", "history"])
    def test_mid_file_damage_exits_2(self, argv, damaged, tmp_path, capsys):
        argv = [
            arg.format(store=damaged, out=tmp_path / "out.sqlite")
            for arg in argv
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(damaged) in err

    @pytest.mark.parametrize("keep", ["half", "all-but-last-page"])
    def test_truncated_store_exits_2(self, keep, tmp_path, capsys):
        path = write_store(tmp_path / "store.sqlite", (
            fake_result(config) for config in SweepSpec(
                apps=("synthetic",), input_bytes=(1024,),
                seeds=tuple(range(200)),
            ).expand()
        ))
        size = path.stat().st_size
        with path.open("r+b") as handle:
            handle.truncate(size // 2 if keep == "half" else size - 4096)
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--cache", str(path)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestLockedStore:
    """Another connection holds the store's write lock.

    A reader is not blocked by it; a writer fails with exit 2 once the
    busy timeout runs out, before printing any row.  The timeout is
    lowered so that either failure shows in a fraction of a second.
    """

    @pytest.fixture
    def locked(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "BUSY_TIMEOUT_MS", 100)
        path = write_store(tmp_path / "store.sqlite", (
            fake_result(config) for config in SweepSpec(
                apps=("synthetic",), input_bytes=(1024,),
                seeds=tuple(range(20)),
            ).expand()
        ))
        holder = sqlite3.connect(path, isolation_level=None)
        holder.execute("BEGIN IMMEDIATE")
        yield path
        holder.execute("ROLLBACK")
        holder.close()

    def test_report_reads_through_a_write_lock(self, locked, capsys):
        assert main(["report", "--cache", str(locked)]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines()
                if line.startswith("| synthetic-1KB ")]
        assert len(rows) == 20

    def test_sweep_fails_fast(self, locked, capsys):
        # vadd 1 KB is not in the store, so the sweep simulates it and
        # then needs the write lock to store its row.
        start = time.perf_counter()
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--app", "vadd", "--kb", "1",
                  "--cache", str(locked)])
        elapsed = time.perf_counter() - start
        assert excinfo.value.code == 2
        assert elapsed < 1.0
        captured = capsys.readouterr()
        assert "database is locked" in captured.err
        assert captured.out == ""
