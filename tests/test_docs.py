"""The docs gate: examples in README/docs must run, links must resolve.

Mirrors the CI docs job (``python tools/check_docs.py``) so breakage is
caught by the tier-1 suite locally, and unit-tests the checker's
failure detection so a green run actually means something.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402  (repo tool, imported from tools/)


class TestRepositoryDocs:
    def test_all_docs_pass(self):
        assert check_docs.main() == 0

    def test_required_docs_exist_and_are_linked(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for doc in ("docs/architecture.md", "docs/extending-sweeps.md"):
            assert (REPO_ROOT / doc).exists(), doc
            assert doc in readme, f"README does not link {doc}"

    def test_readme_mentions_contention_grid(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "--preset contention" in readme
        assert "--tenants" in readme


class TestCheckerCatchesRot:
    def test_dead_link_detected(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [missing](no/such/file.md)\n", encoding="utf-8")
        failures = check_docs.check_links(page)
        assert len(failures) == 1
        assert "dead link" in failures[0]

    def test_external_and_anchor_links_ignored(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "[a](https://example.com) [b](#section) [c](mailto:x@y.z)\n",
            encoding="utf-8",
        )
        assert check_docs.check_links(page) == []

    def test_broken_doctest_detected(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "```python\n>>> 1 + 1\n3\n```\n", encoding="utf-8"
        )
        failures = check_docs.check_code_blocks(page)
        assert len(failures) == 1
        assert "doctest" in failures[0]

    def test_syntax_rot_detected(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "```python\ndef broken(:\n```\n", encoding="utf-8"
        )
        failures = check_docs.check_code_blocks(page)
        assert len(failures) == 1
        assert "does not compile" in failures[0]

    def test_non_python_blocks_ignored(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "```sh\nthis is : not python ((\n```\n", encoding="utf-8"
        )
        assert check_docs.check_code_blocks(page) == []

    def test_stale_transfer_list_detected(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "use `--transfer {double,single}` for the copy axis\n",
            encoding="utf-8",
        )
        failures = check_docs.check_transfer_modes(page)
        assert len(failures) == 1
        assert "stale transfer-mode list" in failures[0]

    def test_current_transfer_list_passes(self, tmp_path):
        from repro.exp.spec import TRANSFERS

        page = tmp_path / "page.md"
        page.write_text(
            f"use `--transfer {{{','.join(TRANSFERS)}}}`\n", encoding="utf-8"
        )
        assert check_docs.check_transfer_modes(page) == []

    def test_wrapped_transfer_list_is_still_checked(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "`--transfer\n{double,single,dma,warp}`\n", encoding="utf-8"
        )
        assert len(check_docs.check_transfer_modes(page)) == 1

    def test_stale_format_list_detected(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "render with `--format {md,pdf}`\n", encoding="utf-8"
        )
        failures = check_docs.check_report_formats(page)
        assert len(failures) == 1
        assert "stale report-format list" in failures[0]

    def test_current_format_list_passes(self, tmp_path):
        from repro.exp.report import FORMATS

        page = tmp_path / "page.md"
        page.write_text(
            f"render with `--format {{{','.join(FORMATS)}}}`\n",
            encoding="utf-8",
        )
        assert check_docs.check_report_formats(page) == []

    def test_stale_engine_list_detected(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "pick `--engine {reference,warp}` for the kernel\n",
            encoding="utf-8",
        )
        failures = check_docs.check_engines(page)
        assert len(failures) == 1
        assert "stale engine-backend list" in failures[0]

    def test_current_engine_list_passes(self, tmp_path):
        from repro.sim.engine import ENGINES

        page = tmp_path / "page.md"
        page.write_text(
            f"pick `--engine {{{','.join(ENGINES)}}}`\n", encoding="utf-8"
        )
        assert check_docs.check_engines(page) == []

    def test_undocumented_subcommand_detected(self, tmp_path):
        # A page that never writes `repro merge` / `repro history`
        # misses those subcommands.
        page = tmp_path / "page.md"
        page.write_text("only repro sweep here\n", encoding="utf-8")
        failures = check_docs.check_subcommands_documented(page)
        assert any("repro merge" in f for f in failures)
        assert any("repro history" in f for f in failures)
        assert all("undocumented" in f for f in failures)

    def test_readme_documents_every_subcommand(self):
        assert check_docs.check_subcommands_documented(
            REPO_ROOT / "README.md"
        ) == []

    def test_store_commands_are_covered_by_the_checker(self):
        # The coverage direction must include the store-layer
        # subcommands, so adding a flag there without documenting it
        # fails the gate.
        for command in ("merge", "history"):
            assert command in check_docs.DOCUMENTED_COMMANDS
        _every, per_command = check_docs._parser_options()
        assert "--dry-run" in per_command["merge"]
        assert "--cells" in per_command["history"]
        assert "--group-by" in per_command["diff"]

    def test_undocumented_cli_flag_detected(self, tmp_path):
        # A page mentioning no flags at all misses every sweep and
        # diff option.
        page = tmp_path / "page.md"
        page.write_text("nothing here\n", encoding="utf-8")
        failures = check_docs.check_cli_flags(page)
        assert any("--shard" in f for f in failures)
        assert any("--report" in f for f in failures)
        assert any("--baseline" in f for f in failures)
        assert any("--rtol" in f and "diff flag" in f for f in failures)
        assert any("--atol" in f for f in failures)
        assert all("undocumented" in f for f in failures)

    def test_stale_flag_mention_detected(self, tmp_path):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        page = tmp_path / "page.md"
        page.write_text(
            readme + "\nand the retired `--warp-drive` flag\n",
            encoding="utf-8",
        )
        failures = check_docs.check_cli_flags(page)
        assert len(failures) == 1
        assert "stale flag mention --warp-drive" in failures[0]

    def test_mid_span_stale_flag_detected(self, tmp_path):
        # A stale flag hiding after a valid one in the same span must
        # not escape the scan.
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        page = tmp_path / "page.md"
        page.write_text(
            readme + "\nuse `--report --warp-factor N` for speed\n",
            encoding="utf-8",
        )
        failures = check_docs.check_cli_flags(page)
        assert any("--warp-factor" in f for f in failures)

    def test_fenced_blocks_excluded_from_stale_mention_scan(self, tmp_path):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        page = tmp_path / "page.md"
        page.write_text(
            readme + "\n```sh\npytest --benchmark-only\n```\n",
            encoding="utf-8",
        )
        assert check_docs.check_cli_flags(page) == []

    def test_readme_flag_lists_are_current(self):
        assert check_docs.check_cli_flags(REPO_ROOT / "README.md") == []

    def test_diff_flags_are_covered_by_the_checker(self):
        # The coverage direction must include the diff subcommand, so
        # adding a diff flag without documenting it fails the gate.
        assert "diff" in check_docs.DOCUMENTED_COMMANDS
        _every, per_command = check_docs._parser_options()
        assert "--rtol" in per_command["diff"]
        assert "--baseline" in per_command["report"]

    def test_docs_flag_mentions_are_current(self):
        for doc in sorted((REPO_ROOT / "docs").glob("*.md")):
            assert check_docs.check_flag_mentions(doc) == [], doc

    def test_stale_mention_in_docs_detected(self, tmp_path):
        # The stale-mention direction covers every doc file, not just
        # the README.
        page = tmp_path / "guide.md"
        page.write_text("pass `--warp-drive` to engage\n", encoding="utf-8")
        failures = check_docs.check_flag_mentions(page)
        assert len(failures) == 1
        assert "--warp-drive" in failures[0]
