"""Golden command-line renderings of ``repro report``, ``diff`` and ``history``.

Each golden in ``make_report_fixture.CLI_GOLDENS`` is the stdout of one
``repro`` command run in a directory holding the stores
``make_report_fixture.write_fixture_stores`` builds from the committed
row dumps: the grouped and flat diffs with their delta bars, a
``--bands cv`` diff, a diff over the less common metrics, a grouped
report in ascii and against a baseline, and a two-run history.
Regenerate them with ``tools/make_report_fixture.py``.
"""

import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import make_report_fixture  # noqa: E402  (repo tool, imported from tools/)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """A directory holding the fixture stores the goldens read."""
    root = tmp_path_factory.mktemp("golden-stores")
    make_report_fixture.write_fixture_stores(root)
    return root


@pytest.mark.parametrize("name", sorted(make_report_fixture.CLI_GOLDENS))
def test_cli_output_matches_golden(name, store_dir, monkeypatch, capsys):
    monkeypatch.chdir(store_dir)
    main(make_report_fixture.CLI_GOLDENS[name].split())
    golden = (make_report_fixture.FIXTURE_DIR / name).read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
