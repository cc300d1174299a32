"""Tests for the baseline-cache key tool (``tools/grid_key.py``).

The CI baseline jobs key their ``actions/cache`` entries on this
tool's output; the property that matters is that the key is a pure
function of the *design space*, not of how the flag string is spelled.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import grid_key  # noqa: E402  (repo tool, imported from tools/)


def _key(capsys, *argv) -> str:
    assert grid_key.main(list(argv)) == 0
    return capsys.readouterr().out.strip()


class TestGridKey:
    def test_key_shape_embeds_cache_version(self, capsys):
        from repro.exp.spec import CACHE_VERSION

        key = _key(capsys, "--app adpcm --kb 2")
        assert key.startswith(f"v{CACHE_VERSION}-")
        assert len(key.split("-", 1)[1]) == 12

    def test_flag_spelling_does_not_fork_the_key(self, capsys):
        # One quoted string vs separate argv entries, reordered axis
        # values, reordered flags: same grid, same key.
        spellings = [
            ["--app adpcm --kb 2 --policy fifo lru --transfer double dma"],
            ["--app", "adpcm", "--kb", "2", "--policy", "lru", "fifo",
             "--transfer", "dma", "double"],
            ["--transfer double dma --policy fifo lru --kb 2 --app adpcm"],
        ]
        keys = {_key(capsys, *argv) for argv in spellings}
        assert len(keys) == 1

    def test_different_grids_get_different_keys(self, capsys):
        assert _key(capsys, "--app adpcm --kb 2") != \
            _key(capsys, "--app adpcm --kb 4")

    def test_preset_grids_are_keyable(self, capsys):
        assert _key(capsys, "--preset contention").startswith("v")

    def test_no_flags_is_a_usage_error(self, capsys):
        assert grid_key.main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            grid_key.main(["--warp-drive 9"])

    def test_invalid_grid_reported_as_the_cli_does(self, capsys):
        assert grid_key.main(["--tenants 0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: tenants must be >= 1, got 0\n"
        assert captured.out == ""

    def test_preset_with_axis_flag_refused(self, capsys):
        # The preset would override --app; keying the preset alone
        # would name a different grid than the flags spell.
        assert grid_key.main(["--preset contention --app idea"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: --preset contention defines the whole grid; axis "
            "flag(s) --app would be ignored"
        )
        assert captured.out == ""


class TestMultiSegment:
    """``--``-separated segments key the union of several invocations.

    CI sweeps its extra scheduling/trace cells into the same cache as
    the axis-product smoke grid; the baseline key must span all of
    those invocations without pretending they are one parseable grid.
    """

    GRID = "--app adpcm --kb 2 --policy fifo lru"
    EXTRA = "--app adpcm --kb 2 --tenants 2 --sched priority"

    def test_union_differs_from_either_segment(self, capsys):
        union = _key(capsys, self.GRID, "--", self.EXTRA)
        assert union != _key(capsys, self.GRID)
        assert union != _key(capsys, self.EXTRA)

    def test_segment_order_does_not_fork_the_key(self, capsys):
        assert _key(capsys, self.GRID, "--", self.EXTRA) == \
            _key(capsys, self.EXTRA, "--", self.GRID)

    def test_duplicate_cells_across_segments_collapse(self, capsys):
        # A cell described by two invocations lands in one cache entry,
        # so it must count once in the fingerprint too.
        assert _key(capsys, self.GRID, "--", self.GRID) == \
            _key(capsys, self.GRID)

    def test_separator_inside_a_quoted_string_splits_too(self, capsys):
        # CI passes '"$A" -- "$B"'; a single pre-joined string must
        # shell-split to the same segments.
        assert _key(capsys, f"{self.GRID} -- {self.EXTRA}") == \
            _key(capsys, self.GRID, "--", self.EXTRA)
