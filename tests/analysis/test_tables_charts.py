"""Unit tests for table and chart formatting (:mod:`repro.exp.report`)."""

import pytest

from repro.errors import ReproError
from repro.exp import delta_bar_chart, render_table, stacked_bar_chart


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = render_table(["name", "ms"], [["adpcm", 1.5], ["idea", 25.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "---" in lines[1] or "-" in lines[1]
        assert "1.500" in text

    def test_bools_render_as_yes_no(self):
        text = render_table(["fits"], [[True], [False]])
        assert "yes" in text and "no" in text

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ReproError):
            render_table(["a", "b"], [["only-one"]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ReproError):
            render_table([], [])


class TestMarkdownTable:
    def test_structure(self):
        text = render_table(["a", "b"], [[1, 2]], "md")
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2 |"


class TestDeltaBarChart:
    def test_signed_bars_around_axis(self):
        text = delta_bar_chart(
            [("worse", 10.0), ("better", -5.0), ("same", 0.0)]
        )
        worse, better, same = text.splitlines()
        # Positive deltas grow right of the axis, negative left.
        left, right = worse.split("|")
        assert "█" in right and "█" not in left
        left, right = better.split("|")
        assert "█" in left and "█" not in right
        assert "█" not in same
        assert "+10.0%" in worse and "-5.0%" in better and "+0.0%" in same

    def test_bars_scale_to_largest_magnitude(self):
        text = delta_bar_chart([("a", 10.0), ("b", -10.0)])
        a_line, b_line = text.splitlines()
        assert a_line.count("█") == 20  # 20 columns each side
        assert b_line.count("█") == 20

    def test_empty_rows(self):
        assert delta_bar_chart([]) == "(no data)"


class TestStackedBarChart:
    def test_legend_and_segments(self):
        rows = [("2KB", {"hw": 2.0, "sw_dp": 1.0, "sw_imu": 0.5})]
        text = stacked_bar_chart(rows)
        assert "legend:" in text.splitlines()[0]
        # The peak total spans 50 columns: 2.0, 1.0 and 0.5 of 3.5.
        bar = text.splitlines()[1]
        assert (bar.count("█"), bar.count("▓"), bar.count("▒")) == (29, 14, 7)
        assert "3.500ms" in text

    def test_too_many_components_rejected(self):
        rows = [("x", {f"c{i}": 1.0 for i in range(5)})]
        with pytest.raises(ReproError):
            stacked_bar_chart(rows)

    def test_empty(self):
        assert stacked_bar_chart([]) == "(no data)"
