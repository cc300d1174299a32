"""Tests for the scheduling axis and trace-replay axis of the sweep.

Covers the spec-level canonicalisation rules (solo cells are always
``rr``, priorities live in ``tenant_mix`` slots, trace identity is the
digest), the CLI spelling, and the headline equivalence invariant:
strict priority with all-equal priorities produces *byte-identical*
result rows to round-robin across the contention grid.
"""

import pytest

from repro.cli import main, spec_from_args, build_parser
from repro.errors import ReproError
from repro.exp import run_cell
from repro.exp.spec import CellConfig, SweepSpec, parse_mix_part


def _contended(**overrides):
    base = dict(
        app="adpcm", input_bytes=2 * 1024, tenants=2, tenant_repeats=2
    )
    base.update(overrides)
    return CellConfig(**base)


class TestMixPriorities:
    def test_parse_mix_part(self):
        assert parse_mix_part("adpcm") == ("adpcm", 1)
        assert parse_mix_part("idea:3") == ("idea", 3)

    def test_bad_priority_rejected(self):
        with pytest.raises(ReproError):
            parse_mix_part("adpcm:0")
        with pytest.raises(ReproError):
            parse_mix_part("adpcm:x")

    def test_neutral_priority_spelled_out_is_canonicalised(self):
        config = _contended(tenant_mix="adpcm:1+idea:2", sched="priority")
        assert config.tenant_mix == "adpcm+idea:2"

    def test_rr_strips_all_priorities(self):
        # Round-robin ignores weights entirely; keeping them in the
        # canonical mix would split the cache for identical runs.
        config = _contended(tenant_mix="adpcm:2+idea:3", sched="rr")
        assert config.tenant_mix == "adpcm+idea"

    def test_equal_cells_share_hash_across_spelling(self):
        a = _contended(tenant_mix="adpcm:1+idea", sched="priority")
        b = _contended(tenant_mix="adpcm+idea:1", sched="priority")
        assert a.key() == b.key()


class TestSchedCanonicalisation:
    def test_unknown_sched_rejected(self):
        with pytest.raises(ReproError):
            CellConfig(sched="lottery")

    def test_solo_cell_canonicalises_to_rr(self):
        # One process on the queue: every policy dispatches identically,
        # so solo cells collapse to one cache entry.
        assert CellConfig(app="adpcm", sched="priority").sched == "rr"

    def test_contended_cell_keeps_sched(self):
        assert _contended(sched="priority").sched == "priority"

    def test_label_shows_sched(self):
        assert "sched-priority" in _contended(sched="priority").label()
        assert "sched" not in _contended(sched="rr").label()

    def test_sched_axis_expands(self):
        spec = SweepSpec(
            apps=("adpcm",), input_bytes=(2048,), tenants=(2,),
            scheds=("rr", "priority"),
        )
        assert spec.size == 2
        assert {c.sched for c in spec.expand()} == {"rr", "priority"}


class TestTraceConfigRules:
    def test_trace_app_requires_path(self):
        with pytest.raises(ReproError, match="trace_path"):
            CellConfig(app="trace")

    def test_trace_forbidden_as_mix_slot(self):
        with pytest.raises(ReproError):
            _contended(tenant_mix="trace+adpcm")

    def test_non_trace_app_drops_trace_fields(self):
        config = CellConfig(app="adpcm", trace_path="ignored.gz")
        assert config.trace_path is None
        assert config.trace_digest is None


class TestEquivalence:
    """The falsifiable scheduling claims, at the result-row level."""

    #: Small contention grid: same-app and mixed-app, 2 and 3 tenants.
    GRID = [
        dict(tenants=2, tenant_mix="same"),
        dict(tenants=2, tenant_mix="adpcm+idea"),
        dict(tenants=3, tenant_mix="same"),
    ]

    @staticmethod
    def _comparable(config: CellConfig) -> dict:
        """The result row minus the scheduling identity fields."""
        row = run_cell(config).to_dict()
        del row["config"]["sched"]
        del row["key"]
        del row["label"]
        return row

    @pytest.mark.parametrize("axes", GRID, ids=lambda a: f"x{a['tenants']}-{a['tenant_mix']}")
    def test_equal_priority_strict_priority_matches_rr(self, axes):
        rr = self._comparable(_contended(sched="rr", **axes))
        prio = self._comparable(_contended(sched="priority", **axes))
        assert prio == rr

    def test_all_weights_one_wrr_matches_rr(self):
        rr = self._comparable(_contended(sched="rr"))
        wrr = self._comparable(_contended(sched="wrr"))
        assert wrr == rr

    def test_unequal_priorities_change_the_schedule(self):
        base = _contended(tenant_mix="adpcm+idea")
        rr = self._comparable(base)
        prio = self._comparable(
            _contended(tenant_mix="adpcm:3+idea", sched="priority")
        )
        # The boosted tenant's executions run back-to-back, which must
        # show up in the interleaving-sensitive numbers.
        del rr["config"]["tenant_mix"]
        del prio["config"]["tenant_mix"]
        assert prio != rr


class TestCliSpelling:
    def test_sched_flag_reaches_spec(self):
        parser = build_parser()
        args = parser.parse_args(
            ["sweep", "--app", "adpcm", "--tenants", "2",
             "--sched", "rr", "priority"]
        )
        spec = spec_from_args(args)
        assert spec.scheds == ("rr", "priority")

    def test_trace_flag_reaches_spec(self):
        parser = build_parser()
        args = parser.parse_args(
            ["sweep", "--app", "trace", "--trace", "a.gz", "b.gz"]
        )
        assert spec_from_args(args).trace_paths == ("a.gz", "b.gz")

    def test_record_then_sweep_then_report(self, tmp_path, capsys):
        trace = tmp_path / "t.gz"
        assert main(
            ["record", str(trace), "--app", "synthetic", "--kb", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "digest" in out and str(trace) in out
        cache = tmp_path / "cache"
        assert main(
            ["sweep", "--app", "trace", "--trace", str(trace),
             "--cache", str(cache)]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--cache", str(cache)]) == 0
        assert "trace-" in capsys.readouterr().out

    def test_record_rejects_a_grid(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["record", str(tmp_path / "t.gz"),
                  "--app", "synthetic", "--kb", "2", "4"])

    def test_record_rejects_trace_app(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["record", str(tmp_path / "t.gz"), "--app", "trace",
                  "--trace", "x.gz"])
