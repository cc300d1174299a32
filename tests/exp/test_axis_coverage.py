"""Contract gate: every ``CellConfig`` field is reachable from a sweep.

:class:`SweepSpec` expands the grid from one table, :attr:`SweepSpec.
AXES`, that pairs each of its axis fields with the ``CellConfig`` field
the axis values fill.  A new ``CellConfig`` field that never gets a row
there can only be set by hand, never swept, and nothing else would
notice.  This suite derives both field sets from the dataclasses
themselves, so such a field fails here until it is given an axis or is
listed below with the reason it has none.
"""

import dataclasses

from repro.exp.spec import CellConfig, SweepSpec

#: Fields applied to every cell of a spec rather than swept as an axis.
WHOLE_SPEC_FIELDS = {"with_typical", "replicates"}

#: ``CellConfig`` fields no spec sets: the trace digest is resolved
#: from the trace file, and ``engine`` has one legal value.
DERIVED_FIELDS = {"trace_digest", "engine"}


def _names(cls) -> set:
    return {field.name for field in dataclasses.fields(cls)}


def test_every_cell_field_is_an_axis_whole_spec_or_derived():
    mapped = [cell_field for _, cell_field in SweepSpec.AXES]
    assert len(set(mapped)) == len(mapped), "a CellConfig field has two axes"
    unreachable = (
        _names(CellConfig) - set(mapped) - WHOLE_SPEC_FIELDS - DERIVED_FIELDS
    )
    assert not unreachable, (
        f"CellConfig fields no SweepSpec can set: {sorted(unreachable)} — "
        "add a row to SweepSpec.AXES (and the tuple field it names)"
    )


def test_every_spec_field_is_an_axis_or_whole_spec():
    axes = [spec_field for spec_field, _ in SweepSpec.AXES]
    assert len(set(axes)) == len(axes), "a SweepSpec field is listed twice"
    stray = _names(SweepSpec) - set(axes) - WHOLE_SPEC_FIELDS
    assert not stray, (
        f"SweepSpec fields that expand() ignores: {sorted(stray)}"
    )
