"""Regression gate: ``results.COLUMNS`` must cover every numeric column.

``repro diff`` only compares the columns enumerated in
:data:`repro.exp.results.COLUMNS`, so a :class:`CellResult` column that
never gets a ``Column`` entry is silently invisible to the regression
gate — the exact failure mode that once hid ``compulsory_loads``,
``bytes_to_dpram``/``bytes_from_dpram`` and the ``typical_*`` columns
(and would have hidden every ``*_mean``/``*_cv`` replication column).

This suite derives the required set from the dataclass itself, so any
future numeric column fails here until someone adds an explicit entry
with a deliberate ``higher_is_worse`` direction.
"""

import dataclasses

from repro.exp.results import COLUMNS, REPLICATED_COLUMNS, CellResult

#: CellResult columns that are *not* comparable scalar metrics:
#: identity/bookkeeping fields, flags, and the per-tenant breakdown
#: tuples (their totals are already covered by the scalar columns).
NON_METRIC_FIELDS = {
    "config",
    "key",
    "label",
    "workload",
    "typical_fits",
    "tenant_labels",
    "tenant_ms",
    "tenant_faults",
    "tenant_evictions",
    "tenant_steals",
    "tenant_pages_lost",
}

#: Type annotations that mark a comparable numeric scalar column.
NUMERIC_TYPES = {"int", "float", "float | None"}


def _numeric_columns() -> set:
    """Every CellResult column a diff metric must exist for."""
    columns = set()
    for field in dataclasses.fields(CellResult):
        if field.name in NON_METRIC_FIELDS:
            continue
        assert str(field.type) in NUMERIC_TYPES, (
            f"CellResult.{field.name} has type {field.type!r}: either add "
            "it to NON_METRIC_FIELDS (with justification) or teach "
            "results.COLUMNS to compare it"
        )
        columns.add(field.name)
    return columns


def test_every_numeric_column_has_a_metric():
    covered = {metric.field for metric in COLUMNS.values()}
    missing = _numeric_columns() - covered
    assert not missing, (
        f"CellResult columns invisible to `repro diff`: {sorted(missing)} — "
        "add explicit Column entries (with a deliberate higher_is_worse "
        "direction) to repro.exp.results.COLUMNS"
    )


def test_metrics_point_at_real_columns():
    # The inverse direction: a Column whose field was renamed away
    # would silently read nothing via getattr defaults.
    columns = {field.name for field in dataclasses.fields(CellResult)}
    for name, metric in COLUMNS.items():
        assert metric.field in columns, (
            f"COLUMNS[{name!r}] reads CellResult.{metric.field}, "
            "which does not exist"
        )


def test_replicated_columns_covered_in_both_flavours():
    # Every replicated base column must contribute its _mean and _cv
    # summary columns to the gate, or `--bands cv` would compare
    # primaries while ignoring the statistics that justify the bands.
    covered = {metric.field for metric in COLUMNS.values()}
    for base in REPLICATED_COLUMNS:
        assert f"{base}_mean" in covered
        assert f"{base}_cv" in covered


def test_metric_directions_are_deliberate():
    # Spot-check the handful of metrics whose direction is not
    # "smaller is better": speedups improve upward, and churn counters
    # with no inherent direction are informational (None).
    assert COLUMNS["speedup"].higher_is_worse is False
    assert COLUMNS["typical_speedup"].higher_is_worse is False
    assert COLUMNS["vim_speedup_mean"].higher_is_worse is False
    assert COLUMNS["tlb_hit_rate"].higher_is_worse is False
    assert COLUMNS["prefetches"].higher_is_worse is None
    assert COLUMNS["vim_ms"].higher_is_worse is True
