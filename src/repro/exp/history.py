"""Run-history trend analytics: one metric across a store's runs.

The SQLite result store is append-only — re-putting a changed result
for a known config hash appends the next ``(key, version)`` row,
stamped with the writing run's id — so one store accumulates the whole
history of a grid across sweeps.  ``repro history METRIC STORE``
renders that history as a time series: one table row per recorded
run, one column per cell, each value the metric as of that run
(carry-forward: a run that did not re-price a cell shows the cell's
latest earlier value; a cell not yet priced shows ``-``).  A signed
delta-bar chart of the net last-vs-first movement closes the view.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.exp.report import delta_bar_chart, format_cell, render_table
from repro.exp.results import COLUMNS
from repro.exp.store import SqliteStore


@dataclass(frozen=True)
class HistorySeries:
    """One cell's metric trajectory across the selected runs."""

    key: str
    label: str
    #: One value per selected run (aligned with ``HistoryResult.runs``);
    #: ``None`` before the cell was first priced.
    values: tuple[float | None, ...]


@dataclass(frozen=True)
class HistoryResult:
    """The assembled time series of one metric over one store."""

    metric: str
    origin: str
    runs: tuple  #: the selected RunRecords, oldest first
    series: tuple[HistorySeries, ...]  #: one per cell, (label, key) order


def load_history(
    store: SqliteStore,
    metric: str,
    cells: tuple[str, ...] = (),
    last: int | None = None,
) -> HistoryResult:
    """Assemble *metric*'s per-run time series from *store*.

    Parameters
    ----------
    store : SqliteStore
        The store whose run history to read.
    metric : str
        A selector from :data:`~repro.exp.results.COLUMNS`.
    cells : tuple of str
        Substring filters on cell labels; a cell is kept when any
        filter matches (empty keeps every cell).
    last : int, optional
        Keep only the most recent N runs.

    Raises
    ------
    ReproError
        On an unknown metric, no recorded runs, or filters that match
        no cell.
    """
    if metric not in COLUMNS:
        raise ReproError(
            f"unknown history metric {metric!r}; choices: {sorted(COLUMNS)}"
        )
    column = COLUMNS[metric]
    runs = store.runs()
    by_cell: dict[tuple[str, str], dict[int, float]] = {}
    for key, label, _version, run_id, result in store.iter_versions():
        if result is None:
            continue  # stale/corrupt version: absent from the trend
        # Later versions overwrite earlier ones within the same run,
        # so each run contributes its final value for the cell.
        by_cell.setdefault((label, key), {})[run_id] = column.value(result)
    if not runs:
        raise ReproError(f"no runs recorded in {store.path}")
    if cells:
        by_cell = {
            (label, key): points
            for (label, key), points in by_cell.items()
            if any(pattern in label for pattern in cells)
        }
        if not by_cell:
            raise ReproError(
                f"no cell label matches --cells {list(cells)} in "
                f"{store.path}"
            )
    selected = runs
    if last is not None:
        if last < 1:
            raise ReproError(f"--last must be >= 1, got {last}")
        selected = runs[-last:]
    selected_ids = {run.run_id for run in selected}
    series = []
    for (label, key) in sorted(by_cell):
        points = by_cell[(label, key)]
        values: list[float | None] = []
        current: float | None = None
        for run in runs:  # carry-forward walks ALL runs...
            if run.run_id in points:
                current = points[run.run_id]
            if run.run_id in selected_ids:  # ...selected runs emit a value
                values.append(current)
        series.append(HistorySeries(key=key, label=label, values=tuple(values)))
    return HistoryResult(
        metric=metric,
        origin=str(store.path),
        runs=selected,
        series=tuple(series),
    )


def render_history(history: HistoryResult, fmt: str = "ascii") -> str:
    """Render a :class:`HistoryResult`: title, per-run table, net bars.

    One table row per run (id + recorded timestamp), one column per
    cell.  ``csv`` emits the table records only, like the other
    machine-readable surfaces.  The bars are a signed chart of each
    cell's net relative change (last vs first priced value), changed
    cells only; ``md`` wraps it in a fenced block.
    """
    headers = ["run", "recorded"] + [s.label for s in history.series]
    rows = []
    for index, run in enumerate(history.runs):
        rows.append(
            [run.run_id, run.created]
            + [
                "-" if s.values[index] is None
                else format_cell(s.values[index])
                for s in history.series
            ]
        )
    table = render_table(headers, rows, fmt)
    if fmt == "csv":
        return table
    title = (
        f"{history.metric} across {len(history.runs)} run(s) in "
        f"{history.origin}"
    )
    lines = [title, "", table]
    chart_rows = []
    for s in history.series:
        priced = [v for v in s.values if v is not None]
        if len(priced) < 2 or priced[0] == priced[-1] or not priced[0]:
            continue
        change = (priced[-1] - priced[0]) / priced[0] * 100.0
        chart_rows.append((s.label, change))
    if chart_rows:
        chart = (
            f"Δ {history.metric} last vs first run:\n"
            + delta_bar_chart(chart_rows)
        )
        if fmt == "md":
            chart = f"```\n{chart}\n```"
        lines += ["", chart]
    return "\n".join(lines)
