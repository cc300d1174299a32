"""Store-driven reporting: render tables from a result store, no sim.

The result store (:mod:`repro.exp.store`) is the system's durable
record: every executed cell lives there as one verified row.  This
module turns a store back into the paper's tables — the SW / VIM / HW
totals, the SW(DP) / SW(IMU) decomposition and the speedup-over-
software column — without re-running anything:

* :func:`load_cache_rows` — read every valid row of a store into
  :class:`~repro.exp.results.CellResult` rows, in a canonical
  machine-independent order;
* :func:`write_report` — the one report writer: rows in report order
  to ``md`` / ``csv`` / ``ascii`` text, flat or grouped along config
  axes, optionally annotated against a baseline run.  A flat report
  streams, so ``repro report`` renders a store of any size in
  constant memory;
* :func:`render_report` — the same report as a string, from rows in
  any order;
* :func:`group_sorted` / :func:`group_title` — the one grouping along
  config axes, of report rows and of diff cells alike;
* :func:`render_table` — the shared low-level table renderer (also
  the formatting route for the benchmark reports and the CLI);
* :func:`stacked_bar_chart` / :func:`delta_bar_chart` — the ASCII
  chart renderers.

Because the row order is canonical (sorted by label, then config
hash), a report rendered from N merged shard stores is byte-identical
to one rendered from a single unsharded run — the property the CI
matrix asserts.  ``repro report`` is the command-line face of this
module; with ``--baseline STORE`` every numeric cell is annotated
with its delta against a second store (the PR-vs-main workflow), and
``repro diff`` (:mod:`repro.exp.diff`) builds its regression tables,
groups and delta bars from the same renderers.  A report renders the
:func:`default_columns`: numeric :data:`~repro.exp.results.COLUMNS`
entries, headers included, and the two report-only columns in
:data:`REPORT_COLUMNS`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from pathlib import Path

from repro.errors import ReproError
from repro.exp.results import COLUMNS, REPLICATED_COLUMNS, CellResult
from repro.exp.spec import CellConfig
from repro.exp.store import SqliteStore, open_store

#: Output formats ``render_report`` / ``render_table`` understand
#: (the CLI spells this ``--format {md,csv,ascii}``).
FORMATS = ("md", "csv", "ascii")


# ----------------------------------------------------------------------
# Low-level table rendering (all three formats)
# ----------------------------------------------------------------------


def format_cell(value) -> str:
    """Render one value: floats get 3 decimals, bools yes/no."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _checked(headers: list[str], rows):
    """Yield *rows*, refusing any whose width differs from *headers*."""
    for row in rows:
        if len(row) != len(headers):
            raise ReproError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        yield row


def _widths(headers: list[str], rendered) -> list[int]:
    """ascii column widths: the widest header or cell per column."""
    widths = [len(header) for header in headers]
    for row in _checked(headers, rendered):
        widths = [max(width, len(cell)) for width, cell in zip(widths, row)]
    return widths


def _table_lines(headers: list[str], rendered, fmt: str, widths=None):
    """Yield the text lines of one table — each format's one line shape.

    *rendered* holds rows of already-formatted cell strings and is
    consumed once, lazily; ``ascii`` needs its column *widths* up
    front (see :func:`_widths`).
    """
    if not headers:
        raise ReproError("table needs at least one column")
    rendered = _checked(headers, rendered)
    if fmt == "md":
        yield "| " + " | ".join(headers) + " |"
        yield "|" + "|".join("---" for _ in headers) + "|"
        for row in rendered:
            yield "| " + " | ".join(row) + " |"
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")

        def record(cells) -> str:
            writer.writerow(cells)
            line = buffer.getvalue()[:-1]  # drop the line terminator
            buffer.seek(0)
            buffer.truncate(0)
            return line

        yield record(headers)
        for row in rendered:
            yield record(row)
    else:

        def line(cells) -> str:
            return "  ".join(
                cell.rjust(width) for cell, width in zip(cells, widths)
            )

        yield line(headers)
        yield line(["-" * width for width in widths])
        for row in rendered:
            yield line(row)


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ReproError(f"unknown report format {fmt!r}; choices: {FORMATS}")


def render_table(headers: list[str], rows: list[list], fmt: str = "ascii") -> str:
    """Render one table in any of :data:`FORMATS`.

    Parameters
    ----------
    headers : list of str
        Column headings.
    rows : list of list
        Cell values; formatted via :func:`format_cell`.
    fmt : str
        One of :data:`FORMATS`.

    Raises
    ------
    ReproError
        On an unknown format, no columns, or a ragged row.
    """
    _check_format(fmt)
    rendered = [[format_cell(v) for v in row] for row in rows]
    widths = _widths(headers, rendered) if fmt == "ascii" else None
    return "\n".join(_table_lines(headers, rendered, fmt, widths))


def _is_number(value) -> bool:
    """A genuinely numeric value (bools render yes/no, not as deltas)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def format_delta(value, base) -> str:
    """The annotation suffix for one report cell vs its baseline value.

    Returns ``""`` unless both values are numeric; ``" (=)"`` for an
    exact match; otherwise ``" (+Δ, +r%)"`` with the absolute delta
    (integer-formatted when both sides are ints) and, when the base is
    non-zero, the relative delta.  Shared by the ``--baseline`` report
    annotation and the ``repro diff`` regression table so the two
    surfaces read identically.
    """
    if not _is_number(value) or not _is_number(base):
        return ""
    delta = value - base
    if delta == 0:
        return " (=)"
    if isinstance(value, int) and isinstance(base, int):
        text = f"{delta:+d}"
    else:
        text = f"{delta:+.3f}"
    if base:
        text += f", {delta / base:+.1%}"
    return f" ({text})"


# ----------------------------------------------------------------------
# ASCII charts (the paper's figures, and regression delta bars)
# ----------------------------------------------------------------------

#: Glyphs used for stacked bar segments, in component order.
_SEGMENT_GLYPHS = ("█", "▓", "▒", "░")


def stacked_bar_chart(rows: list[tuple[str, dict[str, float]]]) -> str:
    """Horizontal stacked bars (the paper's HW / SW(DP) / SW(IMU) stack).

    Component order follows the dict insertion order of the first row;
    a legend line maps glyphs to component names.  The largest total
    spans 50 columns, and each total is printed in milliseconds.
    """
    if not rows:
        return "(no data)"
    components = list(rows[0][1])
    if len(components) > len(_SEGMENT_GLYPHS):
        raise ReproError(
            f"at most {len(_SEGMENT_GLYPHS)} stacked components supported"
        )
    peak = max(sum(parts.values()) for _, parts in rows) or 1.0
    label_width = max(len(label) for label, _ in rows)
    glyph_of = dict(zip(components, _SEGMENT_GLYPHS))
    lines = [
        "legend: "
        + "  ".join(f"{glyph_of[name]}={name}" for name in components)
    ]
    for label, parts in rows:
        segments = []
        for name in components:
            value = parts.get(name, 0.0)
            segments.append(glyph_of[name] * round(value / peak * 50))
        total = sum(parts.values())
        lines.append(
            f"{label.ljust(label_width)} |{''.join(segments)} {total:.3f}ms"
        )
    return "\n".join(lines)


def delta_bar_chart(rows: list[tuple[str, float]]) -> str:
    """Signed horizontal bars around a centre axis.

    Renders regression-table deltas: positive values grow rightwards
    from the axis, negative leftwards, scaled so that the largest
    absolute value fills the 20 columns on its side.  A zero row shows
    the bare axis.

    Parameters
    ----------
    rows : list of (str, float)
        ``(label, signed value)`` pairs: relative deltas in percent,
        each printed with a ``%`` suffix.
    """
    if not rows:
        return "(no data)"
    peak = max(abs(value) for _, value in rows)
    if peak <= 0:
        peak = 1.0
    half = 20
    label_width = max(len(label) for label, _ in rows)
    lines = []
    for label, value in rows:
        cells = max(1, round(abs(value) / peak * half)) if value else 0
        left = ("█" * cells if value < 0 else "").rjust(half)
        right = "█" * cells if value > 0 else ""
        lines.append(
            f"{label.ljust(label_width)} {left}|{right.ljust(half)} "
            f"{value:+.1f}%"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Report columns (the paper's decomposition)
# ----------------------------------------------------------------------


#: Every column a report can render, as ``name: (header, value
#: getter)``: the numeric :data:`~repro.exp.results.COLUMNS`, plus
#: two that only a report shows — the cell label and the SW(IMU) share
#: of the VIM total.
REPORT_COLUMNS = {
    **{
        name: (column.header, column.value)
        for name, column in COLUMNS.items()
    },
    "cell": ("cell", lambda r: r.label),
    "sw_imu_pct": (
        "SW(IMU)/total", lambda r: f"{r.sw_imu_fraction * 100:.2f}%"
    ),
}

#: The report's column set: the SW(DP)/SW(IMU) time decomposition
#: plus the speedup-over-software column of Figures 8/9.
DEFAULT_COLUMNS = (
    "cell", "sw_ms", "vim_ms", "hw_ms", "sw_dp_ms", "sw_imu_ms",
    "sw_imu_pct", "speedup", "faults",
)

#: The columns auto-appended to :data:`DEFAULT_COLUMNS` when a report
#: covers replicated rows (any ``config.replicates > 1``), in
#: :data:`~repro.exp.results.REPLICATED_COLUMNS` order.
REPLICATED_REPORT_COLUMNS = tuple(
    f"{field}_{stat}"
    for field in REPLICATED_COLUMNS
    for stat in ("mean", "cv")
)


def default_columns(rows) -> tuple[str, ...]:
    """The column set a report of *rows* renders.

    :data:`DEFAULT_COLUMNS`, plus the mean/CV summary columns when any
    row was replicated — so an unreplicated report stays byte-identical
    to the pre-replication renderer, and a replicated one surfaces its
    spread without being asked.  A store answers from its index
    instead of parsing every row.
    """
    if isinstance(rows, SqliteStore):
        replicated = rows.any_replicated()
    else:
        replicated = any(row.config.replicates > 1 for row in rows)
    if replicated:
        return DEFAULT_COLUMNS + REPLICATED_REPORT_COLUMNS
    return DEFAULT_COLUMNS


def group_axes() -> tuple[str, ...]:
    """Config axes a report can group along (``--group-by`` choices)."""
    return tuple(f.name for f in fields(CellConfig))


def check_group_axes(axes) -> None:
    """Refuse any ``--group-by`` axis that is not a config field."""
    known_axes = group_axes()
    bad = [axis for axis in axes if axis not in known_axes]
    if bad:
        raise ReproError(
            f"unknown group-by axis/axes {bad}; choices: {known_axes}"
        )


# ----------------------------------------------------------------------
# Store loading
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CacheRows:
    """The readable contents of one result store.

    Parameters
    ----------
    rows : tuple of CellResult
        Every valid entry, sorted by ``(label, key)`` — a canonical
        order independent of insertion order or of which machine (or
        shard) produced each entry.
    skipped : int
        Entries that did not parse as current-version rows (stale
        schema version, corrupt JSON, hash mismatch) and were left
        out of the report.
    """

    rows: tuple[CellResult, ...]
    skipped: int


def load_cache_rows(
    cache_dir: str | Path, allow_empty: bool = False
) -> CacheRows:
    """Load every valid cell result stored in the store *cache_dir*.

    Parameters
    ----------
    cache_dir : str or Path
        A SQLite result store (``--cache PATH`` of a previous run, or
        the output of :func:`repro.exp.merge.merge_into`).
    allow_empty : bool
        With the default ``False``, a store holding no valid entry
        raises.  ``True`` returns an empty row set instead — the
        baseline loader uses that so a baseline written under an older
        ``CACHE_VERSION`` degrades to "nothing to compare" rather than
        failing the report it annotates.

    Returns
    -------
    CacheRows
        Valid rows in canonical order plus the skipped-entry count.

    Raises
    ------
    ReproError
        If the store does not exist or is not a store, or (unless
        *allow_empty*) holds no valid entry.
    """
    root = Path(cache_dir)
    rows = []
    skipped = 0
    with open_store(root) as store:
        for _origin, status, result in store.iter_classified():
            if status == "ok":
                rows.append(result)
            else:
                skipped += 1
    if not rows and not allow_empty:
        raise ReproError(
            f"no loadable cell results in {root} "
            f"({skipped} stale/invalid entr"
            f"{'y' if skipped == 1 else 'ies'} skipped); "
            "run `repro sweep --cache` first"
        )
    rows.sort(key=lambda r: (r.label, r.key))
    return CacheRows(rows=tuple(rows), skipped=skipped)


# ----------------------------------------------------------------------
# Grouping and report rendering
# ----------------------------------------------------------------------


def group_sorted(items, values_of) -> list[tuple[tuple, list]]:
    """Bucket *items* by their group values; buckets in sorted order.

    *values_of* maps an item (a report row, a diff cell) to its tuple
    of raw config-axis values.  Buckets sort by those **raw** values
    (``None`` first), so numeric axes order numerically — a page-size
    grouping renders 512, 1024, 2048, not the lexicographic 1024,
    2048, 512.
    """
    groups: dict[tuple, list] = {}
    for item in items:
        groups.setdefault(values_of(item), []).append(item)
    return sorted(
        groups.items(),
        key=lambda item: tuple((v is not None, v) for v in item[0]),
    )


def group_title(axes, values) -> str:
    """``axis=value, ...``: the name of one group."""
    return ", ".join(
        f"{axis}={format_cell(value)}" for axis, value in zip(axes, values)
    )


def write_report(
    rows,
    out,
    fmt: str = "md",
    group_by: tuple[str, ...] = (),
    baseline=None,
) -> int:
    """Write the report of *rows* to *out*; the one report writer.

    The columns are :func:`default_columns`: the classic set, widened
    by the mean/CV summaries when any row is replicated.

    Parameters
    ----------
    rows : re-iterable of CellResult
        The rows to report, **in report order** (``(label, key)``):
        a store (iterating one yields exactly that) or a sorted list.
        A flat report reads them one at a time and writes each line
        as it goes — constant memory — except that ``ascii`` reads
        them twice (column widths first) and a baseline report once
        more (the absent-cell note).  Grouped reports collect the rows
        into their groups.
    out : file-like
        Destination, written via ``out.write``; no trailing newline.
    fmt : str
        One of :data:`FORMATS`.
    group_by : tuple of str
        Config axes to group along (see :func:`group_axes`).  ``md``
        and ``ascii`` render one headed table per group; ``csv`` stays
        one flat table with the group axes as leading columns.
    baseline : iterable of CellResult, optional
        A second run's rows (``--baseline STORE``).  Every numeric
        cell is annotated with its delta against the baseline row of
        the same config hash (:func:`format_delta`); rows with no
        baseline counterpart are marked ``(new)``, and baseline rows
        absent from *rows* are listed after the tables (``md``/
        ``ascii`` only — ``csv`` stays pure records, with the
        annotations as quoted fields).  ``None`` renders the classic
        unannotated report.

    Returns
    -------
    int
        Rows written.

    Raises
    ------
    ReproError
        On an unknown format or axis name.
    """
    _check_format(fmt)
    check_group_axes(group_by)
    selected = [REPORT_COLUMNS[name] for name in default_columns(rows)]
    headers = [header for header, _value in selected]
    base_by_key = (
        None if baseline is None else {row.key: row for row in baseline}
    )
    written = 0

    def cells(row) -> list[str]:
        out_cells = []
        for _header, value_of in selected:
            value = value_of(row)
            if base_by_key is not None and _is_number(value):
                base_row = base_by_key.get(row.key)
                if base_row is None:
                    value = f"{format_cell(value)} (new)"
                else:
                    value = format_cell(value) + format_delta(
                        value, value_of(base_row)
                    )
            out_cells.append(format_cell(value))
        return out_cells

    def table(table_headers, group, leading=lambda row: []) -> None:
        def rendered(count: bool):
            nonlocal written
            for row in group:
                written += count
                yield leading(row) + cells(row)

        widths = None
        if fmt == "ascii":
            widths = _widths(table_headers, rendered(False))
        lines = _table_lines(table_headers, rendered(True), fmt, widths)
        out.write(next(lines))
        for line in lines:
            out.write("\n" + line)

    def group_values(row) -> tuple:
        return tuple(getattr(row.config, axis) for axis in group_by)

    if not group_by:
        table(headers, rows)
    elif fmt == "csv":
        grouped = group_sorted(rows, group_values)
        table(
            list(group_by) + headers,
            [row for _values, group in grouped for row in group],
            leading=lambda row: [format_cell(v) for v in group_values(row)],
        )
    else:
        for index, (values, group) in enumerate(
            group_sorted(rows, group_values)
        ):
            title = group_title(group_by, values)
            heading = f"### {title}" if fmt == "md" else f"== {title} =="
            out.write(("\n\n" if index else "") + heading + "\n\n")
            table(headers, group)
    if base_by_key is not None and fmt != "csv":
        # csv stays pure records (a prose trailer would corrupt any
        # downstream parser); annotation strings are quoted fields,
        # which RFC 4180 allows.
        present = {row.key for row in rows}
        gone = sorted(
            (row.label, key)
            for key, row in base_by_key.items()
            if key not in present
        )
        if gone:
            labels = ", ".join(label for label, _ in gone)
            out.write(
                f"\n\n{len(gone)} baseline cell(s) absent from this "
                f"cache: {labels}"
            )
    return written


def render_report(
    rows,
    group_by: tuple[str, ...] = (),
    fmt: str = "md",
    baseline=None,
) -> str:
    """Render *rows*, in any order, as the :func:`write_report` text.

    Rendering order is canonicalised here (sorted by ``(label,
    key)``), so any input order produces the same bytes.  See
    :func:`write_report` for the parameters.

    Returns
    -------
    str
        The rendered report (no trailing newline).
    """
    out = io.StringIO()
    write_report(
        sorted(rows, key=lambda r: (r.label, r.key)),
        out,
        fmt=fmt,
        group_by=tuple(group_by),
        baseline=baseline,
    )
    return out.getvalue()
