"""Cross-run diffing: two runs in, one regression table out.

The paper's core claims are deltas, and so are a CI reviewer's
questions: did this PR make ``vim_ms`` worse, did the fault count
move, did a cell disappear?  This module compares two runs — SQLite
result stores or ``repro sweep --json`` row dumps — by aligning rows
on their config hash and classifying every metric of every matched
cell against a configurable tolerance:

* :func:`diff_stores` — the one differ: both sides read through
  :func:`~repro.exp.store.iter_source` and aligned with
  :func:`~repro.exp.store.join_keyed`, the key join ``repro merge``
  uses too, into a typed :class:`DiffResult` of per-cell
  :class:`MetricDelta` columns (absolute + relative), plus added /
  removed cells and distinct counts of stale-``CACHE_VERSION``
  entries (usually a deliberate schema bump) and invalid ones
  (corruption);
* :func:`render_diff` — the regression table (through
  :func:`~repro.exp.report.render_table`) with ASCII delta bars for
  the changed cells, per cell or per axis group of the diff's
  ``group_by`` (grouped through
  :func:`~repro.exp.report.group_sorted`, like a grouped report).

Tolerance follows the ``numpy.isclose`` shape — a delta is *changed*
when ``|current - base| > atol + rtol * |base|`` — and every metric
knows its bad direction (the ``higher_is_worse`` of its
:data:`~repro.exp.results.COLUMNS` entry), so an improvement is a
change but never a *regression*.  ``repro diff BASELINE CURRENT`` is
the command-line face (exit 1 on regressions beyond tolerance, 0
otherwise); CI runs it between a PR's merged shard cache and the
main-branch baseline.

Two banding policies select how the tolerance is derived (``repro
diff --bands {exact,cv}``):

* ``exact`` (the default) — the hand-picked ``--rtol``/``--atol``
  applied uniformly, rows aligned by config hash.  Right for
  deterministic comparisons of the *same* grid (a refactor that must
  not move a row, cache reproducibility).
* ``cv`` — rows aligned by :func:`~repro.exp.spec.replica_hash`
  (seed-blind), replicated metrics compared **mean against mean**
  with a per-cell, per-metric tolerance of
  :data:`CV_BAND_SIGMA` x the baseline's own CV column on top of
  ``--rtol``.  Deterministic metrics carry a CV of 0.0, so their band
  collapses to exact match — regressions cannot hide behind noise
  that is not there.  Right for comparing runs over *independent
  seed sets*, where "regression" must mean "outside the noise
  envelope", not "not byte-identical".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

from repro.errors import ReproError
from repro.exp.report import (
    check_group_axes,
    delta_bar_chart,
    format_cell,
    format_delta,
    group_sorted,
    group_title,
    render_table,
)
from repro.exp.results import COLUMNS, REPLICATED_COLUMNS, CellResult, Column
from repro.exp.spec import CACHE_VERSION, fingerprint_from_keys, replica_hash
from repro.exp.store import iter_source, join_keyed, open_store


# ----------------------------------------------------------------------
# Metrics: the numeric result columns, and which direction is "worse"
# ----------------------------------------------------------------------

#: The default comparison set: the paper's time decomposition, the
#: speedup claim, and the fault count.
DEFAULT_METRICS = (
    "vim_ms", "hw_ms", "sw_dp_ms", "sw_imu_ms", "speedup", "faults",
)

#: Tolerance-band policies of ``repro diff --bands``.
BANDS = ("exact", "cv")

#: Band half-width in baseline CVs: a current mean within
#: ``CV_BAND_SIGMA`` sample-CVs of the baseline mean is noise, outside
#: is a change.  Three sigma of a normal leaves ~0.3 % false alarms
#: per metric; with the deliberately seed-sensitive synthetic cells
#: the replicate spread is the honest noise floor, so the classic
#: control-chart width carries over.
CV_BAND_SIGMA = 3.0


def within_tolerance(base: float, current: float, rtol: float, atol: float) -> bool:
    """``|current - base| <= atol + rtol * |base|`` (numpy-isclose shape)."""
    return abs(current - base) <= atol + rtol * abs(base)


@dataclass(frozen=True)
class MetricDelta:
    """One metric of one cell, compared across the two runs.

    Parameters
    ----------
    metric : str
        The metric's selector name.
    base, current : float
        The two values being compared.
    changed : bool
        Beyond tolerance in either direction.
    regressed : bool
        Changed *and* in the metric's bad direction.
    """

    metric: str
    base: float
    current: float
    changed: bool
    regressed: bool

    @property
    def absolute(self) -> float:
        """``current - base``."""
        return self.current - self.base

    @property
    def relative(self) -> float | None:
        """``(current - base) / base``, or ``None`` when base is 0."""
        if not self.base:
            return None
        return self.absolute / self.base


def scalar_delta(
    name: str,
    base: float,
    current: float,
    rtol: float = 0.0,
    atol: float = 0.0,
    higher_is_worse: bool | None = True,
) -> MetricDelta:
    """Classify one (base, current) pair — the shared tolerance core.

    Everything that compares two numbers under the repository's
    tolerance policy funnels through here.
    """
    delta = current - base
    changed = not within_tolerance(base, current, rtol, atol)
    if higher_is_worse is None:
        worse = False
    elif higher_is_worse:
        worse = delta > 0
    else:
        worse = delta < 0
    return MetricDelta(
        metric=name,
        base=base,
        current=current,
        changed=changed,
        regressed=changed and worse,
    )


def banded_delta(
    metric: Column,
    base_row: CellResult,
    current_row: CellResult,
    rtol: float = 0.0,
    atol: float = 0.0,
) -> MetricDelta:
    """Classify one metric of one cell under the ``cv`` band policy.

    For metrics whose field carries cross-replicate summaries
    (:data:`~repro.exp.results.REPLICATED_COLUMNS`), the comparison is
    **mean against mean** and the relative tolerance widens by
    :data:`CV_BAND_SIGMA` times the *baseline's* CV for that cell and
    metric — the variance-derived band of the cell_OS protocol.  A
    deterministic metric has CV 0.0, so its band collapses to the
    passed ``rtol``/``atol`` (exact by default).  Metrics without
    summaries compare their primary values under the passed tolerance
    unchanged.
    """
    if metric.field in REPLICATED_COLUMNS:
        base = getattr(base_row, f"{metric.field}_mean")
        current = getattr(current_row, f"{metric.field}_mean")
        band_rtol = rtol + CV_BAND_SIGMA * getattr(
            base_row, f"{metric.field}_cv"
        )
    else:
        base = metric.value(base_row)
        current = metric.value(current_row)
        band_rtol = rtol
    return scalar_delta(
        metric.name,
        base,
        current,
        rtol=band_rtol,
        atol=atol,
        higher_is_worse=metric.higher_is_worse,
    )


# ----------------------------------------------------------------------
# The diff itself
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DiffSide:
    """What one comparison side contributed besides its rows.

    Parameters
    ----------
    origin : str
        Where the rows came from (for messages).
    fingerprint : str
        :func:`~repro.exp.spec.fingerprint_from_keys` over the side's
        alignment keys: config hashes under ``exact`` bands (the
        :func:`~repro.exp.spec.grid_fingerprint`), seed-blind
        :func:`~repro.exp.spec.replica_hash` digests under ``cv``.
    stale : int
        Entries carrying a different
        :data:`~repro.exp.spec.CACHE_VERSION` — usually a schema bump,
        reported distinctly from corruption.
    invalid : int
        Corrupt / re-keyed / unparsable entries.
    """

    origin: str
    fingerprint: str
    stale: int
    invalid: int


@dataclass(frozen=True)
class CellDiff:
    """All compared metrics of one config present in both runs.

    The rows themselves are dropped once the deltas are computed, so a
    large diff never retains them — everything :func:`render_diff`
    needs lives on the label, the deltas and ``group_values``.
    """

    key: str
    label: str
    deltas: tuple[MetricDelta, ...]
    #: Raw config-axis values of a ``--group-by`` request, in axis
    #: order (recorded during the join: the configs are gone by
    #: render time).
    group_values: tuple = ()

    @property
    def changed(self) -> bool:
        """Any metric beyond tolerance (either direction)."""
        return any(d.changed for d in self.deltas)

    @property
    def regressed(self) -> bool:
        """Any metric beyond tolerance in its bad direction."""
        return any(d.regressed for d in self.deltas)


@dataclass(frozen=True)
class _LeanRow:
    """A row reduced to what added/removed rendering touches."""

    key: str
    label: str


@dataclass(frozen=True)
class DiffResult:
    """The typed outcome of comparing two runs.

    Parameters
    ----------
    cells : tuple of CellDiff
        Configs present in both runs, in canonical (label, key) order.
    added, removed : tuple
        Configs only in the current run / only in the baseline, in
        (label, key) order, as rows carrying ``key`` and ``label``.
    baseline, current : DiffSide
        The two sides' origins, fingerprints and stale/invalid counts.
    metrics : tuple of str
        The compared metric selectors, in column order.
    rtol, atol : float
        The tolerance the classification used.
    bands : str
        The band policy (:data:`BANDS`): ``exact`` aligned rows by
        config hash and applied rtol/atol uniformly; ``cv`` aligned
        rows seed-blind and widened each replicated metric's band by
        the baseline's CV.
    group_by : tuple of str
        The config axes whose values each :class:`CellDiff` recorded
        (``repro diff --group-by``); :func:`render_diff` aggregates
        along them.
    """

    cells: tuple[CellDiff, ...]
    added: tuple[_LeanRow, ...]
    removed: tuple[_LeanRow, ...]
    baseline: DiffSide
    current: DiffSide
    metrics: tuple[str, ...]
    rtol: float
    atol: float
    bands: str = "exact"
    group_by: tuple[str, ...] = ()

    @property
    def changed_cells(self) -> tuple[CellDiff, ...]:
        return tuple(c for c in self.cells if c.changed)

    @property
    def regressions(self) -> tuple[CellDiff, ...]:
        return tuple(c for c in self.cells if c.regressed)

    @property
    def has_regressions(self) -> bool:
        """The CI gate: any matched cell regressed beyond tolerance."""
        return bool(self.regressions)

    def fingerprints(self) -> tuple[str, str]:
        """Grid fingerprints of (baseline, current) — equal iff the
        two runs cover the same configurations.  Under ``cv`` bands
        the fingerprint is seed-blind: disjoint seed sets over the same
        design space are *meant* to match."""
        return self.baseline.fingerprint, self.current.fingerprint


def _resolve_metrics(names) -> list[Column]:
    unknown = [name for name in names if name not in COLUMNS]
    if unknown:
        raise ReproError(
            f"unknown diff metric(s) {unknown}; choices: {sorted(COLUMNS)}"
        )
    return [COLUMNS[name] for name in names]


def _side_rows(path: Path, statuses: Counter):
    """One side's loadable rows in key order, one per config.

    Every entry's status is tallied into *statuses*.  A store or a
    ``--json`` dump is read through
    :func:`~repro.exp.store.iter_source`; a dump may repeat a config
    only with an equal row.  A directory is refused: a legacy JSON
    cache is imported with ``repro merge`` first.
    """
    if not path.exists():
        raise ReproError(f"diff source {path} does not exist")
    if path.is_dir():
        open_store(path)  # raises, naming the `repro merge` import

    def loadable():
        for origin, status, result in iter_source(path):
            statuses[status] += 1
            if result is not None:
                yield origin, result

    for key, entries in groupby(loadable(), key=lambda entry: entry[1].key):
        _origin, first = next(entries)
        for origin, result in entries:
            if result != first:
                raise ReproError(
                    f"diff source {path} carries two different results "
                    f"for config {key} ({origin})"
                )
        yield first


def _replica_aligned(rows, origin: Path):
    """Re-key rows by seed-blind replica hash, sorted in memory.

    Raises
    ------
    ReproError
        If two rows share a replica hash — the side swept a seed
        *axis*, which ``--bands cv`` cannot align (within one run,
        replication belongs in ``--replicates``, not in ``--seed``).
    """
    by_replica: dict[str, CellResult] = {}
    for result in rows:
        key = replica_hash(result.config)
        clash = by_replica.get(key)
        if clash is not None:
            raise ReproError(
                f"{origin} holds two rows differing only by seed "
                f"(seeds {clash.config.seed} and {result.config.seed} of "
                f"replica {key}): --bands cv aligns cells across seed "
                "sets, so within one run replication must come from "
                "--replicates, not a seed axis"
            )
        by_replica[key] = result
    return sorted(by_replica.items())


def diff_stores(
    baseline: str | Path,
    current: str | Path,
    metrics=DEFAULT_METRICS,
    rtol: float = 0.0,
    atol: float = 0.0,
    bands: str = "exact",
    group_by: tuple[str, ...] = (),
) -> DiffResult:
    """Align two runs and classify every metric of every match.

    Both sides are walked as sorted streams of ``(alignment key,
    row)`` and aligned with :func:`~repro.exp.store.join_keyed`; each
    :class:`~repro.exp.results.CellResult` is dropped the moment its
    deltas are computed, and the returned :class:`DiffResult` holds
    only labels, deltas and fingerprints.  Two stores under ``exact``
    bands stream off their key-sorted cursors in constant memory; a
    ``--json`` dump side, or ``cv`` alignment by replica hash, sorts
    that side in memory first.  No simulation happens.

    Parameters
    ----------
    baseline, current : str or Path
        SQLite result stores or ``repro sweep --json`` dumps, either
        on either side.
    metrics : sequence of str
        Metric selectors from :data:`~repro.exp.results.COLUMNS`.
    rtol, atol : float
        Relative / absolute tolerance; a delta within
        ``atol + rtol * |base|`` is neither a change nor a regression.
        The defaults are exact — the simulator is deterministic, so
        any drift is a real behaviour change.
    bands : str
        Band policy from :data:`BANDS`.  ``exact`` aligns rows by
        config hash and applies rtol/atol uniformly
        (:func:`scalar_delta`); ``cv`` aligns rows seed-blind by
        :func:`~repro.exp.spec.replica_hash` and classifies each
        metric through :func:`banded_delta`, widening replicated
        metrics by the baseline's own per-cell CV.
    group_by : tuple of str
        Config axes whose raw values to record per matched cell
        (``repro diff --group-by``); :func:`render_diff` aggregates
        the table and bars along them.

    Raises
    ------
    ReproError
        On a missing, empty or malformed side, a dump carrying two
        different results for one config, unknown metric names or
        axes, negative tolerances, an unknown band policy, or (``cv``
        only) a side whose rows differ only by seed.
    """
    if rtol < 0 or atol < 0:
        raise ReproError(f"tolerances must be >= 0, got rtol={rtol} atol={atol}")
    if bands not in BANDS:
        raise ReproError(f"unknown band policy {bands!r}; choices: {BANDS}")
    selected = _resolve_metrics(metrics)
    group_by = tuple(group_by)
    check_group_axes(group_by)
    paths = (Path(baseline), Path(current))
    statuses = (Counter(), Counter())
    streams = []
    for path, side_statuses in zip(paths, statuses):
        rows = _side_rows(path, side_statuses)
        if bands == "cv":
            streams.append(_replica_aligned(rows, path))
        else:
            streams.append((row.key, row) for row in rows)
    keys: tuple[list[str], list[str]] = ([], [])
    cells: list[CellDiff] = []
    added: list[_LeanRow] = []
    removed: list[_LeanRow] = []
    for key, members in join_keyed(streams):
        sides = {index: row for index, (_key, row) in members}
        for index in sides:
            keys[index].append(key)
        if 1 not in sides:
            removed.append(_LeanRow(key=sides[0].key, label=sides[0].label))
            continue
        if 0 not in sides:
            added.append(_LeanRow(key=sides[1].key, label=sides[1].label))
            continue
        base_row, current_row = sides[0], sides[1]
        if bands == "cv":
            deltas = tuple(
                banded_delta(metric, base_row, current_row, rtol=rtol, atol=atol)
                for metric in selected
            )
        else:
            deltas = tuple(
                scalar_delta(
                    metric.name,
                    metric.value(base_row),
                    metric.value(current_row),
                    rtol=rtol,
                    atol=atol,
                    higher_is_worse=metric.higher_is_worse,
                )
                for metric in selected
            )
        cells.append(CellDiff(
            key=key,
            label=current_row.label,
            deltas=deltas,
            group_values=tuple(
                getattr(current_row.config, axis) for axis in group_by
            ),
        ))
    for path, side_statuses in zip(paths, statuses):
        if not side_statuses.total():
            raise ReproError(
                f"{path} holds no result rows; pass a result store or a "
                "non-empty `repro sweep --json` dump"
            )
    # The streams arrived in alignment-key order; canonical diff order
    # is (label, key).
    cells.sort(key=lambda cell: (cell.label, cell.key))
    added.sort(key=lambda row: (row.label, row.key))
    removed.sort(key=lambda row: (row.label, row.key))
    sides = tuple(
        DiffSide(
            origin=str(path),
            fingerprint=fingerprint_from_keys(side_keys),
            stale=side_statuses["stale-version"],
            invalid=side_statuses["invalid"],
        )
        for path, side_keys, side_statuses in zip(paths, keys, statuses)
    )
    return DiffResult(
        cells=tuple(cells),
        added=tuple(added),
        removed=tuple(removed),
        baseline=sides[0],
        current=sides[1],
        metrics=tuple(m.name for m in selected),
        rtol=rtol,
        atol=atol,
        bands=bands,
        group_by=group_by,
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def format_delta_cell(delta: MetricDelta) -> str:
    """One regression-table cell: ``0`` when equal, else the movement.

    ``base→current (+Δ, +r%)``, with `` !`` appended when the delta
    regressed.
    """
    if delta.absolute == 0:
        return "0"
    text = (
        f"{format_cell(delta.base)}→{format_cell(delta.current)}"
        f"{format_delta(delta.current, delta.base)}"
    )
    if delta.regressed:
        text += " !"
    return text


def _status(cells) -> str:
    """A table row's status from its member cells: ``REGRESSION`` if
    any regressed, else ``changed`` if any changed, else ``ok``."""
    if any(cell.regressed for cell in cells):
        return "REGRESSION"
    if any(cell.changed for cell in cells):
        return "changed"
    return "ok"


def _side_notes(side: DiffSide, name: str) -> list[str]:
    notes = []
    if side.stale:
        notes.append(
            f"{name}: {side.stale} stale-version file(s) skipped "
            f"(written under a different CACHE_VERSION than {CACHE_VERSION})"
        )
    if side.invalid:
        notes.append(f"{name}: {side.invalid} invalid file(s) skipped")
    return notes


def _group_deltas(cells: list[CellDiff]) -> list[MetricDelta]:
    """Each metric aggregated over a group: mean vs mean.

    ``changed``/``regressed`` hold if *any* cell in the group did —
    an aggregate table must not average a regression away.
    """
    return [
        MetricDelta(
            metric=deltas[0].metric,
            base=sum(d.base for d in deltas) / len(deltas),
            current=sum(d.current for d in deltas) / len(deltas),
            changed=any(d.changed for d in deltas),
            regressed=any(d.regressed for d in deltas),
        )
        for deltas in zip(*(cell.deltas for cell in cells))
    ]


def _delta_bars(metric: str, labelled) -> str:
    """Delta bars of *metric* over the changed ``(label, delta)`` pairs."""
    rows = [
        (label, delta.relative * 100.0)
        for label, delta in labelled
        if delta.changed and delta.relative is not None
    ]
    if not rows:
        return ""
    return f"Δ {metric} vs baseline:\n" + delta_bar_chart(rows)


def render_diff(result: DiffResult, fmt: str = "ascii") -> str:
    """Render a :class:`DiffResult`: regression table, summary, bars.

    Without ``group_by`` the table has one row per matched cell.  With
    the diff's ``group_by`` axes (``repro diff --group-by``) it has one
    row per axis-value combination instead, with mean-vs-mean deltas
    and a status that regresses if *any* member cell regressed; the
    summary line, added/removed lists, and side notes stay per-cell.
    ASCII delta bars of the first compared metric (relative deltas,
    changed rows only) close the output; ``md`` wraps them in a fenced
    block.

    Parameters
    ----------
    result : DiffResult
        The comparison to render.
    fmt : str
        One of :data:`~repro.exp.report.FORMATS`; the table routes
        through :func:`~repro.exp.report.render_table`.

    Returns
    -------
    str
        The rendered diff (no trailing newline).  Identical runs
        render an all-zero table and an "0 changed, 0 regressions"
        summary.  ``csv`` emits the table records only — no summary,
        notes, or bars — so the output stays machine-parseable; the
        added/removed/stale information is available on the
        :class:`DiffResult` itself, and the exit code still gates.
    """
    group_by = result.group_by
    # (leading cells, bar label, deltas, member cells) per table row.
    if group_by:
        table_rows = [
            (
                list(values) + [len(cells)],
                group_title(group_by, values),
                _group_deltas(cells),
                cells,
            )
            for values, cells in group_sorted(
                result.cells, lambda cell: cell.group_values
            )
        ]
        leading = list(group_by) + ["cells"]
    else:
        table_rows = [
            ([cell.label], cell.label, cell.deltas, [cell])
            for cell in result.cells
        ]
        leading = ["cell"]
    table = render_table(
        leading + [f"Δ {name}" for name in result.metrics] + ["status"],
        [
            first + [format_delta_cell(delta) for delta in deltas]
            + [_status(cells)]
            for first, _label, deltas, cells in table_rows
        ],
        fmt,
    )
    if fmt == "csv":
        return table
    tolerance = f"rtol={result.rtol:g}, atol={result.atol:g}"
    if result.bands != "exact":
        tolerance += (
            f", bands={result.bands} "
            f"(+{CV_BAND_SIGMA:g} baseline CVs on replicated metrics)"
        )
    summary = (
        f"{len(result.cells)} cell(s) compared: "
        f"{len(result.changed_cells)} changed, "
        f"{len(result.regressions)} regression(s); "
        f"{len(result.added)} added, {len(result.removed)} removed "
        f"({tolerance})"
    )
    lines = [table, "", summary]
    if result.added:
        labels = ", ".join(r.label for r in result.added)
        lines.append(f"added (current only): {labels}")
    if result.removed:
        labels = ", ".join(r.label for r in result.removed)
        lines.append(f"removed (baseline only): {labels}")
    lines += _side_notes(result.baseline, "baseline")
    lines += _side_notes(result.current, "current")
    base_print, current_print = result.fingerprints()
    if base_print != current_print:
        lines.append(
            f"grids differ: baseline fingerprint {base_print}, "
            f"current {current_print}"
        )
    if not result.cells:
        lines.append(
            "no comparable cells — the runs share no config hash "
            "(different grid, or a CACHE_VERSION bump made the baseline "
            "stale); nothing to gate on"
        )
    if result.metrics:
        chart = _delta_bars(
            result.metrics[0],
            [(label, deltas[0]) for _, label, deltas, _ in table_rows],
        )
        if chart:
            lines.append("")
            if fmt == "md":
                chart = f"```\n{chart}\n```"
            lines.append(chart)
    return "\n".join(lines)
