"""Cross-run diffing: two runs in, one regression table out.

The paper's core claims are deltas, and so are a CI reviewer's
questions: did this PR make ``vim_ms`` worse, did the fault count
move, did a cell disappear?  This module compares two runs — SQLite
result stores or ``repro sweep --json`` row dumps — by aligning rows
on their config hash and classifying every metric of every matched
cell against a configurable tolerance:

* :func:`diff_stores` — the one differ: a sorted merge-join of the
  two sides into a typed :class:`DiffResult` of per-cell
  :class:`MetricDelta` columns (absolute + relative), plus added /
  removed cells and distinct counts of stale-``CACHE_VERSION``
  entries (usually a deliberate schema bump) and invalid ones
  (corruption);
* :func:`render_diff` — the regression table (through
  :func:`~repro.exp.report.render_table`) with ASCII delta bars for
  the changed cells.

Tolerance follows the ``numpy.isclose`` shape — a delta is *changed*
when ``|current - base| > atol + rtol * |base|`` — and every metric
knows its bad direction, so an improvement is a change but never a
*regression*.  ``repro diff BASELINE CURRENT`` is the command-line
face (exit 1 on regressions beyond tolerance, 0 otherwise); CI runs
it between a PR's merged shard cache and the main-branch baseline.

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

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.errors import ReproError
from repro.exp.cache import iter_dump_rows
from repro.exp.report import (
    check_group_axes,
    delta_bar_chart,
    format_cell,
    format_delta,
    render_table,
)
from repro.exp.results import REPLICATED_COLUMNS, CellResult
from repro.exp.spec import CACHE_VERSION, fingerprint_from_keys, replica_hash
from repro.exp.store import is_sqlite_file, open_store


# ----------------------------------------------------------------------
# Metrics: what gets compared, and which direction is "worse"
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    """One diffable result column.

    Parameters
    ----------
    name : str
        Selector and table header.
    field : str
        The :class:`~repro.exp.results.CellResult` column the metric
        reads — the coverage contract: every numeric result column
        must appear as exactly one metric's field (enforced by
        ``tests/exp/test_metrics_coverage.py``), so a new column
        cannot ship without declaring its regression direction.  When
        the field is one of
        :data:`~repro.exp.results.REPLICATED_COLUMNS`, ``--bands cv``
        compares its ``_mean`` column under a tolerance derived from
        the baseline's ``_cv`` column.
    value : callable
        Extracts the numeric value from a
        :class:`~repro.exp.results.CellResult` (``None``-valued
        optional columns read as 0.0).
    higher_is_worse : bool or None
        Regression direction: ``True`` for times and fault counts,
        ``False`` for speedups and hit rates, ``None`` for counters
        with no inherent direction (tracked as *changed*, never as a
        regression).
    """

    name: str
    field: str
    value: Callable[[CellResult], float]
    higher_is_worse: bool | None = True


def _metric(
    name: str, field: str, higher_is_worse: bool | None = True
) -> Metric:
    """A metric reading *field* directly (None reads as 0.0)."""
    return Metric(
        name,
        field,
        lambda r: getattr(r, field) if getattr(r, field) is not None else 0.0,
        higher_is_worse=higher_is_worse,
    )


def _replicated_metrics() -> dict[str, Metric]:
    """The ``_mean`` / ``_cv`` summary metrics, one pair per entry of
    :data:`~repro.exp.results.REPLICATED_COLUMNS`.

    A mean column inherits its primary metric's regression direction;
    a CV column has none (variance moving is worth flagging, but is
    not by itself a regression).
    """
    out: dict[str, Metric] = {}
    for field in REPLICATED_COLUMNS:
        direction = False if field == "vim_speedup" else True
        out[f"{field}_mean"] = _metric(
            f"{field}_mean", f"{field}_mean", higher_is_worse=direction
        )
        out[f"{field}_cv"] = _metric(
            f"{field}_cv", f"{field}_cv", higher_is_worse=None
        )
    return out


#: Every metric ``repro diff`` can compare, keyed by selector name.
METRICS: dict[str, Metric] = {
    "sw_ms": _metric("sw_ms", "sw_ms"),
    "vim_ms": _metric("vim_ms", "vim_ms"),
    "hw_ms": _metric("hw_ms", "hw_ms"),
    "sw_dp_ms": _metric("sw_dp_ms", "sw_dp_ms"),
    "sw_imu_ms": _metric("sw_imu_ms", "sw_imu_ms"),
    "sw_other_ms": _metric("sw_other_ms", "sw_other_ms"),
    "speedup": _metric("speedup", "vim_speedup", higher_is_worse=False),
    "faults": _metric("faults", "page_faults"),
    "compulsory_loads": _metric("compulsory_loads", "compulsory_loads"),
    "tlb_refills": _metric("tlb_refills", "tlb_refills"),
    "evictions": _metric("evictions", "evictions"),
    "steals": _metric("steals", "steals"),
    "writebacks": _metric("writebacks", "writebacks"),
    "bytes_to_dpram": _metric("bytes_to_dpram", "bytes_to_dpram"),
    "bytes_from_dpram": _metric("bytes_from_dpram", "bytes_from_dpram"),
    "tlb_hit_rate": _metric(
        "tlb_hit_rate", "tlb_hit_rate", higher_is_worse=False
    ),
    "typical_ms": _metric("typical_ms", "typical_ms"),
    "typical_speedup": _metric(
        "typical_speedup", "typical_speedup", higher_is_worse=False
    ),
    "prefetches": _metric("prefetches", "prefetches", higher_is_worse=None),
    "dma_transfers": _metric(
        "dma_transfers", "dma_transfers", higher_is_worse=None
    ),
    **_replicated_metrics(),
}

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
    tolerance policy funnels through here: the cache differ, and
    ``tools/bench_diff.py`` for benchmark JSON.
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
    metric: Metric,
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


def _resolve_metrics(names) -> list[Metric]:
    unknown = [name for name in names if name not in METRICS]
    if unknown:
        raise ReproError(
            f"unknown diff metric(s) {unknown}; choices: {sorted(METRICS)}"
        )
    return [METRICS[name] for name in names]


def _side_rows(path: Path, counter: list[int]):
    """One side's loadable rows in key order, tallying its entries.

    ``counter`` is ``[entries, stale, invalid]`` and is updated as the
    rows are read.  A SQLite store streams off its key-sorted cursor;
    a ``--json`` dump is a JSON list in memory already, so it is
    deduplicated and sorted there.
    """
    if not path.exists():
        raise ReproError(f"diff source {path} does not exist")
    if path.is_dir() or is_sqlite_file(path):
        with open_store(path) as store:
            for _origin, status, result in store.iter_classified():
                counter[0] += 1
                if status == "ok":
                    yield result
                elif status == "stale-version":
                    counter[1] += 1
                else:
                    counter[2] += 1
        return
    rows: dict[str, CellResult] = {}
    for origin, result in iter_dump_rows(path):
        counter[0] += 1
        if result is None:
            counter[2] += 1
            continue
        known = rows.get(result.key)
        if known is not None and known != result:
            raise ReproError(
                f"diff source {path} carries two different results for "
                f"config {result.key} ({origin})"
            )
        rows[result.key] = result
    yield from (rows[key] for key in sorted(rows))


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
    row)`` and aligned with a two-pointer merge-join; each
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
        Metric selectors from :data:`METRICS`.
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
        (``repro diff --group-by``), for :func:`render_diff`.

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
    check_group_axes(group_by)
    paths = (Path(baseline), Path(current))
    counters = ([0, 0, 0], [0, 0, 0])  # entries, stale, invalid
    streams = []
    for path, counter in zip(paths, counters):
        rows = _side_rows(path, counter)
        if bands == "cv":
            streams.append(iter(_replica_aligned(rows, path)))
        else:
            streams.append((row.key, row) for row in rows)
    base_stream, current_stream = streams
    base_keys: list[str] = []
    current_keys: list[str] = []
    cells: list[CellDiff] = []
    added: list[_LeanRow] = []
    removed: list[_LeanRow] = []
    base_item = next(base_stream, None)
    current_item = next(current_stream, None)
    while base_item is not None or current_item is not None:
        if current_item is None or (
            base_item is not None and base_item[0] < current_item[0]
        ):
            key, row = base_item
            base_keys.append(key)
            removed.append(_LeanRow(key=row.key, label=row.label))
            base_item = next(base_stream, None)
            continue
        if base_item is None or current_item[0] < base_item[0]:
            key, row = current_item
            current_keys.append(key)
            added.append(_LeanRow(key=row.key, label=row.label))
            current_item = next(current_stream, None)
            continue
        key, base_row = base_item
        _key, current_row = current_item
        base_keys.append(key)
        current_keys.append(key)
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
        base_item = next(base_stream, None)
        current_item = next(current_stream, None)
    for path, counter in zip(paths, counters):
        if not counter[0]:
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
            fingerprint=fingerprint_from_keys(keys),
            stale=counter[1],
            invalid=counter[2],
        )
        for path, keys, counter in zip(
            paths, (base_keys, current_keys), counters
        )
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
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def format_delta_cell(delta: MetricDelta, marker: str = " !") -> str:
    """One regression-table cell: ``0`` when equal, else the movement.

    ``base→current (+Δ, +r%)``, with *marker* appended when the delta
    regressed.  Shared with ``tools/bench_diff.py`` so the two
    regression tables read identically.
    """
    if delta.absolute == 0:
        return "0"
    text = (
        f"{format_cell(delta.base)}→{format_cell(delta.current)}"
        f"{format_delta(delta.current, delta.base)}"
    )
    if delta.regressed and marker:
        text += marker
    return text


def _cell_status(cell: CellDiff) -> str:
    if cell.regressed:
        return "REGRESSION"
    if cell.changed:
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


def _grouped_cells(
    result: DiffResult, group_by: tuple[str, ...]
) -> list[tuple[tuple, list[CellDiff]]]:
    """Matched cells bucketed by axis values, sorted like the report
    grouper (raw values, ``None`` first)."""
    groups: dict[tuple, list[CellDiff]] = {}
    for cell in result.cells:
        groups.setdefault(cell.group_values, []).append(cell)
    return sorted(
        groups.items(),
        key=lambda item: tuple((v is not None, v) for v in item[0]),
    )


def _group_delta(cells: list[CellDiff], index: int) -> MetricDelta:
    """One metric aggregated over a group: mean vs mean.

    ``changed``/``regressed`` hold if *any* cell in the group did —
    an aggregate table must not average a regression away.
    """
    deltas = [cell.deltas[index] for cell in cells]
    return MetricDelta(
        metric=deltas[0].metric,
        base=sum(d.base for d in deltas) / len(deltas),
        current=sum(d.current for d in deltas) / len(deltas),
        changed=any(d.changed for d in deltas),
        regressed=any(d.regressed for d in deltas),
    )


def _group_status(cells: list[CellDiff]) -> str:
    if any(cell.regressed for cell in cells):
        return "REGRESSION"
    if any(cell.changed for cell in cells):
        return "changed"
    return "ok"


def _grouped_table(
    result: DiffResult, group_by: tuple[str, ...], fmt: str
) -> str:
    """The ``--group-by`` aggregate table: one row per axis-value
    combination, mean-vs-mean deltas, any-cell status."""
    headers = (
        list(group_by) + ["cells"]
        + [f"Δ {name}" for name in result.metrics] + ["status"]
    )
    rows = []
    for values, cells in _grouped_cells(result, group_by):
        rows.append(
            list(values)
            + [len(cells)]
            + [
                format_delta_cell(_group_delta(cells, index))
                for index in range(len(result.metrics))
            ]
            + [_group_status(cells)]
        )
    return render_table(headers, rows, fmt)


def _grouped_bars(result: DiffResult, group_by: tuple[str, ...]) -> str:
    """Delta bars of the first metric's per-group mean relative delta."""
    if not result.metrics:
        return ""
    rows = []
    for values, cells in _grouped_cells(result, group_by):
        delta = _group_delta(cells, 0)
        if delta.changed and delta.relative is not None:
            label = ", ".join(
                f"{axis}={format_cell(value)}"
                for axis, value in zip(group_by, values)
            )
            rows.append((label, delta.relative * 100.0))
    if not rows:
        return ""
    return f"Δ {result.metrics[0]} vs baseline:\n" + delta_bar_chart(rows)


def render_diff(
    result: DiffResult,
    fmt: str = "ascii",
    bars: bool = True,
    group_by: tuple[str, ...] = (),
) -> str:
    """Render a :class:`DiffResult` as a regression table plus summary.

    Parameters
    ----------
    result : DiffResult
        The comparison to render.
    fmt : str
        One of :data:`~repro.exp.report.FORMATS`; the table routes
        through :func:`~repro.exp.report.render_table`.
    bars : bool
        Append ASCII delta bars (relative deltas of the first compared
        metric, changed cells only).  ``md`` wraps them in a fenced
        block.
    group_by : tuple of str
        Config axes to aggregate along (``repro diff --group-by``):
        instead of one row per cell, the table gets one row per
        axis-value combination with mean-vs-mean deltas and a status
        that regresses if *any* member cell regressed.  The summary
        line, added/removed lists, and side notes stay per-cell.

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
    check_group_axes(group_by)
    if group_by:
        table = _grouped_table(result, tuple(group_by), fmt)
    else:
        table = render_table(
            ["cell"] + [f"Δ {name}" for name in result.metrics] + ["status"],
            [
                [cell.label]
                + [format_delta_cell(delta) for delta in cell.deltas]
                + [_cell_status(cell)]
                for cell in result.cells
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
    if bars:
        chart = (
            _grouped_bars(result, tuple(group_by)) if group_by
            else _delta_bars(result)
        )
        if chart:
            lines.append("")
            if fmt == "md":
                chart = f"```\n{chart}\n```"
            lines.append(chart)
    return "\n".join(lines)


def _delta_bars(result: DiffResult) -> str:
    """Delta bars for the first compared metric's changed cells."""
    if not result.metrics:
        return ""
    primary = result.metrics[0]
    rows = []
    for cell in result.cells:
        delta = cell.deltas[0]
        if delta.changed and delta.relative is not None:
            rows.append((cell.label, delta.relative * 100.0))
    if not rows:
        return ""
    return f"Δ {primary} vs baseline:\n" + delta_bar_chart(rows)
