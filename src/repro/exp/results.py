"""Typed result rows produced by the cell runner.

A :class:`CellResult` is the flattened, JSON-stable record of one grid
cell: the configuration that produced it, the time decomposition of
every executed version, and the VIM counters the figures plot.  The
serialisation is exact (Python floats round-trip through ``repr`` in
JSON), which is what makes parallel and serial sweeps byte-comparable.

:data:`COLUMNS` describes every numeric column once: the selector
``repro diff --metric`` and ``repro history`` take, the report
header, and the direction in which a change is a regression.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

from repro.errors import ReproError
from repro.exp.spec import CellConfig


#: CellResult fields that JSON round-trips as lists but the dataclass
#: stores as tuples (normalised by :meth:`CellResult.from_dict`).
_TUPLE_FIELDS = (
    "tenant_labels",
    "tenant_ms",
    "tenant_faults",
    "tenant_evictions",
    "tenant_steals",
    "tenant_pages_lost",
)

#: The primary columns that grow cross-replicate ``<name>_mean`` /
#: ``<name>_cv`` summaries when ``config.replicates > 1``.  Order
#: matters: reports and the CLI print the derived columns in this
#: order.
REPLICATED_COLUMNS = (
    "vim_ms",
    "hw_ms",
    "sw_dp_ms",
    "sw_imu_ms",
    "vim_speedup",
    "page_faults",
)

#: ``(name, name_mean, name_cv)`` per :data:`REPLICATED_COLUMNS` entry,
#: so :meth:`CellResult.__post_init__` formats no attribute names.
_REPLICATED_SUMMARIES = tuple(
    (name, f"{name}_mean", f"{name}_cv") for name in REPLICATED_COLUMNS
)


@dataclass(frozen=True)
class CellResult:
    """Measurements of one executed cell (all times in milliseconds).

    Parameters
    ----------
    config : CellConfig
        The configuration that produced this row.
    key, label, workload : str
        The config's cache hash, its compact human label, and the name
        of the workload it built.
    sw_ms, vim_ms, hw_ms, sw_dp_ms, sw_imu_ms, sw_other_ms : float
        The paper's time decomposition: pure-software total, VIM-based
        total, and the VIM total's hardware / DP-RAM-management /
        IMU-management / OS-plumbing components.  For multi-tenant
        cells ``vim_ms`` is the *makespan* of the whole contended run
        and the component times are sums over tenants.
    vim_speedup : float
        ``sw_ms / vim_ms``.
    page_faults, compulsory_loads, evictions, steals, writebacks,
    prefetches, bytes_to_dpram, bytes_from_dpram : int
        VIM event counters (summed over tenants when ``tenants > 1``;
        ``steals`` counts cross-tenant evictions and is 0 for solo
        cells).
    tlb_refills : int
        Faults serviced without moving data — the page was resident
        but its translation had been displaced (TLB smaller than the
        frame count).  Kept out of ``page_faults`` so the §4.1 fault
        decomposition is not inflated by translation churn.
    dma_transfers : int
        Page movements performed by DMA descriptor instead of CPU copy
        (non-zero for ``transfer="dma"`` cells and overlapped
        prefetching).
    tlb_hit_rate : float
        Fraction of IMU TLB lookups that hit.
    typical_ms, typical_speedup : float or None
        The non-virtualised coprocessor version, when requested and
        when the working set fits (``typical_fits``).
    tenant_labels : tuple of str
        Per-tenant process names (empty for solo cells); the remaining
        ``tenant_*`` tuples are indexed identically.
    tenant_ms, tenant_faults, tenant_evictions, tenant_steals,
    tenant_pages_lost : tuple
        Per-tenant time and fault/evict/steal decomposition:
        ``tenant_steals[i]`` counts evictions tenant *i* inflicted on
        neighbours, ``tenant_pages_lost[i]`` its own resident pages
        evicted by neighbours.
    vim_ms_mean, ..., page_faults_cv : float or None
        Cross-replicate summaries of the :data:`REPLICATED_COLUMNS`
        when ``config.replicates > 1``: ``<name>_mean`` is the
        arithmetic mean over the replicate runs, ``<name>_cv`` the
        coefficient of variation (sample standard deviation over the
        absolute mean; 0.0 when the mean is zero or there is a single
        replicate).  The primary columns always report replicate 0
        (the cell's own ``seed``), so an unreplicated run and
        replicate 0 of a replicated run agree exactly.  When left
        ``None`` at construction they are autofilled from the primary
        columns with a CV of 0.0 — the degenerate one-replicate
        summary — so every row carries the full schema.
    """

    config: CellConfig
    key: str
    label: str
    workload: str
    sw_ms: float
    vim_ms: float
    hw_ms: float
    sw_dp_ms: float
    sw_imu_ms: float
    sw_other_ms: float
    vim_speedup: float
    page_faults: int
    compulsory_loads: int
    evictions: int
    writebacks: int
    prefetches: int
    bytes_to_dpram: int
    bytes_from_dpram: int
    tlb_hit_rate: float
    typical_ms: float | None = None
    typical_speedup: float | None = None
    typical_fits: bool = True
    steals: int = 0
    tlb_refills: int = 0
    dma_transfers: int = 0
    tenant_labels: tuple[str, ...] = ()
    tenant_ms: tuple[float, ...] = ()
    tenant_faults: tuple[int, ...] = ()
    tenant_evictions: tuple[int, ...] = ()
    tenant_steals: tuple[int, ...] = ()
    tenant_pages_lost: tuple[int, ...] = ()
    vim_ms_mean: float | None = None
    vim_ms_cv: float | None = None
    hw_ms_mean: float | None = None
    hw_ms_cv: float | None = None
    sw_dp_ms_mean: float | None = None
    sw_dp_ms_cv: float | None = None
    sw_imu_ms_mean: float | None = None
    sw_imu_ms_cv: float | None = None
    vim_speedup_mean: float | None = None
    vim_speedup_cv: float | None = None
    page_faults_mean: float | None = None
    page_faults_cv: float | None = None

    def __post_init__(self) -> None:
        # Autofill the cross-replicate summaries with the degenerate
        # one-replicate values so every row carries the full schema and
        # single-shot constructors stay unchanged.
        for name, mean, cv in _REPLICATED_SUMMARIES:
            if getattr(self, mean) is None:
                object.__setattr__(self, mean, float(getattr(self, name)))
            if getattr(self, cv) is None:
                object.__setattr__(self, cv, 0.0)

    @property
    def sw_imu_fraction(self) -> float:
        """SW(IMU) share of the VIM total (the paper's <= 2.5 % claim)."""
        return self.sw_imu_ms / self.vim_ms if self.vim_ms else 0.0

    def to_dict(self) -> dict:
        """Dump to JSON-friendly primitives.

        Returns
        -------
        dict
            All fields, with the config nested as its own dict and the
            per-tenant tuples as lists (the JSON encoding).  Every
            other field is a scalar, so the dict shares no mutable
            value with the row.
        """
        data = {name: getattr(self, name) for name in _RESULT_FIELDS}
        data["config"] = self.config.to_dict()
        for name in _TUPLE_FIELDS:
            data[name] = list(data[name])
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CellResult":
        """Rebuild a result row from :meth:`to_dict` output.

        Builds the instance as the generated ``__init__`` does, without
        binding keyword arguments: the values are collected in
        declaration order, from *data* or from each field's default,
        with the config rebuilt by :meth:`CellConfig.from_dict` and the
        :data:`_TUPLE_FIELDS` as tuples; they fill the instance dict in
        one update, and then :meth:`__post_init__` runs.

        Parameters
        ----------
        data : dict
            A dict as produced by :meth:`to_dict` (e.g. loaded from a
            cache file); unknown keys raise
            :class:`~repro.errors.ReproError` rather than being
            silently dropped, and a missing required field raises
            ``TypeError``, as the constructor would.

        Returns
        -------
        CellResult
            An exact reconstruction — floats round-trip through
            ``repr`` in JSON, so ``from_dict(to_dict(r)) == r``.
        """
        unknown = set(data) - _RESULT_FIELD_SET
        if unknown:
            raise ReproError(f"unknown cell result fields: {sorted(unknown)}")
        missing = _RESULT_REQUIRED.difference(data)
        if missing:
            raise TypeError(f"cell result missing fields: {sorted(missing)}")
        values = {**_RESULT_DEFAULTS, **data}
        values["config"] = CellConfig.from_dict(values["config"])
        for name in _TUPLE_FIELDS:
            values[name] = tuple(values[name])
        result = object.__new__(cls)
        result.__dict__.update(values)
        result.__post_init__()
        return result


#: :class:`CellResult` field names in dataclass order (the
#: :meth:`~CellResult.to_dict` layout), the same names as a set for
#: :meth:`~CellResult.from_dict`'s unknown-field check, the names
#: without a default, and every field's default in declaration order
#: (``MISSING`` for a required one), which orders the values
#: :meth:`~CellResult.from_dict` collects.
_RESULT_FIELDS = tuple(f.name for f in fields(CellResult))
_RESULT_FIELD_SET = frozenset(_RESULT_FIELDS)
_RESULT_REQUIRED = frozenset(
    f.name for f in fields(CellResult) if f.default is MISSING
)
_RESULT_DEFAULTS = {f.name: f.default for f in fields(CellResult)}


def replicate_summary(values: list[float]) -> tuple[float, float]:
    """Mean and coefficient of variation of one metric's replicates.

    The CV is the *sample* standard deviation (``ddof=1`` — the
    replicates are a sample of the seed population, not the
    population) over the absolute mean; it is defined as 0.0 when the
    mean is zero or there is a single value, so deterministic metrics
    yield exact tolerance bands downstream.

    Parameters
    ----------
    values : list of float
        One value per replicate, in replicate order (non-empty).

    Returns
    -------
    (float, float)
        ``(mean, cv)``.
    """
    if not values:
        raise ReproError("replicate summary needs at least one value")
    mean = sum(values) / len(values)
    if len(values) == 1 or mean == 0.0:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, variance ** 0.5 / abs(mean)


@dataclass(frozen=True)
class Column:
    """One numeric result column, as reports head it and diffs gate it.

    Parameters
    ----------
    name : str
        Selector of ``repro diff --metric``, ``repro history`` and the
        report's column choice.
    field : str
        The :class:`CellResult` field the column reads.  Every numeric
        field is exactly one column's field (enforced by
        ``tests/exp/test_metrics_coverage.py``), so a new field cannot
        ship without a header and a regression direction.
    header : str
        Report table heading.
    higher_is_worse : bool or None
        Regression direction: ``True`` for times and fault counts,
        ``False`` for speedups and hit rates, ``None`` for counters
        with no inherent direction (a change, never a regression).
    """

    name: str
    field: str
    header: str
    higher_is_worse: bool | None = True

    def value(self, row: CellResult) -> float:
        """The column's value in *row*; an unset optional field reads 0.0."""
        value = getattr(row, self.field)
        return 0.0 if value is None else value


def _columns() -> dict[str, Column]:
    """:data:`COLUMNS`: the primary columns, then one ``_mean``/``_cv``
    pair per :data:`REPLICATED_COLUMNS` entry.

    A mean column inherits its primary column's regression direction;
    a CV column has none (variance moving is worth flagging, but is
    not by itself a regression).
    """
    primary = [
        Column("sw_ms", "sw_ms", "SW ms"),
        Column("vim_ms", "vim_ms", "VIM ms"),
        Column("hw_ms", "hw_ms", "HW ms"),
        Column("sw_dp_ms", "sw_dp_ms", "SW(DP) ms"),
        Column("sw_imu_ms", "sw_imu_ms", "SW(IMU) ms"),
        Column("sw_other_ms", "sw_other_ms", "SW(other) ms"),
        Column("speedup", "vim_speedup", "speedup", higher_is_worse=False),
        Column("faults", "page_faults", "faults"),
        Column("compulsory_loads", "compulsory_loads", "compulsory loads"),
        Column("tlb_refills", "tlb_refills", "TLB refills"),
        Column("evictions", "evictions", "evictions"),
        Column("steals", "steals", "steals"),
        Column("writebacks", "writebacks", "writebacks"),
        Column("bytes_to_dpram", "bytes_to_dpram", "bytes to DP-RAM"),
        Column("bytes_from_dpram", "bytes_from_dpram", "bytes from DP-RAM"),
        Column("tlb_hit_rate", "tlb_hit_rate", "TLB hit rate",
               higher_is_worse=False),
        Column("typical_ms", "typical_ms", "typical ms"),
        Column("typical_speedup", "typical_speedup", "typical speedup",
               higher_is_worse=False),
        Column("prefetches", "prefetches", "prefetches", higher_is_worse=None),
        Column("dma_transfers", "dma_transfers", "DMA xfers",
               higher_is_worse=None),
    ]
    direction = {column.field: column.higher_is_worse for column in primary}
    summaries = []
    for field in REPLICATED_COLUMNS:
        summaries += [
            Column(f"{field}_mean", f"{field}_mean", f"{field} mean",
                   higher_is_worse=direction[field]),
            Column(f"{field}_cv", f"{field}_cv", f"{field} CV",
                   higher_is_worse=None),
        ]
    return {column.name: column for column in primary + summaries}


#: Every numeric result column, keyed by selector name.
COLUMNS: dict[str, Column] = _columns()
