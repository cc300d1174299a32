"""Sweep specifications: cells, grids, and stable config hashes.

A :class:`CellConfig` is one point of the design space, expressed
entirely in primitives (strings, ints, bools) so it can cross a
``multiprocessing`` boundary, be hashed into a cache key, and be
round-tripped through JSON without loss.  A :class:`SweepSpec` is the
declarative product of axis values that expands to the run grid.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import ClassVar

from repro.core.soc import PRESETS
from repro.errors import ReproError
from repro.os.scheduler import SCHEDS
from repro.os.vim.policies import policy_names

#: Bump when CellResult semantics change, so stale caches miss.
#: (6: the ``sched`` scheduling-policy axis, per-tenant priorities in
#: ``tenant_mix``, and the ``trace`` app with its content digest join
#: the cell config — old rows must miss.)
CACHE_VERSION = 6

#: Applications the cell runner knows how to build (see exp.cell).
#: ``trace`` replays a recorded address trace (``--trace FILE``).
APPS = ("adpcm", "idea", "idea-dec", "vadd", "adpcm-enc", "synthetic", "trace")

#: Replacement-policy axis values (the os.vim.policies registry).
POLICIES = tuple(policy_names())

#: Transfer-mode axis values (maps onto os.vim.transfer.TransferMode):
#: two CPU copies (measured), one (announced), or DMA descriptors.
TRANSFERS = ("double", "single", "dma")

#: Prefetch axis values (maps onto os.vim.prefetch builders).
PREFETCHES = ("none", "sequential", "aggressive", "overlapped")


def parse_mix_part(part: str) -> tuple[str, int]:
    """Split one ``tenant_mix`` slot into its app and priority.

    A slot is ``app`` or ``app:priority`` (e.g. ``adpcm:2``); the
    priority defaults to 1 (the neutral weight every scheduling policy
    treats as plain round-robin).
    """
    app, sep, prio_text = part.partition(":")
    if not sep:
        return app, 1
    try:
        priority = int(prio_text)
    except ValueError:
        raise ReproError(
            f"tenant mix slot {part!r}: priority {prio_text!r} is not an "
            "integer (expected app or app:priority)"
        ) from None
    if priority < 1:
        raise ReproError(
            f"tenant mix slot {part!r}: priority must be >= 1"
        )
    return app, priority


@lru_cache(maxsize=None)
def _trace_digest_cached(path: str) -> str:
    """Header digest of the trace at *path* (one read per path).

    Cached so expanding a grid of N platform cells over one trace file
    reads its header once.  Service submissions never hit this: their
    configs arrive with the digest already resolved (it travels in
    ``to_dict``), so the coordinator needs no access to the file.
    """
    from repro.trace.record import trace_digest_of

    return trace_digest_of(path)


@dataclass(frozen=True)
class CellConfig:
    """One fully-specified simulation: workload x platform x VIM knobs.

    A frozen bag of primitives (strings, ints, bools) so it can cross a
    ``multiprocessing`` boundary, be hashed into a cache key, and
    round-trip through JSON without loss.

    Parameters
    ----------
    app : str
        Workload axis value, one of :data:`APPS`.
    input_bytes : int
        Dataset size in bytes (positive).
    seed : int
        Dataset seed; changing it changes the generated input bytes.
    soc : str
        SoC preset name, a key of :data:`repro.core.soc.PRESETS`.
    page_bytes, dpram_bytes : int or None
        Interface-memory geometry overrides; ``None`` means "the SoC
        preset's value".
    policy : str
        DP-RAM replacement policy, one of :data:`POLICIES`.
    transfer : str
        Copy cost model, one of :data:`TRANSFERS`.
    prefetch : str
        Prefetch strategy, one of :data:`PREFETCHES`; ``prefetch_depth``
        is the pages-per-fault lookahead.
    tlb_capacity : int or None
        IMU TLB entries; ``None`` means one entry per DP-RAM page (the
        prototype's organisation).
    pipelined_imu : bool
        Model the announced pipelined IMU instead of the measured
        multi-cycle one.
    access_cycles : int
        Rising edges from coprocessor request to data (paper: 4).
    with_typical : bool
        Also run the non-virtualised "typical" coprocessor version.
        Incompatible with ``tenants > 1`` (the typical driver owns the
        whole DP-RAM).
    tenants : int
        Number of tenant processes contending for the one DP-RAM.  1
        (the default) is the classic single-shot cell; above 1 the cell
        runs through :func:`repro.core.tenancy.run_tenants` and fills
        the per-tenant columns of :class:`~repro.exp.results.CellResult`.
    tenant_mix : str
        How apps are assigned to tenants: ``"same"`` gives every tenant
        ``app``; a ``"+"``-joined list of :data:`APPS` values (e.g.
        ``"adpcm+idea"``) assigns tenant *i* the *i*-th entry, cycling.
        A slot may carry a scheduling priority as ``app:priority``
        (e.g. ``"adpcm:2+idea"``): the weight the ``priority`` and
        ``wrr`` policies dispatch that tenant by.  Tenant *i* always
        gets dataset seed ``seed + i`` so same-app tenants still stream
        distinct data.  With ``tenants == 1`` a mix is meaningless and
        is canonicalised to ``"same"`` (after validation), so
        equivalent solo configs share one cache hash; default ``:1``
        priorities are likewise stripped, and under ``sched == "rr"``
        (which ignores weights) all priorities are.
    tenant_repeats : int
        FPGA_EXECUTE calls per tenant; with >= 2, a tenant re-touches
        pages a neighbour may have stolen between its turns.
    syn_stride, syn_locality_pct, syn_read_pct, syn_phases : int
        The ``synthetic`` app's access-pattern axes (hot-window walk
        stride in words, percentage of ops aimed at the hot window,
        percentage of ops that read, and the number of hot-window
        relocations — see :func:`repro.apps.synthetic.access_pattern`).
        For cells in which no tenant runs the synthetic app, the
        pattern is meaningless and the four fields are canonicalised
        back to their defaults (after validation), so equivalent
        non-synthetic configs share one cache hash — the same rule as
        ``tenant_mix`` for solo cells.
    replicates : int
        Independent replicate seeds the cell is executed with.  1 (the
        default) is the classic single-shot cell.  Above 1, the cell
        runs once per derived seed (replicate 0 uses ``seed`` itself),
        its primary columns report replicate 0, and the ``*_mean`` /
        ``*_cv`` columns of :class:`~repro.exp.results.CellResult`
        summarise the spread — the basis of the variance-derived
        tolerance bands of ``repro diff --bands cv``.  Included in the
        config hash: a replicated cell measures something a single
        run does not.
    sched : str
        Scheduling-policy axis (one of
        :data:`repro.os.scheduler.SCHEDS`): how the contended run
        queue dispatches tenants.  Meaningless with ``tenants == 1``
        (one process cannot be scheduled against anyone) and
        canonicalised to ``"rr"`` there, so equivalent solo configs
        share one cache hash.
    trace_path, trace_digest : str or None
        The ``trace`` app's input: the trace file to replay and its
        content digest.  The *digest* — resolved from the file's
        header when not given — is part of the config hash; the *path*
        is **excluded** from it (and from labels), because a path says
        nothing about content: the same trace copied elsewhere must
        hit the same cached cells, and a changed file under the same
        path must miss.  Both are canonicalised to ``None`` for every
        other app.
    engine : str
        Always ``"reference"``: the simulator has one engine.  The
        field stays a stored row column so existing rows keep their
        bytes; it is excluded from :func:`config_hash`,
        :func:`replica_hash` and :meth:`label`, so it forks no store
        key.  :meth:`from_dict` reads a legacy ``"fast"`` (a row of the
        removed second backend, byte-identical by contract) as
        ``"reference"``.
    """

    app: str = "adpcm"
    input_bytes: int = 8 * 1024
    seed: int = 1
    soc: str = "EPXA1"
    page_bytes: int | None = None
    dpram_bytes: int | None = None
    policy: str = "fifo"
    transfer: str = "double"
    prefetch: str = "none"
    prefetch_depth: int = 1
    tlb_capacity: int | None = None
    pipelined_imu: bool = False
    access_cycles: int = 4
    with_typical: bool = False
    tenants: int = 1
    tenant_mix: str = "same"
    tenant_repeats: int = 1
    syn_stride: int = 1
    syn_locality_pct: int = 80
    syn_read_pct: int = 70
    syn_phases: int = 1
    replicates: int = 1
    sched: str = "rr"
    trace_path: str | None = None
    trace_digest: str | None = None
    engine: str = "reference"

    def __post_init__(self) -> None:
        if self.app not in APPS:
            raise ReproError(f"unknown app {self.app!r}; choices: {APPS}")
        if self.soc not in PRESETS:
            raise ReproError(
                f"unknown SoC {self.soc!r}; choices: {sorted(PRESETS)}"
            )
        if self.policy not in POLICIES:
            raise ReproError(
                f"unknown replacement policy {self.policy!r}; choices: "
                f"{POLICIES}"
            )
        if self.engine != "reference":
            raise ReproError(
                f"unknown engine {self.engine!r}; the simulator has one "
                "engine, 'reference'"
            )
        if self.transfer not in TRANSFERS:
            raise ReproError(
                f"unknown transfer mode {self.transfer!r}; choices: {TRANSFERS}"
            )
        if self.prefetch not in PREFETCHES:
            raise ReproError(
                f"unknown prefetch {self.prefetch!r}; choices: {PREFETCHES}"
            )
        if self.input_bytes <= 0:
            raise ReproError(f"input size must be positive, got {self.input_bytes}")
        if self.page_bytes is not None and self.page_bytes < 1:
            raise ReproError(f"page size must be >= 1, got {self.page_bytes}")
        if self.dpram_bytes is not None and self.dpram_bytes < 1:
            raise ReproError(f"DP-RAM size must be >= 1, got {self.dpram_bytes}")
        if self.tlb_capacity is not None and self.tlb_capacity < 1:
            # 0 would read as "preset default" downstream (Imu treats a
            # falsy capacity as one-entry-per-frame) — reject instead of
            # mislabelling a full-TLB run.
            raise ReproError(
                f"TLB capacity must be >= 1, got {self.tlb_capacity}"
            )
        if self.prefetch_depth < 1:
            raise ReproError(
                f"prefetch depth must be >= 1, got {self.prefetch_depth}"
            )
        if self.tenants < 1:
            raise ReproError(f"tenants must be >= 1, got {self.tenants}")
        if self.tenant_repeats < 1:
            raise ReproError(
                f"tenant repeats must be >= 1, got {self.tenant_repeats}"
            )
        if self.sched not in SCHEDS:
            raise ReproError(
                f"unknown scheduling policy {self.sched!r}; choices: {SCHEDS}"
            )
        if self.tenants == 1 and self.sched != "rr":
            # One process cannot be scheduled against anyone; every
            # policy degenerates to "dispatch it".  Canonicalise so
            # equivalent solo configs share one cache hash and label.
            object.__setattr__(self, "sched", "rr")
        if self.tenant_mix != "same":
            slots = [parse_mix_part(p) for p in self.tenant_mix.split("+")]
            bad = [app for app, _ in slots if app not in APPS]
            if not slots or bad:
                raise ReproError(
                    f"tenant mix {self.tenant_mix!r} must be 'same' or "
                    f"'+'-joined app[:priority] slots with apps from "
                    f"{APPS} (bad: {bad})"
                )
            if any(app == "trace" for app, _ in slots):
                raise ReproError(
                    "the trace app cannot be a tenant-mix slot: a replay "
                    "is a single flattened workload (record the "
                    "multi-tenant run instead and replay that trace)"
                )
            if self.tenants == 1:
                # A mix is meaningless with one tenant; canonicalise so
                # equivalent configs share one cache hash and label.
                object.__setattr__(self, "tenant_mix", "same")
            else:
                # Canonical slot spelling: the default ":1" priority is
                # dropped, and under round-robin — which ignores
                # weights — every priority is.
                canonical = "+".join(
                    app if prio == 1 or self.sched == "rr" else f"{app}:{prio}"
                    for app, prio in slots
                )
                object.__setattr__(self, "tenant_mix", canonical)
        if self.syn_stride < 1:
            raise ReproError(
                f"synthetic stride must be >= 1 words, got {self.syn_stride}"
            )
        if not 0 <= self.syn_locality_pct <= 100:
            raise ReproError(
                f"synthetic locality must be 0..100 %, got "
                f"{self.syn_locality_pct}"
            )
        if not 0 <= self.syn_read_pct <= 100:
            raise ReproError(
                f"synthetic read ratio must be 0..100 %, got "
                f"{self.syn_read_pct}"
            )
        if self.syn_phases < 1:
            raise ReproError(
                f"synthetic phase count must be >= 1, got {self.syn_phases}"
            )
        mix_apps = [
            parse_mix_part(p)[0] for p in self.tenant_mix.split("+")
        ]
        if "synthetic" not in (self.app, *mix_apps):
            # No tenant runs the synthetic app, so the pattern fields
            # are meaningless; canonicalise (after validation) so
            # equivalent non-synthetic configs share one cache hash —
            # the same rule as tenant_mix for solo cells.
            object.__setattr__(self, "syn_stride", 1)
            object.__setattr__(self, "syn_locality_pct", 80)
            object.__setattr__(self, "syn_read_pct", 70)
            object.__setattr__(self, "syn_phases", 1)
        if self.replicates < 1:
            raise ReproError(
                f"replicates must be >= 1, got {self.replicates}"
            )
        if self.with_typical and (self.tenants > 1 or self.tenant_repeats > 1):
            raise ReproError(
                "with_typical is incompatible with the multi-tenant cell "
                "path (tenants or tenant_repeats > 1): the typical "
                "coprocessor owns the whole DP-RAM and runs once"
            )
        if self.app == "trace":
            if not self.trace_path:
                raise ReproError(
                    "the trace app needs a trace file: pass trace_path "
                    "(CLI: --trace FILE, recorded with `repro record`)"
                )
            if self.tenants > 1 or self.tenant_mix != "same":
                raise ReproError(
                    "the trace app is a single flattened replay; it is "
                    "incompatible with tenants > 1 or a tenant mix "
                    "(record the contended run and replay its trace)"
                )
            if self.tenant_repeats > 1:
                raise ReproError(
                    "the trace app replays INOUT object images and "
                    "cannot repeat; use tenant_repeats=1"
                )
            if self.with_typical:
                raise ReproError(
                    "with_typical is incompatible with the trace app: "
                    "the replay measures the virtualised path the trace "
                    "was recorded through"
                )
            # The replay's identity is its content digest: the dataset
            # axes (size, seed) belong to the *recorded* run, so they
            # are neutralised here and equivalent replays share a hash.
            object.__setattr__(self, "input_bytes", 1)
            object.__setattr__(self, "seed", 1)
            if self.trace_digest is None:
                object.__setattr__(
                    self, "trace_digest", _trace_digest_cached(self.trace_path)
                )
        else:
            # Not a replay: the trace fields are meaningless —
            # canonicalise so they never fork other apps' hashes.
            object.__setattr__(self, "trace_path", None)
            object.__setattr__(self, "trace_digest", None)

    def to_dict(self) -> dict:
        """JSON-friendly dump (field order fixed by the dataclass).

        One level deep: every field is a str, int, bool or None, so the
        dict shares no mutable value with the config.
        """
        return {name: getattr(self, name) for name in _CONFIG_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "CellConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Builds the instance as the generated ``__init__`` does, without
        binding keyword arguments: every field is set in declaration
        order, from *data* or from its default, and then
        :meth:`__post_init__` validates and canonicalises it.  Setting
        the fields one by one keeps the key-sharing instance dict an
        ``__init__``-built config has.  Unknown keys raise
        :class:`~repro.errors.ReproError`.
        """
        unknown = set(data) - _CONFIG_FIELD_SET
        if unknown:
            raise ReproError(f"unknown cell config fields: {sorted(unknown)}")
        if data.get("engine") == "fast":
            data = {**data, "engine": "reference"}
        config = object.__new__(cls)
        for name, default in _CONFIG_DEFAULTS:
            object.__setattr__(config, name, data.get(name, default))
        config.__post_init__()
        return config

    def key(self) -> str:
        """Stable hash identifying this configuration (cache key)."""
        return config_hash(self)

    def label(self) -> str:
        """Compact human label: workload plus every non-default axis."""
        if self.app == "trace":
            # The digest *is* the workload identity (size and seed are
            # the recorded run's, not the replay's); the default
            # template below only supplies the other axes' defaults.
            parts = [f"trace-{(self.trace_digest or '')[:10]}"]
            default = CellConfig()
        else:
            parts = [f"{self.app}-{_size_label(self.input_bytes)}"]
            default = CellConfig(app=self.app, input_bytes=self.input_bytes)
        for name, text in (
            ("soc", self.soc),
            ("page_bytes", f"page{self.page_bytes}"),
            ("dpram_bytes", f"dpram{self.dpram_bytes}"),
            ("policy", self.policy),
            ("transfer", self.transfer),
            ("prefetch", self.prefetch),
            ("tlb_capacity", f"tlb{self.tlb_capacity}"),
            ("pipelined_imu", "pipelined"),
            ("access_cycles", f"ac{self.access_cycles}"),
            ("tenants", f"x{self.tenants}"),
            ("tenant_mix", f"mix-{self.tenant_mix}"),
            ("tenant_repeats", f"rep{self.tenant_repeats}"),
            ("sched", f"sched-{self.sched}"),
            ("syn_stride", f"stride{self.syn_stride}"),
            ("syn_locality_pct", f"loc{self.syn_locality_pct}"),
            ("syn_read_pct", f"rd{self.syn_read_pct}"),
            ("syn_phases", f"ph{self.syn_phases}"),
            ("replicates", f"n{self.replicates}"),
        ):
            if getattr(self, name) != getattr(default, name):
                parts.append(text)
        return "/".join(parts)


#: :class:`CellConfig` field names in dataclass order (the
#: :meth:`~CellConfig.to_dict` layout), the same names as a set for
#: :meth:`~CellConfig.from_dict`'s unknown-field check, and
#: ``(name, default)`` pairs in that order for the fields it sets.
_CONFIG_FIELDS = tuple(f.name for f in fields(CellConfig))
_CONFIG_FIELD_SET = frozenset(_CONFIG_FIELDS)
_CONFIG_DEFAULTS = tuple((f.name, f.default) for f in fields(CellConfig))


def _size_label(nbytes: int) -> str:
    if nbytes % 1024 == 0:
        return f"{nbytes // 1024}KB"
    return f"{nbytes}B"


def config_hash(config: CellConfig) -> str:
    """A deterministic 16-hex-digit digest of *config*.

    The digest covers every field plus :data:`CACHE_VERSION`, so any
    change to either the configuration or the result schema produces a
    clean cache miss rather than a stale read.

    Two fields are left out.  ``engine`` has one legal value and was
    never part of the hash, so keys stay what they always were.
    ``trace_path`` is replaced by the trace's *content digest*, so
    moving a trace file never forks the cache while changing its
    contents always does.
    """
    config_dict = config.to_dict()
    config_dict.pop("engine", None)
    config_dict.pop("trace_path", None)
    payload = {"version": CACHE_VERSION, "config": config_dict}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def replica_hash(config: CellConfig) -> str:
    """A 16-hex-digit digest of *config* that is blind to the seed.

    Two runs of the same grid with disjoint seed sets produce rows
    whose :func:`config_hash` keys never collide (the seed is part of
    the cache identity).  ``repro diff --bands cv`` still has to pair
    those rows up: this digest drops ``seed`` (and, like
    :func:`config_hash`, ``engine`` and ``trace_path``) so replicate
    families align across seed sets while every other axis still
    separates rows.
    """
    config_dict = config.to_dict()
    config_dict.pop("engine", None)
    config_dict.pop("trace_path", None)
    config_dict.pop("seed", None)
    payload = {"version": CACHE_VERSION, "replica": config_dict}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def grid_fingerprint(cells) -> str:
    """A 12-hex-digit identity of *which* configurations a grid holds.

    Computed over the **sorted config hashes** of the deduplicated cell
    set — the same canonicalisation :func:`shard_cells` partitions by —
    so two grids fingerprint equal exactly when they contain the same
    configurations, regardless of axis declaration order, expansion
    order, or duplicates.  Cross-run diffing uses it to state whether
    two caches describe the same design space, and CI uses it to key
    baseline caches per grid.

    Parameters
    ----------
    cells : iterable of CellConfig
        The grid (e.g. ``SweepSpec.expand()`` or a preset list).

    Returns
    -------
    str
        12 hex digits; covers :data:`CACHE_VERSION` via the config
        hashes themselves.
    """
    return fingerprint_from_keys(cell.key() for cell in cells)


def fingerprint_from_keys(keys) -> str:
    """:func:`grid_fingerprint` from already-computed hashes.

    The differ aligns two runs without materialising their rows, so it
    has hashes rather than :class:`CellConfig` objects: store keys, or
    seed-blind :func:`replica_hash` digests under ``repro diff --bands
    cv`` (which makes the fingerprint seed-blind too).  This is the
    same digest over the same canonicalisation (sorted, deduplicated),
    factored out so the entry points cannot drift.
    """
    keys = sorted(set(keys))
    digest = hashlib.sha256("\n".join(keys).encode("ascii"))
    return digest.hexdigest()[:12]


@dataclass(frozen=True)
class SweepSpec:
    """A declarative run grid: the cartesian product of axis values.

    Each field is one *axis*: a tuple of values for the matching
    :class:`CellConfig` field, paired with it in :attr:`AXES`.  Axis
    order in :meth:`expand` is that table's order (``apps`` outermost,
    ``syn_phases`` innermost), so the same spec always yields the same
    cell sequence — the property that makes ``--jobs N`` output
    byte-identical to serial execution.

    Parameters
    ----------
    apps, input_bytes, seeds, socs, page_bytes, dpram_bytes, policies,
    transfers, prefetches, prefetch_depths, tlb_capacities, pipelined,
    access_cycles : tuple
        Per-axis value tuples; see the same-named :class:`CellConfig`
        fields for the meaning and the accepted values of each.
    tenants, tenant_mixes, tenant_repeats, scheds : tuple
        The multi-process contention axes (tenant count, app mix per
        tenant — optionally with ``app:priority`` weights —
        FPGA_EXECUTE calls per tenant, and the scheduling policy the
        run queue dispatches by).
    trace_paths : tuple
        Trace files for the ``trace`` app (``(None,)`` when no cell
        replays one); each expands like any other axis value, and the
        cell's cache identity uses the file's content digest, never
        the path.
    syn_strides, syn_locality_pcts, syn_read_pcts, syn_phases : tuple
        The ``synthetic`` app's access-pattern axes; only meaningful
        for cells in which some tenant runs the synthetic app (other
        cells canonicalise them away, see :class:`CellConfig`).
    with_typical : bool
        Applied to every cell (not an axis): also run the typical
        coprocessor version where it fits.
    replicates : int
        Applied to every cell (not an axis): independent replicate
        seeds each cell runs with (``repro sweep --replicates N``).
        Deliberately a whole-spec knob — mixing replicated and
        unreplicated rows in one cache would leave ``repro diff
        --bands cv`` without bands for half the grid.

    Examples
    --------
    >>> spec = SweepSpec(apps=("adpcm",), policies=("fifo", "lru"))
    >>> spec.size
    2
    >>> [cell.policy for cell in spec.expand()]
    ['fifo', 'lru']
    """

    apps: tuple[str, ...] = ("adpcm",)
    input_bytes: tuple[int, ...] = (8 * 1024,)
    seeds: tuple[int, ...] = (1,)
    socs: tuple[str, ...] = ("EPXA1",)
    page_bytes: tuple[int | None, ...] = (None,)
    dpram_bytes: tuple[int | None, ...] = (None,)
    policies: tuple[str, ...] = ("fifo",)
    transfers: tuple[str, ...] = ("double",)
    prefetches: tuple[str, ...] = ("none",)
    prefetch_depths: tuple[int, ...] = (1,)
    tlb_capacities: tuple[int | None, ...] = (None,)
    pipelined: tuple[bool, ...] = (False,)
    access_cycles: tuple[int, ...] = (4,)
    tenants: tuple[int, ...] = (1,)
    tenant_mixes: tuple[str, ...] = ("same",)
    tenant_repeats: tuple[int, ...] = (1,)
    scheds: tuple[str, ...] = ("rr",)
    trace_paths: tuple[str | None, ...] = (None,)
    syn_strides: tuple[int, ...] = (1,)
    syn_locality_pcts: tuple[int, ...] = (80,)
    syn_read_pcts: tuple[int, ...] = (70,)
    syn_phases: tuple[int, ...] = (1,)
    with_typical: bool = False
    replicates: int = 1

    #: ``(SweepSpec field, CellConfig field)`` per axis, in expansion
    #: order: the first varies slowest.  A new axis is one more row.
    AXES: ClassVar[tuple[tuple[str, str], ...]] = (
        ("apps", "app"),
        ("input_bytes", "input_bytes"),
        ("seeds", "seed"),
        ("socs", "soc"),
        ("page_bytes", "page_bytes"),
        ("dpram_bytes", "dpram_bytes"),
        ("policies", "policy"),
        ("transfers", "transfer"),
        ("prefetches", "prefetch"),
        ("prefetch_depths", "prefetch_depth"),
        ("tlb_capacities", "tlb_capacity"),
        ("pipelined", "pipelined_imu"),
        ("access_cycles", "access_cycles"),
        ("tenants", "tenants"),
        ("tenant_mixes", "tenant_mix"),
        ("tenant_repeats", "tenant_repeats"),
        ("scheds", "sched"),
        ("trace_paths", "trace_path"),
        ("syn_strides", "syn_stride"),
        ("syn_locality_pcts", "syn_locality_pct"),
        ("syn_read_pcts", "syn_read_pct"),
        ("syn_phases", "syn_phases"),
    )

    def _axis_values(self) -> list[tuple]:
        return [getattr(self, axis) for axis, _ in self.AXES]

    def expand(self) -> list[CellConfig]:
        """Expand the grid to concrete cells.

        Returns
        -------
        list of CellConfig
            Every point of the axis product, in deterministic
            axis-product order (last axis varies fastest).
        """
        names = [name for _, name in self.AXES]
        return [
            CellConfig(
                **dict(zip(names, values)),
                with_typical=self.with_typical,
                replicates=self.replicates,
            )
            for values in itertools.product(*self._axis_values())
        ]

    @property
    def size(self) -> int:
        """Number of cells the spec expands to (no expansion needed)."""
        return math.prod(len(values) for values in self._axis_values())

    def shard(self, index: int, total: int) -> list[CellConfig]:
        """The *index*-th of *total* deterministic grid partitions.

        Parameters
        ----------
        index : int
            1-based shard number (matching the CLI's ``--shard I/N``).
        total : int
            Number of shards the grid is split into.

        Returns
        -------
        list of CellConfig
            This shard's cells; see :func:`shard_cells` for the
            partition guarantees.
        """
        return shard_cells(self.expand(), index, total)


def shard_cells(
    cells: list[CellConfig], index: int, total: int
) -> list[CellConfig]:
    """Select the *index*-th of *total* shards of a cell list.

    The partition is computed over the **sorted config hashes** of the
    deduplicated cell set, so it is a pure function of *which*
    configurations the grid contains: every machine computes the same
    split regardless of axis declaration order, expansion order, or
    duplicate cells (duplicates share a hash and therefore a shard).
    Shard *i* takes every *total*-th hash starting at offset *i - 1*,
    so shard sizes differ by at most one.

    Parameters
    ----------
    cells : list of CellConfig
        The full grid (e.g. ``SweepSpec.expand()`` or a preset list).
    index : int
        1-based shard number, ``1 <= index <= total``.
    total : int
        Number of shards.

    Returns
    -------
    list of CellConfig
        The shard's unique cells, in sorted-hash order.  The union of
        all *total* shards is exactly the deduplicated input set and
        the shards are pairwise disjoint.

    Raises
    ------
    ReproError
        If *total* is not positive or *index* is out of range.
    """
    if total < 1:
        raise ReproError(f"shard count must be >= 1, got {total}")
    if not 1 <= index <= total:
        raise ReproError(
            f"shard index must be in 1..{total}, got {index} "
            "(shards are numbered 1/N .. N/N)"
        )
    unique = {cell.key(): cell for cell in cells}
    ordered = [unique[key] for key in sorted(unique)]
    return ordered[index - 1::total]
