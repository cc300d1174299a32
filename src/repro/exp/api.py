"""The paper's figure/ablation drivers, as thin sweeps.

Every driver here regenerates one artefact of the evaluation section:

=============  =====================================================
``figure7``    timing diagram of a translated read (data on edge 4)
``figure8``    adpcmdecode: SW vs VIM-based at 2/4/8 KB
``figure9``    IDEA: SW vs typical vs VIM at 4/8/16/32 KB
``imu_overhead_rows``       §4.1: SW(IMU) <= 2.5 % of total
``translation_overhead``    §4.1: translation ~= 20 % of HW (IDEA)
``ablation_*``  pipelined IMU, policies, transfer modes, prefetch
``portability`` same binaries on EPXA1 / EPXA4 / EPXA10
=============  =====================================================

Except for the Figure 7 waveform capture (a single instrumented read,
not a grid cell), each driver is a list of :class:`~repro.exp.spec.
CellConfig` variants handed to :func:`~repro.exp.sweep.run_sweep` —
so every one of them inherits ``--jobs`` parallelism and result
caching for free, and adding a scenario means adding an axis value,
not a driver.  The drivers that study one workload take it as a base
``cell`` and vary its axes; every other field of that cell holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.coproc.base import Behavior, Coprocessor
from repro.core.soc import PRESETS
from repro.core.system import System
from repro.exp.results import CellResult
from repro.exp.spec import CellConfig
from repro.exp.sweep import run_sweep
from repro.imu.imu import Imu
from repro.os.vim.manager import TransferMode
from repro.os.vim.policies import policy_names
from repro.sim.clock import ClockDomain
from repro.sim.time import mhz
from repro.trace.timeline import WaveformProbe, render_cycles


def _cells_for(
    cell: CellConfig,
    variants: list[dict],
    jobs: int = 1,
    cache_dir=None,
) -> list[CellResult]:
    """Run one cell per variant dict: *cell* with the variant's axes."""
    configs = [replace(cell, **variant) for variant in variants]
    return list(run_sweep(configs, jobs=jobs, cache_dir=cache_dir).rows)


# ----------------------------------------------------------------------
# Figure 7 — translated read access timing (bespoke waveform capture)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Figure7Result:
    """One captured read access through the IMU."""

    diagram: str
    data_ready_edge: int
    value_read: int
    access_cycles: int
    pipelined: bool


class _OneReadCore(Coprocessor):
    """A minimal core issuing exactly one read (for the timing capture)."""

    name = "one-read"

    def __init__(self) -> None:
        super().__init__()
        self.value: int | None = None

    def behavior(self) -> Behavior:
        self.value = yield from self.read(0, 4)


def figure7(access_cycles: int = 4, pipelined: bool = False) -> Figure7Result:
    """Capture the waveform of Figure 7: one translated read.

    The TLB is pre-loaded so the access hits; the returned
    ``data_ready_edge`` counts rising edges from the request edge
    inclusive — 4 for the paper's IMU.
    """
    system = System()
    imu = Imu(
        system.dpram,
        system.interrupts,
        access_cycles=access_cycles,
        pipelined=pipelined,
    )
    core = _OneReadCore()
    core.bind(imu)
    frame = 2
    imu.tlb.insert(0, 0, frame)
    system.dpram.write_word(system.dpram.page_base(frame) + 4, 0x2A)
    domain = ClockDomain(system.engine, "fabric", mhz(40.0))
    domain.attach(imu)
    domain.attach(core)
    ports = imu.ports
    probe = WaveformProbe(
        system.engine,
        [ports.cp_addr, ports.cp_access, ports.cp_tlbhit, ports.cp_din],
    )
    imu.start_coprocessor()
    domain.start()
    system.engine.run_until(
        lambda: core.finished, max_time_ps=100 * domain.period_ps
    )
    domain.stop()
    probe.detach()
    hit_trace = probe.trace("cp.cp_tlbhit")
    rise_time = next(
        t for t, v in zip(hit_trace.times, hit_trace.values) if v == 1
    )
    data_ready_edge = rise_time // domain.period_ps
    diagram = render_cycles(
        probe,
        start_ps=domain.period_ps,
        period_ps=domain.period_ps,
        num_cycles=max(6, data_ready_edge + 2),
        signals=["cp.cp_addr", "cp.cp_access", "cp.cp_tlbhit", "cp.cp_din"],
    )
    return Figure7Result(
        diagram=diagram,
        data_ready_edge=data_ready_edge,
        value_read=core.value if core.value is not None else -1,
        access_cycles=access_cycles,
        pipelined=pipelined,
    )


# ----------------------------------------------------------------------
# Figures 8 and 9 — application execution times
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AppRow:
    """One input-size point of Figure 8 or 9."""

    label: str
    input_kb: int
    sw_ms: float
    vim_ms: float
    hw_ms: float
    sw_dp_ms: float
    sw_imu_ms: float
    sw_other_ms: float
    vim_speedup: float
    page_faults: int
    typical_ms: float | None = None
    typical_speedup: float | None = None
    typical_fits: bool = True

    @property
    def sw_imu_fraction(self) -> float:
        """SW(IMU) share of the VIM total (the <= 2.5 % claim)."""
        return self.sw_imu_ms / self.vim_ms if self.vim_ms else 0.0


def _app_row(label: str, input_kb: int, cell: CellResult) -> AppRow:
    return AppRow(
        label=label,
        input_kb=input_kb,
        sw_ms=cell.sw_ms,
        vim_ms=cell.vim_ms,
        hw_ms=cell.hw_ms,
        sw_dp_ms=cell.sw_dp_ms,
        sw_imu_ms=cell.sw_imu_ms,
        sw_other_ms=cell.sw_other_ms,
        vim_speedup=cell.vim_speedup,
        page_faults=cell.page_faults,
        typical_ms=cell.typical_ms,
        typical_speedup=cell.typical_speedup,
        typical_fits=cell.typical_fits,
    )


def _app_figure(
    app: str,
    sizes_kb: tuple[int, ...],
    with_typical: bool,
    jobs: int,
    cache_dir,
) -> list[AppRow]:
    configs = [
        CellConfig(app=app, input_bytes=kb * 1024, with_typical=with_typical)
        for kb in sizes_kb
    ]
    sweep = run_sweep(configs, jobs=jobs, cache_dir=cache_dir)
    return [
        _app_row(f"{app}-{kb}KB", kb, cell)
        for kb, cell in zip(sizes_kb, sweep.rows)
    ]


def figure8(
    sizes_kb: tuple[int, ...] = (2, 4, 8),
    jobs: int = 1,
    cache_dir=None,
) -> list[AppRow]:
    """adpcmdecode at the paper's input sizes (SW and VIM versions)."""
    return _app_figure("adpcm", tuple(sizes_kb), False, jobs, cache_dir)


def figure9(
    sizes_kb: tuple[int, ...] = (4, 8, 16, 32),
    jobs: int = 1,
    cache_dir=None,
) -> list[AppRow]:
    """IDEA at the paper's input sizes (SW, typical, and VIM versions)."""
    return _app_figure("idea", tuple(sizes_kb), True, jobs, cache_dir)


# ----------------------------------------------------------------------
# §4.1 textual claims
# ----------------------------------------------------------------------


def imu_overhead_rows(
    adpcm_sizes: tuple[int, ...] = (2, 4, 8),
    idea_sizes: tuple[int, ...] = (4, 8, 16, 32),
    jobs: int = 1,
    cache_dir=None,
) -> list[tuple[str, float]]:
    """SW(IMU) fraction of total time for every measured point.

    The paper: "the software execution time for IMU management ... is
    up to 2.5% of the total execution time."
    """
    rows = [
        (r.label, r.sw_imu_fraction)
        for r in figure8(adpcm_sizes, jobs=jobs, cache_dir=cache_dir)
    ]
    rows += [
        (r.label, r.sw_imu_fraction)
        for r in figure9(idea_sizes, jobs=jobs, cache_dir=cache_dir)
    ]
    return rows


@dataclass(frozen=True)
class TranslationOverheadResult:
    """HW-time share attributable to address translation."""

    label: str
    hw_ms: float
    ideal_hw_ms: float

    @property
    def overhead_fraction(self) -> float:
        """(translated - translation-free) / translated HW time."""
        return 1.0 - self.ideal_hw_ms / self.hw_ms if self.hw_ms else 0.0


def translation_overhead(
    cell: CellConfig | None = None,
    jobs: int = 1,
    cache_dir=None,
) -> TranslationOverheadResult:
    """Translation overhead of the IDEA hardware time (§4.1, ~20 %).

    Measured by comparing the normal IMU against an idealised one with
    single-cycle translation — same datapath, same clock-domain
    synchronisers, no TLB translation latency.
    """
    cell = cell or CellConfig(app="idea", input_bytes=8 * 1024)
    normal, ideal = _cells_for(
        cell,
        [{"access_cycles": 4}, {"access_cycles": 2}],
        jobs=jobs,
        cache_dir=cache_dir,
    )
    return TranslationOverheadResult(
        label=normal.workload,
        hw_ms=normal.hw_ms,
        ideal_hw_ms=ideal.hw_ms,
    )


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AblationRow:
    """One configuration point of an ablation sweep."""

    label: str
    total_ms: float
    hw_ms: float
    sw_dp_ms: float
    sw_imu_ms: float
    page_faults: int
    prefetches: int = 0
    tlb_refills: int = 0
    dma_transfers: int = 0


def _ablation_row(label: str, cell: CellResult) -> AblationRow:
    return AblationRow(
        label=label,
        total_ms=cell.vim_ms,
        hw_ms=cell.hw_ms,
        sw_dp_ms=cell.sw_dp_ms,
        sw_imu_ms=cell.sw_imu_ms,
        page_faults=cell.page_faults,
        prefetches=cell.prefetches,
        tlb_refills=cell.tlb_refills,
        dma_transfers=cell.dma_transfers,
    )


def _ablation(
    cell: CellConfig,
    labelled_variants: list[tuple[str, dict]],
    jobs: int = 1,
    cache_dir=None,
) -> list[AblationRow]:
    cells = _cells_for(
        cell,
        [variant for _, variant in labelled_variants],
        jobs=jobs,
        cache_dir=cache_dir,
    )
    return [
        _ablation_row(label, cell)
        for (label, _), cell in zip(labelled_variants, cells)
    ]


def ablation_pipelined(
    cell: CellConfig | None = None, jobs: int = 1, cache_dir=None
) -> list[AblationRow]:
    """Multi-cycle vs pipelined IMU (the paper's announced improvement)."""
    cell = cell or CellConfig(app="idea", input_bytes=8 * 1024)
    return _ablation(
        cell,
        [
            ("multi-cycle", {"pipelined_imu": False}),
            ("pipelined", {"pipelined_imu": True}),
        ],
        jobs=jobs,
        cache_dir=cache_dir,
    )


def ablation_policies(
    cell: CellConfig | None = None, jobs: int = 1, cache_dir=None
) -> list[AblationRow]:
    """The replacement policies §3.3 enumerates, on one faulting run."""
    cell = cell or CellConfig(app="adpcm", input_bytes=8 * 1024)
    return _ablation(
        cell,
        [(name, {"policy": name}) for name in policy_names()],
        jobs=jobs,
        cache_dir=cache_dir,
    )


def ablation_transfers(
    cell: CellConfig | None = None, jobs: int = 1, cache_dir=None
) -> list[AblationRow]:
    """Double-transfer (measured) vs single-transfer (announced) vs
    DMA-descriptor (the modelled end point of §4.1's roadmap) VIM."""
    cell = cell or CellConfig(app="adpcm", input_bytes=8 * 1024)
    return _ablation(
        cell,
        [
            (mode.name.lower(), {"transfer": mode.name.lower()})
            for mode in (TransferMode.DOUBLE, TransferMode.SINGLE, TransferMode.DMA)
        ],
        jobs=jobs,
        cache_dir=cache_dir,
    )


def ablation_prefetch(
    cell: CellConfig | None = None, jobs: int = 1, cache_dir=None
) -> list[AblationRow]:
    """No prefetch vs conservative / aggressive / overlapped prefetch.

    The *overlapped* row models the paper's full future-work vision:
    prefetch copies proceed concurrently with coprocessor execution
    ("the latter allowing overlapping of processor and coprocessor
    execution"), so avoided faults turn into saved time.
    """
    cell = cell or CellConfig(app="adpcm", input_bytes=8 * 1024)
    return _ablation(
        cell,
        [
            ("none", {"prefetch": "none"}),
            ("sequential", {"prefetch": "sequential"}),
            ("aggressive", {"prefetch": "aggressive"}),
            ("overlapped", {"prefetch": "overlapped"}),
        ],
        jobs=jobs,
        cache_dir=cache_dir,
    )


def ablation_page_size(
    input_bytes: int = 8 * 1024,
    page_sizes: tuple[int, ...] = (512, 1024, 2048, 4096),
    jobs: int = 1,
    cache_dir=None,
) -> list[AblationRow]:
    """Page-size sweep at fixed 16 KB DP-RAM capacity.

    The classic virtual-memory trade-off transplanted to the interface
    memory: small pages mean more faults (more OS round-trips), large
    pages mean fewer faults but coarser copies and fewer frames to
    allocate.  Not measured in the paper (the prototype fixes 2 KB);
    this quantifies how load-bearing that choice is.
    """
    return _ablation(
        CellConfig(app="adpcm", input_bytes=input_bytes),
        [
            (f"{page}B", {"page_bytes": page, "dpram_bytes": 16 * 1024})
            for page in page_sizes
        ],
        jobs=jobs,
        cache_dir=cache_dir,
    )


def ablation_tlb_capacity(
    cell: CellConfig | None = None,
    capacities: tuple[int, ...] = (2, 4, 8),
    jobs: int = 1,
    cache_dir=None,
) -> list[AblationRow]:
    """Shrinking the TLB below one-entry-per-frame (extra faults)."""
    cell = cell or CellConfig(app="adpcm", input_bytes=4 * 1024)
    return _ablation(
        cell,
        [
            (f"tlb-{capacity}", {"tlb_capacity": capacity})
            for capacity in capacities
        ],
        jobs=jobs,
        cache_dir=cache_dir,
    )


# ----------------------------------------------------------------------
# Multi-tenant contention (ROADMAP: several sessions sharing one DP-RAM)
# ----------------------------------------------------------------------


def contention(
    app: str = "adpcm",
    input_kb: int = 4,
    tenant_counts: tuple[int, ...] = (1, 2, 3),
    repeats: int = 2,
    tenant_mix: str = "same",
    jobs: int = 1,
    cache_dir=None,
) -> list[CellResult]:
    """Scale the tenant count on one DP-RAM: the contention sweep.

    One cell per entry of *tenant_counts*: the first (usually 1) is the
    uncontended baseline, the rest add processes that interleave
    executions through the round-robin scheduler and steal each
    other's resident pages.  Returns the raw :class:`CellResult` rows —
    their ``tenant_*`` tuples carry the per-tenant fault/evict/steal
    split the solo drivers cannot express.
    """
    configs = [
        CellConfig(
            app=app,
            input_bytes=input_kb * 1024,
            tenants=count,
            # CellConfig canonicalises the mix to "same" for count == 1,
            # so the solo baseline shares one cache hash across mixes.
            tenant_mix=tenant_mix,
            tenant_repeats=repeats,
        )
        for count in tenant_counts
    ]
    return list(run_sweep(configs, jobs=jobs, cache_dir=cache_dir).rows)


# ----------------------------------------------------------------------
# Portability (§4: "only recompiling the module")
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PortabilityRow:
    """One SoC preset running the unchanged application."""

    soc: str
    dpram_kb: int
    total_ms: float
    page_faults: int


def portability(
    cell: CellConfig | None = None, jobs: int = 1, cache_dir=None
) -> list[PortabilityRow]:
    """Run the identical workload on every SoC preset.

    Nothing about the workload (C-side mapping or core FSM) changes;
    only the platform description does — the paper's portability claim.
    Bigger dual-port memories absorb the working set and the fault
    count drops to zero.
    """
    cell = cell or CellConfig(app="adpcm", input_bytes=8 * 1024)
    socs = ("EPXA1", "EPXA4", "EPXA10")
    cells = _cells_for(
        cell,
        [{"soc": name} for name in socs],
        jobs=jobs,
        cache_dir=cache_dir,
    )
    return [
        PortabilityRow(
            soc=name,
            dpram_kb=PRESETS[name].dpram_bytes // 1024,
            total_ms=cell.vim_ms,
            page_faults=cell.page_faults,
        )
        for name, cell in zip(socs, cells)
    ]
