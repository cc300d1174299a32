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
CellConfig` variants handed to :func:`~repro.exp.sweep.run_sweep`,
so adding a scenario means adding an axis value, not a driver.  The
drivers that study one workload take it as a base ``cell`` and vary
its axes; every other field of that cell holds.

Each of them returns the :class:`~repro.exp.results.CellResult` rows
it measured: a list in variant order from ``figure8``, ``figure9``,
``contention`` and ``portability``, and a dict from variant label to
row, in variant order, from every ``ablation_*`` driver.
``translation_overhead`` returns the one fraction its two rows give.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.coproc.base import Behavior, Coprocessor
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


def _cells_for(cell: CellConfig, variants: list[dict]) -> list[CellResult]:
    """Run one cell per variant dict: *cell* with the variant's axes."""
    configs = [replace(cell, **variant) for variant in variants]
    return list(run_sweep(configs).rows)


# ----------------------------------------------------------------------
# Figure 7 — translated read access timing (bespoke waveform capture)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Figure7Result:
    """One captured read access through the IMU."""

    diagram: str
    data_ready_edge: int
    value_read: int
    pipelined: bool


class _OneReadCore(Coprocessor):
    """A minimal core issuing exactly one read (for the timing capture)."""

    name = "one-read"

    def __init__(self) -> None:
        super().__init__()
        self.value: int | None = None

    def behavior(self) -> Behavior:
        self.value = yield from self.read(0, 4)


def figure7(pipelined: bool = False) -> Figure7Result:
    """Capture the waveform of Figure 7: one translated read.

    The TLB is pre-loaded so the access hits; the returned
    ``data_ready_edge`` counts rising edges from the request edge
    inclusive — 4 for the paper's IMU.
    """
    system = System()
    imu = Imu(system.dpram, system.interrupts, pipelined=pipelined)
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
        pipelined=pipelined,
    )


# ----------------------------------------------------------------------
# Figures 8 and 9 — application execution times
# ----------------------------------------------------------------------


def _app_figure(
    app: str, sizes_kb: tuple[int, ...], with_typical: bool
) -> list[CellResult]:
    configs = [
        CellConfig(app=app, input_bytes=kb * 1024, with_typical=with_typical)
        for kb in sizes_kb
    ]
    return list(run_sweep(configs).rows)


def figure8(sizes_kb: tuple[int, ...] = (2, 4, 8)) -> list[CellResult]:
    """adpcmdecode at the paper's input sizes (SW and VIM versions)."""
    return _app_figure("adpcm", sizes_kb, False)


def figure9(sizes_kb: tuple[int, ...] = (4, 8, 16, 32)) -> list[CellResult]:
    """IDEA at the paper's input sizes (SW, typical, and VIM versions)."""
    return _app_figure("idea", sizes_kb, True)


# ----------------------------------------------------------------------
# §4.1 textual claims
# ----------------------------------------------------------------------


def imu_overhead_rows() -> list[tuple[str, float]]:
    """SW(IMU) fraction of total time for every point of Figures 8 and 9.

    The paper: "the software execution time for IMU management ... is
    up to 2.5% of the total execution time."
    """
    return [(r.label, r.sw_imu_fraction) for r in figure8() + figure9()]


def translation_overhead(cell: CellConfig | None = None) -> float:
    """Translation overhead of the IDEA hardware time (§4.1, ~20 %).

    Measured by comparing the normal IMU against an idealised one with
    single-cycle translation — same datapath, same clock-domain
    synchronisers, no TLB translation latency.  Returns the fraction
    ``1 - ideal.hw_ms / normal.hw_ms`` of the two cells.
    """
    cell = cell or CellConfig(app="idea", input_bytes=8 * 1024)
    normal, ideal = _cells_for(
        cell, [{"access_cycles": 4}, {"access_cycles": 2}]
    )
    return 1.0 - ideal.hw_ms / normal.hw_ms if normal.hw_ms else 0.0


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------


def _ablation(
    cell: CellConfig, labelled_variants: dict[str, dict]
) -> dict[str, CellResult]:
    rows = _cells_for(cell, list(labelled_variants.values()))
    return dict(zip(labelled_variants, rows))


def ablation_pipelined(cell: CellConfig | None = None) -> dict[str, CellResult]:
    """Multi-cycle vs pipelined IMU (the paper's announced improvement)."""
    cell = cell or CellConfig(app="idea", input_bytes=8 * 1024)
    return _ablation(
        cell,
        {
            "multi-cycle": {"pipelined_imu": False},
            "pipelined": {"pipelined_imu": True},
        },
    )


def ablation_policies(cell: CellConfig | None = None) -> dict[str, CellResult]:
    """The replacement policies §3.3 enumerates, on one faulting run."""
    cell = cell or CellConfig(app="adpcm", input_bytes=8 * 1024)
    return _ablation(cell, {name: {"policy": name} for name in policy_names()})


def ablation_transfers(cell: CellConfig | None = None) -> dict[str, CellResult]:
    """Double-transfer (measured) vs single-transfer (announced) vs
    DMA-descriptor (the modelled end point of §4.1's roadmap) VIM."""
    cell = cell or CellConfig(app="adpcm", input_bytes=8 * 1024)
    return _ablation(
        cell,
        {
            mode.name.lower(): {"transfer": mode.name.lower()}
            for mode in (TransferMode.DOUBLE, TransferMode.SINGLE, TransferMode.DMA)
        },
    )


def ablation_prefetch(cell: CellConfig | None = None) -> dict[str, CellResult]:
    """No prefetch vs conservative / aggressive / overlapped prefetch.

    The *overlapped* row models the paper's full future-work vision:
    prefetch copies proceed concurrently with coprocessor execution
    ("the latter allowing overlapping of processor and coprocessor
    execution"), so avoided faults turn into saved time.
    """
    cell = cell or CellConfig(app="adpcm", input_bytes=8 * 1024)
    return _ablation(
        cell,
        {
            name: {"prefetch": name}
            for name in ("none", "sequential", "aggressive", "overlapped")
        },
    )


def ablation_page_size() -> dict[str, CellResult]:
    """Page-size sweep of adpcm 8 KB at fixed 16 KB DP-RAM capacity.

    The classic virtual-memory trade-off transplanted to the interface
    memory: small pages mean more faults (more OS round-trips), large
    pages mean fewer faults but coarser copies and fewer frames to
    allocate.  Not measured in the paper (the prototype fixes 2 KB);
    this quantifies how load-bearing that choice is.
    """
    return _ablation(
        CellConfig(app="adpcm", input_bytes=8 * 1024),
        {
            f"{page}B": {"page_bytes": page, "dpram_bytes": 16 * 1024}
            for page in (512, 1024, 2048, 4096)
        },
    )


def ablation_tlb_capacity(
    cell: CellConfig | None = None,
    capacities: tuple[int, ...] = (2, 4, 8),
) -> dict[str, CellResult]:
    """Shrinking the TLB below one-entry-per-frame (extra faults)."""
    cell = cell or CellConfig(app="adpcm", input_bytes=4 * 1024)
    return _ablation(
        cell,
        {
            f"tlb-{capacity}": {"tlb_capacity": capacity}
            for capacity in capacities
        },
    )


# ----------------------------------------------------------------------
# Multi-tenant contention (ROADMAP: several sessions sharing one DP-RAM)
# ----------------------------------------------------------------------


def contention(
    app: str = "adpcm",
    input_kb: int = 4,
    tenant_counts: tuple[int, ...] = (1, 2, 3),
    repeats: int = 2,
) -> list[CellResult]:
    """Scale the tenant count on one DP-RAM: the contention sweep.

    One cell per entry of *tenant_counts*: the first (usually 1) is the
    uncontended baseline, the rest add processes that interleave
    executions through the round-robin scheduler and steal each
    other's resident pages.  The ``tenant_*`` tuples of the returned
    rows carry the per-tenant fault/evict/steal split.
    """
    configs = [
        CellConfig(
            app=app,
            input_bytes=input_kb * 1024,
            tenants=count,
            tenant_repeats=repeats,
        )
        for count in tenant_counts
    ]
    return list(run_sweep(configs).rows)


# ----------------------------------------------------------------------
# Portability (§4: "only recompiling the module")
# ----------------------------------------------------------------------


def portability(cell: CellConfig | None = None) -> list[CellResult]:
    """Run the identical workload on every SoC preset.

    Nothing about the workload (C-side mapping or core FSM) changes;
    only the platform description does — the paper's portability claim.
    Bigger dual-port memories absorb the working set and the fault
    count drops to zero.
    """
    cell = cell or CellConfig(app="adpcm", input_bytes=8 * 1024)
    return _cells_for(
        cell, [{"soc": name} for name in ("EPXA1", "EPXA4", "EPXA10")]
    )
