"""Execute one grid cell: config in, typed result row out.

``run_cell`` is the unit of work of the sweep engine.  It is a module-
level function of one picklable argument precisely so a
``multiprocessing`` pool can execute cells on worker processes; every
cell rebuilds its own :class:`~repro.core.system.System` and seeded
workload, so cells are fully independent and deterministic.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.apps.tracefile import trace_workload
from repro.core.drivers import (
    adpcm_encode_workload,
    adpcm_workload,
    idea_workload,
    synthetic_workload,
    vector_add_workload,
)
from repro.core.runner import WorkloadSpec, run_software, run_typical, run_vim
from repro.core.soc import PRESETS, SocConfig
from repro.core.system import System
from repro.core.tenancy import run_tenants
from repro.errors import CapacityError, ReproError
from repro.exp.results import REPLICATED_COLUMNS, CellResult, replicate_summary
from repro.exp.spec import CellConfig, parse_mix_part
from repro.os.vim.manager import TransferMode
from repro.os.vim.prefetch import Prefetcher, SequentialPrefetcher
from repro.os.workload import Workload
from repro.sim.time import to_ms


def _synthetic_builder(
    config: CellConfig, nbytes: int, seed: int
) -> WorkloadSpec:
    return synthetic_workload(
        nbytes,
        seed=seed,
        stride=config.syn_stride,
        locality_pct=config.syn_locality_pct,
        read_pct=config.syn_read_pct,
        phases=config.syn_phases,
    )


def _trace_builder(config: CellConfig, nbytes: int, seed: int) -> WorkloadSpec:
    # Size and seed are the *recorded* run's (the config canonicalised
    # its own away); the expected digest pins the file's content to the
    # identity the cell was hashed under.
    return trace_workload(config.trace_path, expected_digest=config.trace_digest)


#: app axis value -> workload builder taking (config, input_bytes, seed).
#: The config carries app-specific pattern axes (only ``synthetic``
#: reads it today); size and seed stay explicit because tenant slots
#: derive per-tenant seeds from the one cell config.
_APP_BUILDERS: dict[str, Callable[[CellConfig, int, int], WorkloadSpec]] = {
    "adpcm": lambda config, nbytes, seed: adpcm_workload(nbytes, seed=seed),
    "idea": lambda config, nbytes, seed: idea_workload(nbytes, seed=seed),
    "idea-dec": lambda config, nbytes, seed: idea_workload(
        nbytes, seed=seed, decrypt=True
    ),
    "vadd": lambda config, nbytes, seed: vector_add_workload(
        nbytes // 4, seed=seed
    ),
    "adpcm-enc": lambda config, nbytes, seed: adpcm_encode_workload(
        nbytes // 2, seed=seed
    ),
    "synthetic": _synthetic_builder,
    "trace": _trace_builder,
}

#: Seed stride between replicates: a prime far larger than any
#: plausible seed axis, so the derived seed sets of neighbouring base
#: seeds never collide (``seed + k * stride`` for ``k < replicates``).
_REPLICATE_SEED_STRIDE = 1_000_003

_TRANSFER_MODES = {
    "double": TransferMode.DOUBLE,
    "single": TransferMode.SINGLE,
    "dma": TransferMode.DMA,
}


def build_workload(config: CellConfig) -> WorkloadSpec:
    """The (deterministic, seeded) workload of *config*."""
    builder = _APP_BUILDERS.get(config.app)
    if builder is None:
        raise ReproError(
            f"unknown app {config.app!r}; choices: {sorted(_APP_BUILDERS)}"
        )
    return builder(config, config.input_bytes, config.seed)


def build_soc(config: CellConfig) -> SocConfig:
    """The SoC preset of *config*, with page/DP-RAM size overrides."""
    preset = PRESETS.get(config.soc)
    if preset is None:
        raise ReproError(
            f"unknown SoC {config.soc!r}; choices: {sorted(PRESETS)}"
        )
    overrides: dict = {}
    if config.page_bytes is not None:
        overrides["page_bytes"] = config.page_bytes
    if config.dpram_bytes is not None:
        overrides["dpram_bytes"] = config.dpram_bytes
    if not overrides:
        return preset
    tags = [preset.name] + [f"{k.split('_')[0]}{v}" for k, v in overrides.items()]
    return replace(preset, name="@".join(tags), **overrides)


def tenant_slots(config: CellConfig) -> list[tuple[str, int]]:
    """Per-tenant ``(app, priority)`` slots from the cell's mix."""
    if config.tenant_mix == "same":
        return [(config.app, 1)] * config.tenants
    slots = [parse_mix_part(p) for p in config.tenant_mix.split("+")]
    return [slots[i % len(slots)] for i in range(config.tenants)]


def tenant_apps(config: CellConfig) -> list[str]:
    """The app each tenant slot runs, per the cell's ``tenant_mix``."""
    return [app for app, _ in tenant_slots(config)]


def build_tenant_workloads(config: CellConfig) -> list[Workload]:
    """One :class:`~repro.os.workload.Workload` per tenant of *config*.

    Tenant *i* runs the app picked by :func:`tenant_slots` on a dataset
    seeded ``config.seed + i``, so even same-app tenants stream
    distinct (but deterministic) data, each issues
    ``config.tenant_repeats`` FPGA_EXECUTE calls, and each carries its
    slot's scheduling priority.
    """
    workloads = []
    for index, (app, priority) in enumerate(tenant_slots(config)):
        builder = _APP_BUILDERS.get(app)
        if builder is None:
            raise ReproError(
                f"unknown app {app!r}; choices: {sorted(_APP_BUILDERS)}"
            )
        spec = builder(config, config.input_bytes, config.seed + index)
        workloads.append(
            Workload(
                spec=spec,
                repeats=config.tenant_repeats,
                name=f"t{index}-{spec.name}",
                priority=priority,
            )
        )
    return workloads


def build_prefetcher(config: CellConfig) -> Prefetcher | None:
    """The prefetcher the cell's VIM runs with (None for "none")."""
    if config.prefetch == "none":
        return None
    if config.prefetch == "sequential":
        return SequentialPrefetcher(depth=config.prefetch_depth)
    if config.prefetch == "aggressive":
        return SequentialPrefetcher(depth=config.prefetch_depth, aggressive=True)
    if config.prefetch == "overlapped":
        return SequentialPrefetcher(
            depth=config.prefetch_depth, aggressive=True, overlapped=True
        )
    raise ReproError(f"unknown prefetch {config.prefetch!r}")


def run_cell(config: CellConfig, workload: WorkloadSpec | None = None) -> CellResult:
    """Run one cell: software reference, VIM version, optional typical.

    Every version is verified bit-exact against the software reference
    before any number is reported — mis-measurement never outlives the
    cell that produced it.  Passing *workload* overrides the built one
    (used by the legacy drivers that accept a hand-made spec).

    Parameters
    ----------
    config : CellConfig
        The grid point to simulate.  With ``config.tenants > 1`` the
        cell runs the multi-tenant contention path (see
        :func:`_run_contended`) instead of the single-shot one.
    workload : WorkloadSpec, optional
        Hand-made workload override; single-tenant cells only.

    Returns
    -------
    CellResult
        The typed, JSON-stable result row.
    """
    if config.replicates > 1:
        if workload is not None:
            raise ReproError(
                "a workload override cannot be combined with a "
                "replicated cell (replicates > 1): replicates rebuild "
                "their own workloads from derived seeds"
            )
        return _run_replicated(config)
    if config.tenants > 1 or config.tenant_repeats > 1:
        # tenants == 1 with repeats > 1 is the *uncontended baseline*
        # of a contention sweep: the same session-per-process executor,
        # just with nobody to steal pages from.
        if workload is not None:
            raise ReproError(
                "a workload override cannot be combined with the "
                "multi-tenant cell path (tenants/tenant_repeats > 1)"
            )
        return _run_contended(config)
    workload = workload if workload is not None else build_workload(config)
    soc = build_soc(config)
    sw = run_software(System(soc), workload)
    vim = run_vim(
        System(soc),
        workload,
        policy=config.policy,
        transfer_mode=_TRANSFER_MODES[config.transfer],
        pipelined_imu=config.pipelined_imu,
        access_cycles=config.access_cycles,
        prefetcher=build_prefetcher(config),
        tlb_capacity=config.tlb_capacity,
    )
    vim.verify()
    meas = vim.measurement
    typical_ms = None
    typical_speedup = None
    typical_fits = True
    if config.with_typical:
        try:
            typical = run_typical(System(soc), workload)
            typical.verify()
            typical_ms = typical.total_ms
            typical_speedup = typical.measurement.speedup_over(sw.measurement)
        except CapacityError:
            typical_fits = False
    counters = meas.counters
    return CellResult(
        config=config,
        key=config.key(),
        label=config.label(),
        workload=workload.name,
        sw_ms=sw.total_ms,
        vim_ms=vim.total_ms,
        hw_ms=to_ms(meas.hw_ps),
        sw_dp_ms=to_ms(meas.sw_dp_ps),
        sw_imu_ms=to_ms(meas.sw_imu_ps),
        sw_other_ms=to_ms(meas.sw_other_ps),
        vim_speedup=meas.speedup_over(sw.measurement),
        page_faults=counters.page_faults,
        compulsory_loads=counters.compulsory_loads,
        evictions=counters.evictions,
        writebacks=counters.writebacks,
        prefetches=counters.prefetches,
        bytes_to_dpram=counters.bytes_to_dpram,
        bytes_from_dpram=counters.bytes_from_dpram,
        tlb_hit_rate=(
            counters.tlb_hits / counters.tlb_lookups if counters.tlb_lookups else 0.0
        ),
        typical_ms=typical_ms,
        typical_speedup=typical_speedup,
        typical_fits=typical_fits,
        tlb_refills=counters.tlb_refills,
        dma_transfers=counters.dma_transfers,
    )


def replicate_seed(config: CellConfig, index: int) -> int:
    """The dataset seed of replicate *index* of *config*.

    Replicate 0 uses the cell's own seed — so the primary columns of a
    replicated row agree exactly with the unreplicated run — and later
    replicates step by :data:`_REPLICATE_SEED_STRIDE`.
    """
    if not 0 <= index < config.replicates:
        raise ReproError(
            f"replicate index must be in 0..{config.replicates - 1}, "
            f"got {index}"
        )
    return config.seed + index * _REPLICATE_SEED_STRIDE


def _run_replicated(config: CellConfig) -> CellResult:
    """The replicated cell path: N independent seeds, one summary row.

    Each replicate is a full single-shot (or contended) run of the same
    configuration under a derived seed, executed in replicate order.
    The returned row carries replicate 0's primary columns under the
    *replicated* config's key and label, plus the cross-replicate
    mean/CV summaries that feed ``repro diff --bands cv``.
    """
    rows = []
    for index in range(config.replicates):
        sub = replace(
            config, seed=replicate_seed(config, index), replicates=1
        )
        rows.append(run_cell(sub))
    summaries: dict[str, float] = {}
    for name in REPLICATED_COLUMNS:
        mean, cv = replicate_summary(
            [float(getattr(row, name)) for row in rows]
        )
        summaries[f"{name}_mean"] = mean
        summaries[f"{name}_cv"] = cv
    return replace(
        rows[0],
        config=config,
        key=config.key(),
        label=config.label(),
        **summaries,
    )


def _run_contended(config: CellConfig) -> CellResult:
    """The multi-tenant cell path: N sessions on one shared System.

    The software baseline is every tenant's pure-SW time (times its
    repeats) summed; the VIM number is the *makespan* of the contended
    run, so ``vim_speedup`` still reads "how much faster than doing all
    of this in software".  Functional outputs are verified bit-exact
    against each tenant's reference inside :func:`run_tenants` — which
    is also what each tenant's solo session produces, so contention can
    reorder time but never bytes.
    """
    soc = build_soc(config)
    workloads = build_tenant_workloads(config)
    sw_ms = 0.0
    for workload in workloads:
        sw = run_software(System(soc), workload.spec)
        sw_ms += sw.total_ms * workload.repeats
    result = run_tenants(
        System(soc),
        workloads,
        policy=config.policy,
        transfer_mode=_TRANSFER_MODES[config.transfer],
        pipelined_imu=config.pipelined_imu,
        access_cycles=config.access_cycles,
        prefetcher=build_prefetcher(config),
        tlb_capacity=config.tlb_capacity,
        sched=config.sched,
    )
    vim_ms = result.makespan_ms
    totals = {
        "hw_ps": 0, "sw_dp_ps": 0, "sw_imu_ps": 0, "sw_other_ps": 0,
        "page_faults": 0, "tlb_refills": 0, "compulsory_loads": 0,
        "evictions": 0, "steals": 0, "writebacks": 0, "prefetches": 0,
        "dma_transfers": 0, "bytes_to_dpram": 0, "bytes_from_dpram": 0,
        "tlb_lookups": 0, "tlb_hits": 0,
    }
    for tenant in result.tenants:
        meas = tenant.measurement
        counters = meas.counters
        totals["hw_ps"] += meas.hw_ps
        totals["sw_dp_ps"] += meas.sw_dp_ps
        totals["sw_imu_ps"] += meas.sw_imu_ps
        totals["sw_other_ps"] += meas.sw_other_ps
        totals["page_faults"] += counters.page_faults
        totals["tlb_refills"] += counters.tlb_refills
        totals["compulsory_loads"] += counters.compulsory_loads
        totals["evictions"] += counters.evictions
        totals["steals"] += counters.steals
        totals["writebacks"] += counters.writebacks
        totals["prefetches"] += counters.prefetches
        totals["dma_transfers"] += counters.dma_transfers
        totals["bytes_to_dpram"] += counters.bytes_to_dpram
        totals["bytes_from_dpram"] += counters.bytes_from_dpram
        totals["tlb_lookups"] += counters.tlb_lookups
        totals["tlb_hits"] += counters.tlb_hits
    return CellResult(
        config=config,
        key=config.key(),
        label=config.label(),
        workload="+".join(t.workload for t in result.tenants),
        sw_ms=sw_ms,
        vim_ms=vim_ms,
        hw_ms=to_ms(totals["hw_ps"]),
        sw_dp_ms=to_ms(totals["sw_dp_ps"]),
        sw_imu_ms=to_ms(totals["sw_imu_ps"]),
        sw_other_ms=to_ms(totals["sw_other_ps"]),
        vim_speedup=sw_ms / vim_ms if vim_ms else 0.0,
        page_faults=totals["page_faults"],
        compulsory_loads=totals["compulsory_loads"],
        evictions=totals["evictions"],
        writebacks=totals["writebacks"],
        prefetches=totals["prefetches"],
        bytes_to_dpram=totals["bytes_to_dpram"],
        bytes_from_dpram=totals["bytes_from_dpram"],
        tlb_hit_rate=(
            totals["tlb_hits"] / totals["tlb_lookups"]
            if totals["tlb_lookups"]
            else 0.0
        ),
        steals=totals["steals"],
        tlb_refills=totals["tlb_refills"],
        dma_transfers=totals["dma_transfers"],
        tenant_labels=tuple(t.name for t in result.tenants),
        tenant_ms=tuple(t.stats.total_ms for t in result.tenants),
        tenant_faults=tuple(t.stats.page_faults for t in result.tenants),
        tenant_evictions=tuple(t.stats.evictions for t in result.tenants),
        tenant_steals=tuple(t.stats.steals for t in result.tenants),
        tenant_pages_lost=tuple(t.stats.pages_lost for t in result.tenants),
    )
