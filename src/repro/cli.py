"""Command-line interface: regenerate any paper artefact from a shell.

Usage::

    python -m repro fig7                  # Figure 7 waveform
    python -m repro fig8                  # Figure 8 table + bars
    python -m repro fig9                  # Figure 9 table
    python -m repro overheads             # §4.1 claims
    python -m repro ablations [NAME]      # one or all ablations
    python -m repro portability           # EPXA1/4/10 sweep
    python -m repro run adpcm --kb 8      # one workload, all versions
    python -m repro sweep --app adpcm --kb 4 8 --policy fifo lru \\
        --jobs 4 --cache sweep.sqlite    # any design-space grid
    python -m repro sweep --app adpcm --kb 4 8 --policy fifo lru \\
        --shard 1/2 --cache shard1.sqlite   # this machine's half of it
    python -m repro merge merged.sqlite shard1.sqlite shard2.sqlite
                                             # recombine shards
    python -m repro report --cache merged.sqlite \\
        --group-by policy --format md    # tables from a store, no sim
    python -m repro report --cache merged.sqlite \\
        --baseline main.sqlite           # every cell annotated vs main
    python -m repro diff main.sqlite merged.sqlite   # regression table;
                                             # exit 1 on regressions
    python -m repro record trace.gz --app synthetic --kb 4 \\
                                             # run one cell, write its
                                             # address trace
    python -m repro sweep --app trace --trace trace.gz \\
        --policy fifo lru                # replay the trace as a grid
    python -m repro sweep --app adpcm --tenants 2 \\
        --tenant-mix adpcm:2+idea --sched priority \\
                                             # weighted tenants under a
                                             # strict-priority scheduler
    python -m repro merge results.sqlite old-cache-dir   # import a
                                             # legacy JSON cache
    python -m repro diff base.sqlite results.sqlite \\
        --group-by policy                # per-axis aggregate diff
    python -m repro history vim_ms results.sqlite \\
        --cells adpcm --last 5           # metric trend across runs
    python -m repro serve --cache service.sqlite    # sweep coordinator
    python -m repro worker http://127.0.0.1:8037    # pull + simulate
    python -m repro submit http://127.0.0.1:8037 \\
        --app adpcm --kb 4 8 --policy fifo lru   # grid via the service

The heavy lifting lives in :mod:`repro.exp`; the CLI is a formatting
shell around it, so everything printed here is also unit-tested.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path
from typing import Callable

from repro.core.runner import run_software, run_typical, run_vim
from repro.core.soc import PRESETS
from repro.core.system import System
from repro.errors import CapacityError, ReproError
from repro import exp
from repro.exp.cell import build_workload
from repro.exp.diff import BANDS, DEFAULT_METRICS, diff_stores, render_diff
from repro.exp.history import load_history, render_history
from repro.exp.merge import merge_into
from repro.exp.report import (
    FORMATS,
    group_axes,
    load_cache_rows,
    render_report,
    render_table,
    stacked_bar_chart,
    write_report,
)
from repro.exp.record import record_cell
from repro.exp.results import COLUMNS
from repro.exp.service import serve_forever, submit_sweep
from repro.exp.store import open_store
from repro.exp.worker import run_worker
from repro.exp.spec import (
    APPS,
    POLICIES,
    PREFETCHES,
    TRANSFERS,
    CellConfig,
    SweepSpec,
    shard_cells,
)
from repro.os.scheduler import SCHEDS

#: Ablation registry: name -> driver (variant label -> CellResult row).
_ABLATIONS: dict[str, Callable] = {
    "pipeline": exp.ablation_pipelined,
    "policies": exp.ablation_policies,
    "transfers": exp.ablation_transfers,
    "prefetch": exp.ablation_prefetch,
    "tlb": exp.ablation_tlb_capacity,
    "pagesize": exp.ablation_page_size,
}


def _print_fig7(args: argparse.Namespace) -> None:
    result = exp.figure7(pipelined=args.pipelined)
    print(result.diagram)
    print(f"\ndata ready on rising edge {result.data_ready_edge} (paper: 4)")


def _print_fig8(args: argparse.Namespace) -> None:
    rows = exp.figure8(tuple(args.kb))
    print(render_table(
        ["input", "SW ms", "VIM ms", "HW ms", "SW(DP) ms", "SW(IMU) ms",
         "speedup", "faults"],
        [[r.label, r.sw_ms, r.vim_ms, r.hw_ms, r.sw_dp_ms, r.sw_imu_ms,
          r.vim_speedup, r.page_faults] for r in rows],
    ))
    print()
    print(stacked_bar_chart(
        [(r.label, {"hw": r.hw_ms, "sw_dp": r.sw_dp_ms, "sw_imu": r.sw_imu_ms})
         for r in rows]
    ))


def _print_fig9(args: argparse.Namespace) -> None:
    rows = exp.figure9(tuple(args.kb))
    print(render_table(
        ["input", "SW ms", "typical ms", "typical x", "VIM ms", "VIM x",
         "faults"],
        [[r.label, r.sw_ms,
          r.typical_ms if r.typical_fits else "exceeds memory",
          r.typical_speedup if r.typical_fits else "-",
          r.vim_ms, r.vim_speedup, r.page_faults] for r in rows],
    ))


def _print_overheads(args: argparse.Namespace) -> None:
    rows = exp.imu_overhead_rows()
    print(render_table(
        ["point", "SW(IMU)/total"],
        [[label, f"{fraction * 100:.2f}%"] for label, fraction in rows],
    ))
    overhead = exp.translation_overhead()
    print(f"\nIDEA translation overhead: {overhead * 100:.1f}% "
          "of hardware time (paper: ~20%)")


def _print_ablations(args: argparse.Namespace) -> None:
    names = [args.name] if args.name else sorted(_ABLATIONS)
    for name in names:
        driver = _ABLATIONS.get(name)
        if driver is None:
            raise ReproError(
                f"unknown ablation {name!r}; choices: {sorted(_ABLATIONS)}"
            )
        rows = driver()
        print(f"\nablation: {name}")
        print(render_table(
            ["config", "total ms", "hw ms", "SW(DP) ms", "faults", "prefetches"],
            [[label, r.vim_ms, r.hw_ms, r.sw_dp_ms, r.page_faults,
              r.prefetches] for label, r in rows.items()],
        ))


def _print_portability(args: argparse.Namespace) -> None:
    rows = exp.portability()
    print(render_table(
        ["SoC", "DP-RAM KB", "total ms", "faults"],
        [[r.config.soc, PRESETS[r.config.soc].dpram_bytes // 1024, r.vim_ms,
          r.page_faults] for r in rows],
    ))


#: ``repro sweep --preset`` shorthands: canonical grids for scenario
#: families that deserve a one-flag spelling.  The preset *is* the
#: grid: combining it with explicit axis flags is a loud error.
#: Values are explicit cell lists so a preset can be a ragged grid —
#: e.g. one solo baseline instead of a baseline per tenant mix.
_SWEEP_PRESETS: dict[str, list] = {
    # Multi-process contention: one solo baseline, then 2 and 3
    # tenants interleaving repeated executions on one DP-RAM, same-app
    # and mixed-app flavours.
    "contention": [
        CellConfig(
            app="adpcm",
            input_bytes=4 * 1024,
            tenants=count,
            tenant_mix=mix,
            tenant_repeats=2,
        )
        for count, mix in (
            (1, "same"),
            (2, "same"), (2, "adpcm+idea"),
            (3, "same"), (3, "adpcm+idea"),
        )
    ],
}


def iter_option_actions():
    """Yield ``(subcommand, action)`` for every CLI option action.

    The one walker over argparse internals, for ``tools/check_docs.py``
    (which keeps the documented flag lists in lockstep with the
    parser).  Top-level parser options yield ``subcommand=None``.
    """
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for action in parser._actions:
        yield None, action
    for name, child in subparsers.choices.items():
        for action in child._actions:
            yield name, action


#: Grid flag dest -> (:class:`~repro.exp.spec.SweepSpec` field, the
#: conversion of the parsed value).  Every grid flag but ``--preset``
#: defaults to ``argparse.SUPPRESS``, so it is in the namespace only
#: when given, and ``SweepSpec`` supplies the value of every other axis.
_GRID_FLAGS: dict[str, tuple[str, Callable]] = {
    "app": ("apps", tuple),
    "kb": ("input_bytes", lambda kbs: tuple(kb * 1024 for kb in kbs)),
    "seed": ("seeds", tuple),
    "soc": ("socs", tuple),
    "page": ("page_bytes", tuple),
    "policy": ("policies", tuple),
    "transfer": ("transfers", tuple),
    "prefetch": ("prefetches", tuple),
    "tlb": ("tlb_capacities", tuple),
    "pipelined_too": ("pipelined", lambda _: (False, True)),
    "tenants": ("tenants", tuple),
    "tenant_mix": ("tenant_mixes", tuple),
    "tenant_repeats": ("tenant_repeats", tuple),
    "sched": ("scheds", tuple),
    "trace": ("trace_paths", tuple),
    "syn_stride": ("syn_strides", tuple),
    "syn_locality": ("syn_locality_pcts", tuple),
    "syn_read": ("syn_read_pcts", tuple),
    "syn_phases": ("syn_phases", tuple),
    "typical": ("with_typical", bool),
    "replicates": ("replicates", int),
}


def spec_from_args(args: argparse.Namespace):
    """The grid that the parsed grid flags of *args* describe.

    Returns the preset's cell list when ``--preset`` was given, else
    the :class:`~repro.exp.spec.SweepSpec` the grid flags define.  The
    one translation from parsed flags to a grid — shared by ``sweep``,
    ``submit``, ``record`` and ``tools/grid_key.py`` (which
    fingerprints a grid for the CI baseline-cache key without running
    it).

    Raises
    ------
    ReproError
        If ``--preset`` comes with any grid flag, even one spelled
        with its default: the preset would silently override it.
    """
    given = [dest for dest in _GRID_FLAGS if hasattr(args, dest)]
    if args.preset:
        if given:
            flags = sorted("--" + dest.replace("_", "-") for dest in given)
            raise ReproError(
                f"--preset {args.preset} defines the whole grid; axis "
                f"flag(s) {', '.join(flags)} would be ignored — drop "
                "them or drop --preset"
            )
        return list(_SWEEP_PRESETS[args.preset])
    return SweepSpec(**{
        field: convert(getattr(args, dest))
        for dest, (field, convert) in _GRID_FLAGS.items()
        if dest in given
    })


def _load_baseline_rows(baseline: str):
    """Baseline rows for ``--baseline``, warning when all-stale."""
    # allow_empty: an all-stale baseline (CACHE_VERSION bump) has
    # nothing to compare against — annotate everything (new), do
    # not fail the report it decorates.
    rows = load_cache_rows(baseline, allow_empty=True).rows
    if not rows:
        print(
            f"warning: baseline {baseline} holds no loadable "
            "entries (different CACHE_VERSION?); every cell will "
            "render as (new)",
            file=sys.stderr,
        )
    return rows


def _print_report(args: argparse.Namespace) -> None:
    """``repro report``: render tables from a store, simulate nothing."""
    if args.cache is None:
        raise ReproError(
            "report renders from a result store: pass --cache PATH "
            "(the store a previous sweep or merge wrote)"
        )
    baseline = None
    if args.baseline is not None:
        baseline = _load_baseline_rows(args.baseline)
    with open_store(args.cache) as store:
        counts = store.counts()
        if not counts.ok:
            raise ReproError(
                f"no loadable cell results in {args.cache} "
                f"({counts.skipped} stale/invalid entr"
                f"{'y' if counts.skipped == 1 else 'ies'} skipped); "
                "run `repro sweep --cache` first"
            )
        if counts.skipped:
            # To stderr: stdout stays the pure report (CI byte-compares
            # and redirects it), but a partial table must not pass
            # silently as the whole grid.
            print(
                f"warning: skipped {counts.skipped} stale/invalid cache "
                f"entr{'y' if counts.skipped == 1 else 'ies'} in "
                f"{args.cache} (not in this report)",
                file=sys.stderr,
            )
        # Rows stream off the store's (label, key)-sorted cursor; a
        # flat report never holds more than one of them.
        write_report(
            store,
            sys.stdout,
            fmt=args.format,
            group_by=tuple(args.group_by or ()),
            baseline=baseline,
        )
    sys.stdout.write("\n")


def _print_sweep_rows(result: exp.SweepResult) -> None:
    """The sweep result table and summary line.

    Shared by ``repro sweep`` and ``repro submit`` — a submitted
    sweep's stdout is byte-identical to the local run's, summary line
    included (CI greps it for ``0 simulated`` on resubmission).
    """
    cell_rows = result.rows
    multi_tenant = any(r.config.tenants > 1 for r in cell_rows)
    replicated = any(r.config.replicates > 1 for r in cell_rows)
    headers = ["cell", "total ms", "hw ms", "SW(DP) ms", "SW(IMU) ms",
               "speedup", "faults", "prefetches"]
    rows = [[r.label, r.vim_ms, r.hw_ms, r.sw_dp_ms, r.sw_imu_ms,
             r.vim_speedup, r.page_faults, r.prefetches] for r in cell_rows]
    if multi_tenant:
        headers += ["evictions", "steals"]
        for row, r in zip(rows, cell_rows):
            row += [r.evictions, r.steals]
    if replicated:
        # The primary columns report replicate 0; surface the
        # cross-replicate spread next to them (the cv gate's inputs).
        headers += ["ms mean", "ms CV", "faults mean", "faults CV"]
        for row, r in zip(rows, cell_rows):
            row += [r.vim_ms_mean, r.vim_ms_cv,
                    r.page_faults_mean, r.page_faults_cv]
    print(render_table(headers, rows))
    if multi_tenant:
        print()
        print(render_table(
            ["tenant", "total ms", "faults", "evictions", "steals", "lost"],
            [[f"{r.label}/{name}", ms, faults, evictions, steals, lost]
             for r in cell_rows
             for name, ms, faults, evictions, steals, lost in zip(
                 r.tenant_labels, r.tenant_ms, r.tenant_faults,
                 r.tenant_evictions, r.tenant_steals, r.tenant_pages_lost,
             )],
        ))
    print(
        f"\n{len(cell_rows)} cells: {result.executed} simulated, "
        f"{result.cached} from cache"
    )


def _print_sweep(args: argparse.Namespace) -> None:
    spec = spec_from_args(args)
    if args.force and not args.json:
        # Same contract as the other no-effect-flag guards: a silently
        # ignored --force would misstate what protection the user has.
        raise ReproError(
            "--force only gates --json overwrites; pass --json PATH "
            "alongside it"
        )
    if args.json and Path(args.json).is_dir():
        # Not even --force can write over a directory; refuse before
        # simulating instead of crashing at dump time.
        raise ReproError(f"--json target {args.json} is a directory")
    if args.json and not Path(args.json).parent.is_dir():
        raise ReproError(
            f"--json parent directory {Path(args.json).parent} does not "
            "exist"
        )
    if args.json and Path(args.json).exists() and not args.force:
        # Refuse before simulating anything: a long uncached run whose
        # dump is then rejected would be pure wasted work.
        raise ReproError(
            f"refusing to overwrite {args.json} (it may hold merged "
            "shard results); pass --force to replace it"
        )
    if args.shard is not None:
        index, total = args.shard
        cells = spec.expand() if isinstance(spec, SweepSpec) else list(spec)
        grid_size = len({cell.key() for cell in cells})
        spec = shard_cells(cells, index, total)
        print(f"shard {index}/{total}: {len(spec)} of {grid_size} unique cells")
    result = exp.run_sweep(spec, jobs=args.jobs, cache_dir=args.cache)
    _print_sweep_rows(result)
    if args.json:
        payload = [r.to_dict() for r in result.rows]
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
            handle.write("\n")
        print(f"wrote {args.json}")


def _print_merge(args: argparse.Namespace) -> int:
    summary = merge_into(args.dest, args.sources, dry_run=args.dry_run)
    print(summary)
    if summary.conflicts:
        # Only --dry-run reaches here (a non-dry conflicted merge
        # raises); exit 1 so CI pre-flights fail like the real merge.
        for conflict in summary.conflicts:
            print(f"  {conflict}")
        return 1
    return 0


def _print_history(args: argparse.Namespace) -> None:
    with open_store(args.store) as store:
        history = load_history(
            store,
            args.metric,
            cells=tuple(args.cells or ()),
            last=args.last,
        )
    print(render_history(history, fmt=args.format))


def _print_diff(args: argparse.Namespace) -> int:
    """``repro diff``: regression table between two runs, no simulation.

    Exit code 1 when any metric regressed beyond tolerance — the CI
    gate — and 0 otherwise (including the no-comparable-cells case a
    ``CACHE_VERSION`` bump produces: incomparable is not a regression).
    """
    result = diff_stores(
        args.baseline,
        args.current,
        metrics=tuple(args.metric) if args.metric else DEFAULT_METRICS,
        rtol=args.rtol,
        atol=args.atol,
        bands=args.bands,
        group_by=tuple(args.group_by or ()),
    )
    print(render_diff(result, fmt=args.format))
    return 1 if result.has_regressions else 0


def _shard_arg(text: str) -> tuple[int, int]:
    """Parse ``--shard I/N`` (1-based index / shard count)."""
    match = re.fullmatch(r"(\d+)/(\d+)", text)
    if match is None:
        raise argparse.ArgumentTypeError(
            f"expected I/N (e.g. 1/4), got {text!r}"
        )
    return int(match.group(1)), int(match.group(2))


def _print_run(args: argparse.Namespace) -> None:
    workload = build_workload(
        CellConfig(app=args.app, input_bytes=args.kb * 1024)
    )
    sw = run_software(System(), workload)
    vim = run_vim(System(), workload)
    vim.verify()
    print(f"{workload.name}: software {sw.total_ms:.3f} ms")
    meas = vim.measurement
    print(f"{workload.name}: VIM      {vim.total_ms:.3f} ms "
          f"({meas.speedup_over(sw.measurement):.2f}x, "
          f"{meas.counters.page_faults} faults, "
          f"hw {meas.hw_ps / 1e9:.3f} / dp {meas.sw_dp_ps / 1e9:.3f} / "
          f"imu {meas.sw_imu_ps / 1e9:.3f} ms)")
    try:
        typical = run_typical(System(), workload)
        typical.verify()
        print(f"{workload.name}: typical  {typical.total_ms:.3f} ms "
              f"({typical.measurement.speedup_over(sw.measurement):.2f}x)")
    except CapacityError as error:
        print(f"{workload.name}: typical  unavailable ({error})")


def _print_record(args: argparse.Namespace) -> None:
    """``repro record OUT``: run one grid cell and write its trace.

    Takes the same axis flags as ``sweep``/``submit`` so a cell is
    spelled identically everywhere — but must resolve to exactly *one*
    unique cell (a trace is one run's access stream, not a grid's).
    """
    spec = spec_from_args(args)
    out = Path(args.out)
    # Refuse before simulating, as sweep does for --json: a run whose
    # trace then may not be written is wasted work.
    if out.is_dir():
        raise ReproError(f"record target {out} is a directory")
    if out.exists() and not args.force:
        raise ReproError(
            f"refusing to overwrite {out}; pass --force to replace it"
        )
    cells = spec.expand() if isinstance(spec, SweepSpec) else list(spec)
    unique: dict[str, CellConfig] = {}
    for cell in cells:
        unique.setdefault(cell.key(), cell)
    if len(unique) != 1:
        raise ReproError(
            f"record captures one cell's access stream; these flags "
            f"describe {len(unique)} unique cells — pass a single value "
            "per axis (or drop --preset)"
        )
    (cell,) = unique.values()
    if cell.app == "trace":
        raise ReproError(
            "cannot record a trace replay (it would re-encode the same "
            "stream); record the original app instead"
        )
    outcome = record_cell(cell, args.out, force=args.force)
    trace = outcome.trace
    print(
        f"recorded {cell.label()}: {len(trace.ops)} accesses, "
        f"{len(trace.objects)} object(s), {trace.tenant_count} tenant(s)"
    )
    print(f"digest {trace.digest}")
    print(f"wrote {outcome.path}")
    print(f"replay: repro sweep --app trace --trace {outcome.path}")


def _print_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run a sweep coordinator until interrupted."""
    return serve_forever(
        args.cache,
        host=args.host,
        port=args.port,
        lease_timeout=args.lease_timeout,
        max_attempts=args.max_attempts,
        backoff=args.backoff,
    )


def _print_worker(args: argparse.Namespace) -> int:
    """``repro worker URL``: pull and simulate cells until stopped."""
    attempted = run_worker(
        args.url, worker_id=args.id, poll=args.poll, max_idle=args.max_idle,
    )
    print(f"worker attempted {attempted} cell(s)")
    return 0


def _print_submit(args: argparse.Namespace) -> None:
    """``repro submit URL``: run a grid through a coordinator.

    The stdout contract is ``repro sweep``'s, byte for byte: the same
    table, the same ``N cells: X simulated, Y from cache`` summary.
    Progress goes to stderr so redirected output stays a pure report.
    With ``--report`` the grid still runs (the coordinator dedups
    already-cached cells), but the result renders as the report table
    — the ROADMAP's "tables without a second command" follow-on.
    """
    if not args.report and (
        args.group_by is not None
        or args.format is not None
        or args.baseline is not None
    ):
        # These flags only shape the --report table and would silently
        # do nothing on a plain submit.
        raise ReproError(
            "--group-by/--format/--baseline shape the --report output; "
            "add --report to render the submitted grid as a report table"
        )
    spec = spec_from_args(args)
    cells = spec.expand() if isinstance(spec, SweepSpec) else list(spec)
    result = submit_sweep(
        args.url,
        cells,
        poll=args.poll,
        progress=lambda line: print(line, file=sys.stderr, flush=True),
        timeout=args.timeout,
    )
    if args.report:
        # Same canonical order and rendering as `repro report`, so a
        # submitted grid's table matches the cache-rendered one byte
        # for byte.
        rows = sorted(result.rows, key=lambda r: (r.label, r.key))
        baseline = None
        if args.baseline is not None:
            baseline = _load_baseline_rows(args.baseline)
        print(render_report(
            rows,
            group_by=tuple(args.group_by or ()),
            fmt=args.format or "md",
            baseline=baseline,
        ))
        return
    _print_sweep_rows(result)


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    """The design-space grid flags of ``sweep``, ``submit`` and ``record``.

    Everything :func:`spec_from_args` reads lives here — axis flags,
    ``--preset``, ``--typical`` and ``--replicates`` — so a grid means
    the same thing whether it runs locally or through a coordinator.
    Run flags (``--jobs``, ``--cache``, …) stay on ``sweep``: the
    coordinator owns caching and scheduling on the service path.
    Every flag but ``--preset`` has no default of its own and one
    :data:`_GRID_FLAGS` row: the default grid is ``SweepSpec()``.
    """
    grid = functools.partial(parser.add_argument, default=argparse.SUPPRESS)
    grid("--app", nargs="+", choices=APPS, help="workload axis")
    grid("--kb", type=int, nargs="+", help="input-size axis (KB)")
    grid("--seed", type=int, nargs="+", help="dataset seed axis")
    grid("--soc", nargs="+", choices=sorted(PRESETS), help="SoC preset axis")
    grid("--page", type=int, nargs="+",
         help="page-size axis (bytes; default: SoC preset)")
    grid("--policy", nargs="+", choices=POLICIES,
         help="replacement-policy axis")
    grid("--transfer", nargs="+", choices=TRANSFERS,
         help="transfer-mode axis")
    grid("--prefetch", nargs="+", choices=PREFETCHES, help="prefetch axis")
    grid("--tlb", type=int, nargs="+",
         help="TLB-capacity axis (default: one per frame)")
    grid("--pipelined-too", action="store_true",
         help="also run every cell with the pipelined IMU")
    grid("--tenants", type=int, nargs="+",
         help="tenant-count axis (processes sharing the DP-RAM)")
    grid("--tenant-mix", nargs="+",
         help="tenant app mix axis: 'same' or '+'-joined apps, e.g. "
              "adpcm+idea")
    grid("--tenant-repeats", type=int, nargs="+",
         help="FPGA_EXECUTE calls per tenant axis")
    grid("--sched", nargs="+", choices=SCHEDS,
         help="tenant scheduling-policy axis (per-tenant priorities via "
              "--tenant-mix app:N slots; solo cells always canonicalise "
              "to rr)")
    grid("--trace", nargs="+", metavar="PATH",
         help="trace-file axis for --app trace cells (files written by "
              "`repro record`; cell identity is the trace digest, not the "
              "path)")
    grid("--syn-stride", type=int, nargs="+",
         help="synthetic hot-window stride axis (words; synthetic app "
              "cells only)")
    grid("--syn-locality", type=int, nargs="+",
         help="synthetic hot-window hit percentage axis (0..100)")
    grid("--syn-read", type=int, nargs="+",
         help="synthetic read-op percentage axis (0..100; the rest write)")
    grid("--syn-phases", type=int, nargs="+",
         help="synthetic hot-window relocation count axis")
    grid("--replicates", type=int,
         help="independent replicate seeds per cell (one value, not an "
              "axis); above 1 every row gains mean/CV summary columns for "
              "repro diff --bands cv")
    parser.add_argument("--preset", choices=sorted(_SWEEP_PRESETS),
                        default=None,
                        help="run a canonical grid (combining it with "
                             "axis flags is an error)")
    grid("--typical", action="store_true",
         help="also run the typical (non-VIM) coprocessor")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and sphinx docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artefacts of the DATE 2004 interface-"
        "virtualisation paper.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig7 = sub.add_parser("fig7", help="Figure 7 read-access waveform")
    fig7.add_argument("--pipelined", action="store_true")
    fig7.set_defaults(func=_print_fig7)

    fig8 = sub.add_parser("fig8", help="Figure 8 adpcm table")
    fig8.add_argument("--kb", type=int, nargs="+", default=[2, 4, 8])
    fig8.set_defaults(func=_print_fig8)

    fig9 = sub.add_parser("fig9", help="Figure 9 IDEA table")
    fig9.add_argument("--kb", type=int, nargs="+", default=[4, 8, 16, 32])
    fig9.set_defaults(func=_print_fig9)

    over = sub.add_parser("overheads", help="§4.1 overhead claims")
    over.set_defaults(func=_print_overheads)

    abl = sub.add_parser("ablations", help="design-choice ablations")
    abl.add_argument("name", nargs="?", choices=sorted(_ABLATIONS))
    abl.set_defaults(func=_print_ablations)

    port = sub.add_parser("portability", help="EPXA1/4/10 sweep")
    port.set_defaults(func=_print_portability)

    run = sub.add_parser("run", help="run one workload, all versions")
    run.add_argument("app", choices=("adpcm", "idea", "vadd"))
    run.add_argument("--kb", type=int, default=8)
    run.set_defaults(func=_print_run)

    record = sub.add_parser(
        "record",
        help="run one grid cell and write its address trace",
        # As for sweep: grid flags are spelled in full.
        allow_abbrev=False,
    )
    record.add_argument("out", metavar="OUT",
                        help="trace file to write (gzip stream; the "
                             "content digest lands in the header)")
    _add_grid_flags(record)
    record.add_argument("--force", action="store_true",
                        help="overwrite an existing OUT file")
    record.set_defaults(func=_print_record)

    sweep = sub.add_parser(
        "sweep", help="run a design-space grid (parallel, cached)",
        # No prefix abbreviations: a grid flag is spelled in full, so
        # `--ap adpcm` is an error rather than a guess at --app.
        allow_abbrev=False,
    )
    _add_grid_flags(sweep)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (cells are independent)")
    sweep.add_argument("--cache", default=None, metavar="PATH",
                       help="SQLite result store, created if missing "
                            "(re-runs are incremental)")
    sweep.add_argument("--json", default=None, metavar="PATH",
                       help="also dump the rows as JSON")
    sweep.add_argument("--force", action="store_true",
                       help="allow --json to overwrite an existing file")
    sweep.add_argument("--shard", type=_shard_arg, default=None, metavar="I/N",
                       help="run only the I-th of N deterministic grid "
                            "partitions (by sorted config hash, so every "
                            "machine computes the same split)")
    sweep.set_defaults(func=_print_sweep)

    report = sub.add_parser(
        "report",
        help="render tables from a result store (no simulation)",
        allow_abbrev=False,
    )
    report.add_argument("--cache", default=None, metavar="PATH",
                        help="result store to render: the SQLite file a "
                             "previous sweep or merge wrote")
    report.add_argument("--group-by", nargs="+", default=None,
                        metavar="AXIS", choices=group_axes(),
                        help="config axes to group the tables by "
                             f"(choices: {', '.join(group_axes())})")
    report.add_argument("--format", default="md", choices=FORMATS,
                        help="output format (default: md)")
    report.add_argument("--baseline", default=None, metavar="PATH",
                        help="annotate every numeric cell with its delta "
                             "vs this second store (PR-vs-main reports)")
    report.set_defaults(func=_print_report)

    serve = sub.add_parser(
        "serve",
        help="run a sweep coordinator (HTTP) for repro worker / submit",
    )
    serve.add_argument("--cache", required=True, metavar="PATH",
                       help="the coordinator's SQLite result store "
                            "(created if missing; submissions are "
                            "deduped against it)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="address to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8037,
                       help="port to bind (default: 8037)")
    serve.add_argument("--lease-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="seconds a lease lives without a heartbeat "
                            "before its cell is re-issued (default: 30)")
    serve.add_argument("--max-attempts", type=int, default=3, metavar="N",
                       help="lease grants per cell before it is declared "
                            "failed (default: 3)")
    serve.add_argument("--backoff", type=float, default=1.0,
                       metavar="SECONDS",
                       help="re-queue backoff base: attempt n waits "
                            "backoff * 2**(n-1) seconds (default: 1)")
    serve.set_defaults(func=_print_serve)

    worker = sub.add_parser(
        "worker", help="pull and simulate cells from a sweep coordinator"
    )
    worker.add_argument("url", metavar="URL",
                        help="coordinator base URL, e.g. "
                             "http://127.0.0.1:8037")
    worker.add_argument("--id", default=None, metavar="NAME",
                        help="worker name on leases (default: host-pid; "
                             "diagnostic only — identity never enters "
                             "results)")
    worker.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                        help="sleep between polls when no work is "
                             "leasable (default: 0.5)")
    worker.add_argument("--max-idle", type=float, default=None,
                        metavar="SECONDS",
                        help="exit after this long without work "
                             "(default: poll forever)")
    worker.set_defaults(func=_print_worker)

    submit = sub.add_parser(
        "submit",
        help="run a design-space grid through a sweep coordinator",
        # As for sweep: grid flags are spelled in full.
        allow_abbrev=False,
    )
    submit.add_argument("url", metavar="URL",
                        help="coordinator base URL, e.g. "
                             "http://127.0.0.1:8037")
    _add_grid_flags(submit)
    submit.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                        help="progress poll interval (default: 0.5)")
    submit.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="give up if the job is not done after this "
                             "long (default: wait forever)")
    submit.add_argument("--report", action="store_true",
                        help="render the submitted grid's results as a "
                             "report table instead of the sweep table "
                             "(see --group-by / --format / --baseline)")
    submit.add_argument("--group-by", nargs="+", default=None,
                        metavar="AXIS", choices=group_axes(),
                        help="config axes to group the --report tables by "
                             f"(choices: {', '.join(group_axes())})")
    submit.add_argument("--format", default=None, choices=FORMATS,
                        help="--report output format (default: md)")
    submit.add_argument("--baseline", default=None, metavar="PATH",
                        help="annotate every numeric --report cell with "
                             "its delta vs this store (PR-vs-main "
                             "reports)")
    submit.set_defaults(func=_print_submit)

    merge = sub.add_parser(
        "merge", help="merge shard stores / row dumps into one store"
    )
    merge.add_argument("dest", metavar="DEST",
                       help="destination SQLite result store (created "
                            "if missing)")
    merge.add_argument("sources", metavar="SOURCE", nargs="+",
                       help="SQLite stores, `sweep --json` dumps and/or "
                            "legacy JSON cache directories (imported)")
    merge.add_argument("--dry-run", action="store_true",
                       help="read and cross-check everything, write "
                            "nothing; reports every would-be conflict "
                            "(exit 1 if any) instead of failing on the "
                            "first")
    merge.set_defaults(func=_print_merge)

    history = sub.add_parser(
        "history",
        help="one metric's per-run time series from a SQLite result store",
    )
    history.add_argument("metric", choices=sorted(COLUMNS),
                         help="metric to trend across runs")
    history.add_argument("store", metavar="STORE",
                         help="SQLite result store")
    history.add_argument("--cells", nargs="+", default=None, metavar="SUBSTR",
                         help="keep only cells whose label contains any of "
                              "these substrings")
    history.add_argument("--last", type=int, default=None, metavar="N",
                         help="show only the most recent N runs")
    history.add_argument("--format", default="ascii", choices=FORMATS,
                         help="table format (default: ascii)")
    history.set_defaults(func=_print_history)

    diff = sub.add_parser(
        "diff",
        help="compare two stores / row dumps (regression table; "
             "exit 1 on regressions beyond tolerance)",
        allow_abbrev=False,
    )
    diff.add_argument("baseline", metavar="BASELINE",
                      help="baseline result store or `sweep --json` dump")
    diff.add_argument("current", metavar="CURRENT",
                      help="current result store or `sweep --json` dump")
    diff.add_argument("--rtol", type=float, default=0.0,
                      help="relative tolerance: |Δ| <= atol + rtol*|base| "
                           "is not a change (default: exact)")
    diff.add_argument("--atol", type=float, default=0.0,
                      help="absolute tolerance (default: exact)")
    diff.add_argument("--bands", default="exact", choices=BANDS,
                      help="tolerance-band policy: exact applies "
                           "rtol/atol uniformly (rows aligned by config "
                           "hash); cv aligns rows seed-blind and widens "
                           "each replicated metric's band by the "
                           "baseline's own per-cell CV (default: exact)")
    diff.add_argument("--metric", nargs="+", default=None,
                      choices=sorted(COLUMNS), metavar="NAME",
                      help="metric columns to compare "
                           f"(default: {' '.join(DEFAULT_METRICS)}; "
                           f"choices: {', '.join(sorted(COLUMNS))})")
    diff.add_argument("--group-by", nargs="+", default=None, metavar="AXIS",
                      choices=group_axes(),
                      help="aggregate the table per config-axis group "
                           "instead of per cell (mean baseline vs mean "
                           "current per group; "
                           f"choices: {', '.join(group_axes())})")
    diff.add_argument("--format", default="ascii", choices=FORMATS,
                      help="table format (default: ascii; CI uses md)")
    diff.set_defaults(func=_print_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Subcommand handlers may return an int (``repro diff`` returns 1 on
    regressions beyond tolerance); ``None`` means success.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except ReproError as error:
        parser.exit(2, f"error: {error}\n")
    return 0
