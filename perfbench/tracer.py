"""Layer-attributed tracing for the benchmark, from outside the program.

The tracer patches public functions and methods of ``repro`` at the
names their callers resolve and records:

* **spans** around calls that happen a bounded number of times per cell
  (``System`` construction, one ``run_until`` hardware window, one
  interrupt service, one store read...).  Each span carries a name, its
  start and end, its parent span and the id of the benchmark op it ran
  under; self time is the span's duration minus what its child spans
  cover.
* **per-edge aggregates** (``Imu.tick``, ``Coprocessor.tick``,
  ``InterruptController.pending_unmasked``): a call count and a total,
  because a span per clock edge would cost more than the edge itself.
  Their wrappers add a large share to every edge's cost, so they are
  installed only in *edge passes*; span self times come from *span
  passes*, which leave every per-edge call as the program makes it.
* **instances** of ``ClockDomain`` and ``Imu`` registered through their
  wrapped ``__init__``, whose own counters (edges, accounted ticks,
  accesses, faults, TLB lookups) are read after every op.

Classes are patched before anything is built, so bound methods captured
at construction time (``domain.attach(imu.tick)``) pick up the wrapper.
Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

from repro.coproc.base import Coprocessor
from repro.core import runner, session, system, tenancy
from repro.exp import cell, diff, report, service, spec, store, sweep
from repro.hw.interrupts import InterruptController
from repro.imu.imu import Imu
from repro.os.kernel import Kernel
from repro.os.vim.manager import Vim
from repro.sim import clock, engine
from repro.trace import record as trace_record

#: Span names whose per-call latencies are kept for percentiles.
_SAMPLED = ("os.service_interrupts", "exp.store_get")

#: Percentiles tried for a latency tail, highest first.  A percentile is
#: reported only when at least ten samples lie beyond it.
_TAIL_QUANTILES = (99, 95, 90, 75)


def _module_functions():
    """``(span name, defining module, function name)`` for free functions.

    Each is patched in its defining module *and* in every ``repro``
    module that imported it by name (e.g. ``repro.exp.cell.run_software``
    as well as ``repro.core.runner.run_software``).
    """
    from repro.apps import tracefile
    from repro.core import drivers

    builders = [
        ("apps.build", drivers, name)
        for name in vars(drivers)
        if name.endswith("_workload") and callable(getattr(drivers, name))
    ]
    return builders + [
        ("apps.build", tracefile, "trace_workload"),
        ("core.run_software", runner, "run_software"),
        ("core.run_typical", runner, "run_typical"),
        ("core.run_vim", runner, "run_vim"),
        ("core.verify", runner, "verify_outputs"),
        ("core.run_tenants", tenancy, "run_tenants"),
        ("exp.run_cell", cell, "run_cell"),
        ("exp.run_sweep", sweep, "run_sweep"),
        ("exp.report", report, "render_report"),
        ("exp.report", report, "load_cache_rows"),
        ("exp.diff", diff, "diff_stores"),
        ("exp.diff", diff, "render_diff"),
        ("exp.submit", service, "submit_sweep"),
    ]


def _methods():
    """``(span name, class, method name)`` for methods traced as spans."""
    return [
        ("sim.run_until", engine.Engine, "run_until"),
        ("sim.run_until", engine.FastEngine, "run_until"),
        ("os.service_interrupts", Kernel, "service_interrupts"),
        ("os.vim.setup_execution", Vim, "setup_execution"),
        ("core.system_build", system.System, "__init__"),
        ("core.session", session.CoprocessorSession, "__init__"),
        ("core.session", session.CoprocessorSession, "map_object"),
        ("core.session", session.CoprocessorSession, "close"),
        ("core.execute", session.CoprocessorSession, "execute"),
        ("core.verify", runner.RunResult, "verify"),
        ("exp.config_key", spec.CellConfig, "key"),
        ("exp.store_get", store.SqliteStore, "get"),
        ("exp.store_put", store.SqliteStore, "put"),
        ("exp.service_submit", service.SweepService, "submit"),
    ]


#: ``(aggregate name, class, method name)`` for per-edge entry points.
_EDGE_METHODS = (
    ("imu.tick", Imu, "tick"),
    ("coproc.tick", Coprocessor, "tick"),
    ("hw.irq_poll", InterruptController, "pending_unmasked"),
)

#: Exact counts only an edge pass measures.
EDGE_COUNTS = ("imu.tick_calls", "coproc.tick_calls", "hw.irq_polls")


class Tracer:
    """Spans, per-edge aggregates and registered instances of one run.

    Create one per benchmark run, :meth:`install` it around each traced
    pass (with the per-edge wrappers or without) and :meth:`uninstall`
    it afterwards; :meth:`take_pass` returns the pass's aggregates and
    resets them, while the raw spans keep accumulating until
    :meth:`write_spans`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.current_thread()
        self._patches: list[tuple[object, str, object]] = []
        self._edge_pass = False
        self._reset_pass()

    def _reset_pass(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[int]] = defaultdict(list)
        # name -> [total ns, calls]
        self.edges: dict[str, list[int]] = {
            name: [0, 0] for name, _cls, _attr in _EDGE_METHODS
        }
        # Time of service-thread root spans, subtracted from the self
        # time of the main-thread span waiting on them.
        self._service_ns = [0]
        self.counts: dict[str, int] = defaultdict(int)
        self.domains: list = []
        self.imus: list = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn):
        tracer = self
        sampled = name in _SAMPLED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            # frame: [span id, child span ns, service ns inside children]
            frame = [next(tracer._ids), 0, 0]
            stack.append(frame)
            service_start = tracer._service_ns[0]
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                service_ns = tracer._service_ns[0] - service_start
                direct_service_ns = service_ns - frame[2]
                tracer.self_ns[name] += duration - frame[1] - direct_service_ns
                tracer.calls[name] += 1
                if sampled:
                    tracer.samples[name].append(duration)
                if parent is not None:
                    parent[1] += duration
                    parent[2] += service_ns
                elif threading.current_thread() is not tracer._main:
                    # A service-thread root (the coordinator handling a
                    # request) runs while the main thread's innermost
                    # span waits for the reply, so that span's self time
                    # excludes it.
                    tracer._service_ns[0] += duration
                tracer.spans.append((
                    frame[0], parent[0] if parent else None, tracer.op_id,
                    name, start, end,
                ))

        return wrapper

    def _edge(self, name: str, fn):
        acc = self.edges[name]

        @functools.wraps(fn)
        def wrapper(self_):
            start = perf_counter_ns()
            result = fn(self_)
            elapsed = perf_counter_ns() - start
            acc[0] += elapsed
            acc[1] += 1
            return result

        return wrapper

    def _registering(self, registry: list, fn):
        @functools.wraps(fn)
        def wrapper(self_, *args, **kwargs):
            fn(self_, *args, **kwargs)
            registry.append(self_)

        return wrapper

    def _counting(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _capturing(self, wrapped, sink):
        """Wrap *wrapped* (already a span) to hand its result to *sink*."""

        @functools.wraps(wrapped)
        def wrapper(*args, **kwargs):
            result = wrapped(*args, **kwargs)
            sink(result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, module, attr: str, replacement) -> None:
        """Rebind *module.attr* everywhere ``repro`` imported it by name."""
        original = getattr(module, attr)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, replacement)

    def install(self, edges: bool) -> None:
        """Patch every traced entry point (classes before any build).

        The per-edge entry points are wrapped only when *edges* is true.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._reset_pass()
        self._edge_pass = edges
        for name, owner, attr in _methods():
            self._patch_attr(owner, attr, self._span(name, owner.__dict__[attr]))
        for name, owner, attr in _EDGE_METHODS if edges else ():
            self._patch_attr(owner, attr, self._edge(name, owner.__dict__[attr]))
        self._patch_attr(
            clock.ClockDomain, "__init__",
            self._registering(self.domains, clock.ClockDomain.__init__),
        )
        self._patch_attr(
            Imu, "__init__", self._registering(self.imus, Imu.__init__)
        )
        capture = {
            "exp.run_cell": self._on_cell,
            "exp.run_sweep": self._on_sweep,
        }
        for name, module, attr in _module_functions():
            wrapped = self._span(name, getattr(module, attr))
            if name in capture:
                wrapped = self._capturing(wrapped, capture[name])
            self._patch_function(module, attr, wrapped)
        self._patch_function(
            trace_record, "load_trace",
            self._counting("trace.loads", trace_record.load_trace),
        )

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-op and per-pass collection -----------------------------------

    def _on_cell(self, row) -> None:
        counts = self.counts
        counts["os.page_faults"] += row.page_faults
        counts["os.evictions"] += row.evictions
        counts["os.writebacks"] += row.writebacks
        counts["os.steals"] += row.steals
        counts["os.bytes_moved"] += row.bytes_to_dpram + row.bytes_from_dpram
        counts["hw.dma_transfers"] += row.dma_transfers

    def _on_sweep(self, result) -> None:
        self.counts["exp.cells_simulated"] += result.executed
        self.counts["exp.cells_cached"] += result.cached

    def end_op(self) -> None:
        """Fold the op's registered instances into the pass counts."""
        counts = self.counts
        for domain in self.domains:
            counts["sim.clock_edges"] += domain.cycles
        for imu in self.imus:
            counts["imu.ticks"] += imu.ticks
            counts["imu.accesses"] += imu.reads + imu.writes
            counts["imu.faults"] += imu.faults
            counts["imu.tlb_lookups"] += imu.tlb.stats.lookups
            counts["imu.tlb_hits"] += imu.tlb.stats.hits
        self.domains.clear()
        self.imus.clear()

    def take_pass(self) -> dict:
        """The finished pass's raw aggregates; resets them."""
        taken = {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "edges": (
                {k: tuple(v) for k, v in self.edges.items()}
                if self._edge_pass else None
            ),
            "counts": dict(self.counts),
        }
        self._reset_pass()
        return taken

    def write_spans(self, path) -> None:
        """Write every recorded span as gzip JSON lines (once, at exit)."""
        fields = ("id", "parent", "op", "name", "start_ns", "end_ns")
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")


# ----------------------------------------------------------------------
# Per-layer metrics from traced passes
# ----------------------------------------------------------------------


def _percentile(samples: list[int], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, int(round(q / 100 * len(ordered))) - 1))
    return ordered[index]


def _tail_quantile(per_pass_samples: int) -> int:
    """Highest percentile with at least ten of a pass's samples beyond it
    (50 when even the median has fewer)."""
    for q in _TAIL_QUANTILES:
        if per_pass_samples * (100 - q) / 100 >= 10:
            return q
    return 50


def exact_counts(taken: dict) -> dict[str, int]:
    """The deterministic counts of one traced pass (must repeat exactly).

    Only an edge pass has the :data:`EDGE_COUNTS`.
    """
    counts = dict(taken["counts"])
    calls = taken["calls"]
    counts["sim.run_until_calls"] = calls.get("sim.run_until", 0)
    counts["os.service_interrupts_calls"] = calls.get("os.service_interrupts", 0)
    counts["exp.config_keys"] = calls.get("exp.config_key", 0)
    counts["exp.store_gets"] = calls.get("exp.store_get", 0)
    counts["exp.store_puts"] = calls.get("exp.store_put", 0)
    edges = taken["edges"]
    if edges is not None:
        counts["imu.tick_calls"] = edges["imu.tick"][1]
        counts["coproc.tick_calls"] = edges["coproc.tick"][1]
        counts["hw.irq_polls"] = edges["hw.irq_poll"][1]
    return counts


#: Per-layer span self times reported as ``<name>_s``.
SELF_TIME_SPANS = (
    "sim.run_until",
    "os.service_interrupts",
    "os.vim.setup_execution",
    "core.system_build",
    "core.session",
    "core.execute",
    "core.run_software",
    "core.run_typical",
    "core.run_vim",
    "core.run_tenants",
    "core.verify",
    "apps.build",
    "exp.run_sweep",
    "exp.run_cell",
    "exp.config_key",
    "exp.store_get",
    "exp.store_put",
    "exp.report",
    "exp.diff",
    "exp.submit",
    "exp.service_submit",
)

#: Self-time span -> reported metric name, where it is not ``<span>_s``
#: (the layer map in README.md names a few with a ``_self`` infix).
_SELF_TIME_NAMES = {
    "core.execute": "core.execute_self_s",
    "core.run_vim": "core.run_vim_self_s",
    "core.run_tenants": "core.run_tenants_self_s",
    "exp.run_sweep": "exp.run_sweep_self_s",
    "exp.run_cell": "exp.run_cell_self_s",
}


def layer_metrics(passes: list[dict], edge_passes: list[dict],
                  walls: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one run's traced passes.

    Span times are medians over the span *passes* and per-edge totals
    over the *edge_passes*; counts come from the first edge pass (the
    caller checks that every pass agrees).  *walls* holds the pass wall
    time of each kind of pass: untraced, spans and edges.
    """
    metrics: dict[str, tuple[float, str]] = {}
    for name in SELF_TIME_SPANS:
        metric = _SELF_TIME_NAMES.get(name, f"{name}_s")
        values = [p["self_ns"].get(name, 0) / 1e9 for p in passes]
        metrics[metric] = (statistics.median(values), "s")
    for name in ("imu.tick", "coproc.tick", "hw.irq_poll"):
        values = [p["edges"][name][0] / 1e9 for p in edge_passes]
        metrics[f"{name}_s"] = (statistics.median(values), "s")
    counts = exact_counts(edge_passes[0])
    for name in (
        "sim.run_until_calls", "sim.clock_edges", "hw.irq_polls",
        "hw.dma_transfers", "imu.tick_calls", "imu.ticks", "imu.accesses",
        "imu.faults", "coproc.tick_calls", "os.service_interrupts_calls",
        "os.page_faults", "os.evictions", "os.writebacks", "os.steals",
        "os.bytes_moved", "exp.config_keys", "exp.store_gets",
        "exp.store_puts", "exp.cells_simulated", "trace.loads",
    ):
        metrics[name] = (counts.get(name, 0), "count")
    edges = counts.get("sim.clock_edges", 0)
    run_until_ns = statistics.median([p["self_ns"].get("sim.run_until", 0) for p in passes])
    metrics["sim.host_ns_per_edge"] = (
        run_until_ns / edges if edges else 0.0, "ns"
    )
    accesses = counts.get("imu.accesses", 0)
    metrics["imu.edges_per_access"] = (
        counts["imu.tick_calls"] / accesses if accesses else 0.0, "ratio"
    )
    lookups = counts.get("imu.tlb_lookups", 0)
    metrics["imu.tlb_hit_rate"] = (
        counts.get("imu.tlb_hits", 0) / lookups if lookups else 0.0, "ratio"
    )
    looked_up = counts.get("exp.cells_simulated", 0) + counts.get(
        "exp.cells_cached", 0
    )
    metrics["exp.hit_rate"] = (
        counts.get("exp.cells_cached", 0) / looked_up if looked_up else 0.0,
        "ratio",
    )
    for span, prefix in (
        ("os.service_interrupts", "os.fault_service_us"),
        ("exp.store_get", "exp.store_get_us"),
    ):
        pooled = [s for p in passes for s in p["samples"].get(span, [])]
        per_pass = len(passes[0]["samples"].get(span, []))
        q = _tail_quantile(per_pass)
        metrics[f"{prefix}.p50"] = (
            _percentile(pooled, 50) / 1e3 if pooled else 0.0, "us"
        )
        metrics[f"{prefix}.tail"] = (
            _percentile(pooled, q) / 1e3 if pooled else 0.0, "us"
        )
        metrics[f"{prefix}.tail_q"] = (q, "percentile")
    metrics["traced_wall_s"] = (walls["spans"], "s")
    metrics["trace_overhead_s"] = (walls["spans"] - walls["untraced"], "s")
    metrics["trace.edge_pass_wall_s"] = (walls["edges"], "s")
    return metrics
