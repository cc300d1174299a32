"""The benchmark's three workloads, built from a seed.

Every workload is a fixed list of ops run one at a time from one
process (a closed loop with a single client).  The first ops simulate
cells; the last three are the results path every sweep ends in: render
the report, diff against a baseline store, and resubmit the grid warm to
an in-process sweep service.  Every pass starts from identical store
bytes, so each pass does the same work.

* ``paper-cells`` — the paper's adpcm and IDEA cells, solo and
  contended.  The per-edge simulation spine (sim, imu, coproc, hw)
  dominates.
* ``fault-storm`` — short, fault-bound synthetic cells and a trace
  replay: thousands of page faults, one short hardware window each, so
  the OS fault path and hardware-window restarts dominate.
* ``grid-store`` — the exp layer: a store of about a thousand rows read by
  a sweep, a report, a diff and a warm service submit, next to a few
  tiny real cells whose rows are written beside the reads.

Every cell uses the default engine backend (no ``engine=`` is ever
passed), so the benchmark keeps working when a backend is removed.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro import exp
from repro.exp import CellConfig, SweepSpec
from repro.exp.service import ServiceServer, SweepService

KB = 1024

def row_digest(rows, aliased=lambda text: text) -> str:
    """Digest of *rows*, in order, without their cache keys.

    The key moves with CACHE_VERSION and ``config.trace_path`` names the
    run's work directory; every other column, config and label included,
    is covered.  *aliased* masks identities in the JSON text first.
    """
    payload = []
    for row in rows:
        data = row.to_dict()
        del data["key"]
        del data["config"]["trace_path"]
        payload.append(data)
    return text_digest(aliased(json.dumps(payload, sort_keys=True)))


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Op:
    """One operation; ``run`` returns ``(digest of its output, seconds)``.

    Only the call into the program is timed: digesting the output and
    starting or stopping an in-process service are not.
    """

    name: str
    run: Callable[[], tuple[str, float]]


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        Path(str(path) + suffix).unlink(missing_ok=True)


@contextmanager
def _service(store_path: Path):
    """An in-process coordinator on an ephemeral localhost port.

    No worker is started: the submissions are warm, so every cell is a
    store hit and nothing is ever leased.
    """
    svc = SweepService(store_path)
    server = ServiceServer(("127.0.0.1", 0), svc)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}
    )
    thread.start()
    try:
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
        svc.drain()
        svc.close()


class Workload:
    """Shared set-up and op structure; subclasses choose the cells.

    Parameters
    ----------
    seed : int
        Workload seed: every generated input (datasets, grid, baseline
        perturbation, recorded trace) derives from it.
    workdir : Path
        Scratch directory for stores and traces.
    """

    name = ""
    #: Fraction of baseline rows perturbed, so the diff has changes.
    perturb_fraction = 0.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.store = workdir / "pass.sqlite"
        self.template = workdir / "template.sqlite"
        self.baseline = workdir / "baseline.sqlite"
        self.configs: list[CellConfig] = []
        self.ops: list[Op] = []
        #: Literal -> placeholder applied, in order, to rows and rendered
        #: text before they are digested, for identities, not results.
        self.label_aliases: dict[str, str] = {}

    # -- set-up ------------------------------------------------------------

    def cell_configs(self) -> list[CellConfig]:
        """The simulated cells, one op each (subclass hook)."""
        raise NotImplementedError

    def template_configs(self) -> list[CellConfig]:
        """Configs whose rows pre-populate every pass's store."""
        return []

    def setup(self) -> None:
        """Build inputs, the pass-store template and the baseline store."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        cells = self.cell_configs()
        template = self.template_configs()
        self.has_template = bool(template)
        self.configs = template + cells
        # Real rows, re-stamped under other configs, fill the stores
        # without simulating thousands of cells.
        pool = [
            exp.run_cell(CellConfig(app="vadd", input_bytes=1 * KB, seed=self.seed)),
            exp.run_cell(
                CellConfig(app="synthetic", input_bytes=2 * KB, seed=self.seed)
            ),
        ]
        rng = random.Random(f"{self.name}/{self.seed}/baseline")
        for path in (self.template, self.baseline):
            _remove_store(path)
        with exp.open_store(self.template, create=True) as store:
            for index, config in enumerate(template):
                store.put(_restamp(pool[index % len(pool)], config))
        with exp.open_store(self.baseline, create=True) as store:
            for index, config in enumerate(self.configs):
                row = _restamp(pool[index % len(pool)], config)
                if rng.random() < self.perturb_fraction:
                    row = replace(row, vim_ms=row.vim_ms * 1.1)
                store.put(row)
        self.ops = self.cell_ops(cells) + [
            Op("report", self._report),
            Op("diff", self._diff),
            Op("submit", self._submit),
        ]

    def cell_ops(self, cells: list[CellConfig]) -> list[Op]:
        """One sweep op per cell, writing into the pass store."""
        return [
            Op(self._aliased(config.label()),
               lambda config=config: self._sweep([config]))
            for config in cells
        ]

    # -- one pass ----------------------------------------------------------

    def reset(self) -> None:
        """Give the next pass the same store bytes as every other pass."""
        _remove_store(self.store)
        if self.has_template:
            shutil.copyfile(self.template, self.store)

    def _sweep(self, configs: list[CellConfig]) -> tuple[str, float]:
        result, seconds = _timed(exp.run_sweep, configs, cache_dir=self.store)
        return row_digest(result.rows, self._aliased), seconds

    def _aliased(self, text: str) -> str:
        for literal, placeholder in self.label_aliases.items():
            text = text.replace(literal, placeholder)
        return text

    def _report(self) -> tuple[str, float]:
        def report() -> str:
            rows = exp.load_cache_rows(self.store).rows
            return exp.render_report(rows, group_by=("policy",), fmt="md")

        text, seconds = _timed(report)
        return text_digest(self._aliased(text)), seconds

    def _diff(self) -> tuple[str, float]:
        def diff() -> str:
            result = exp.diff_stores(self.baseline, self.store)
            return exp.render_diff(result, fmt="md")

        text, seconds = _timed(diff)
        return text_digest(self._aliased(text)), seconds

    def _submit(self) -> tuple[str, float]:
        with _service(self.store) as url:
            outcome, seconds = _timed(
                exp.service.submit_sweep, url, self.configs
            )
        if outcome.executed:
            raise RuntimeError(
                f"warm submit simulated {outcome.executed} cell(s)"
            )
        return row_digest(outcome.rows, self._aliased), seconds


def _restamp(row, config: CellConfig):
    return replace(row, config=config, key=config.key(), label=config.label())


class PaperCells(Workload):
    """The paper's Figure 8/9 cells, solo and contended.

    No cell takes much over a second and a half, so the calibration
    chunks on either side of an op track the host speed it ran at, and a
    run holds several passes.
    """

    name = "paper-cells"

    def cell_configs(self) -> list[CellConfig]:
        seed = self.seed
        return [
            CellConfig(app="adpcm", input_bytes=8 * KB, seed=seed),
            CellConfig(app="adpcm", input_bytes=16 * KB, seed=seed),
            CellConfig(app="idea", input_bytes=32 * KB, seed=seed,
                       with_typical=True),
            CellConfig(app="adpcm", input_bytes=8 * KB, seed=seed,
                       transfer="dma"),
            CellConfig(app="adpcm", input_bytes=4 * KB, seed=seed, tenants=3,
                       tenant_mix="adpcm+idea", transfer="dma"),
        ]


class FaultStorm(Workload):
    """Short fault-bound cells: the OS fault path and window restarts."""

    name = "fault-storm"

    def cell_configs(self) -> list[CellConfig]:
        seed = self.seed
        trace = self.workdir / "recorded.trace"
        # Recorded here, in set-up; the replay's identity is the trace
        # digest, which the seed moves.
        recorded = exp.record_cell(
            CellConfig(app="synthetic", input_bytes=32 * KB, seed=seed,
                       syn_locality_pct=50),
            trace,
            force=True,
        )
        # The replay's config and label carry the trace digest, which
        # covers the recording's full config; outputs are digested
        # without it.
        self.label_aliases = {
            recorded.digest: "<trace>", recorded.digest[:10]: "<trace>"
        }
        storm = dict(app="synthetic", input_bytes=64 * KB, seed=seed,
                     syn_locality_pct=20, page_bytes=512)
        return [
            CellConfig(**storm),
            CellConfig(**storm, transfer="dma"),
            # 32 KB does not fit the 16 KB DP-RAM: the typical version is
            # attempted and reports typical_fits=False (Figure 9).
            CellConfig(app="synthetic", input_bytes=32 * KB, seed=seed,
                       policy="lru", syn_phases=4, syn_read_pct=30,
                       with_typical=True),
            CellConfig(app="trace", trace_path=str(trace), page_bytes=512),
            CellConfig(app="synthetic", input_bytes=16 * KB, seed=seed,
                       tenants=3),
        ]


class GridStore(Workload):
    """The exp layer over a store of about a thousand rows.

    A pass takes about 2 s, so a run holds a dozen passes or more and
    each op's median over them is steady on a noisy host.
    """

    name = "grid-store"
    perturb_fraction = 0.1

    def template_configs(self) -> list[CellConfig]:
        rng = random.Random(f"{self.name}/{self.seed}/grid")
        sizes = sorted(rng.sample([4, 8, 16, 32, 64, 128, 256], 3))
        spec = SweepSpec(
            apps=("adpcm", "idea", "vadd", "synthetic"),
            input_bytes=tuple(size * KB for size in sizes),
            seeds=(self.seed,),
            policies=("fifo", "lru", "random", "second-chance"),
            transfers=("double", "single", "dma"),
            prefetches=("none", "sequential", "aggressive", "overlapped"),
            page_bytes=tuple(rng.sample([None, 512, 1024, 4096], 2)),
            syn_locality_pcts=(rng.choice([20, 50, 80]),),
        )
        return spec.expand()

    def cell_configs(self) -> list[CellConfig]:
        # 1-2 KB cells are outside the grid's sizes, so every pass
        # simulates them and writes their rows beside the store reads.
        seed = self.seed
        cells = []
        for policy in ("fifo", "lru", "random", "second-chance"):
            for kb in (1, 2):
                cells.append(CellConfig(app="vadd", input_bytes=kb * KB,
                                        seed=seed, policy=policy,
                                        with_typical=True))
                cells.append(CellConfig(app="synthetic", input_bytes=kb * KB,
                                        seed=seed, policy=policy, tenants=2))
        return cells

    def cell_ops(self, cells: list[CellConfig]) -> list[Op]:
        # One sweep over the whole grid plus the new cells.
        return [Op("sweep", lambda: self._sweep(self.configs))]


WORKLOADS = {cls.name: cls for cls in (PaperCells, FaultStorm, GridStore)}
