"""Grid execution: serial or across a ``multiprocessing`` pool.

Each cell is an independent deterministic simulation, so the grid is
embarrassingly parallel: ``run_sweep(spec, jobs=N)`` produces results
byte-identical to the serial run, in the same (spec-defined) order.
Duplicate configurations are simulated once and fanned back out, and a
:class:`~repro.exp.store.SqliteStore` result store makes re-runs
incremental.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.exp.cell import run_cell
from repro.exp.results import CellResult
from repro.exp.spec import CellConfig, SweepSpec
from repro.exp.store import open_store


@dataclass(frozen=True)
class SweepResult:
    """All rows of one sweep plus how much work it actually did.

    Parameters
    ----------
    rows : tuple of CellResult
        One row per requested cell, in grid order (duplicates of the
        same configuration share one simulated result).
    executed : int
        Cells actually simulated by this call.
    cached : int
        Cells served from the result cache instead of simulated.

    Notes
    -----
    Iterating the result iterates ``rows``; ``len`` counts them.
    """

    rows: tuple[CellResult, ...]
    executed: int  #: cells actually simulated this run
    cached: int  #: cells served from the cache

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def _pool(jobs: int):
    """A worker pool; fork keeps workers cheap where it exists."""
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    return ctx.Pool(processes=jobs)


def run_sweep(
    spec: SweepSpec | list[CellConfig],
    jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> SweepResult:
    """Execute every cell of *spec* and return rows in grid order.

    Parameters
    ----------
    spec : SweepSpec or list of CellConfig
        The grid to run: a declarative spec (expanded via
        :meth:`~repro.exp.spec.SweepSpec.expand`) or an explicit cell
        list, whose order is preserved in the output rows.
    jobs : int
        Worker processes.  1 runs in-process; above 1 distributes the
        pending (uncached, deduplicated) cells over a
        ``multiprocessing`` pool.  Cells are independent deterministic
        simulations, so the rows are byte-identical to a serial run.
    cache_dir : str or Path, optional
        Result store: a SQLite file, opened through
        :func:`~repro.exp.store.open_store` (created if missing).  Previously executed cells are loaded instead of
        re-simulated; fresh results are persisted for the next run.
        Store keys cover every config field plus
        :data:`~repro.exp.spec.CACHE_VERSION` (see
        ``docs/extending-sweeps.md`` for the compatibility rules).

    Returns
    -------
    SweepResult
        Rows in grid order plus executed/cached work counts.

    Raises
    ------
    ReproError
        If *jobs* is less than 1, or if *cache_dir* exists but is not
        a result store (a legacy JSON cache directory among them).
    """
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    configs = spec.expand() if isinstance(spec, SweepSpec) else list(spec)
    cache = (
        open_store(cache_dir, create=True) if cache_dir is not None else None
    )

    keys = [config.key() for config in configs]
    by_key: dict[str, CellResult] = {}
    cached = 0
    pending: list[CellConfig] = []
    for config, key in zip(configs, keys):
        if key in by_key:
            continue
        if cache is not None:
            hit = cache.get(config)
            if hit is not None:
                by_key[key] = hit
                cached += 1
                continue
        by_key[key] = None  # placeholder keeps first-seen order semantics
        pending.append(config)

    if pending:
        if jobs == 1 or len(pending) == 1:
            fresh = [run_cell(config) for config in pending]
        else:
            with _pool(min(jobs, len(pending))) as pool:
                fresh = pool.map(run_cell, pending, chunksize=1)
        for result in fresh:
            by_key[result.key] = result
            if cache is not None:
                cache.put(result)

    if cache is not None:
        cache.close()
    rows = tuple(by_key[key] for key in keys)
    return SweepResult(rows=rows, executed=len(pending), cached=cached)
