"""Merge sharded sweep results into one result store, out-of-core.

A grid sharded with ``repro sweep --shard I/N`` leaves N partial
result stores (SQLite files or ``--json`` row dumps) on N machines.
This module recombines them: every entry lands in one destination
store under its config hash, which is what makes a post-merge re-run
report ``0 simulated`` and a post-merge ``repro report`` byte-match
the unsharded report.  A legacy JSON cache directory is a read-only
source too, so ``repro merge NEW.sqlite DIR`` imports one.

Every source is read through :func:`~repro.exp.store.iter_source` as
a **key-sorted stream**, and the streams are joined with
:func:`~repro.exp.store.join_keyed` — the key join ``repro diff``
aligns its two sides with — so the merge holds one row per source at
a time, constant memory in the store size, while keeping the original
conflict contract: two sources claiming the *same* config hash with
*different* results mean something is broken (non-deterministic cell,
hand-edited file, mixed-up directories); the merge refuses loudly
instead of silently picking a winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.exp.store import (
    SqliteStore,
    is_sqlite_file,
    iter_source,
    join_keyed,
    open_store,
)


@dataclass(frozen=True)
class MergeConflict:
    """Two sources disagreeing about one config hash."""

    key: str  #: the contested config hash
    source: str  #: where the conflicting entry came from
    existing: str  #: where the previously-merged entry came from

    def __str__(self) -> str:
        return (
            f"conflicting results for config {self.key}: "
            f"{self.source} disagrees with {self.existing}"
        )


@dataclass(frozen=True)
class MergeSummary:
    """What one :func:`merge_into` call did (or, dry, would do).

    Parameters
    ----------
    dest : str
        The destination result store.
    written : int
        Entries newly written to the destination (with ``dry_run``:
        that *would have been* written).
    identical : int
        Entries that already existed with byte-equal meaning (same
        config hash, equal result) — duplicates across shards or
        re-merges; skipped.
    skipped : int
        Source entries that were not loadable current-version rows
        (stale :data:`~repro.exp.spec.CACHE_VERSION`, corrupt JSON,
        hash mismatch) and were ignored.
    sources : tuple of str
        The merged sources, in merge order.
    dry_run : bool
        ``True`` when nothing was written (``repro merge --dry-run``);
        conflicts are then *reported* on :attr:`conflicts` instead of
        raised.
    conflicts : tuple of MergeConflict
        Only populated under ``dry_run``; a non-dry merge raises on
        conflict instead.
    """

    dest: str
    written: int
    identical: int
    skipped: int
    sources: tuple[str, ...]
    dry_run: bool = False
    conflicts: tuple[MergeConflict, ...] = ()

    def __str__(self) -> str:
        if self.dry_run:
            return (
                f"dry-run: would merge {len(self.sources)} source(s) into "
                f"{self.dest}: {self.written} written, "
                f"{self.identical} identical, {self.skipped} skipped, "
                f"{len(self.conflicts)} conflict(s)"
            )
        return (
            f"merged {len(self.sources)} source(s) into {self.dest}: "
            f"{self.written} written, {self.identical} identical, "
            f"{self.skipped} skipped"
        )


def _joined(sources, skip_counter: list[int]):
    """Every source's loadable rows, joined on config hash.

    Yields ``(key, rows)`` in key order, *rows* the ``(origin,
    result)`` of every source entry under that key, in source order;
    *skip_counter* counts the entries that are not loadable rows.
    """

    def loadable(source):
        for origin, _status, result in iter_source(source):
            if result is None:
                skip_counter[0] += 1
            else:
                yield result.key, origin, result

    for key, members in join_keyed([loadable(s) for s in sources]):
        yield key, [(origin, result) for _i, (_k, origin, result) in members]


def merge_into(
    dest: str | Path,
    sources: list[str | Path],
    dry_run: bool = False,
) -> MergeSummary:
    """Merge *sources* (stores and/or row dumps) into the store *dest*.

    Parameters
    ----------
    dest : str or Path
        Destination SQLite result store; created if missing.  May
        already hold entries (e.g. an earlier shard) — they
        participate in conflict detection like any source entry.
    sources : list of str or Path
        SQLite result stores, ``repro sweep --json`` dump files and/or
        legacy JSON cache directories, merged in order.
    dry_run : bool
        Read and cross-check everything, write nothing.  Conflicts are
        returned on the summary instead of raised, so CI can pre-flight
        a shard recombination and report all problems at once.

    Returns
    -------
    MergeSummary
        Written / identical / skipped counts (plus would-be conflicts
        under *dry_run*).

    Raises
    ------
    ReproError
        If a source is missing or malformed, or (non-dry) if any two
        entries claim the same config hash with different results.
        All conflicts are collected and reported together, and
        **nothing is written until every source has been read and
        checked** — a failed merge leaves the destination exactly as
        it was, so a later report cannot silently render a first-seen
        winner.
    """
    dest_path = Path(dest)
    if dest_path.is_file() and not is_sqlite_file(dest_path):
        raise ReproError(
            f"merge destination {dest_path} is not a SQLite store "
            "(did you swap DEST with a --json dump source?)"
        )
    for source in sources:
        if not Path(source).exists():
            raise ReproError(f"merge source {source} does not exist")
    # Don't create the destination yet: a merge that fails validation
    # or conflict detection (and any --dry-run) must leave the
    # filesystem untouched.
    dest_store: SqliteStore | None = (
        open_store(dest_path) if dest_path.exists() else None
    )
    skip_counter = [0]
    written = identical = 0
    usable = False
    conflicts: list[MergeConflict] = []
    # Pass 1 (read-only): stream-join every source and cross-check.
    for key, rows in _joined(sources, skip_counter):
        usable = True
        (first_origin, first_result), *others = rows
        existing = (
            dest_store.get(first_result.config)
            if dest_store is not None else None
        )
        conflicted = False
        if existing is not None and existing != first_result:
            conflicts.append(MergeConflict(
                key=key,
                source=first_origin,
                existing=f"{dest_path} (pre-existing)",
            ))
            conflicted = True
        elif existing is None:
            written += 1
        else:
            identical += 1
        for origin, result in others:
            if conflicted:
                # Already contested; duplicate source copies must not
                # inflate the conflict count.
                continue
            if result == first_result:
                identical += 1
            else:
                conflicts.append(MergeConflict(
                    key=key, source=origin, existing=first_origin,
                ))
                conflicted = True
    if conflicts and not dry_run:
        detail = "\n  ".join(str(conflict) for conflict in conflicts)
        raise ReproError(
            f"{len(conflicts)} merge conflict(s) — nothing was written "
            f"to {dest_path}:\n  {detail}"
        )
    if not usable:
        # Nothing usable in any source (all-stale after a version bump,
        # or genuinely empty dirs): exiting green here would push the
        # failure downstream to a misleading "no loadable results".
        raise ReproError(
            f"nothing to merge: no usable entry in {len(sources)} "
            f"source(s) ({skip_counter[0]} stale/invalid file(s) skipped)"
        )
    summary = MergeSummary(
        dest=str(dest_path),
        written=written,
        identical=identical,
        skipped=skip_counter[0],
        sources=tuple(str(s) for s in sources),
        dry_run=dry_run,
        conflicts=tuple(conflicts),
    )
    if dry_run:
        return summary
    # Pass 2: all sources agree; now create the destination and write
    # the first-seen row of every key it does not already hold.
    if dest_store is None:
        dest_store = open_store(dest_path, create=True)
    for _key, [(_origin, result), *_others] in _joined(sources, [0]):
        if dest_store.get(result.config) is None:
            dest_store.put(result)
    dest_store.close()
    return summary

