"""Test helpers for result stores: writing, tampering, legacy layouts."""

from __future__ import annotations

import json
import sqlite3
from dataclasses import replace
from pathlib import Path

from repro.exp.results import CellResult
from repro.exp.spec import CACHE_VERSION
from repro.exp.store import open_store


def fake_result(config) -> CellResult:
    """A deterministic synthetic row under *config*'s real hash."""
    seed = config.seed
    return CellResult(
        config=config,
        key=config.key(),
        label=config.label(),
        workload=f"synthetic-{seed}",
        sw_ms=10.0 + seed * 0.001,
        vim_ms=2.0 + seed * 0.0005,
        hw_ms=1.0,
        sw_dp_ms=0.5,
        sw_imu_ms=0.25,
        sw_other_ms=0.25 + seed * 0.0005,
        vim_speedup=(10.0 + seed * 0.001) / (2.0 + seed * 0.0005),
        page_faults=seed % 97,
        compulsory_loads=seed % 11,
        evictions=seed % 7,
        writebacks=seed % 5,
        prefetches=0,
        bytes_to_dpram=1024 * (seed % 13),
        bytes_from_dpram=512 * (seed % 13),
        tlb_hit_rate=0.9,
    )


def write_store(path, rows) -> Path:
    """A SQLite store at *path* holding *rows*."""
    with open_store(path, create=True) as store:
        for row in rows:
            store.put(row)
    return Path(path)


def write_dump(path, rows) -> Path:
    """A ``repro sweep --json`` row dump of *rows* at *path*."""
    Path(path).write_text(
        json.dumps([row.to_dict() for row in rows], sort_keys=True, indent=1)
        + "\n",
        encoding="utf-8",
    )
    return Path(path)


def write_legacy_dir(root, rows) -> Path:
    """A legacy JSON cache directory: one ``<key>.json`` per row."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for row in rows:
        payload = {"version": CACHE_VERSION, "result": row.to_dict()}
        (root / f"{row.key}.json").write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
    return root


def store_keys(path) -> list[str]:
    """Every key of the store at *path*, sorted."""
    db = sqlite3.connect(path)
    try:
        return [key for (key,) in db.execute(
            "SELECT DISTINCT key FROM results ORDER BY key"
        )]
    finally:
        db.close()


def payloads(path) -> dict[str, str]:
    """``{key: payload}`` of the latest version of every stored row."""
    db = sqlite3.connect(path)
    try:
        return dict(db.execute(
            "SELECT key, payload FROM results AS r WHERE version = "
            "(SELECT MAX(version) FROM results WHERE key = r.key) "
            "ORDER BY key"
        ))
    finally:
        db.close()


def execute(path, sql: str, params=()) -> None:
    """Run one raw SQL statement against the store file at *path*."""
    db = sqlite3.connect(path)
    try:
        db.execute(sql, params)
        db.commit()
    finally:
        db.close()


def make_stale(path, key: str) -> None:
    """Mark *key*'s stored row as written under another CACHE_VERSION."""
    execute(
        path,
        "UPDATE results SET cache_version = cache_version + 1 WHERE key = ?",
        (key,),
    )


def corrupt(path, key: str) -> None:
    """Replace *key*'s stored payload with unparsable bytes."""
    execute(path, "UPDATE results SET payload = '][' WHERE key = ?", (key,))


def worsen(path, factor: float = 1.5) -> None:
    """Append a slower version of the store's first row (by key)."""
    with open_store(path) as store:
        row = next(store.iter_rows())
        store.put(replace(row, vim_ms=row.vim_ms * factor))
