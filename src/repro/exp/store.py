"""The result store: every durable row lives in one SQLite file.

:class:`SqliteStore` is the one contract between the sweep engine and
everything that reads results back (merge, diff, report, history):
put/get by config hash, classified streaming iteration in canonical
order, loadable-row counts, and run metadata.  The consumers above it
never touch files.

The store is append-only: one row per ``(key, version)`` with the
full payload, flattened metric columns for analytics, and an
insertion timestamp / run id.  WAL journaling keeps concurrent shard
writers safe, and reads stream straight off indexed cursors, so a
10k-cell report never materialises 10k rows.

A store is a SQLite file, whatever its name (:func:`open_store`).
Legacy per-cell JSON cache directories are read-only merge sources:
``repro merge NEW.sqlite DIR`` imports one.

Run identity (``run_id``, timestamps) deliberately lives *next to* the
payload, never inside it: :func:`~repro.exp.spec.config_hash` covers
what was computed, not when, so re-running an identical cell is a
no-op append-wise and reports stay byte-identical across runs and
merges.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from repro.errors import ReproError
from repro.exp.cache import parse_entry
from repro.exp.results import CellResult
from repro.exp.spec import CACHE_VERSION, CellConfig

#: File suffixes :func:`is_sqlite_file` accepts for an empty,
#: just-created store file (one with no header written yet).
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: The on-disk magic every SQLite database file starts with.
_SQLITE_MAGIC = b"SQLite format 3\x00"


@dataclass(frozen=True)
class StoreCounts:
    """Classified entry counts of one store (latest versions only)."""

    ok: int  #: loadable current-version rows
    stale: int  #: rows written under a different CACHE_VERSION
    invalid: int  #: corrupt / re-keyed / unparsable entries

    @property
    def skipped(self) -> int:
        """Rows a report or diff must leave out (stale + invalid)."""
        return self.stale + self.invalid

    @property
    def total(self) -> int:
        return self.ok + self.stale + self.invalid


@dataclass(frozen=True)
class RunRecord:
    """One recorded write session of a store."""

    run_id: int  #: monotonically increasing per store
    created: str  #: UTC timestamp of the run's first write
    rows: int  #: result versions appended by the run


class SqliteStore:
    """An append-only SQLite result store.

    One row per ``(config hash, version)``: the verified JSON payload,
    flattened metric columns for SQL analytics, the writing run's id
    and a UTC timestamp.  A re-put of a byte-identical payload is a
    no-op; a *different* payload for a known key appends the next
    version — nothing is ever overwritten, which is what makes ``repro
    history`` possible.  Reads serve the latest version per key.

    Iteration methods are **streaming**: they yield one row at a time
    in a canonical order and never materialise the whole store, which
    is what lets merge/diff/report run out-of-core.  ``len(store)``
    counts only loadable current-version rows, and iterating the store
    yields exactly those rows in report order.

    Every query goes through :meth:`_rows`, so a damaged or locked
    file fails as a :class:`~repro.errors.ReproError` naming the file,
    wherever the damage is met.

    WAL journaling is enabled at creation so concurrent shard writers
    (and a reader rendering a report mid-sweep) do not block each
    other.
    """

    #: Result columns flattened into SQL columns (analytics can GROUP
    #: BY / aggregate without parsing payloads).  The payload stays the
    #: source of truth for reads.
    METRIC_COLUMNS = (
        "sw_ms", "vim_ms", "hw_ms", "sw_dp_ms", "sw_imu_ms",
        "vim_speedup", "page_faults", "tlb_hit_rate",
    )

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS store_meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    );
    CREATE TABLE IF NOT EXISTS runs (
        run_id INTEGER PRIMARY KEY AUTOINCREMENT,
        created_utc TEXT NOT NULL,
        rows INTEGER NOT NULL DEFAULT 0
    );
    CREATE TABLE IF NOT EXISTS results (
        key TEXT NOT NULL,
        version INTEGER NOT NULL,
        cache_version INTEGER NOT NULL,
        run_id INTEGER NOT NULL,
        created_utc TEXT NOT NULL,
        label TEXT NOT NULL,
        replicates INTEGER NOT NULL,
        payload TEXT NOT NULL,
        sw_ms REAL, vim_ms REAL, hw_ms REAL, sw_dp_ms REAL,
        sw_imu_ms REAL, vim_speedup REAL, page_faults INTEGER,
        tlb_hit_rate REAL,
        PRIMARY KEY (key, version)
    );
    CREATE INDEX IF NOT EXISTS results_label_key ON results (label, key);
    """

    #: Latest version per key — the read view every query builds on.
    _LATEST = (
        "FROM results AS r WHERE version = "
        "(SELECT MAX(version) FROM results WHERE key = r.key)"
    )

    def __init__(
        self,
        path: str | Path,
        create: bool = False,
        threadsafe: bool = False,
    ) -> None:
        self.path = Path(path)
        self._db = None
        if not self.path.exists():
            if not create:
                raise ReproError(f"result store {self.path} does not exist")
            self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            # threadsafe drops sqlite3's same-thread check for callers
            # that serialise access themselves (the sweep service holds
            # one lock around every store operation but handles HTTP
            # requests on per-connection threads).
            self._db = sqlite3.connect(
                self.path,
                isolation_level=None,
                check_same_thread=not threadsafe,
            )
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA busy_timeout=30000")
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.executescript(self._SCHEMA)
            self._db.execute(
                "INSERT OR IGNORE INTO store_meta (key, value) VALUES "
                "('schema', '1')"
            )
        except sqlite3.Error as error:
            self.close()
            raise ReproError(f"cannot open SQLite store {self.path}: {error}")
        self._run_id: int | None = None  # one run row per writing open

    def _rows(self, sql: str, params=()):
        """Yield the rows of one statement — the store's only query path.

        SQLite reports a damaged page when a cursor reaches it, which
        may be long after the statement started; both the statement
        and its cursor run inside this one guard.
        """
        try:
            yield from self._db.execute(sql, params)
        except sqlite3.Error as error:
            raise ReproError(
                f"result store {self.path} is unusable: {error}"
            ) from None

    def _one(self, sql: str, params=()):
        """The only row of one statement, or ``None``."""
        rows = list(self._rows(sql, params))
        return rows[0] if rows else None

    @staticmethod
    def _now() -> str:
        return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")

    def _current_run(self) -> int:
        if self._run_id is None:
            (self._run_id,) = self._one(
                "INSERT INTO runs (created_utc) VALUES (?) RETURNING run_id",
                (self._now(),),
            )
        return self._run_id

    # -- write/read by config -----------------------------------------

    def put(self, result: CellResult) -> None:
        """Persist one executed cell under its config hash."""
        payload = json.dumps(
            {"version": CACHE_VERSION, "result": result.to_dict()},
            sort_keys=True,
        )
        key = result.key
        row = self._one(
            "SELECT cache_version, payload FROM results WHERE key = ? "
            "ORDER BY version DESC LIMIT 1",
            (key,),
        )
        if row is not None and row[0] == CACHE_VERSION and row[1] == payload:
            return  # identical re-put (cache hit re-store, re-merge)
        run_id = self._current_run()
        metrics = tuple(
            getattr(result, column) for column in self.METRIC_COLUMNS
        )
        self._one(
            "INSERT INTO results (key, version, cache_version, run_id, "
            "created_utc, label, replicates, payload, "
            + ", ".join(self.METRIC_COLUMNS)
            + ") SELECT ?, COALESCE((SELECT MAX(version) FROM results "
            "WHERE key = ?), 0) + 1, ?, ?, ?, ?, ?, ?"
            + ", ?" * len(self.METRIC_COLUMNS),
            (key, key, CACHE_VERSION, run_id, self._now(), result.label,
             result.config.replicates, payload) + metrics,
        )
        self._one(
            "UPDATE runs SET rows = rows + 1 WHERE run_id = ?", (run_id,)
        )

    def _parse(self, key: str, payload: str) -> CellResult | None:
        try:
            decoded = json.loads(payload)
        except ValueError:
            return None
        result = parse_entry(decoded)
        if result is not None and result.key != key:
            return None  # re-keyed row: skipped, never served under key
        return result

    def get(self, config: CellConfig) -> CellResult | None:
        """The stored row for *config*, or ``None`` on any miss.

        A corrupt payload, a stale ``CACHE_VERSION`` or a stored config
        that differs from *config* is a miss, never a wrong row.
        """
        row = self._one(
            "SELECT payload FROM results WHERE key = ? "
            "ORDER BY version DESC LIMIT 1",
            (config.key(),),
        )
        if row is None:
            return None
        result = self._parse(config.key(), row[0])
        if result is None:
            return None
        if result.config != config:
            return None  # a collision or corruption: a miss
        return result

    # -- streaming iteration ------------------------------------------

    def _classify(self, key, cache_version, payload):
        if cache_version != CACHE_VERSION:
            return "stale-version", None
        result = self._parse(key, payload)
        if result is None:
            return "invalid", None
        return "ok", result

    def iter_classified(self):
        """Yield ``(origin, status, CellResult | None)`` in key order.

        *status* is one of :data:`~repro.exp.cache.ENTRY_STATUSES`;
        the result is non-``None`` only for ``"ok"``.  *origin* names
        the entry for conflict/skip messages.
        """
        for key, cache_version, payload in self._rows(
            f"SELECT key, cache_version, payload {self._LATEST} ORDER BY key"
        ):
            status, result = self._classify(key, cache_version, payload)
            yield f"{self.path}[{key}]", status, result

    def iter_rows(self):
        """Yield every loadable row, sorted by config hash."""
        for _origin, status, result in self.iter_classified():
            if status == "ok":
                yield result

    def iter_report_rows(self):
        """Yield every loadable row in report order: ``(label, key)``."""
        for key, cache_version, payload in self._rows(
            f"SELECT key, cache_version, payload {self._LATEST} "
            "ORDER BY label, key"
        ):
            status, result = self._classify(key, cache_version, payload)
            if status == "ok":
                yield result

    def __iter__(self):
        """The loadable rows in report order; each pass is a new cursor."""
        return self.iter_report_rows()

    # -- metadata ------------------------------------------------------

    def counts(self) -> StoreCounts:
        """Classified entry counts (one streaming pass)."""
        ok = stale = invalid = 0
        for key, cache_version, payload in self._rows(
            f"SELECT key, cache_version, payload {self._LATEST}"
        ):
            status, _result = self._classify(key, cache_version, payload)
            if status == "ok":
                ok += 1
            elif status == "stale-version":
                stale += 1
            else:
                invalid += 1
        return StoreCounts(ok=ok, stale=stale, invalid=invalid)

    def any_replicated(self) -> bool:
        """Whether any current row was swept with ``--replicates`` > 1
        (selects the widened default report column set)."""
        return self._one(
            f"SELECT 1 {self._LATEST} AND cache_version = ? "
            "AND replicates > 1 LIMIT 1",
            (CACHE_VERSION,),
        ) is not None

    def runs(self) -> tuple[RunRecord, ...]:
        """Recorded write sessions, oldest first."""
        return tuple(
            RunRecord(run_id=run_id, created=created, rows=rows)
            for run_id, created, rows in self._rows(
                "SELECT run_id, created_utc, rows FROM runs ORDER BY run_id"
            )
        )

    def iter_versions(self):
        """Yield every stored version for trend analytics.

        ``(key, label, version, run_id, CellResult | None)`` ordered
        by ``(label, key, version)``.
        """
        for key, label, version, run_id, cache_version, payload in self._rows(
            "SELECT key, label, version, run_id, cache_version, payload "
            "FROM results ORDER BY label, key, version"
        ):
            result = None
            if cache_version == CACHE_VERSION:
                result = self._parse(key, payload)
            yield key, label, version, run_id, result

    def __len__(self) -> int:
        return self.counts().ok

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release the connection (idempotent)."""
        if self._db is not None:
            self._db.close()
            self._db = None

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def is_sqlite_file(path: str | Path) -> bool:
    """Whether an existing *path* is a SQLite store file.

    Sniffs the on-disk magic first (works for any filename), falling
    back to the suffix for empty just-created files.
    """
    path = Path(path)
    if not path.is_file():
        return False
    try:
        with path.open("rb") as handle:
            if handle.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC:
                return True
    except OSError:
        return False
    return path.stat().st_size == 0 and path.suffix in _SQLITE_SUFFIXES


def open_store(
    path: str | Path,
    create: bool = False,
    threadsafe: bool = False,
) -> SqliteStore:
    """Open the SQLite result store at *path*, whatever its name.

    Parameters
    ----------
    path : str or Path
        A SQLite store file.
    create : bool
        Allow *path* not to exist yet: a new store (and any missing
        parent directory) is created and its schema initialised.  With
        the default ``False`` a missing path raises — readers must not
        conjure empty stores.
    threadsafe : bool
        Allow the returned store to be used from threads other than
        the opening one, for callers that serialise access themselves
        (the sweep service).

    Raises
    ------
    ReproError
        On a directory (such as a legacy JSON cache, which ``repro
        merge`` imports), an existing file that is not a SQLite
        database, or a missing path without *create*.
    """
    path = Path(path)
    if path.is_dir():
        raise ReproError(
            f"{path} is a directory, not a result store (a SQLite file); "
            "to import a legacy JSON cache directory run: "
            f"repro merge NEW.sqlite {path}"
        )
    if path.exists() and not is_sqlite_file(path):
        raise ReproError(
            f"{path} is not a result store (expected a SQLite store file)"
        )
    return SqliteStore(path, create=create, threadsafe=threadsafe)
