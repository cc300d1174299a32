"""Readers of the result formats that are not a store.

Results live in one place, the SQLite store (:mod:`repro.exp.store`).
Two other formats can still hold rows, and ``repro merge`` reads both
as sources:

* a ``repro sweep --json`` row dump — the interchange and fixture
  format (:func:`iter_dump_rows`);
* a legacy cache directory of ``<config-hash>.json`` files, each
  ``{"version": ..., "result": ...}`` — what older versions wrote
  with ``--cache DIR`` (:func:`iter_classified`).

Every payload, whatever its source, goes through :func:`parse_entry`,
so a hash collision or a hand-edited entry degrades to a skipped row,
never to silently wrong numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ReproError
from repro.exp.results import CellResult
from repro.exp.spec import CACHE_VERSION


def parse_entry(payload) -> CellResult | None:
    """Verify one cache-entry payload; the single gatekeeper.

    Every consumer of stored rows (the store's reads, the shard
    merger, the dump and legacy-directory readers) funnels through
    this check so they cannot drift apart in what they accept.

    Parameters
    ----------
    payload : object
        A decoded cache-entry JSON payload
        (``{"version": ..., "result": ...}``).

    Returns
    -------
    CellResult or None
        The verified row, or ``None`` if the payload is not a dict,
        carries a different :data:`~repro.exp.spec.CACHE_VERSION`,
        fails :meth:`~repro.exp.results.CellResult.from_dict`, or
        stores a key that does not match its own config's hash.
    """
    if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
        return None
    try:
        result = CellResult.from_dict(payload["result"])
    except Exception:
        return None
    if result.key != result.config.key():
        return None
    return result


#: Entry statuses :func:`iter_classified` distinguishes: a loadable
#: row, a structurally sound entry written under a *different*
#: :data:`~repro.exp.spec.CACHE_VERSION`, or anything else (corrupt
#: JSON, failed round-trip, hand-renamed file).
ENTRY_STATUSES = ("ok", "stale-version", "invalid")


def iter_classified(root: str | Path):
    """Yield ``(path, status, CellResult | None)`` for a legacy directory.

    Entries are visited in sorted filename order and each payload
    goes through :func:`parse_entry`.  *status* is one of
    :data:`ENTRY_STATUSES`; the result is non-``None`` only for
    ``"ok"``.  A version mismatch is classified ``"stale-version"``
    (it usually means a ``CACHE_VERSION`` bump, not corruption); a
    file whose name does not match its own config hash is
    ``"invalid"`` — a hand-renamed entry is skipped, never re-keyed.
    """
    for path in sorted(Path(root).glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            yield path, "invalid", None
            continue
        result = parse_entry(payload)
        if result is not None and result.key != path.stem:
            result = None
        if result is not None:
            yield path, "ok", result
        elif (
            isinstance(payload, dict)
            and "version" in payload
            and payload.get("version") != CACHE_VERSION
        ):
            yield path, "stale-version", None
        else:
            yield path, "invalid", None


def iter_dump_rows(path: str | Path):
    """Yield ``(origin, CellResult | None)`` for a ``--json`` row dump.

    The one reader of ``repro sweep --json`` dump files, shared by the
    shard merger and the cross-run differ so they cannot drift in what
    they accept: the file must be a JSON list of bare result rows,
    each adopted under the current :data:`~repro.exp.spec.CACHE_VERSION`
    and verified through :func:`parse_entry` (an unparsable row yields
    ``None``).  *origin* is ``"<path>[<index>]"`` for messages.

    Raises
    ------
    ReproError
        If the file is unreadable or not a JSON list.
    """
    path = Path(path)
    try:
        rows = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ReproError(f"unreadable row dump {path}: {error}")
    if not isinstance(rows, list):
        raise ReproError(
            f"{path} is not a SQLite result store or a "
            "`repro sweep --json` row dump"
        )
    for index, row in enumerate(rows):
        origin = f"{path}[{index}]"
        yield origin, parse_entry({"version": CACHE_VERSION, "result": row})
