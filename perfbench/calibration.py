"""A fixed pure-Python loop that measures how fast the host runs now.

The benchmark shares a host whose speed drifts by tens of percent from
one minute to the next.  Before the first op of a pass and after every
op, the benchmark times one *chunk* of this loop, which never calls the
program.  An op's time is scaled by ``REFERENCE_S`` over the time of
the faster of the two chunks around it (``run.scaled``).  A slow spell
of the host stretches the op and its chunks alike, so the scaled time
stays put, while a change to the program moves only the op.

Contention on a shared host slows tight arithmetic, scattered memory
access and library calls by different amounts, so a chunk does some of
each, as the program does: method calls on a slotted object with
integer arithmetic and dict updates; a TLB-like lookup into a page
table and a byte buffer; and a JSON round trip into and out of an
in-memory SQLite table.
"""

from __future__ import annotations

import json
import sqlite3
import time

#: Seconds one chunk takes on the reference host (2-vCPU Xeon 2.1 GHz VM,
#: CPython 3.11.7) when it is idle.
REFERENCE_S = 0.044

#: What one chunk returns; a different value means the loop is broken.
CHECKSUM = 218219111

_WALK_STEPS = 100_000
_LOOKUPS = 30_000
_ROWS = 1000

_PAGE_BITS = 14
_PAGES = {page: [page, 0] for page in range(1 << _PAGE_BITS)}
_BUFFER = bytearray(1 << (_PAGE_BITS + 6))


class _Walker:
    __slots__ = ("state", "table", "log")

    def __init__(self) -> None:
        self.state = 1
        self.table: dict[int, int] = {}
        self.log: list[int] = []

    def step(self, index: int) -> int:
        state = (self.state * 1103515245 + index) & 0xFFFFFFF
        self.state = state
        slot = state & 1023
        self.table[slot] = self.table.get(slot, 0) + 1
        if state & 7 == 0:
            self.log.append(state)
        return state


class _Tlb:
    __slots__ = ("address", "hits")

    def __init__(self) -> None:
        self.address = 1
        self.hits = 0

    def access(self, index: int) -> None:
        address = (self.address * 1103515245 + index) & (len(_BUFFER) - 1)
        self.address = address
        entry = _PAGES[address >> 6]
        entry[1] += 1
        self.hits += 1
        _BUFFER[address] = (_BUFFER[address] + index) & 255


def _walk() -> int:
    walker = _Walker()
    for index in range(_WALK_STEPS):
        walker.step(index)
    return walker.state ^ len(walker.log)


def _lookups() -> int:
    tlb = _Tlb()
    for index in range(_LOOKUPS):
        tlb.access(index)
    return tlb.address


def _rows() -> int:
    rows = [
        {"key": f"k{index:05d}", "app": "adpcm", "ms": index * 0.5,
         "faults": index % 17}
        for index in range(_ROWS)
    ]
    rows = json.loads(json.dumps(rows, sort_keys=True))
    db = sqlite3.connect(":memory:")
    try:
        db.execute("CREATE TABLE t (key TEXT PRIMARY KEY, body TEXT)")
        db.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(row["key"], json.dumps(row)) for row in rows],
        )
        return sum(
            json.loads(body)["faults"]
            for (body,) in db.execute("SELECT body FROM t ORDER BY key")
        )
    finally:
        db.close()


def chunk() -> float:
    """Host seconds of one chunk."""
    start = time.perf_counter()
    checksum = _walk() ^ _lookups() ^ _rows()
    seconds = time.perf_counter() - start
    if checksum != CHECKSUM:
        raise RuntimeError(f"calibration loop returned {checksum}")
    return seconds
