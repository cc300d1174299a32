"""The IMU's Translation Lookaside Buffer.

"The key part of the IMU is actually the TLB that performs address
translation for coprocessor accesses" (§3.2).  An entry maps a virtual
page — the pair *(object id, virtual page number within the object)* —
to a physical page of the dual-port RAM, and carries dirtiness
information exactly like a processor TLB.

On the EPXA1 prototype the TLB was built from the PLD's content
addressable memories; here the CAM is a dict keyed by (obj, vpage),
which preserves the architectural property that matters: fully
associative, single-match lookup.  A second dict indexes the entries by
physical page, for the replacement policies that read the usage assist
of a candidate frame.

An entry is valid exactly while it is in the CAM.  A removed entry is
simply dropped: a caller still holding it keeps reading its last
values, and writing to it no longer reaches the TLB.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareError


class TlbEntry:
    """One translation: (obj, vpage) -> ppage, with a dirty bit.

    ``last_used`` and ``referenced`` are the usage assist for
    recency-based replacement (the hardware updates them on every hit;
    the VIM reads and clears them through the register interface).
    """

    __slots__ = ("obj", "vpage", "ppage", "dirty", "last_used", "referenced")

    def __init__(self, obj: int, vpage: int, ppage: int, dirty: bool = False) -> None:
        self.obj = obj
        self.vpage = vpage
        self.ppage = ppage
        self.dirty = dirty
        self.last_used = 0
        self.referenced = False

    def key(self) -> tuple[int, int]:
        """The CAM match tag of this entry."""
        return (self.obj, self.vpage)

    def __repr__(self) -> str:
        return (
            f"TlbEntry(obj={self.obj}, vpage={self.vpage}, "
            f"ppage={self.ppage}, dirty={self.dirty}, "
            f"last_used={self.last_used}, referenced={self.referenced})"
        )


@dataclass
class TlbStats:
    """Hit/miss counters, exposed to benchmarks and the VIM."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when no lookups yet)."""
        return self.hits / self.lookups if self.lookups else 0.0


class Tlb:
    """A fully-associative TLB sized to the number of DP-RAM pages.

    Because every resident DP-RAM page has exactly one translation, the
    natural capacity is the number of physical pages — the organisation
    of the paper's prototype.  A smaller capacity can be configured for
    ablation studies (then a valid translation can be evicted from the
    TLB while its page stays resident, causing extra faults).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise HardwareError(f"TLB capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = TlbStats()
        # Insertion-ordered: entries() and dirty_entries() list the CAM
        # in install order, which the VIM's flush and displacement
        # order follow.
        self._cam: dict[tuple[int, int], TlbEntry] = {}
        # Physical page -> entry, coherent under the VIM invariant that
        # at most one translation maps a frame.
        self._by_ppage: dict[int, TlbEntry] = {}

    def __len__(self) -> int:
        return len(self._cam)

    def _unindex(self, entry: TlbEntry) -> None:
        if self._by_ppage.get(entry.ppage) is entry:
            del self._by_ppage[entry.ppage]

    def lookup(self, obj: int, vpage: int) -> TlbEntry | None:
        """CAM match; returns the entry on hit, ``None`` on miss."""
        stats = self.stats
        stats.lookups += 1
        entry = self._cam.get((obj, vpage))
        if entry is None:
            stats.misses += 1
            return None
        stats.hits += 1
        entry.last_used = stats.lookups
        entry.referenced = True
        return entry

    def probe(self, obj: int, vpage: int) -> TlbEntry | None:
        """Like :meth:`lookup` but without touching the statistics.

        Used by the OS model, which walks the TLB through the register
        interface rather than through the translation datapath.
        """
        return self._cam.get((obj, vpage))

    def insert(self, obj: int, vpage: int, ppage: int) -> TlbEntry:
        """Install a translation (done by the VIM after a page load).

        Reinstalling over an existing ``(obj, vpage)`` entry that still
        maps the *same* physical page keeps the dirty bit: the page's
        contents have not been reloaded, so forgetting its dirtiness
        would silently lose the write-back at eviction or end of
        operation.  A reinstall pointing at a different frame means the
        page was freshly loaded there, so the new entry starts clean.
        A reinstall keeps its key's place in install order.
        """
        key = (obj, vpage)
        old = self._cam.get(key)
        if old is None:
            if len(self._cam) >= self.capacity:
                raise HardwareError(
                    f"TLB full ({self.capacity} entries); VIM must invalidate first"
                )
            dirty = False
        else:
            self._unindex(old)
            dirty = old.dirty and old.ppage == ppage
        entry = TlbEntry(obj, vpage, ppage, dirty)
        self._cam[key] = entry
        self._by_ppage[ppage] = entry
        self.stats.insertions += 1
        return entry

    def invalidate(self, obj: int, vpage: int) -> TlbEntry | None:
        """Remove a translation; returns the removed entry if present."""
        entry = self._cam.pop((obj, vpage), None)
        if entry is not None:
            self.stats.invalidations += 1
            self._unindex(entry)
        return entry

    def invalidate_all(self) -> None:
        """Flush the whole TLB (done between coprocessor executions)."""
        self.stats.invalidations += len(self._cam)
        self._cam.clear()
        self._by_ppage.clear()

    def entries(self) -> list[TlbEntry]:
        """Snapshot of the entries in install order (OS-side inspection)."""
        return list(self._cam.values())

    def dirty_entries(self) -> list[TlbEntry]:
        """Entries with the dirty bit set (end-of-op flush set)."""
        return [e for e in self._cam.values() if e.dirty]

    def entry_for_ppage(self, ppage: int) -> TlbEntry | None:
        """The entry currently mapping physical page *ppage*, if any."""
        return self._by_ppage.get(ppage)
