"""Unit tests for the IMU's CAM TLB."""

import random

import pytest

from repro.errors import HardwareError
from repro.imu.tlb import Tlb


class TestLookup:
    def test_hit_after_insert(self):
        tlb = Tlb(8)
        tlb.insert(obj=1, vpage=2, ppage=5)
        entry = tlb.lookup(1, 2)
        assert entry is not None
        assert entry.ppage == 5

    def test_miss_on_empty(self):
        assert Tlb(8).lookup(0, 0) is None

    def test_miss_on_wrong_object(self):
        # The object id is part of the CAM tag — same page index of a
        # different object must not alias.
        tlb = Tlb(8)
        tlb.insert(obj=1, vpage=0, ppage=3)
        assert tlb.lookup(2, 0) is None

    def test_stats(self):
        tlb = Tlb(8)
        tlb.insert(0, 0, 0)
        tlb.lookup(0, 0)
        tlb.lookup(0, 1)
        assert tlb.stats.lookups == 2
        assert tlb.stats.hits == 1
        assert tlb.stats.misses == 1
        assert tlb.stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_without_lookups(self):
        assert Tlb(4).stats.hit_rate == 0.0

    def test_probe_does_not_touch_stats(self):
        tlb = Tlb(8)
        tlb.insert(0, 0, 0)
        tlb.probe(0, 0)
        tlb.probe(0, 9)
        assert tlb.stats.lookups == 0

    def test_usage_assist_updates_on_hit(self):
        tlb = Tlb(8)
        entry = tlb.insert(0, 0, 0)
        assert not entry.referenced
        tlb.lookup(0, 0)
        assert entry.referenced
        first = entry.last_used
        tlb.lookup(0, 0)
        assert entry.last_used > first


class TestCapacity:
    def test_full_tlb_rejects_insert(self):
        tlb = Tlb(2)
        tlb.insert(0, 0, 0)
        tlb.insert(0, 1, 1)
        with pytest.raises(HardwareError):
            tlb.insert(0, 2, 2)

    def test_reinsert_same_key_allowed_when_full(self):
        tlb = Tlb(1)
        tlb.insert(0, 0, 0)
        tlb.insert(0, 0, 1)  # update in place
        assert tlb.lookup(0, 0).ppage == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(HardwareError):
            Tlb(0)


class TestDuplicateInsert:
    def test_reinsert_same_mapping_preserves_dirty(self):
        # Regression: a duplicate-key insert used to build a fresh entry
        # and silently drop the dirty bit, losing the write-back.
        tlb = Tlb(2)
        entry = tlb.insert(0, 0, 3)
        entry.dirty = True
        reinstalled = tlb.insert(0, 0, 3)
        assert reinstalled.dirty
        assert tlb.lookup(0, 0).dirty

    def test_reinsert_to_new_frame_starts_clean(self):
        # A different physical page means the data was freshly loaded
        # there: the old dirtiness belongs to the old frame, not this one.
        tlb = Tlb(2)
        tlb.insert(0, 0, 3).dirty = True
        assert not tlb.insert(0, 0, 5).dirty

    def test_reinsert_clean_mapping_stays_clean(self):
        tlb = Tlb(2)
        tlb.insert(0, 0, 3)
        assert not tlb.insert(0, 0, 3).dirty


class TestInvalidate:
    def test_invalidate_by_key(self):
        tlb = Tlb(8)
        tlb.insert(1, 1, 4)
        removed = tlb.invalidate(1, 1)
        assert removed is not None
        assert tlb.lookup(1, 1) is None

    def test_invalidate_missing_returns_none(self):
        assert Tlb(8).invalidate(0, 0) is None

    def test_invalidate_all(self):
        tlb = Tlb(8)
        tlb.insert(0, 0, 0)
        tlb.insert(0, 1, 1)
        tlb.invalidate_all()
        assert len(tlb) == 0


class TestEntryQueries:
    def test_dirty_entries(self):
        tlb = Tlb(8)
        clean = tlb.insert(0, 0, 0)
        dirty = tlb.insert(0, 1, 1)
        dirty.dirty = True
        assert tlb.dirty_entries() == [dirty]
        assert clean in tlb.entries()

    def test_entry_for_ppage(self):
        tlb = Tlb(8)
        entry = tlb.insert(2, 3, 7)
        assert tlb.entry_for_ppage(7) is entry
        assert tlb.entry_for_ppage(0) is None

    def test_at_most_one_entry_per_key(self):
        tlb = Tlb(8)
        tlb.insert(0, 0, 1)
        tlb.insert(0, 0, 2)
        matches = [e for e in tlb.entries() if e.key() == (0, 0)]
        assert len(matches) == 1


class TestHeldEntries:
    """An entry handed out earlier keeps its values once it leaves the CAM."""

    @staticmethod
    def _held(tlb):
        entry = tlb.insert(1, 2, 5)
        entry.dirty = True
        tlb.lookup(1, 2)
        return entry

    @staticmethod
    def _assert_last_values(entry, last_used):
        assert (entry.obj, entry.vpage, entry.ppage) == (1, 2, 5)
        assert entry.dirty
        assert entry.last_used == last_used
        assert entry.referenced

    @pytest.mark.parametrize("remove", [
        lambda tlb: tlb.invalidate(1, 2),
        lambda tlb: tlb.invalidate_all(),
    ], ids=["invalidate", "invalidate_all"])
    def test_removal_keeps_last_values(self, remove):
        tlb = Tlb(8)
        held = self._held(tlb)
        last_used = held.last_used
        remove(tlb)
        # The frame goes to another page; the held entry must not
        # alias its translation.
        other = tlb.insert(1, 3, 5)
        self._assert_last_values(held, last_used)
        held.dirty = True
        assert tlb.probe(1, 2) is None
        assert tlb.entry_for_ppage(5) is other
        assert not other.dirty
        assert tlb.dirty_entries() == []

    @pytest.mark.parametrize("ppage", [5, 6], ids=["same-frame", "new-frame"])
    def test_reinstall_keeps_last_values(self, ppage):
        tlb = Tlb(8)
        held = self._held(tlb)
        last_used = held.last_used
        fresh = tlb.insert(1, 2, ppage)
        assert fresh is not held
        self._assert_last_values(held, last_used)
        assert (fresh.last_used, fresh.referenced) == (0, False)
        # Only a reinstall over the same frame inherits the dirty bit.
        assert fresh.dirty == (ppage == 5)
        before = list(tlb.dirty_entries())
        held.dirty = not fresh.dirty
        assert tlb.probe(1, 2) is fresh
        assert tlb.probe(1, 2).dirty == (ppage == 5)
        assert tlb.dirty_entries() == before


class TestInstallOrder:
    """entries() and dirty_entries() list the CAM in install order."""

    def test_entries_in_install_order(self):
        tlb = Tlb(8)
        for vpage, ppage in ((3, 0), (1, 1), (2, 2)):
            tlb.insert(0, vpage, ppage).dirty = True
        assert [e.vpage for e in tlb.entries()] == [3, 1, 2]
        assert [e.vpage for e in tlb.dirty_entries()] == [3, 1, 2]

    def test_reinstall_keeps_its_place(self):
        tlb = Tlb(8)
        for vpage, ppage in ((3, 0), (1, 1), (2, 2)):
            tlb.insert(0, vpage, ppage).dirty = True
        tlb.insert(0, 3, 0)
        tlb.insert(0, 1, 4).dirty = True
        assert [e.vpage for e in tlb.entries()] == [3, 1, 2]
        assert [e.vpage for e in tlb.dirty_entries()] == [3, 1, 2]

    def test_invalidate_then_insert_moves_last(self):
        tlb = Tlb(8)
        for vpage, ppage in ((3, 0), (1, 1), (2, 2)):
            tlb.insert(0, vpage, ppage).dirty = True
        tlb.invalidate(0, 3)
        tlb.insert(0, 3, 0).dirty = True
        assert [e.vpage for e in tlb.entries()] == [1, 2, 3]
        assert [e.vpage for e in tlb.dirty_entries()] == [1, 2, 3]

    def test_reinstall_to_another_frame_moves_the_frame_index(self):
        tlb = Tlb(8)
        tlb.insert(0, 0, 3)
        fresh = tlb.insert(0, 0, 6)
        assert tlb.entry_for_ppage(3) is None
        assert tlb.entry_for_ppage(6) is fresh


RANDOM_OPS = ("insert", "lookup", "probe", "invalidate", "dirty", "invalidate_all")


def test_random_operations_keep_the_cam_consistent():
    """2,000 seeded operations against a dict model of the CAM.

    Inserts keep one translation per frame, as the VIM does: a frame
    that another key maps is invalidated before it is reused.
    """
    rng = random.Random(0x71B)
    tlb = Tlb(8)
    model = {}  # (obj, vpage) -> [ppage, dirty], in install order
    keys = [(obj, vpage) for obj in range(3) for vpage in range(6)]
    for _ in range(2000):
        op = rng.choices(RANDOM_OPS, weights=(8, 6, 2, 1, 2, 0.2))[0]
        key = rng.choice(keys)
        if op == "insert":
            ppage = rng.randrange(8)
            holder = next((k for k, v in model.items() if v[0] == ppage), None)
            if holder is not None and holder != key:
                assert tlb.invalidate(*holder) is not None
                del model[holder]
            old = model.get(key)
            keep = old is not None and old[0] == ppage and old[1]
            entry = tlb.insert(*key, ppage)
            assert entry.dirty == keep
            model[key] = [ppage, keep]
        elif op == "lookup":
            entry = tlb.lookup(*key)
            assert (entry is None) == (key not in model)
        elif op == "probe":
            entry = tlb.probe(*key)
            assert (entry is None) == (key not in model)
        elif op == "invalidate":
            removed = tlb.invalidate(*key)
            assert (removed is None) == (model.pop(key, None) is None)
        elif op == "dirty":
            entry = tlb.probe(*key)
            if entry is not None:
                entry.dirty = True
                model[key][1] = True
        else:
            tlb.invalidate_all()
            model.clear()
        entries = tlb.entries()
        assert len(tlb) == len(entries) <= 8
        assert [(e.obj, e.vpage, e.ppage, e.dirty) for e in entries] == [
            (*k, *v) for k, v in model.items()
        ]
        assert tlb.dirty_entries() == [e for e in entries if e.dirty]
        for e in entries:
            assert tlb.probe(e.obj, e.vpage) is e
        frames = {e.ppage: e for e in entries}
        for ppage in range(8):
            assert tlb.entry_for_ppage(ppage) is frames.get(ppage)
        stats = tlb.stats
        assert stats.hits + stats.misses == stats.lookups
