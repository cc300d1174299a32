"""Page-replacement policies.

"When no page is available for allocation, several replacement
policies are possible (e.g., first-in first-out, least recently used,
random)" (§3.3).  All three are implemented, plus second-chance, and
they are benchmarked against each other in
``benchmarks/bench_ablation_policies.py``.

Recency-based policies need hardware support: the VIM only sees
*faults*, so LRU and second-chance read the per-entry usage information
the TLB maintains on every hit (`last_used`, `referenced` — the classic
reference-bit assist, a natural extension of the TLB's existing dirty
bit).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import OrderedDict

from repro.errors import VimError
from repro.imu.tlb import Tlb, TlbEntry


class VictimContext:
    """What a policy may inspect when choosing a victim frame."""

    def __init__(self, tlb: Tlb) -> None:
        self._tlb = tlb

    def entry(self, frame: int) -> TlbEntry | None:
        """The TLB entry currently mapping *frame*."""
        return self._tlb.entry_for_ppage(frame)


class ReplacementPolicy(ABC):
    """Chooses which resident data frame to evict."""

    #: Registry key (used by :func:`make_policy`).
    name = "abstract"

    def reset(self) -> None:
        """Forget all history (start of a new execution)."""

    def on_load(self, frame: int) -> None:
        """Notification: a page was just loaded into *frame*."""

    def on_touch(self, frame: int) -> None:
        """Notification: a TLB-only reinstall re-touched *frame*.

        The page was already resident (no data moved), but the
        coprocessor is actively using it: the VIM refreshes the
        reinstalled TLB entry's ``last_used``/``referenced`` assist as
        it notifies, so LRU and second-chance see the touch through
        their usual TLB reads.  FIFO ignores touches by definition.
        """

    def on_release(self, frame: int) -> None:
        """Notification: *frame* was freed outside eviction."""

    @abstractmethod
    def victim(self, candidates: list[int], ctx: VictimContext) -> int:
        """Pick one of *candidates* for eviction."""

    def _require(self, candidates: list[int]) -> None:
        if not candidates:
            raise VimError(f"{self.name}: no eviction candidates")


class FifoPolicy(ReplacementPolicy):
    """Evict the frame loaded longest ago."""

    name = "fifo"

    def __init__(self) -> None:
        self._order: OrderedDict[int, None] = OrderedDict()

    def reset(self) -> None:
        self._order.clear()

    def on_load(self, frame: int) -> None:
        self._order.pop(frame, None)
        self._order[frame] = None

    def on_release(self, frame: int) -> None:
        self._order.pop(frame, None)

    def victim(self, candidates: list[int], ctx: VictimContext) -> int:
        self._require(candidates)
        # Frames never seen by on_load (pre-attach residents) predate
        # everything in the recorded order: they are the oldest cohort,
        # evicted first, lowest frame number as the deterministic
        # stand-in for their unknown load times.
        unseen = [f for f in candidates if f not in self._order]
        if unseen:
            return min(unseen)
        # unseen was empty, so every candidate has a recorded load time
        # and the scan below always finds one.
        candidate_set = set(candidates)
        for frame in self._order:
            if frame in candidate_set:
                return frame
        raise AssertionError("unreachable: every candidate is in _order")


class LruPolicy(ReplacementPolicy):
    """Evict the frame whose translation was used least recently.

    Uses the TLB's per-entry ``last_used`` logical timestamp.
    """

    name = "lru"

    def victim(self, candidates: list[int], ctx: VictimContext) -> int:
        self._require(candidates)

        def last_used(frame: int) -> int:
            entry = ctx.entry(frame)
            return entry.last_used if entry is not None else -1

        return min(candidates, key=lambda frame: (last_used(frame), frame))


class RandomPolicy(ReplacementPolicy):
    """Evict a uniformly random candidate (seeded: runs reproduce)."""

    name = "random"

    def __init__(self, seed: int = 0x5EED) -> None:
        self._seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)

    def victim(self, candidates: list[int], ctx: VictimContext) -> int:
        self._require(candidates)
        return self._rng.choice(candidates)


class SecondChancePolicy(ReplacementPolicy):
    """FIFO, but a referenced frame gets one more pass.

    Clears the TLB reference bit as it sweeps — the classic clock
    algorithm over the interface memory.
    """

    name = "second-chance"

    def __init__(self) -> None:
        self._order: OrderedDict[int, None] = OrderedDict()

    def reset(self) -> None:
        self._order.clear()

    def on_load(self, frame: int) -> None:
        self._order.pop(frame, None)
        self._order[frame] = None

    def on_release(self, frame: int) -> None:
        self._order.pop(frame, None)

    def victim(self, candidates: list[int], ctx: VictimContext) -> int:
        self._require(candidates)
        candidate_set = set(candidates)
        # Pre-attach residents (never seen by on_load) are the oldest
        # cohort: sweep them first, lowest frame number first, same as
        # FIFO's fallback ordering.
        queue = sorted(f for f in candidates if f not in self._order)
        queue += [f for f in self._order if f in candidate_set]
        for _ in range(2 * len(queue)):
            frame = queue.pop(0)
            entry = ctx.entry(frame)
            if entry is not None and entry.referenced:
                entry.referenced = False
                queue.append(frame)
                continue
            return frame
        return queue[0] if queue else candidates[0]


_POLICIES = {
    policy.name: policy
    for policy in (FifoPolicy, LruPolicy, RandomPolicy, SecondChancePolicy)
}


def make_policy(name: str) -> ReplacementPolicy:
    """Build a policy by registry name (fifo/lru/random/second-chance)."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise VimError(
            f"unknown replacement policy {name!r}; "
            f"choices: {sorted(_POLICIES)}"
        ) from None


def policy_names() -> list[str]:
    """All registered policy names."""
    return sorted(_POLICIES)
