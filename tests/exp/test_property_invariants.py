"""Property-based shard/merge invariants over seeded-random grids.

``tests/exp/test_shard.py`` and ``tests/exp/test_merge.py`` pin the
contracts on hand-picked grids; this suite re-checks them over ~50
randomly generated :class:`SweepSpec`\\ s (fixed seed, so failures
reproduce) including the synthetic-pattern axes, where axis
canonicalisation makes duplicate cells routine:

* every shard partition is pairwise disjoint and its union is exactly
  the deduplicated grid, for several shard counts per spec;
* shard sizes are balanced to within one cell;
* for a sampled subset of tiny grids, actually *running* the shards
  and merging their caches is byte-identical to the unsharded run.

Keep the generator stable: extend the value pools or append new draws
at the end, never reorder existing draws — the specs double as a
regression corpus.
"""

import random

import pytest

from repro.exp import run_sweep
from repro.exp.merge import merge_into
from repro.exp.spec import SweepSpec, config_hash, shard_cells
from tests.store_helpers import payloads

#: Number of random specs the pure (no-simulation) invariants cover.
SPEC_COUNT = 50

#: Value pools per axis.  Deliberately includes combinations that
#: collapse to duplicate cells (non-synthetic apps crossed with
#: synthetic-pattern axes canonicalise to the same hash), because the
#: dedup-then-partition behaviour is exactly what sharding must get
#: right.
_POOLS = {
    "apps": ("adpcm", "idea", "vadd", "synthetic"),
    "input_bytes": (1024, 2048, 4096, 8192),
    "seeds": (1, 2, 7, 42),
    "page_bytes": (None, 512, 1024, 2048),
    "dpram_bytes": (None, 4096, 8192),
    "policies": ("fifo", "lru"),
    "transfers": ("double", "single", "dma"),
    "prefetches": ("none", "sequential", "overlapped"),
    "tlb_capacities": (None, 4, 8),
    "pipelined": (False, True),
    "syn_strides": (1, 3, 7),
    "syn_locality_pcts": (0, 50, 80, 100),
    "syn_read_pcts": (0, 50, 70, 100),
    "syn_phases": (1, 2, 4),
}


def _random_spec(rng: random.Random) -> SweepSpec:
    """One random grid: 2-4 varied axes, each with 2-3 values."""
    axes = {}
    for name in rng.sample(sorted(_POOLS), k=rng.randint(2, 4)):
        pool = _POOLS[name]
        count = rng.randint(2, min(3, len(pool)))
        axes[name] = tuple(rng.sample(pool, k=count))
    # Contention axes need matched tenant counts and mixes, so draw
    # them together rather than through the generic pools.
    if rng.random() < 0.25:
        axes["tenants"] = (2,)
        axes["tenant_mixes"] = (
            rng.choice(("same", "adpcm+idea", "synthetic+adpcm")),
        )
    if rng.random() < 0.2:
        axes["replicates"] = rng.choice((2, 3))
    return SweepSpec(**axes)


def _specs(count: int) -> list[SweepSpec]:
    rng = random.Random(0x5EED5047)
    return [_random_spec(rng) for _ in range(count)]


def _hashes(cells) -> set:
    return {config_hash(cell) for cell in cells}


@pytest.mark.parametrize(
    "spec", _specs(SPEC_COUNT), ids=lambda s: f"grid{s.size}"
)
def test_shards_partition_the_deduplicated_grid(spec):
    cells = spec.expand()
    deduplicated = _hashes(cells)
    for total in (1, 2, 3, 7):
        union = set()
        covered = 0
        for index in range(1, total + 1):
            shard = shard_cells(cells, index, total)
            keys = _hashes(shard)
            # No duplicates within a shard, none across shards.
            assert len(keys) == len(shard)
            assert not (union & keys)
            union |= keys
            covered += len(shard)
        assert union == deduplicated
        # Balanced to within one cell over the deduplicated set.
        sizes = [len(shard_cells(cells, i, total)) for i in range(1, total + 1)]
        assert max(sizes) - min(sizes) <= 1
        assert covered == len(deduplicated)


@pytest.mark.parametrize(
    "spec", _specs(SPEC_COUNT), ids=lambda s: f"grid{s.size}"
)
def test_sharding_is_order_independent(spec):
    cells = spec.expand()
    shuffled = list(cells)
    random.Random(7).shuffle(shuffled)
    for index in (1, 2):
        assert [config_hash(c) for c in shard_cells(cells, index, 2)] == [
            config_hash(c) for c in shard_cells(shuffled, index, 2)
        ]


def _tiny_run_specs(count: int) -> list[SweepSpec]:
    """Random grids small and cheap enough to actually simulate."""
    rng = random.Random(0x3E6E5047)
    specs = []
    while len(specs) < count:
        spec = SweepSpec(
            apps=(rng.choice(("vadd", "synthetic")),),
            input_bytes=(1024,),
            seeds=tuple(rng.sample((1, 2, 3, 4), k=2)),
            policies=("fifo", "lru"),
            syn_read_pcts=(rng.choice((0, 70)),),
            replicates=rng.choice((1, 2)),
        )
        specs.append(spec)
    return specs


@pytest.mark.parametrize(
    "spec", _tiny_run_specs(3), ids=lambda s: f"{s.apps[0]}-n{s.replicates}"
)
def test_merged_shard_caches_byte_match_unsharded_run(spec, tmp_path):
    cells = spec.expand()
    for index in (1, 2):
        run_sweep(
            shard_cells(cells, index, 2),
            cache_dir=tmp_path / f"shard{index}",
        )
    run_sweep(spec, cache_dir=tmp_path / "full")
    dest = tmp_path / "merged"
    summary = merge_into(dest, [tmp_path / "shard1", tmp_path / "shard2"])
    assert summary.written == len(_hashes(cells))
    assert payloads(dest) == payloads(tmp_path / "full")
