"""Memory hierarchy approximation (Section VI-D): hand-computed delays."""

import hashlib
import json
import random
import tracemalloc

import pytest

from repro.cycles.doe import DoeModel
from repro.cycles.memmodel import (
    Cache,
    ConnectionLimit,
    HierarchyConfig,
    MainMemory,
    build_hierarchy,
    find_cache,
    save_hierarchy_state,
)
from repro.framework.pipeline import run

from .conftest import built_benchmark


class TestMainMemory:
    def test_fixed_delay(self):
        mem = MainMemory(delay=18)
        assert mem.access(0x1000, False, 0, 100) == 118
        assert mem.access(0x1000, True, 0, 0) == 18
        assert mem.accesses == 2


class TestCache:
    def make(self, **kwargs):
        defaults = dict(size=2048, line_size=32, assoc=4, delay=3,
                        sub=MainMemory(18))
        defaults.update(kwargs)
        return Cache(**defaults)

    def test_miss_then_hit_delays(self):
        cache = self.make()
        # Miss: start+delay, +18 memory, +delay again to fill the line.
        completion = cache.access(0x1000, False, 0, 0)
        assert completion == 3 + 18 + 3
        assert cache.misses == 1
        # Hit on the same line afterwards.
        completion = cache.access(0x1004, False, 0, 100)
        assert completion == 103
        assert cache.hits == 1

    def test_hit_cannot_complete_before_line_fill(self):
        """Out-of-order calls: completion >= the line's write cycle."""
        cache = self.make()
        fill = cache.access(0x1000, False, 0, 50)  # fills at 50+24=74
        assert fill == 74
        # A logically later access queried with an *earlier* start.
        completion = cache.access(0x1000, False, 0, 10)
        assert completion == 74  # clamped to the fill cycle

    def test_lru_eviction(self):
        # Direct-mapped-ish: 2 sets, assoc 1, line 32 -> size 64.
        cache = self.make(size=64, assoc=1)
        cache.access(0x000, False, 0, 0)     # set 0
        cache.access(0x040, False, 0, 100)   # set 0, evicts 0x000
        assert cache.misses == 2
        cache.access(0x000, False, 0, 200)   # miss again
        assert cache.misses == 3

    def test_lru_keeps_recently_used(self):
        # 1 set, assoc 2.
        cache = self.make(size=64, assoc=2, line_size=32)
        cache.access(0x00, False, 0, 0)    # A
        cache.access(0x20, False, 0, 50)   # B
        cache.access(0x00, False, 0, 100)  # A hit (refresh LRU)
        cache.access(0x40, False, 0, 150)  # C evicts B (LRU)
        assert cache.access(0x00, False, 0, 200) == 203  # A still resident
        assert cache.miss_rate < 1.0

    def test_writeback_costs_second_subaccess(self):
        sub = MainMemory(18)
        cache = self.make(size=64, assoc=1, sub=sub)
        cache.access(0x000, True, 0, 0)    # dirty line in set 0
        before = sub.accesses
        completion = cache.access(0x040, False, 0, 100)
        # fill + write-back = two memory accesses
        assert sub.accesses == before + 2
        assert completion == 100 + 3 + 18 + 18 + 3
        assert cache.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        sub = MainMemory(18)
        cache = self.make(size=64, assoc=1, sub=sub)
        cache.access(0x000, False, 0, 0)
        before = sub.accesses
        cache.access(0x040, False, 0, 100)
        assert sub.accesses == before + 1
        assert cache.writebacks == 0

    def test_write_hit_marks_dirty(self):
        sub = MainMemory(18)
        cache = self.make(size=64, assoc=1, sub=sub)
        cache.access(0x000, False, 0, 0)    # clean fill
        cache.access(0x004, True, 0, 50)    # write hit -> dirty
        cache.access(0x040, False, 0, 100)  # evict: must write back
        assert cache.writebacks == 1

    def test_size_validation(self):
        with pytest.raises(ValueError):
            Cache(size=100, line_size=32, assoc=4)

    def test_reset_clears_state(self):
        cache = self.make()
        cache.access(0x1000, True, 0, 0)
        cache.reset()
        assert cache.hits == 0 and cache.misses == 0
        assert cache.access(0x1000, False, 0, 0) == 24  # miss again


class TestConnectionLimit:
    def test_port_conflict_pushes_start(self):
        limit = ConnectionLimit(1, MainMemory(0))
        first = limit.access(0, False, 0, 10)
        second = limit.access(4, False, 1, 10)
        # Same start cycle, one port: the second access slips.
        assert first == 10
        assert second == 11

    def test_two_ports_allow_two_per_cycle(self):
        limit = ConnectionLimit(2, MainMemory(10))
        a = limit.access(0, False, 0, 5)
        b = limit.access(4, False, 1, 5)
        c = limit.access(8, False, 2, 5)
        assert a == 15 and b == 15
        assert c == 16  # third access pushed to cycle 6

    def test_blocking_port_reserves_completion(self):
        """The paper's wording: the completion cycle also needs a free
        port — a blocking array sustains one access per two cycles."""
        limit = ConnectionLimit(1, MainMemory(0), reserve_completion=True)
        first = limit.access(0, False, 0, 10)
        assert first == 11  # start at 10, completion slot pushed to 11
        second = limit.access(4, False, 1, 10)
        assert second > first

    def test_pipelined_sustains_one_per_cycle(self):
        limit = ConnectionLimit(1, MainMemory(3))
        completions = [limit.access(4 * i, False, 0, 0) for i in range(4)]
        assert completions == [3, 4, 5, 6]

    def test_blocking_sustains_one_per_two_cycles(self):
        limit = ConnectionLimit(1, MainMemory(3), reserve_completion=True)
        completions = [limit.access(4 * i, False, 0, 0) for i in range(4)]
        # starts 0,1,2,4... each access consumes two port slots.
        assert completions[-1] >= 7

    def test_ports_validation(self):
        with pytest.raises(ValueError):
            ConnectionLimit(0, MainMemory(1))

    def test_stall_counter(self):
        limit = ConnectionLimit(1, MainMemory(0))
        limit.access(0, False, 0, 0)
        limit.access(0, False, 0, 0)
        assert limit.stalls > 0

    def test_reset(self):
        limit = ConnectionLimit(1, MainMemory(5))
        limit.access(0, False, 0, 0)
        limit.reset()
        assert limit.stalls == 0
        assert limit.access(0, False, 0, 0) == 5


class TestHierarchy:
    def test_paper_configuration(self):
        chain = build_hierarchy(HierarchyConfig())
        assert isinstance(chain, ConnectionLimit)
        l1 = find_cache(chain, "L1")
        l2 = find_cache(chain, "L2")
        assert l1.size == 2048 and l1.assoc == 4 and l1.delay == 3
        assert l2.size == 256 * 1024 and l2.delay == 6
        assert isinstance(l2.sub, MainMemory) and l2.sub.delay == 18

    def test_l1_hit_l2_hit_memory_chain(self):
        chain = build_hierarchy(HierarchyConfig())
        l1 = find_cache(chain, "L1")
        l2 = find_cache(chain, "L2")
        chain.access(0x1000, False, 0, 0)  # cold: misses both
        assert l1.misses == 1 and l2.misses == 1
        chain.access(0x1000, False, 0, 100)  # L1 hit
        assert l1.hits == 1 and l2.accesses == 1

    def test_find_cache_unknown(self):
        chain = build_hierarchy(HierarchyConfig())
        assert find_cache(chain, "L3") is None


class _LineCacheOracle:
    """The per-line cache algorithm the flat layout replaced: one
    ``[tag, valid, dirty, write_cycle, lru]`` record per line, a linear
    tag search per access and the set's first oldest line as victim."""

    def __init__(self, *, size, line_size, assoc, delay, sub):
        self.line_size, self.delay, self.sub = line_size, delay, sub
        self.num_sets = size // (line_size * assoc)
        self.sets = [[[-1, False, False, 0, 0] for _ in range(assoc)]
                     for _ in range(self.num_sets)]
        self.clock = self.hits = self.misses = self.writebacks = 0

    def reset_timing(self):
        for cache_set in self.sets:
            for line in cache_set:
                line[3] = 0

    def access(self, addr, is_write, slot, start):
        block = (addr & 0xFFFFFFFF) // self.line_size
        set_index, tag = block % self.num_sets, block // self.num_sets
        cache_set = self.sets[set_index]
        self.clock += 1
        current = start + self.delay
        for line in cache_set:
            if line[1] and line[0] == tag:
                self.hits += 1
                line[4] = self.clock
                line[2] = line[2] or is_write
                return max(current, line[3])
        self.misses += 1
        victim = min(cache_set, key=lambda line: line[4])
        current = self.sub.access(addr, False, slot, current)
        if victim[1] and victim[2]:
            self.writebacks += 1
            current = self.sub.access(
                (victim[0] * self.num_sets + set_index) * self.line_size,
                True, slot, current,
            )
        current += self.delay
        victim[:] = [tag, True, is_write, current, self.clock]
        return current


class TestFlatCacheAgainstOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_stream(self, seed):
        rng = random.Random(seed)
        assoc = rng.randint(1, 4)
        line_size = rng.choice((4, 8, 16))
        num_sets = rng.choice((1, 2, 4))
        geometry = dict(size=num_sets * assoc * line_size,
                        line_size=line_size, assoc=assoc,
                        delay=rng.randint(1, 4))
        cache = Cache(sub=MainMemory(11), **geometry)
        oracle = _LineCacheOracle(sub=MainMemory(11), **geometry)
        # Enough distinct blocks to force conflicts in every set.
        span = line_size * num_sets * (assoc + 2)
        clock = 0
        for step in range(600):
            if step == 300:
                cache.reset_timing()
                oracle.reset_timing()
                clock = 0
            clock += rng.randint(0, 6)
            # Start cycles out of program order, as the DOE issues them.
            start = max(0, clock + rng.randint(-25, 10))
            addr = rng.randrange(span) | rng.choice((0, 0xFFF00000))
            is_write = rng.random() < 0.4
            assert (cache.access(addr, is_write, 0, start)
                    == oracle.access(addr, is_write, 0, start)), step
        assert (cache.hits, cache.misses, cache.writebacks) == (
            oracle.hits, oracle.misses, oracle.writebacks)
        assert cache.sub.accesses == oracle.sub.accesses


#: sha256 of ``save_hierarchy_state`` (sorted, compact JSON) after a
#: full exact-DOE run of the pinned dct4x4 build, recorded with the
#: per-line cache layout: the state format and its content are fixed.
PINNED_DCT4X4_HIERARCHY_DIGEST = (
    "fd48e0bdc4a5ba98e528e7a350591b105aa97b9ba04d17a40ced815795f0bd31"
)


def _hierarchy_digest(model) -> str:
    blob = json.dumps(save_hierarchy_state(model.memory), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TestHierarchyState:
    def test_pinned_dct4x4_digest_and_resume(self, tmp_path):
        built = built_benchmark("dct4x4@pinned")
        width = built.widest_issue_width
        straight = DoeModel(issue_width=width)
        run(built, cycle_model=straight)
        assert _hierarchy_digest(straight) == PINNED_DCT4X4_HIERARCHY_DIGEST
        # Save mid-run, load into a fresh model, continue to the end.
        first = run(built, cycle_model=DoeModel(issue_width=width),
                    checkpoint_every=30_000, checkpoint_dir=str(tmp_path))
        resumed = DoeModel(issue_width=width)
        run(built, cycle_model=resumed, resume_from=first.checkpoints[0])
        assert resumed.save_state() == straight.save_state()


def test_default_model_builds_small():
    """Building the paper's hierarchy allocates flat per-way lists,
    not one object per line (the per-line layout took 773 KB)."""
    DoeModel()  # first construction may fill import-time caches
    tracemalloc.start()
    try:
        DoeModel()
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 400 * 1024
