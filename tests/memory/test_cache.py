"""Unit + property tests for the cache model.

The load-bearing test is the hypothesis comparison of the vectorized
burst engine against the scalar :class:`ReferenceCache` on random access
streams with random burst boundaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import CacheHierarchy, CacheLevel, ReferenceCache
from repro.memory.cache import _classify_burst


def level(nlines=8, track_dirty=True):
    return CacheLevel(nlines * 32, 32, "T", track_dirty=track_dirty)


def test_cold_miss_then_hit():
    c = level()
    r = c.burst(np.array([5]), is_write=False)
    assert (r.hits, r.misses) == (0, 1)
    r = c.burst(np.array([5]), is_write=False)
    assert (r.hits, r.misses) == (1, 0)


def test_conflict_eviction_same_set():
    c = level(nlines=8)
    c.burst(np.array([0]), is_write=True)       # line 0 dirty in set 0
    r = c.burst(np.array([8]), is_write=False)  # set 0 conflict
    assert r.misses == 1
    assert r.evicted_lines.tolist() == [0]      # dirty occupant written back


def test_clean_eviction_no_writeback():
    c = level(nlines=8)
    c.burst(np.array([0]), is_write=False)
    r = c.burst(np.array([8]), is_write=False)
    assert r.misses == 1
    assert r.evicted_lines.size == 0


def test_read_A_B_A_evicts_dirty_entry_occupant():
    # Regression for the subtle case: the entry occupant is evicted at
    # the first MISS of the group, which need not be the first access.
    c = level(nlines=8)
    c.burst(np.array([0]), is_write=True)  # A dirty
    r = c.burst(np.array([0, 8, 0]), is_write=False)
    assert (r.hits, r.misses) == (1, 2)
    assert r.evicted_lines.tolist() == [0]   # dirty A written back once
    # A was reloaded clean; evicting it now must not write back.
    r2 = c.burst(np.array([8]), is_write=False)
    assert r2.evicted_lines.size == 0


def test_write_burst_intra_burst_evictions_are_dirty():
    c = level(nlines=4)
    # lines 0,4,8 all map to set 0; each later miss evicts a just-written line
    r = c.burst(np.array([0, 4, 8]), is_write=True)
    assert r.misses == 3
    assert sorted(r.evicted_lines.tolist()) == [0, 4]


def test_write_hit_then_conflict_writes_back():
    c = level(nlines=4)
    c.burst(np.array([0]), is_write=False)       # clean
    r = c.burst(np.array([0, 4]), is_write=True)  # hit-write dirties, then evict
    assert r.evicted_lines.tolist() == [0]


def test_drop_returns_dirty_lines_only():
    c = level(nlines=8)
    c.burst(np.array([1, 2]), is_write=True)
    c.burst(np.array([3]), is_write=False)
    dirty = c.drop(np.array([1, 2, 3, 4]))
    assert sorted(dirty.tolist()) == [1, 2]
    assert not c.resident(1) and not c.resident(3)


def test_clean_writes_back_and_keeps_resident():
    c = level(nlines=8)
    c.burst(np.array([1, 2]), is_write=True)
    flushed = c.clean(np.array([1, 2, 3]))
    assert sorted(flushed.tolist()) == [1, 2]
    assert c.resident(1) and c.resident(2)
    # second flush: nothing dirty anymore
    assert c.clean(np.array([1, 2])).size == 0


def test_dirty_subset():
    c = level(nlines=8)
    c.burst(np.array([1]), is_write=True)
    c.burst(np.array([2]), is_write=False)
    assert c.dirty_subset(np.array([1, 2, 3])).tolist() == [1]


def test_empty_burst():
    c = level()
    r = c.burst(np.empty(0, dtype=np.int64), is_write=True)
    assert (r.hits, r.misses) == (0, 0)
    assert r.evicted_lines.size == 0


# ---------------------------------------------------------------- property --

@st.composite
def access_script(draw):
    """Random (line, is_write) stream plus burst segmentation."""
    nsets = draw(st.sampled_from([2, 4, 8]))
    n = draw(st.integers(1, 120))
    lines = draw(
        st.lists(st.integers(0, 4 * nsets - 1), min_size=n, max_size=n)
    )
    # homogeneous bursts: segment the stream, each segment all-R or all-W
    n_bursts = draw(st.integers(1, max(1, n // 3)))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, n - 1), min_size=0, max_size=n_bursts,
                unique=True,
            )
        )
    ) if n > 1 else []
    writes = draw(
        st.lists(st.booleans(), min_size=len(cuts) + 1, max_size=len(cuts) + 1)
    )
    return nsets, lines, cuts, writes


@given(access_script())
@settings(max_examples=200, deadline=None)
def test_burst_engine_matches_scalar_reference(script):
    nsets, lines, cuts, writes = script
    vec = CacheLevel(nsets * 32, 32, "V", track_dirty=True)
    ref = ReferenceCache(nsets)

    bounds = [0] + cuts + [len(lines)]
    for b in range(len(bounds) - 1):
        seg = lines[bounds[b]:bounds[b + 1]]
        if not seg:
            continue
        w = writes[b]
        ref_hits = 0
        ref_evicted = []
        for ln in seg:
            hit, ev = ref.access(ln, w)
            ref_hits += hit
            if ev is not None:
                ref_evicted.append(ev)
        r = vec.burst(np.array(seg, dtype=np.int64), is_write=w)
        assert r.hits == ref_hits
        assert r.misses == len(seg) - ref_hits
        assert sorted(r.evicted_lines.tolist()) == sorted(ref_evicted)

    # final state agrees
    for s in range(nsets):
        ref_tag = ref.tags.get(s, -1)
        assert vec.tags[s] == ref_tag
        if ref_tag != -1:
            assert bool(vec.dirty[s]) == ref.dirty.get(s, False)


# ------------------------------------------------------------- hierarchy ----

def hierarchy(l1_lines=4, l2_lines=16):
    return CacheHierarchy(
        l1_size=l1_lines * 32,
        l2_size=l2_lines * 32,
        line_bytes=32,
        l1_cycles=1,
        l2_cycles=10,
        memory_cycles=20,
    )


def test_hierarchy_cold_access_costs():
    h = hierarchy()
    cost = h.access(np.array([0]), is_write=False)
    assert cost.l1_hits == 0
    assert cost.l2_hits == 0
    assert cost.memory_accesses == 1
    assert cost.cpu_cycles == 1 + 10 + 20


def test_hierarchy_l1_hit_cost():
    h = hierarchy()
    h.access(np.array([0]), is_write=False)
    cost = h.access(np.array([0]), is_write=False)
    assert cost.l1_hits == 1 and cost.cpu_cycles == 1


def test_hierarchy_l2_hit_after_l1_conflict():
    h = hierarchy(l1_lines=4, l2_lines=64)
    h.access(np.array([0]), is_write=False)
    h.access(np.array([4]), is_write=False)   # evicts 0 from L1, stays in L2
    cost = h.access(np.array([0]), is_write=False)
    assert cost.l1_hits == 0
    assert cost.l2_hits == 1
    assert cost.cpu_cycles == 1 + 10


def test_hierarchy_writeback_on_l2_conflict():
    h = hierarchy(l1_lines=4, l2_lines=4)
    h.access(np.array([0]), is_write=True)
    cost = h.access(np.array([4]), is_write=False)  # conflicts in both
    assert cost.writeback_lines.tolist() == [0]


def test_hierarchy_l1_hit_write_dirties_l2():
    h = hierarchy(l1_lines=4, l2_lines=4)
    h.access(np.array([0]), is_write=False)  # clean in both
    h.access(np.array([0]), is_write=True)   # L1 hit, must dirty L2 copy
    flushed = h.flush_lines(np.array([0]))
    assert flushed.tolist() == [0]


def test_hierarchy_flush_then_flush_is_empty():
    h = hierarchy()
    h.access(np.array([1, 2, 3]), is_write=True)
    first = h.flush_lines(np.array([1, 2, 3]))
    assert sorted(first.tolist()) == [1, 2, 3]
    assert h.flush_lines(np.array([1, 2, 3])).size == 0


def test_hierarchy_invalidate_drops_without_writeback():
    h = hierarchy()
    h.access(np.array([1]), is_write=True)
    h.invalidate_lines(np.array([1]))
    assert h.flush_lines(np.array([1])).size == 0
    cost = h.access(np.array([1]), is_write=False)
    assert cost.memory_accesses == 1  # truly gone


def test_hierarchy_dirty_lines_of_is_nondestructive():
    h = hierarchy()
    h.access(np.array([1, 2]), is_write=True)
    assert sorted(h.dirty_lines_of(np.array([1, 2, 3])).tolist()) == [1, 2]
    assert sorted(h.dirty_lines_of(np.array([1, 2, 3])).tolist()) == [1, 2]


def test_hierarchy_stats_accumulate():
    h = hierarchy()
    h.access(np.array([0, 1, 0]), is_write=False)
    assert h.stats_l1_hits == 1
    assert h.stats_memory == 2


@given(
    st.lists(
        st.tuples(st.integers(0, 31), st.booleans()), min_size=1, max_size=80
    )
)
@settings(max_examples=100, deadline=None)
def test_hierarchy_cost_classification_is_exhaustive(stream):
    """Every access is exactly one of: L1 hit, L2 hit, memory access."""
    h = hierarchy(l1_lines=2, l2_lines=8)
    for line, w in stream:
        cost = h.access(np.array([line]), is_write=w)
        assert cost.l1_hits + cost.l2_hits + cost.memory_accesses == 1


def test_level_allocates_on_first_burst():
    lv = level(nlines=8)
    lines = np.array([1, 9, 2], dtype=np.int64)
    assert not lv.resident(1) and not lv.resident_mask(lines).any()
    assert lv.dirty_subset(lines).size == 0
    assert lv.clean(lines).size == 0 and lv.drop(lines).size == 0
    assert lv._tags is None  # queries on an empty level allocate nothing
    lv.burst(lines, is_write=True)
    assert lv._tags is not None
    assert list(lv.dirty_subset(lines)) == [9, 2]


def test_untouched_level_arrays_read_as_empty():
    lv = level(nlines=8)
    assert (lv.tags == -1).all() and not lv.dirty.any()


# ------------------------------------------------- hierarchy vs scalar model --

class ScalarHierarchy:
    """Two :class:`ReferenceCache` levels fed one access at a time.

    Every access probes the L1 (latency only); an L1 miss goes to the
    L2, which is write-allocate and the write-back point.  After a write
    burst, every written line still resident in the L2 is marked dirty:
    the documented end-of-burst semantics of L1-hit writes.
    """

    def __init__(self, l1_sets, l2_sets):
        self.l1 = ReferenceCache(l1_sets)
        self.l2 = ReferenceCache(l2_sets)

    def burst(self, lines, is_write):
        l1_hits = l2_hits = memory = 0
        writebacks = []
        for line in lines:
            if self.l1.access(line, is_write)[0]:
                l1_hits += 1
                continue
            hit, evicted = self.l2.access(line, is_write)
            if hit:
                l2_hits += 1
            else:
                memory += 1
            if evicted is not None:
                writebacks.append(evicted)
        if is_write:
            for line in lines:
                s = line % self.l2.nsets
                if self.l2.tags.get(s) == line:
                    self.l2.dirty[s] = True
        return l1_hits, l2_hits, memory, writebacks


@st.composite
def hierarchy_script(draw):
    """Geometry plus a sequence of random and long contiguous bursts."""
    l1_sets = draw(st.sampled_from([2, 4, 8]))
    l2_sets = l1_sets * draw(st.sampled_from([1, 2, 4]))
    span = 4 * l2_sets
    bursts = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            lines = draw(st.lists(st.integers(0, span - 1),
                                  min_size=1, max_size=60))
        else:
            # The Jacobi shape: a contiguous run longer than the L1.
            start = draw(st.integers(0, span))
            length = draw(st.integers(l1_sets + 1, 3 * l2_sets + 1))
            lines = list(range(start, start + length))
        bursts.append((lines, draw(st.booleans())))
    return l1_sets, l2_sets, bursts


@given(hierarchy_script())
@settings(max_examples=200, deadline=None)
def test_hierarchy_matches_scalar_two_level_model(script):
    l1_sets, l2_sets, bursts = script
    vec = hierarchy(l1_lines=l1_sets, l2_lines=l2_sets)
    ref = ScalarHierarchy(l1_sets, l2_sets)
    for lines, is_write in bursts:
        l1_hits, l2_hits, memory, writebacks = ref.burst(lines, is_write)
        cost = vec.access(np.array(lines, dtype=np.int64), is_write)
        assert (cost.l1_hits, cost.l2_hits, cost.memory_accesses) == (
            l1_hits, l2_hits, memory)
        assert sorted(cost.writeback_lines.tolist()) == sorted(writebacks)
        assert cost.cpu_cycles == (len(lines) + 10 * (l2_hits + memory)
                                   + 20 * memory)
    for level, model in ((vec.l1, ref.l1), (vec.l2, ref.l2)):
        for s in range(level.nsets):
            assert level.tags[s] == model.tags.get(s, -1)
    for s, line in ref.l2.tags.items():
        assert bool(vec.l2.dirty[s]) == ref.l2.dirty[s]


@given(st.sampled_from([1, 2, 8, 64]),
       st.lists(st.integers(0, 200), min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_classify_burst_order_is_the_stable_set_order(nsets, raw):
    """The by-set permutation equals ``lexsort((arange, sets))``,
    repeated lines and repeated sets included."""
    lines = np.array(raw, dtype=np.int64)
    order = _classify_burst(np.full(nsets, -1, dtype=np.int64), lines)[1]
    want = np.lexsort((np.arange(lines.size), lines % nsets))
    assert order.tolist() == want.tolist()
