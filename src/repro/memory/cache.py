"""Two-level direct-mapped write-back cache model (Table 1).

The host cache hierarchy is a 32 KB direct-mapped unified L1 (1 cycle)
over a 1 MB direct-mapped unified L2 (10 cycles) over 20-cycle main
memory, write-back with write-allocate.

Applications present *bursts*: program-ordered numpy arrays of cache-line
numbers, all-read or all-write (the runtime splits mixed traffic).  The
burst API exists for speed — per the HPC guides the hot loop is
vectorized — but the semantics are exact: hits, misses, replacements and
write-backs match feeding the lines one at a time through a scalar
direct-mapped simulator (property-tested against :class:`ReferenceCache`).

Hierarchy simplification (documented in DESIGN.md): the L1 classifies
latency only; dirtiness is tracked at the L2, which is the write-back /
snoop point on the memory bus.  With both levels direct-mapped, the same
line size and near-inclusion, this preserves the three quantities the
paper's model needs — access-latency classification, bus write-back
traffic, and what the CNI snooper can observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .address import check_power_of_two


@dataclass
class BurstResult:
    """Outcome of one burst through a single cache level."""

    hits: int
    misses: int
    evicted_lines: np.ndarray
    """Line numbers evicted *dirty* during the burst (write-back traffic)."""


def _classify_burst(
    entry_tags: np.ndarray, lines: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
           np.ndarray]:
    """Shared grouping arithmetic for an in-order direct-mapped burst.

    Returns ``(hit, order, sl, ss, first, held)`` where ``order`` is the
    stable by-set permutation, ``sl``/``ss`` the permuted lines/sets,
    ``first`` marks each set-group's first access, ``held`` is the line
    each permuted access finds in its set (the group predecessor, or the
    entry tag for a group's first access), and ``hit`` is per permuted
    access.  Exactness argument: a direct-mapped set's behaviour depends
    only on the in-order sequence of lines mapped to it; the stable sort
    preserves that per-set order, so comparing each access with its
    predecessor in the group (or the entry tag for the first access)
    reproduces the scalar machine.
    """
    n = lines.size
    sets = lines & (entry_tags.size - 1)  # power-of-two set count
    order = np.argsort(sets, kind="stable")
    sl = lines[order]
    ss = sets[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(ss[1:], ss[:-1], out=first[1:])
    held = np.empty(n, dtype=np.int64)
    held[1:] = sl[:-1]
    held[first] = entry_tags[ss[first]]
    return held == sl, order, sl, ss, first, held


class CacheLevel:
    """One direct-mapped cache level.

    The tag and dirty arrays are allocated on the level's first burst:
    until then every set is empty, which the read-only queries answer
    without allocating.  A 1024-node cluster whose workload never
    touches memory (collectives, messaging) thus carries no cache
    state.
    """

    def __init__(self, size_bytes: int, line_bytes: int, name: str,
                 track_dirty: bool):
        check_power_of_two(size_bytes, f"{name} size")
        check_power_of_two(line_bytes, f"{name} line size")
        if size_bytes < line_bytes:
            raise ValueError(f"{name}: size smaller than one line")
        self.name = name
        self.nsets = size_bytes // line_bytes
        #: ``line & set_mask`` is ``line % nsets`` (the set count is a
        #: power of two), without numpy's slow int64 division.
        self.set_mask = self.nsets - 1
        self.line_bytes = line_bytes
        self.track_dirty = track_dirty
        self._tags: Optional[np.ndarray] = None
        self._dirty: Optional[np.ndarray] = None

    def _allocate(self) -> None:
        """First touch: every set starts empty and clean."""
        self._tags = np.full(self.nsets, -1, dtype=np.int64)
        self._dirty = np.zeros(self.nsets, dtype=bool)

    @property
    def tags(self) -> np.ndarray:
        """Resident line per set (-1 when empty)."""
        if self._tags is None:
            self._allocate()
        return self._tags

    @property
    def dirty(self) -> np.ndarray:
        """Per-set dirty bit."""
        if self._dirty is None:
            self._allocate()
        return self._dirty

    def burst(self, lines: np.ndarray, is_write: bool) -> BurstResult:
        """Feed a program-ordered homogeneous burst through this level.

        Updates tags/dirty state and reports hits, misses and the lines
        evicted dirty (write-back traffic).
        """
        if lines.size == 0:
            return BurstResult(0, 0, np.empty(0, dtype=np.int64))
        if self._tags is None:
            self._allocate()
        return self._apply(_classify_burst(self._tags, lines), is_write)

    def _apply(self, classified: Tuple[np.ndarray, ...],
               is_write: bool) -> BurstResult:
        """Commit a burst :func:`_classify_burst` classified against this
        level's current state."""
        hit, _order, sl, ss, first, held = classified
        n = sl.size
        tags = self._tags
        dirty = self._dirty

        evicted: List[np.ndarray] = []
        if self.track_dirty:
            # Per-set-group bookkeeping.  Within a group, every access before
            # the first miss is a hit on the entry occupant; the first miss
            # evicts the entry occupant; each later miss evicts the line
            # loaded by the access just before it.
            miss = ~hit
            group_starts = np.flatnonzero(first)
            has_miss = np.logical_or.reduceat(miss, group_starts)
            # Entry occupants evicted by each group's first miss.
            entry_tag = held[group_starts]
            entry_dirty = dirty[ss[group_starts]]
            evict_entry = has_miss & (entry_tag >= 0)
            if is_write:
                # A hit-write before the first miss dirties the occupant
                # even if it entered the burst clean.
                entry_dirty = entry_dirty | hit[group_starts]
            evicted.append(entry_tag[evict_entry & entry_dirty])
            if is_write:
                # Misses after the group's first miss evict a line written
                # (write-allocated) earlier in this burst: always dirty.
                cm = np.cumsum(miss)
                before = cm[group_starts] - miss[group_starts]
                counts = np.diff(np.append(group_starts, n))
                in_group_cum = cm - np.repeat(before, counts)
                later_miss = miss & (in_group_cum > 1)
                evicted.append(held[later_miss])
            # (Read bursts load clean lines, so intra-burst read
            # evictions beyond the entry occupant carry no write-back.)

        # Commit final state: the last access in each set-group wins.
        last = np.empty(n, dtype=bool)
        last[-1] = True
        last[:-1] = first[1:]
        final_sets = ss[last]
        final_lines = sl[last]
        if self.track_dirty:
            if is_write:
                dirty[final_sets] = True
            else:
                # Any miss in a read burst replaces the entry occupant;
                # everything loaded during the burst is clean.  Groups
                # with no miss leave the entry dirtiness untouched.
                dirty[final_sets[has_miss]] = False
        tags[final_sets] = final_lines

        if evicted and sum(e.size for e in evicted):
            ev = np.concatenate(evicted)
        else:
            ev = np.empty(0, dtype=np.int64)
        hits = int(np.count_nonzero(hit))
        return BurstResult(hits, n - hits, ev)

    def resident(self, line: int) -> bool:
        """Whether ``line`` currently occupies its set."""
        if self._tags is None:
            return False
        return bool(self._tags[line & self.set_mask] == line)

    def resident_mask(self, lines: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`resident`."""
        if self._tags is None:
            return np.zeros(np.shape(lines), dtype=bool)
        return self._tags[lines & self.set_mask] == lines

    def drop(self, lines: np.ndarray) -> np.ndarray:
        """Invalidate ``lines`` where resident; returns the dirty ones.

        Used for DSM page invalidation (the protocol owns the data, so
        dirty copies are discarded, not written back).
        """
        if self._tags is None:
            return lines[:0]
        sets = lines & self.set_mask
        here = self._tags[sets] == lines
        sets = sets[here]
        if self.track_dirty:
            was_dirty = self._dirty[sets]
        else:
            was_dirty = np.zeros(sets.size, dtype=bool)
        self._tags[sets] = -1
        self._dirty[sets] = False
        return lines[here][was_dirty]

    def clean(self, lines: np.ndarray) -> np.ndarray:
        """Write back dirty copies of ``lines``; they stay resident clean.

        Returns the lines actually written back (bus/snoop traffic).
        """
        if not self.track_dirty or self._tags is None:
            return np.empty(0, dtype=np.int64)
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        sets = lines & self.set_mask
        target = (self._tags[sets] == lines) & self._dirty[sets]
        self._dirty[sets[target]] = False
        return lines[target]

    def dirty_subset(self, lines: np.ndarray) -> np.ndarray:
        """The subset of ``lines`` currently resident and dirty."""
        if not self.track_dirty or self._tags is None:
            return np.empty(0, dtype=np.int64)
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        sets = lines & self.set_mask
        mask = (self._tags[sets] == lines) & self._dirty[sets]
        return lines[mask]


@dataclass
class AccessCost:
    """Aggregate result of a burst through the full hierarchy."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    memory_accesses: int = 0
    cpu_cycles: float = 0.0
    """CPU stall cycles for the whole burst."""

    writeback_lines: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    """Dirty lines pushed to the bus by replacements during the burst
    (visible to the CNI consistency snooper)."""


class CacheHierarchy:
    """L1 + L2 + memory-latency model for one host CPU."""

    def __init__(
        self,
        l1_size: int,
        l2_size: int,
        line_bytes: int,
        l1_cycles: int,
        l2_cycles: int,
        memory_cycles: int,
    ):
        self.line_bytes = line_bytes
        self.l1 = CacheLevel(l1_size, line_bytes, "L1", track_dirty=False)
        self.l2 = CacheLevel(l2_size, line_bytes, "L2", track_dirty=True)
        self.l1_cycles = l1_cycles
        self.l2_cycles = l2_cycles
        self.memory_cycles = memory_cycles
        self.stats_l1_hits = 0
        self.stats_l2_hits = 0
        self.stats_memory = 0
        self.stats_writebacks = 0

    def access(self, lines: np.ndarray, is_write: bool) -> AccessCost:
        """Burst of line-granular accesses (program order, homogeneous).

        Every access probes the L1; L1 misses continue to the L2; L2
        misses go to memory and allocate in both levels (write-allocate).
        Writes dirty the L2 copy (the write-back point).  Returns latency
        and write-back traffic; the caller charges simulated time and
        shows ``writeback_lines`` to the bus snoopers.
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        cost = AccessCost(accesses=int(lines.size))
        if lines.size == 0:
            return cost
        l1, l2 = self.l1, self.l2
        if l1._tags is None:
            l1._allocate()
        if l2._tags is None:
            l2._allocate()

        # One classification serves both the L1 update and the exact
        # in-order L1 miss stream the L2 sees.
        classified = _classify_burst(l1._tags, lines)
        cost.l1_hits = l1._apply(classified, is_write).hits
        hit, order = classified[:2]
        in_order_miss = np.empty(lines.size, dtype=bool)
        in_order_miss[order] = ~hit
        miss_stream = lines[in_order_miss]

        r2 = l2.burst(miss_stream, is_write)
        cost.l2_hits = r2.hits
        cost.memory_accesses = r2.misses

        if is_write:
            # Written lines that hit the L1 never reached the L2 burst;
            # their L2 copies (where resident) must still be marked dirty
            # so the write-back point knows about them.  Burst semantics:
            # these dirty marks apply at END of burst, against the
            # post-replacement residency — an L1-hit write followed in
            # the *same* burst by an L2 eviction of that line loses its
            # mark.  The reorder can only matter when one burst spans an
            # L2 set conflict (>1 MB apart with Table 1's geometry),
            # which page-granular application bursts never do.
            sets = lines & l2.set_mask
            resident = l2._tags[sets] == lines
            l2._dirty[sets[resident]] = True

        cost.cpu_cycles = float(
            lines.size * self.l1_cycles
            + miss_stream.size * self.l2_cycles
            + r2.misses * self.memory_cycles
        )
        cost.writeback_lines = r2.evicted_lines

        self.stats_l1_hits += cost.l1_hits
        self.stats_l2_hits += cost.l2_hits
        self.stats_memory += cost.memory_accesses
        self.stats_writebacks += int(cost.writeback_lines.size)
        return cost

    def flush_lines(self, lines: np.ndarray) -> np.ndarray:
        """Write back dirty copies of ``lines``; they stay resident clean.

        This is the traffic the CNI Message Cache snoops, and the cost a
        sender pays before a DMA (or a Message-Cache transmit) so that
        memory is consistent with the CPU cache — Section 2.2's
        write-back-cache flush requirement.
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        return self.l2.clean(lines)

    def dirty_lines_of(self, lines: np.ndarray) -> np.ndarray:
        """Subset of ``lines`` that a flush would write back (no change)."""
        return self.l2.dirty_subset(lines)

    def invalidate_lines(self, lines: np.ndarray) -> None:
        """Drop ``lines`` from both levels without write-back (DSM
        invalidation: the protocol owns the authoritative data)."""
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        self.l1.drop(lines)
        self.l2.drop(lines)


class ReferenceCache:
    """Scalar, obviously-correct direct-mapped model for property tests."""

    def __init__(self, nsets: int):
        self.nsets = nsets
        self.tags: Dict[int, int] = {}
        self.dirty: Dict[int, bool] = {}

    def access(self, line: int, is_write: bool) -> Tuple[bool, Optional[int]]:
        """One access; returns ``(hit, evicted_dirty_line_or_None)``."""
        s = line % self.nsets
        old = self.tags.get(s)
        if old == line:
            if is_write:
                self.dirty[s] = True
            return True, None
        evicted = old if (old is not None and self.dirty.get(s, False)) else None
        self.tags[s] = line
        self.dirty[s] = is_write
        return False, evicted
