import gc
import math
import random
import re
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from pebtree import store
from pebtree.keys import KeyLayout
from pebtree.motion import MovingObject, TimePartitionConfig
from pebtree.store import BPlusTree, IoCounters, LeafEntry, MovingObjectIndex, Node
from pebtree.zcurve import GridConfig


def entry(key, uid=0):
    return LeafEntry(key, uid, float(key % 97), float(key % 89), 0.5, -0.5, 0.0)


def put(tree, key, uid=0):
    """Insert ``entry(key, uid)`` through the tree's column insert."""
    tree.insert(key, uid, entry(key, uid)[2:])


def records_into(out):
    """A slice visitor for ``scan_intervals`` that appends each record it is handed to ``out`` as a ``LeafEntry``."""

    def visit(leaf, i, j):
        out.extend(leaf.records(i, j))

    return visit


def collect_range(tree, lo, hi):
    out = []
    tree.scan_intervals([(lo, hi)], records_into(out))
    return [(e.key, e.uid) for e in out]


def test_insert_into_empty_tree():
    tree = BPlusTree()
    put(tree, 42)
    stats = tree.stats()
    assert stats.height == 1
    assert stats.leaf_count == 1
    assert stats.entry_count == 1
    assert collect_range(tree, 0, 100) == [(42, 0)]


def test_sequential_inserts_match_sorted_oracle():
    tree = BPlusTree(page_size=512)  # small pages force splits early
    keys = list(range(500))
    for k in keys:
        put(tree, k)
    assert collect_range(tree, 0, 499) == [(k, 0) for k in keys]
    tree.audit()


def test_duplicate_insert_rejected():
    tree = BPlusTree()
    put(tree, 7, 1)
    put(tree, 7, 2)  # same key, different uid is fine
    with pytest.raises(ValueError):
        put(tree, 7, 1)


def test_leaf_split_keeps_entries_reachable():
    tree = BPlusTree(page_size=512)  # leaf capacity 8
    for k in range(9):
        put(tree, k)
    stats = tree.stats()
    assert stats.height == 2
    assert stats.leaf_count == 2
    assert collect_range(tree, 0, 8) == [(k, 0) for k in range(9)]
    tree.audit()


def test_delete_missing_reported():
    tree = BPlusTree()
    put(tree, 1)
    with pytest.raises(KeyError):
        tree.delete(2, 0)
    with pytest.raises(KeyError):
        tree.delete(1, 5)


def test_delete_after_insert_restores_prior_set():
    tree = BPlusTree(page_size=512)
    for k in range(100):
        put(tree, k)
    before = collect_range(tree, 0, 99)
    put(tree, 1000)
    tree.delete(1000, 0)
    assert collect_range(tree, 0, 2000) == before
    tree.audit()


def test_full_drain_leaves_empty_tree():
    tree = BPlusTree(page_size=512)
    keys = list(range(200))
    random.Random(1).shuffle(keys)
    for k in keys:
        put(tree, k)
    for k in keys:
        tree.delete(k, 0)
    stats = tree.stats()
    assert stats.entry_count == 0
    assert stats.leaf_count == 1
    assert stats.height == 1
    assert collect_range(tree, 0, 10_000) == []


def test_drains_from_either_end_borrow_and_merge_every_page_kind(monkeypatch):
    """Leaf and internal pages borrow from a left and from a right sibling, and merge."""
    cases = Counter()
    borrow, merge = store._borrow, BPlusTree._merge

    def counted_borrow(parent, i, left, right, to_right):
        cases["borrow", left.leaf, to_right] += 1
        borrow(parent, i, left, right, to_right)

    def counted_merge(tree, parent, i, left, right):
        cases["merge", left.leaf] += 1
        merge(tree, parent, i, left, right)

    monkeypatch.setattr(store, "_borrow", counted_borrow)
    monkeypatch.setattr(BPlusTree, "_merge", counted_merge)
    keys = list(range(1500))
    random.Random(3).shuffle(keys)
    for drain in (sorted(keys), sorted(keys, reverse=True)):
        tree = BPlusTree(page_size=256)  # 4 entries a leaf, 16 children an internal page
        for k in keys:
            put(tree, k)
        assert tree.height >= 3
        for n, k in enumerate(drain):
            tree.delete(k, 0)
            if n % 100 == 0:
                tree.audit()
                assert collect_range(tree, 0, 1500) == sorted((j, 0) for j in drain[n + 1 :])
        assert tree.stats() == (1, 1, 0, 1)
    assert set(cases) == {("borrow", leaf, to_right) for leaf in (True, False) for to_right in (True, False)} | {
        ("merge", True),
        ("merge", False),
    }


@pytest.mark.parametrize("page_size", [512, 1024])
def test_shadow_set_random_ops(page_size):
    """Randomized interleavings against a shadow set, with structural audits."""
    rng = random.Random(7)
    tree = BPlusTree(page_size=page_size)
    shadow: dict[tuple[int, int], LeafEntry] = {}
    for step in range(4000):
        op = rng.random()
        if op < 0.55 or not shadow:
            k = rng.randrange(2000)
            uid = rng.randrange(4)
            if (k, uid) in shadow:
                with pytest.raises(ValueError):
                    put(tree, k, uid)
            else:
                put(tree, k, uid)
                shadow[(k, uid)] = entry(k, uid)
        else:
            k, uid = rng.choice(list(shadow))
            tree.delete(k, uid)
            del shadow[(k, uid)]
        if step % 500 == 0:
            tree.audit()
    tree.audit()
    assert collect_range(tree, 0, 2000) == sorted(shadow)
    # spot-check random sub-ranges against the shadow
    for _ in range(50):
        lo = rng.randrange(2000)
        hi = rng.randrange(lo, 2000)
        expected = sorted(kv for kv in shadow if lo <= kv[0] <= hi)
        assert collect_range(tree, lo, hi) == expected


def test_range_scan_empty_range_touches_a_leaf():
    tree = BPlusTree()
    for k in range(10):
        put(tree, k)
    tree.buffer.clear()
    assert collect_range(tree, 100, 200) == []
    assert tree.buffer.counters().leaf_reads == 1


def test_scan_intervals_equals_separate_scans():
    rng = random.Random(3)
    tree = BPlusTree(page_size=512)
    keys = rng.sample(range(5000), 800)
    for k in keys:
        put(tree, k)
    intervals = [(0, 100), (340, 342), (350, 900), (2000, 4999)]
    got = []
    tree.scan_intervals(intervals, records_into(got))
    expected = [kv for lo, hi in intervals for kv in collect_range(tree, lo, hi)]
    assert [(e.key, e.uid) for e in got] == expected


def reference_scan_intervals(self, intervals, visit):
    """The interval-by-interval cursor loop as it stood before intervals were bisected, kept as a reference.

    Scan a sorted list of disjoint key intervals with a leaf cursor.  A
    ``visit`` that returns true ends its interval at its entry, and the
    scan goes on with the next interval from the leaf it holds.

    Re-descends only when the next interval starts beyond the current
    leaf, mirroring one locate-then-walk pass per search range.
    """
    leaf, entries = None, []  # leaf.entries, built once per leaf read
    for lo, hi in intervals:
        lo_c = (lo, -1)
        if not entries or entries[-1] < lo_c:
            _, leaf = self._descend(lo_c)
            entries = leaf.entries
        i = bisect_left(entries, lo_c)
        while True:
            while i < len(entries) and entries[i].key <= hi:
                if visit(entries[i]):
                    break
                i += 1
            else:
                if i == len(entries) and leaf.next_leaf is not None:
                    leaf = self.touch_page(leaf.next_leaf)
                    entries = leaf.entries
                    i = 0
                    continue
            break


def _random_intervals(rng, span):
    bounds = sorted(rng.sample(range(span), 2 * rng.randint(1, 12)))
    return list(zip(bounds[::2], bounds[1::2]))


def ending_at(every, out):
    """Visitors that take records in key order into ``out`` and end an interval at its first key divisible by ``every``.

    The first takes the cursor's leaf slices, the second the reference's
    entries; ``every=None`` ends no interval early.
    """

    def visit_slice(leaf, i, j):
        for r in range(i, j):
            out.extend(leaf.records(r, r + 1))
            if every and leaf.keys[r] % every == 0:
                return True
        return False

    def visit_entry(entry):
        out.append(entry)
        return bool(every) and entry.key % every == 0

    return visit_slice, visit_entry


@pytest.mark.parametrize(
    "buffer_pages, every",
    [(pages, every) for every in (None, 7) for pages in (3, 4, 5, 6)],
    ids=[f"{pages}{'-ends-at-7' if every else ''}" for every in (None, 7) for pages in (3, 4, 5, 6)],
)
def test_scan_intervals_charges_like_the_per_interval_loop(buffer_pages, every):
    # with every=7, most intervals end at a key of theirs before their own
    # end, and the next interval starts from the leaf the cursor holds, the
    # same leaf or one that lies before it
    rng = random.Random(buffer_pages)
    keys = random.Random(8).sample(range(20_000), 600)
    trees = []
    for _ in range(2):
        tree = BPlusTree(page_size=256, buffer_pages=buffer_pages)
        for k in keys:
            put(tree, k, k % 3)
        trees.append(tree)
    cursor, reference = trees
    assert cursor.height >= 3
    base = 1000
    cut = 0  # scans that left a record of their intervals unvisited
    for _ in range(300):
        intervals = _random_intervals(rng, 19_000)
        got, want = [], []
        visit_slice, _ = ending_at(every, got)
        _, visit_entry = ending_at(every, want)
        cursor.scan_intervals(intervals, visit_slice, base)
        reference_scan_intervals(reference, [(base + lo, base + hi) for lo, hi in intervals], visit_entry)
        assert got == want
        assert cursor.buffer.counters() == reference.buffer.counters()
        assert list(cursor.buffer._lru) == list(reference.buffer._lru)
        cut += len(got) < sum(base + lo <= k <= base + hi for k in keys for lo, hi in intervals)
    assert bool(cut) == bool(every)


def hand_built_tree(leaves=([1, 3, 5, 7], [10, 12, 14, 16], [20, 22, 24, 26], [30, 32, 34, 36])):
    """Root page 0 over one 4-record-capacity leaf per key list, pages 1, 2, ..., each fenced by its first key.

    By default four full leaves, pages 1-4, holding keys 1-7 (odd), 10-16,
    20-26 and 30-36 (even).
    """
    tree = BPlusTree(page_size=256)
    root = Node(0, leaf=False)
    root.keys = [(keys[0], 0) for keys in leaves[1:]]
    root.children = list(range(1, len(leaves) + 1))
    tree.pages = {0: root}
    for pid, keys in enumerate(leaves, 1):
        leaf = tree.pages[pid] = Node(pid, leaf=True)
        for k in keys:
            leaf.keys.append(k)
            leaf.uids.append(0)
            leaf.recs.append(entry(k)[2:])
        leaf.next_leaf = pid + 1 if pid < len(leaves) else None
    tree.root_id, tree._next_page, tree.height = 0, len(leaves) + 1, 2
    tree.leaf_count, tree.entry_count = len(leaves), sum(map(len, leaves))
    tree.buffer.clear()
    tree.audit()
    return tree


def test_scan_intervals_charges_its_seeks_and_walked_leaves():
    tree = hand_built_tree()
    got = []
    tree.scan_intervals([(2, 3), (5, 11), (13, 13), (16, 17), (33, 40)], lambda leaf, i, j: got.extend(leaf.keys[i:j]))
    assert got == [3, 5, 7, 10, 16, 34, 36]
    # seek leaf 1 for (2, 3); walk on to leaf 2 for (5, 11); (13, 13) and
    # (16, 17) bisect leaf 2, and 16 ends it, so the walk reads leaf 3 to
    # find 17's end; (33, 40) starts past leaf 3 and seeks leaf 4 anew
    assert tree.buffer.counters() == IoCounters(reads=6, misses=5, leaf_reads=4, leaf_misses=4)
    assert list(tree.buffer._lru) == [1, 2, 3, 0, 4]


def test_scan_intervals_offsets_intervals_by_base():
    tree = hand_built_tree()
    got = []
    tree.scan_intervals([(0, 2), (4, 10)], lambda leaf, i, j: got.extend(leaf.keys[i:j]), base=20)
    assert got == [20, 22, 24, 26, 30]


def test_scan_intervals_stops_when_visit_returns_true():
    def visit(leaf, i, j):
        got.extend(leaf.keys[i:j])
        return 7 in leaf.keys[i:j]  # the last entry of the first leaf

    for intervals, keys, reads, lru in (
        # the root and leaf 1; leaf 2 is never read
        ([(0, 100)], [1, 3, 5, 7], 2, [0, 1]),
        # the first interval ends on leaf 1 before it reaches 10, and the scan
        # goes on with the next: 13 lies beyond leaf 1, so it seeks leaf 2
        # and walks on to leaf 3 for 20 and 22
        ([(0, 11), (13, 22)], [1, 3, 5, 7, 14, 16, 20, 22], 5, [1, 0, 2, 3]),
    ):
        tree = hand_built_tree()
        got = []
        tree.scan_intervals(intervals, visit)
        assert got == keys
        assert tree.buffer.counters().reads == reads
        assert list(tree.buffer._lru) == lru


def test_stats_leaf_count_bounds():
    tree = BPlusTree()
    n = 5000
    for k in range(n):
        put(tree, k)
    stats = tree.stats()
    fanout = tree.leaf_cap
    assert -(-n // fanout) <= stats.leaf_count <= -(-2 * n // fanout)
    assert stats.entry_count == n


def test_buffer_repeat_query_costs_zero_when_tree_fits():
    tree = BPlusTree(page_size=1024, buffer_pages=500)
    for k in range(2000):
        put(tree, k)
    assert tree.stats().page_count <= 500
    tree.buffer.clear()
    collect_range(tree, 100, 1900)
    first = tree.buffer.counters().misses
    assert first > 0
    collect_range(tree, 100, 1900)
    assert tree.buffer.counters().misses == first  # second run fully buffered


def test_io_determinism():
    def run():
        tree = BPlusTree(page_size=1024, buffer_pages=10)
        rng = random.Random(11)
        for _ in range(800):
            k = rng.randrange(10_000)
            uid = rng.randrange(3)
            try:
                put(tree, k, uid)
            except ValueError:
                pass
        tree.buffer.clear()
        for lo in range(0, 10_000, 500):
            collect_range(tree, lo, lo + 400)
        return tree.buffer.counters()

    assert run() == run()


def test_scan_finds_every_uid_of_a_key_whatever_its_sign():
    # a leaf bisects its key column and a seek probes (key,), which sorts
    # before every fence (key, uid), so no uid of a key is passed over; a
    # probe (key, -1) once skipped the uids below -1
    tree = BPlusTree()
    put(tree, 10, -5)
    put(tree, 10, 3)
    assert collect_range(tree, 10, 10) == [(10, -5), (10, 3)]
    tree = BPlusTree(page_size=256)  # 4 records a leaf: the run of key 10 crosses leaves
    for uid in range(-40, 8):
        put(tree, 10, uid)
    put(tree, 9, 0)
    put(tree, 11, 0)
    tree.audit()
    assert tree.height >= 2
    assert collect_range(tree, 10, 10) == [(10, uid) for uid in range(-40, 8)]
    assert collect_range(tree, 9, 11) == [(9, 0)] + [(10, uid) for uid in range(-40, 8)] + [(11, 0)]


def test_a_uid_the_column_cannot_hold_leaves_the_tree_unchanged():
    tree = BPlusTree(page_size=256)
    for k in range(6):
        put(tree, k, 1)
    before = collect_range(tree, 0, 10)
    for uid in (2**63, -(2**63) - 1):
        with pytest.raises(OverflowError):
            put(tree, 3, uid)
    with pytest.raises(TypeError):
        tree.insert(3, 1.5, entry(3)[2:])
    tree.audit()
    assert collect_range(tree, 0, 10) == before and tree.entry_count == 6


@pytest.mark.parametrize(
    "corrupt, fault",
    [
        (lambda tree: [col.reverse() for col in tree.pages[2].columns()], "leaf chain not sorted"),
        (lambda tree: [col.pop() for col in tree.pages[2].columns()], "entry count drift"),
        # one record gone from inside a leaf, the entry count left as it was
        (lambda tree: [col.pop(1) for col in tree.pages[3].columns()], "entry count drift"),
        (lambda tree: setattr(tree, "entry_count", 15), "entry count drift"),
        (lambda tree: tree._alloc(leaf=True), "pages outside the tree"),
        (lambda tree: setattr(tree, "_next_page", 1), "page id past the allocation counter"),
        (lambda tree: setattr(tree.pages[4], "next_leaf", 1), "leaf chain disagrees"),
        (lambda tree: tree.pages[2].uids.pop(), "leaf columns of different lengths"),
        (lambda tree: tree.pages[2].keys.__setitem__(1, 10), "duplicate composite keys"),
    ],
    ids=["reversed", "record-popped", "record-popped-inside", "count-lowered", "orphan-leaf", "next-page-1", "chain-cycle", "uids-short", "duplicate"],
)
def test_audit_names_the_fault_of_a_corrupted_tree(corrupt, fault):
    # perfbench's index check counts every uid as faulty when the audit raises
    tree = hand_built_tree()
    tree.audit()
    corrupt(tree)
    with pytest.raises(AssertionError, match=fault):
        tree.audit()


def _intervals_from_steps(steps):
    """Sorted disjoint intervals from (gap, length) steps: each starts ``gap`` past the last one's end."""
    out, hi = [], -1
    for gap, length in steps:
        lo = hi + 1 + gap
        hi = lo + length
        out.append((lo, hi))
    return out


# inserts and deletes over 13 keys and 21 uids a key: runs of equal keys span several 4-record leaves
LEAF_OPS = st.lists(st.tuples(st.booleans(), st.integers(0, 12), st.integers(0, 20)), max_size=160)
INTERVAL_SETS = st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=5).map(_intervals_from_steps),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(
    page_size=st.sampled_from([256, 320, 512]),
    buffer_pages=st.integers(3, 6),
    ops=LEAF_OPS,
    interval_sets=INTERVAL_SETS,
    base=st.sampled_from([0, 2]),
    every=st.sampled_from([None, 3]),
)
@example(  # fill two runs of 21 equal keys, then drain the first: splits, borrows and merges cut the runs
    page_size=256,
    buffer_pages=3,
    ops=[(True, k, uid) for k in (4, 5) for uid in range(21)] + [(False, 0, 0)] * 21,
    interval_sets=[[(2, 2)], [(0, 2), (3, 3)], [(3, 9)]],
    base=2,
    every=None,
)
def test_columnar_leaves_through_churn_scan_like_the_reference(page_size, buffer_pages, ops, interval_sets, base, every):
    # two trees take the same inserts and deletes; the leaf cursor scans one
    # slice by slice, the per-entry reference loop the other, and both read
    # the same records through the same pages in the same order.  With
    # every=3 an interval ends at its first record whose key is a multiple
    # of 3, whose run of equal keys may go on to the next leaf
    cursor = BPlusTree(page_size=page_size, buffer_pages=buffer_pages)
    reference = BPlusTree(page_size=page_size, buffer_pages=buffer_pages)
    shadow: set[tuple[int, int]] = set()
    for step, (insert, key, uid) in enumerate(ops):
        if insert and (key, uid) not in shadow:
            for tree in (cursor, reference):
                put(tree, key, uid)
            shadow.add((key, uid))
        elif not insert and shadow:
            # a delete takes the uid-th smallest record, wrapping around
            key, uid = sorted(shadow)[uid % len(shadow)]
            for tree in (cursor, reference):
                tree.delete(key, uid)
            shadow.remove((key, uid))
        cursor.audit()
        if step % 20 == 19 or step == len(ops) - 1:
            for intervals in interval_sets:
                got, want = [], []
                visit_slice, _ = ending_at(every, got)
                _, visit_entry = ending_at(every, want)
                cursor.scan_intervals(intervals, visit_slice, base)
                reference_scan_intervals(reference, [(base + lo, base + hi) for lo, hi in intervals], visit_entry)
                assert got == want
                if every is None:
                    assert [(e.key, e.uid) for e in got] == sorted(
                        kv for kv in shadow if any(base + lo <= kv[0] <= base + hi for lo, hi in intervals)
                    )
                assert cursor.buffer.counters() == reference.buffer.counters()
                assert list(cursor.buffer._lru) == list(reference.buffer._lru)
    assert cursor.stats() == reference.stats()


def test_a_held_leaf_skips_the_seek_into_itself():
    tree = hand_built_tree()
    got = []

    def visit(leaf, i, j):
        got.extend(leaf.keys[i:j])

    # (2, 5) seeks leaf 1; 7 lies on the held leaf, so (7, 10) bisects it and
    # walks on to leaf 2 without a seek; 31 lies beyond the leaf it then
    # holds, so (31, 34) seeks leaf 4 from the root
    tree.scan_intervals([(2, 5), (7, 10), (31, 34)], visit)
    assert got == [3, 5, 7, 10, 32, 34]
    assert tree.buffer.counters() == IoCounters(reads=5, misses=4, leaf_reads=3, leaf_misses=3)
    assert list(tree.buffer._lru) == [1, 2, 0, 4]
    # with no interval, the scan reads nothing
    tree.buffer.clear()
    tree.scan_intervals([], visit)
    assert tree.buffer.counters().reads == 0


def eager_rebalance(self, node, path):
    """``BPlusTree._rebalance`` as it stood when it read both siblings before it decided anything, kept as a reference."""
    while True:
        if node.page_id == self.root_id:
            if not node.leaf and len(node.children) == 1:
                self.root_id = node.children[0]
                self._free(node)
                self.height -= 1
            return
        half = (self.leaf_cap if node.leaf else self.internal_cap) // 2
        if store._fill(node) >= half:
            return
        parent, idx = path.pop()
        left = self.touch_page(parent.children[idx - 1]) if idx > 0 else None
        right = self.touch_page(parent.children[idx + 1]) if idx + 1 < len(parent.children) else None
        if left is not None and store._fill(left) > half:
            store._borrow(parent, idx - 1, left, node, to_right=True)
            return
        if right is not None and store._fill(right) > half:
            store._borrow(parent, idx, node, right, to_right=False)
            return
        if left is not None:
            self._merge(parent, idx - 1, left, node)
        else:
            self._merge(parent, idx, node, right)
        node = parent


def pages_of(tree):
    """Every page of ``tree`` by id: a leaf's columns and chain link, an internal page's fences and children."""
    return tree.root_id, tree.height, {
        pid: (list(node.keys), list(node.uids), list(node.recs), node.next_leaf)
        if node.leaf
        else (list(node.keys), list(node.children))
        for pid, node in tree.pages.items()
    }


@pytest.mark.parametrize(
    "leaves, gone, reads, lru, after",
    [
        # the left sibling lends its last record; the right one is not read
        (([1, 3, 5], [10, 12], [20, 22, 24]), 12, IoCounters(3, 3, 2, 2), [0, 2, 1], [[1, 3], [5, 10], [20, 22, 24]]),
        # the left one has none to spare, so the right one is read and lends its first
        (([1, 3], [10, 12], [20, 22, 24]), 12, IoCounters(4, 4, 3, 3), [0, 2, 1, 3], [[1, 3], [10, 20], [22, 24]]),
        # a leftmost leaf has only a right sibling
        (([1, 3], [10, 12, 14], [20, 22]), 3, IoCounters(3, 3, 2, 2), [0, 1, 2], [[1, 10], [12, 14], [20, 22]]),
        # neither sibling can lend: both are read, and page 2 merges into the left one and leaves the buffer
        (([1, 3], [10, 12], [20, 22]), 12, IoCounters(4, 4, 3, 3), [0, 1, 3], [[1, 3, 10], [20, 22]]),
    ],
    ids=["left-lends", "right-lends", "leftmost", "merge-left"],
)
def test_an_underflow_reads_the_right_sibling_only_when_the_left_cannot_lend(leaves, gone, reads, lru, after):
    tree = hand_built_tree(leaves)
    tree.delete(gone, 0)
    tree.audit()
    assert tree.buffer.counters() == reads
    assert list(tree.buffer._lru) == lru
    leaf, chain = tree.pages[tree.pages[tree.root_id].children[0]], []
    while leaf is not None:
        chain.append(leaf.keys)
        leaf = tree.pages.get(leaf.next_leaf)
    assert chain == after


def test_a_right_sibling_left_unread_can_miss_later():
    # LRU is a stack algorithm over one reference string, but dropping a
    # reference changes the string: a right sibling the eager rebalance read
    # as a hit stays recent, and the lazy one can evict it before its next read
    trees = []
    for rebalance in (None, eager_rebalance):
        tree = hand_built_tree(([1, 3, 5], [10, 12], [20, 22], [30, 32]))
        if rebalance:
            tree._rebalance = rebalance.__get__(tree)
        tree.buffer.capacity = 4
        collect_range(tree, 21, 21)  # the root and leaf 3
        tree.delete(12, 0)  # leaf 1 lends to leaf 2; the eager rebalance reads leaf 3 as well
        collect_range(tree, 31, 31)  # leaf 4 evicts leaf 3 from the lazy buffer, leaf 2 from the eager one
        collect_range(tree, 21, 21)
        trees.append(tree)
    lazy, eager = trees
    assert pages_of(lazy) == pages_of(eager)
    assert lazy.buffer.counters() == IoCounters(reads=9, misses=6, leaf_reads=5, leaf_misses=5)
    assert eager.buffer.counters() == IoCounters(reads=10, misses=5, leaf_reads=6, leaf_misses=4)


# inserts and deletes over 400 keys and 4 uids a key, so 4-record leaves and 16-child internal pages split and merge
CHURN_OPS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 399), st.integers(0, 3)), min_size=100, max_size=400)


@settings(max_examples=80, deadline=None)
@given(buffer_pages=st.sampled_from([3, 8, 1000]), ops=CHURN_OPS)
def test_rebalance_builds_the_eager_trees_and_reads_no_more_pages(buffer_pages, ops):
    # two trees take the same inserts and deletes, one rebalancing as it did
    # when it read both siblings of an underflowing page first.  Every page
    # stays the same, and the pages read are the eager ones less some right
    # siblings.  With a buffer that holds the whole tree no page is evicted,
    # so a miss is a first read and the misses cannot rise either; a small
    # buffer may evict a right sibling the eager read kept recent, and then
    # a later read of it misses (the bx update misses of the golden uniform
    # configuration's second round rose by two; see the test above)
    lazy = BPlusTree(page_size=256, buffer_pages=buffer_pages)
    eager = BPlusTree(page_size=256, buffer_pages=buffer_pages)
    eager._rebalance = eager_rebalance.__get__(eager)
    shadow: set[tuple[int, int]] = set()
    for op, key, uid in ops:
        if op and (key, uid) not in shadow:  # two inserts in three, so the tree grows
            for tree in (lazy, eager):
                put(tree, key, uid)
            shadow.add((key, uid))
        elif not op and shadow:
            key, uid = sorted(shadow)[(key * 4 + uid) % len(shadow)]
            for tree in (lazy, eager):
                tree.delete(key, uid)
            shadow.remove((key, uid))
        assert pages_of(lazy) == pages_of(eager)
        got, want = lazy.buffer.counters(), eager.buffer.counters()
        assert got.reads <= want.reads and got.leaf_reads <= want.leaf_reads
        if buffer_pages >= eager._next_page:  # every page ever allocated fits, so none was evicted
            assert got.misses <= want.misses
    lazy.audit()
    assert collect_range(lazy, 0, 400) == sorted(shadow)


# -- moving-object index ------------------------------------------------------


def build_index(kind="bx", buffer_pages=50):
    time_cfg = TimePartitionConfig(120.0, 2)
    grid = GridConfig(L=1000.0, levels=10)
    layout = KeyLayout.for_index(time_cfg, grid, max_sv=100.0)
    sv_map = None
    if kind == "peb":
        from pebtree.keys import SequenceValueMap

        sv_map = SequenceValueMap({uid: 2.0 + 0.01 * uid for uid in range(200)}, (0,))
    return MovingObjectIndex(time_cfg, grid, layout, sv_map=sv_map, buffer_pages=buffer_pages)


@pytest.mark.parametrize(
    "grid, layout, fault",
    [
        (
            GridConfig(levels=5),
            KeyLayout.for_index(TimePartitionConfig(), GridConfig(levels=10), max_sv=100.0),
            "key layout has 20 z-value bits, grid 10",
        ),
        (
            GridConfig(levels=10),
            replace(KeyLayout.for_index(TimePartitionConfig(), GridConfig(levels=10), max_sv=100.0), tid_bits=1),
            "1-bit partition field cannot hold 3 partitions",
        ),
    ],
    ids=["zv-bits", "tid-bits"],
)
def test_index_refuses_a_key_layout_that_does_not_fit_its_grid_or_partitions(grid, layout, fault):
    with pytest.raises(ValueError, match=fault):
        MovingObjectIndex(TimePartitionConfig(), grid, layout)


def test_index_insert_update_delete_cycle():
    index = build_index()
    obj = MovingObject(5, 100.0, 200.0, 1.0, -1.0, 0.0)
    index.insert(obj)
    assert index.contains(5)
    assert index.live_partitions() == [(0, 60.0)]
    # same state re-reported under the same label keeps the entry count
    index.update(obj)
    assert index.entry_count == 1
    assert index.live_partitions() == [(0, 60.0)]
    # moving to a later time shifts the partition
    index.update(replace(obj, t_u=30.0))
    assert index.live_partitions() == [(1, 120.0)]
    index.delete(5)
    assert not index.contains(5)
    assert index.live_partitions() == []


def test_refused_update_leaves_index_unchanged():
    index = build_index()
    index.insert(MovingObject(1, 10.0, 10.0, 0.0, 0.0, 0.0))
    index.insert(MovingObject(2, 20.0, 20.0, 0.0, 0.0, 0.0))
    index.update(MovingObject(2, 20.0, 20.0, 0.0, 0.0, 60.0))
    assert index.live_partitions() == [(0, 60.0), (1, 120.0)]
    count = index.entry_count
    # label 240 recycles partition 0, which uid 1 still holds under label 60
    with pytest.raises(ValueError):
        index.update(MovingObject(2, 20.0, 20.0, 0.0, 0.0, 130.0))
    assert index.contains(2)
    assert index.entry_count == count
    assert index.live_partitions() == [(0, 60.0), (1, 120.0)]
    index.tree.audit()
    # uid 1 is partition 0's only entry: its own update may relabel it
    index.update(MovingObject(1, 10.0, 10.0, 0.0, 0.0, 130.0))
    index.update(MovingObject(2, 20.0, 20.0, 0.0, 0.0, 130.0))
    assert index.live_partitions() == [(0, 240.0)]
    assert index.entry_count == count
    index.tree.audit()


def partition_of(index, uid):
    """The partition field of ``uid``'s key, through ``keys_of``; None when it is not indexed."""
    (key,) = index.keys_of([uid])
    shift = index.layout.zv_bits + (index.layout.sv_bits if index.kind == "peb" else 0)
    return None if key is None else key >> shift


@pytest.mark.xfail(strict=True, raises=ValueError, reason="a partition's expired entries are never purged")
def test_recycled_partition_expires_entries_older_than_the_update_interval():
    # uid 1 last reported at t = 0, so by t = 130 its label-60 entry is older
    # than delta_t_mu = 120 and must not block label 240 from partition 0
    index = build_index("peb")
    index.insert(MovingObject(1, 10.0, 10.0, 0.0, 0.0, 0.0))
    index.insert(MovingObject(2, 20.0, 20.0, 0.0, 0.0, 0.0))
    index.update(MovingObject(2, 20.0, 20.0, 0.0, 0.0, 60.0))
    index.update(MovingObject(2, 20.0, 20.0, 0.0, 0.0, 130.0))
    assert partition_of(index, 2) == 0


def test_keys_of_follows_the_entry():
    index = build_index("peb")
    assert partition_of(index, 5) is None
    obj = MovingObject(5, 100.0, 200.0, 1.0, -1.0, 0.0)
    index.insert(obj)
    assert partition_of(index, 5) == 0
    index.update(replace(obj, t_u=30.0))
    assert partition_of(index, 5) == 1
    key = index.key_for(replace(obj, t_u=30.0))[0]
    assert index.keys_of([5, 6, 5]) == [key, None, key]
    index.update(replace(obj, t_u=70.0))
    assert partition_of(index, 5) == 2
    index.delete(5)
    assert partition_of(index, 5) is None
    assert index.keys_of([]) == []


CHURN_OPS = st.lists(
    st.tuples(
        st.sampled_from(["report", "delete"]),
        st.integers(0, 11),  # uid
        st.integers(0, 170),  # t_u: labels 60 to 240, every partition and one recycled
        st.floats(0.0, 1000.0),
        st.floats(0.0, 1000.0),
    ),
    max_size=40,
)


@pytest.mark.parametrize("kind", ["bx", "peb"])
@settings(max_examples=60, deadline=None)
@given(ops=CHURN_OPS)
@example(  # uid 1 moves through partitions 0, 1 and 2, then uid 2 leaves
    ops=[
        ("report", 1, 0, 5.0, 5.0),
        ("report", 2, 0, 9.0, 9.0),
        ("report", 1, 30, 5.0, 5.0),
        ("report", 1, 70, 5.0, 5.0),
        ("delete", 2, 0, 0.0, 0.0),
    ]
)
def test_keys_carry_the_partition_and_sequence_value_through_churn(kind, ops):
    # what the peb queries rely on: the prefix key >> zv_bits of an indexed
    # object's key names its partition and, on a peb index, its quantized
    # sequence value, and keys_of reads exactly the keys in the leaves
    index = build_index(kind)
    layout = index.layout
    step, partitions = index.time_cfg.grid_step, index.time_cfg.num_partitions
    uids = range(13)  # uid 12 is never reported
    reported: dict[int, int] = {}  # uid -> t_u of its indexed report
    for op, uid, t_u, x, y in ops:
        try:
            if op == "delete":
                if uid in reported:
                    index.delete(uid)
                    del reported[uid]
            elif uid in reported:
                index.update(MovingObject(uid, x, y, 1.0, -1.0, float(t_u)))
                reported[uid] = t_u
            else:
                index.insert(MovingObject(uid, x, y, 1.0, -1.0, float(t_u)))
                reported[uid] = t_u
        except ValueError as exc:
            assert "still holds entries" in str(exc)  # a refused report leaves the index as it was
        walked = {e.uid: e.key for e in all_entries(index.tree)}
        assert walked.keys() == reported.keys()
        assert index.keys_of(uids) == [walked.get(uid) for uid in uids]
        for uid, key in walked.items():
            tid = (math.ceil((reported[uid] + step) / step) - 1) % partitions
            if kind == "peb":
                assert key >> layout.zv_bits == tid << layout.sv_bits | layout.quantize_sv(index.sv_map[uid])
            else:
                assert key >> layout.zv_bits == tid


def test_index_rejects_double_insert():
    index = build_index()
    index.insert(MovingObject(1, 0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        index.insert(MovingObject(1, 5.0, 5.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("kind", ["bx", "peb"])
@pytest.mark.parametrize("uid", [-1, -5, 2**63, 2**64])
def test_index_refuses_a_uid_outside_the_stored_range(kind, uid):
    index = build_index(kind)
    obj = MovingObject(5, 100.0, 200.0, 1.0, -1.0, 0.0)
    index.insert(obj)
    state = (all_entries(index.tree), index.live_partitions(), index.max_speeds)
    fault = re.escape(f"uid {uid} is outside [0, 2**63)")
    with pytest.raises(ValueError, match=fault):
        index.insert(replace(obj, uid=uid, vx=7.0))
    with pytest.raises(ValueError, match=fault):
        index.update(replace(obj, uid=uid))
    assert (all_entries(index.tree), index.live_partitions(), index.max_speeds) == state
    index.tree.audit()


def test_index_takes_the_largest_uid():
    index = build_index("bx")
    index.insert(MovingObject(2**63 - 1, 100.0, 200.0, 1.0, -1.0, 0.0))
    index.insert(MovingObject(0, 100.0, 200.0, 1.0, -1.0, 0.0))
    assert [e.uid for e in all_entries(index.tree)] == [0, 2**63 - 1]
    index.update(MovingObject(2**63 - 1, 10.0, 20.0, 1.0, -1.0, 30.0))
    assert index.keys_of([2**63 - 1]) == [index.key_for(MovingObject(2**63 - 1, 10.0, 20.0, 1.0, -1.0, 30.0))[0]]


def test_index_holds_no_gc_tracked_object_per_entry():
    # a leaf is four tracked objects (the page and its three columns) however
    # many records it holds: a motion tuple of floats is untracked by the
    # collector, where a NamedTuple record would stay tracked for good
    index = build_index("bx")
    rng = random.Random(9)
    for uid in range(2000):
        index.insert(MovingObject(uid, rng.uniform(0, 1000), rng.uniform(0, 1000), rng.uniform(-2, 2), 0.5, 0.0))
    for uid in range(0, 2000, 3):
        index.update(MovingObject(uid, rng.uniform(0, 1000), rng.uniform(0, 1000), -0.5, rng.uniform(-2, 2), 30.0))
    gc.collect()
    pages = index.tree.pages
    tracked, seen, todo = 0, set(), [pages]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):  # a page's class is not the page's
            continue
        seen.add(id(obj))
        tracked += gc.is_tracked(obj)
        todo.extend(gc.get_referents(obj))
    assert index.entry_count == 2000 and len(pages) < 60
    assert tracked <= 4 * len(pages) + 1


def test_update_and_delete_of_an_unknown_object_name_it():
    index = build_index()
    index.insert(MovingObject(1, 0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(KeyError, match=r"object 5 is not indexed; use insert\(\)"):
        index.update(MovingObject(5, 0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(KeyError, match=r"object 5 is not indexed; use insert\(\)"):
        index.delete(5)
    assert index.entry_count == 1 and not index.contains(5)


@pytest.mark.parametrize("field", ["x", "y", "vx", "vy", "t_u"])
@pytest.mark.parametrize("kind", ["bx", "peb"])
def test_index_refuses_a_report_field_that_is_not_finite(kind, field):
    index = build_index(kind)
    obj = MovingObject(5, 100.0, 200.0, 1.0, -1.0, 0.0)
    index.insert(obj)
    state = (all_entries(index.tree), index.live_partitions(), index.max_speeds)
    for value in (math.nan, math.inf, -math.inf):
        fault = rf"object {{uid}}: {field} is {value!r}, not a finite number"
        with pytest.raises(ValueError, match=fault.format(uid=5)):
            index.update(replace(obj, **{field: value}))
        with pytest.raises(ValueError, match=fault.format(uid=6)):
            index.insert(replace(obj, uid=6, **{field: value}))
        assert (all_entries(index.tree), index.live_partitions(), index.max_speeds) == state
    assert not index.contains(6)
    index.tree.audit()


@pytest.mark.parametrize("kind", ["bx", "peb"])
def test_index_refuses_a_report_whose_label_is_past_the_largest_float(kind):
    index = build_index(kind)
    with pytest.raises(ValueError, match=r"object 5: t_u is 1\.7976931348623157e\+308, past the last finite label"):
        index.insert(MovingObject(5, 100.0, 200.0, 0.0, 0.0, sys.float_info.max))
    assert index.entry_count == 0 and index.live_partitions() == []


def test_index_tracks_directional_speeds():
    index = build_index()
    index.insert(MovingObject(1, 0.0, 0.0, 2.0, -3.0, 0.0))
    index.insert(MovingObject(2, 0.0, 0.0, -1.0, 0.5, 0.0))
    speeds = index.max_speeds
    assert (speeds.pos_x, speeds.neg_x, speeds.pos_y, speeds.neg_y) == (2.0, 1.0, 0.5, 3.0)


def test_speed_maxima_equal_the_fold_of_every_velocity():
    index = build_index()
    rng = random.Random(6)
    speeds = [0.0, 0.0, 0.0, 0.0]
    for step in range(600):
        uid = rng.randrange(150)
        vx, vy = (rng.choice((0.0, -0.0, rng.uniform(-3, 3), rng.uniform(-0.5, 0.5))) for _ in range(2))
        obj = MovingObject(uid, rng.uniform(0, 1000), rng.uniform(0, 1000), vx, vy, 30.0 * (step // 150))
        if index.contains(uid):
            index.update(obj)
        else:
            index.insert(obj)
        # the fold DirectionalSpeeds.absorb once computed on every report
        speeds = [max(speeds[0], vx), max(speeds[1], -vx), max(speeds[2], vy), max(speeds[3], -vy)]
        assert [m.hex() for m in index.max_speeds] == [m.hex() for m in speeds]


def test_index_key_uses_projected_clamped_position():
    index = build_index()
    # fast object near the boundary projects outside; the key must clamp
    obj = MovingObject(9, 999.0, 999.0, 3.0, 3.0, 0.0)
    key, tid, label = index.key_for(obj)
    assert label == 60.0 and tid == 0
    assert key <= index.layout.bx_key(tid, (1 << index.grid.zv_bits) - 1)


def all_entries(tree):
    out = []
    tree.scan_intervals([(0, 1 << 62)], records_into(out))
    return out
