import gc
import math
import random
import re
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import replace
from operator import itemgetter

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


def reference_scan_intervals(self, intervals, visit, leaf=None):
    """The interval-by-interval cursor loop as it stood before intervals were bisected, kept as a reference.

    Scan a sorted list of disjoint key intervals with a leaf cursor, from
    ``leaf`` when one is given, and return the leaf held at the end.  A
    ``visit`` that returns true ends the scan at its entry.

    Re-descends only when the next interval starts beyond the current
    leaf, mirroring one locate-then-walk pass per search range.
    """
    entries = [] if leaf is None else leaf.entries  # leaf.entries, built once per leaf read
    for lo, hi in intervals:
        lo_c = (lo, -1)
        if leaf is None or not entries or entries[-1] < lo_c:
            _, leaf = self._descend(lo_c)
            entries = leaf.entries
        i = bisect_left(entries, lo_c)
        while True:
            while i < len(entries):
                if entries[i].key > hi:
                    break
                if visit(entries[i]):
                    return leaf
                i += 1
            else:
                if leaf.next_leaf is not None:
                    leaf = self.touch_page(leaf.next_leaf)
                    entries = leaf.entries
                    i = 0
                    continue
            break
    return leaf


def _random_intervals(rng, span):
    bounds = sorted(rng.sample(range(span), 2 * rng.randint(1, 12)))
    return list(zip(bounds[::2], bounds[1::2]))


@pytest.mark.parametrize("buffer_pages", [3, 4, 5, 6])
def test_scan_intervals_charges_like_the_per_interval_loop(buffer_pages):
    rng = random.Random(buffer_pages)
    trees = []
    for _ in range(2):
        tree = BPlusTree(page_size=256, buffer_pages=buffer_pages)
        for k in random.Random(8).sample(range(20_000), 600):
            put(tree, k, k % 3)
        trees.append(tree)
    cursor, reference = trees
    assert cursor.height >= 3
    base = 1000
    for _ in range(300):
        intervals = _random_intervals(rng, 19_000)
        got, want = [], []
        cursor.scan_intervals(intervals, records_into(got), base)
        reference_scan_intervals(reference, [(base + lo, base + hi) for lo, hi in intervals], want.append)
        assert got == want
        assert cursor.buffer.counters() == reference.buffer.counters()
        assert list(cursor.buffer._lru) == list(reference.buffer._lru)


def hand_built_tree():
    """Root page 0 over four full 4-record leaves, pages 1-4, holding keys 1-7 (odd), 10-16, 20-26 and 30-36 (even)."""
    tree = BPlusTree(page_size=256)
    root = Node(0, leaf=False)
    root.keys = [(10, 0), (20, 0), (30, 0)]
    root.children = [1, 2, 3, 4]
    tree.pages = {0: root}
    for pid, keys in enumerate([[1, 3, 5, 7], [10, 12, 14, 16], [20, 22, 24, 26], [30, 32, 34, 36]], 1):
        leaf = tree.pages[pid] = Node(pid, leaf=True)
        for k in keys:
            leaf.keys.append(k)
            leaf.uids.append(0)
            leaf.recs.append(entry(k)[2:])
        leaf.next_leaf = pid + 1 if pid < 4 else None
    tree.root_id, tree._next_page, tree.height, tree.leaf_count, tree.entry_count = 0, 5, 2, 4, 16
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
    tree = hand_built_tree()
    got = []

    def visit(leaf, i, j):
        got.extend(leaf.keys[i:j])
        return 7 in leaf.keys[i:j]  # the last entry of the first leaf

    tree.scan_intervals([(0, 100)], visit)
    assert got == [1, 3, 5, 7]
    assert tree.buffer.counters().reads == 2  # the root and leaf 1; leaf 2 is never read
    assert list(tree.buffer._lru) == [0, 1]


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
)
@example(  # fill two runs of 21 equal keys, then drain the first: splits, borrows and merges cut the runs
    page_size=256,
    buffer_pages=3,
    ops=[(True, k, uid) for k in (4, 5) for uid in range(21)] + [(False, 0, 0)] * 21,
    interval_sets=[[(2, 2)], [(0, 2), (3, 3)], [(3, 9)]],
    base=2,
)
def test_columnar_leaves_through_churn_scan_like_the_reference(page_size, buffer_pages, ops, interval_sets, base):
    # two trees take the same inserts and deletes; the leaf cursor scans one
    # slice by slice, the per-entry reference loop the other, and both read
    # the same records through the same pages in the same order
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
                cursor.scan_intervals(intervals, records_into(got), base)
                reference_scan_intervals(reference, [(base + lo, base + hi) for lo, hi in intervals], want.append)
                assert got == want
                assert [(e.key, e.uid) for e in got] == sorted(
                    kv for kv in shadow if any(base + lo <= kv[0] <= base + hi for lo, hi in intervals)
                )
                assert cursor.buffer.counters() == reference.buffer.counters()
                assert list(cursor.buffer._lru) == list(reference.buffer._lru)
    assert cursor.stats() == reference.stats()


def _prefix_scans(tree, prefixes, hold):
    """Scan each ``(base, intervals, stop)`` in turn from a cold buffer; return the slices visited and the counters.

    A prefix's scan ends once it has been handed ``stop`` records, as the
    engine's ends at its prefix's last owner.  With ``hold`` each scan
    starts from the leaf the previous one returned, else it seeks afresh.
    """
    tree.buffer.clear()
    slices = []
    leaf = None
    for base, intervals, stop in prefixes:
        left = [stop]

        def visit(leaf, i, j):
            slices.append((base, leaf.page_id, i, j))
            left[0] -= j - i
            return left[0] <= 0

        leaf = tree.scan_intervals(intervals, visit, base, leaf if hold else None)
    return slices, tree.buffer.counters()


# a prefix's curve span is 64 keys wide: entries land on 8 prefixes, and
# equal keys repeat over up to 6 uids, so their runs cross leaves; three of
# four steps insert, so 4-record leaves make trees of height 3
PREFIX_OPS = st.lists(
    st.tuples(st.integers(0, 3).map(bool), st.integers(0, 7), st.integers(0, 39), st.integers(0, 5)),
    min_size=60,
    max_size=300,
)
PREFIX_SCANS = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=5).map(_intervals_from_steps),
        st.integers(1, 12),
    ),
    min_size=1,
    max_size=8,
    unique_by=itemgetter(0),
).map(sorted)


@settings(max_examples=80, deadline=None)
@given(page_size=st.sampled_from([256, 320, 512]), ops=PREFIX_OPS, scans=PREFIX_SCANS)
def test_a_held_leaf_scans_ascending_prefixes_like_a_seek_per_prefix(page_size, ops, scans):
    # prefix by prefix, the leaf held from one scan to the next hands visit
    # the slices a seek per prefix does, in the same order, and reads no
    # more pages.  A buffer that holds the tree charges each page's first
    # read: in a tree of height 2 the seeks skipped read only the root and
    # leaves the same scans have just read, so the misses are the same; a
    # deeper seek may also read an inner page the chain walk passed by
    tree = BPlusTree(page_size=page_size, buffer_pages=10_000)
    shadow: set[tuple[int, int]] = set()
    for insert, prefix, offset, uid in ops:
        key = prefix * 64 + offset
        if insert and (key, uid) not in shadow:
            put(tree, key, uid)
            shadow.add((key, uid))
        elif not insert and shadow:
            key, uid = sorted(shadow)[(key * 6 + uid) % len(shadow)]
            tree.delete(key, uid)
            shadow.remove((key, uid))
    tree.audit()
    prefixes = [(prefix * 64, intervals, stop) for prefix, intervals, stop in scans]
    held, held_io = _prefix_scans(tree, prefixes, hold=True)
    fresh, fresh_io = _prefix_scans(tree, prefixes, hold=False)
    assert held == fresh
    assert held_io.reads <= fresh_io.reads
    assert held_io.leaf_reads <= fresh_io.leaf_reads
    if tree.height <= 2:
        assert (held_io.misses, held_io.leaf_misses) == (fresh_io.misses, fresh_io.leaf_misses)
    else:
        assert held_io.leaf_misses == fresh_io.leaf_misses
        assert held_io.misses <= fresh_io.misses


def test_a_held_leaf_skips_the_seek_into_itself():
    tree = hand_built_tree()
    got = []

    def visit(leaf, i, j):
        got.extend(leaf.keys[i:j])

    leaf = tree.scan_intervals([(2, 5)], visit)
    assert leaf.page_id == 1
    # 7 lies on the held leaf, so the next scan bisects it and walks on to
    # leaf 2 without a seek; 31 lies beyond the leaf it then holds, so the
    # third scan seeks leaf 4 from the root
    leaf = tree.scan_intervals([(7, 10)], visit, leaf=leaf)
    assert leaf.page_id == 2
    leaf = tree.scan_intervals([(31, 34)], visit, leaf=leaf)
    assert leaf.page_id == 4
    assert got == [3, 5, 7, 10, 32, 34]
    assert tree.buffer.counters() == IoCounters(reads=5, misses=4, leaf_reads=3, leaf_misses=3)
    assert list(tree.buffer._lru) == [1, 2, 0, 4]
    # with no interval, the scan reads nothing and hands the leaf back
    assert tree.scan_intervals([], visit, leaf=leaf) is leaf
    assert tree.scan_intervals([], visit) is None


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
