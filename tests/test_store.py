import gc
import hashlib
import json
import math
import os
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
from pebtree.store import SNAPSHOT_FORMAT, BPlusTree, IoCounters, LeafEntry, MovingObjectIndex
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

    Scan a sorted list of disjoint key intervals with a leaf cursor.

    Re-descends only when the next interval starts beyond the current
    leaf, mirroring one locate-then-walk pass per search range.
    """
    leaf = None
    entries = []  # leaf.entries, built once per leaf read
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
                visit(entries[i])
                i += 1
            else:
                if leaf.next_leaf is not None:
                    leaf = self.touch_page(leaf.next_leaf)
                    entries = leaf.entries
                    i = 0
                    continue
            break


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
    """Root page 0 over four leaves holding keys 1-7 (odd), 10-16, 20-26 and 30-36 (even)."""

    def page(pid, keys, children=(), next_leaf=None):
        if children:
            return {"id": pid, "leaf": False, "keys": [(k, 0) for k in keys], "children": list(children)}
        return {"id": pid, "leaf": True, "entries": [entry(k) for k in keys], "next_leaf": next_leaf}

    pages = [
        page(0, [10, 20, 30], children=[1, 2, 3, 4]),
        page(1, [1, 3, 5, 7], next_leaf=2),
        page(2, [10, 12, 14, 16], next_leaf=3),
        page(3, [20, 22, 24, 26], next_leaf=4),
        page(4, [30, 32, 34, 36]),
    ]
    tree = BPlusTree.from_snapshot(
        {"page_size": 256, "buffer_pages": 50, "pages": pages, "root": 0, "next_page": 5,
         "height": 2, "leaf_count": 4, "entry_count": 16}
    )
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


def test_speed_maxima_equal_the_fold_of_every_velocity(tmp_path):
    index = build_index()
    rng = random.Random(6)
    speeds = [0.0, 0.0, 0.0, 0.0]
    path = tmp_path / "index.snap"
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
        if step % 200 == 199:
            index.save(path)
            index = MovingObjectIndex.load(path)
            assert [m.hex() for m in index.max_speeds] == [m.hex() for m in speeds]


def test_index_key_uses_projected_clamped_position():
    index = build_index()
    # fast object near the boundary projects outside; the key must clamp
    obj = MovingObject(9, 999.0, 999.0, 3.0, 3.0, 0.0)
    key, tid, label = index.key_for(obj)
    assert label == 60.0 and tid == 0
    assert key <= index.layout.bx_key(tid, index.grid.max_z)


def all_entries(tree):
    out = []
    tree.scan_intervals([(0, 1 << 62)], records_into(out))
    return out


def test_snapshot_round_trip(tmp_path):
    index = build_index()
    rng = random.Random(2)
    for uid in range(150):
        index.insert(
            MovingObject(uid, rng.uniform(0, 1000), rng.uniform(0, 1000), rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0)
        )
    path = tmp_path / "index.snap"
    index.save(path)
    loaded = MovingObjectIndex.load(path)
    assert loaded.stats() == index.stats()
    assert loaded.live_partitions() == index.live_partitions()
    assert loaded.max_speeds == index.max_speeds
    assert all_entries(loaded.tree) == all_entries(index.tree)
    loaded.tree.audit()
    # updates keep working after a reload
    obj = all_entries(loaded.tree)[0]
    loaded.update(MovingObject(obj.uid, obj.x, obj.y, obj.vx, obj.vy, 30.0))
    assert loaded.contains(obj.uid)


def _churned_snapshot_bytes(kind, tmp_path):
    """The saved bytes of a small index of 4-record leaves after inserts, updates and deletes."""
    time_cfg = TimePartitionConfig(120.0, 2)
    grid = GridConfig(L=1000.0, levels=10)
    layout = KeyLayout.for_index(time_cfg, grid, max_sv=100.0)
    sv_map = None
    if kind == "peb":
        from pebtree.keys import SequenceValueMap

        sv_map = SequenceValueMap({uid: 2.0 + 0.01 * (uid % 7) for uid in range(300)}, (0,))
    index = MovingObjectIndex(time_cfg, grid, layout, sv_map=sv_map, page_size=256)
    rng = random.Random(28)

    def report(uid, t_u):
        return MovingObject(uid, rng.uniform(0, 1000), rng.uniform(0, 1000), rng.uniform(-2, 2), rng.uniform(-2, 2), t_u)

    for uid in range(300):
        index.insert(report(uid, 0.0))
    for uid in range(0, 300, 2):
        index.update(report(uid, 30.0))
    for uid in range(1, 300, 3):
        index.delete(uid)
    path = tmp_path / f"{kind}.snap"
    index.save(path)
    return path.read_bytes()


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("bx", "3d4b646011cac8369fe394e2cb41fee1798880bf388c130f5a561fa9b4d9fb53"),
        ("peb", "b52e2c6ae94eaca6a9f58661a73f1e5907d4fa49823fb11c5a23578251f468da"),
    ],
)
def test_snapshot_bytes_are_pinned(tmp_path, kind, digest):
    # format 3 as the list-of-records leaves wrote it: the digests were taken before leaves became columns
    assert hashlib.sha256(_churned_snapshot_bytes(kind, tmp_path)).hexdigest() == digest


def test_snapshot_kind_mismatch(tmp_path):
    index = build_index("peb")
    index.insert(MovingObject(1, 1.0, 1.0, 0.0, 0.0, 0.0))
    path = tmp_path / "peb.snap"
    index.save(path)
    with pytest.raises(ValueError):
        MovingObjectIndex.load(path)  # needs the sequence value map


def _tampered(tmp_path, edit):
    index = build_index()
    rng = random.Random(4)
    for uid in range(150):
        index.insert(MovingObject(uid, rng.uniform(0, 1000), rng.uniform(0, 1000), 0.0, 0.0, 0.0))
    path = tmp_path / "index.snap"
    index.save(path)
    snap = json.loads(path.read_text())
    raw = edit(snap)
    if isinstance(raw, bytes):  # the edit replaces the whole file
        path.write_bytes(raw)
    else:
        path.write_text(json.dumps(snap))
    return path


def _leaf_pages(snap):
    return [p for p in snap["tree"]["pages"] if p["leaf"]]


def _add_an_orphan_leaf(snap):
    """A copy of the first leaf, under fresh uids and a page id no fence reaches."""
    orphan = json.loads(json.dumps(_leaf_pages(snap)[0]))
    orphan["id"] = snap["tree"]["next_page"]
    snap["tree"]["next_page"] += 1
    for e in orphan["entries"]:
        e[1] += 1000
    snap["tree"]["pages"].append(orphan)


def _link_the_last_leaf_to_the_first(snap):
    leaves = _leaf_pages(snap)
    leaves[-1]["next_leaf"] = leaves[0]["id"]


@pytest.mark.parametrize(
    "edit, fault",
    [
        (lambda snap: snap["partition_labels"].clear(), "partition labels"),
        (lambda snap: snap["partition_labels"].update({"1": 120.0}), "partition labels"),
        (lambda snap: _leaf_pages(snap)[0]["entries"].reverse(), "corrupt tree"),
        (lambda snap: _leaf_pages(snap)[1]["entries"].pop(), "corrupt tree"),
        # one entry gone from inside a leaf, the entry count left at 150
        (lambda snap: _leaf_pages(snap)[0]["entries"].pop(5), "corrupt tree"),
        (lambda snap: snap["tree"].update(entry_count=149), "corrupt tree"),
        (_add_an_orphan_leaf, "pages outside the tree"),
        (lambda snap: snap["tree"].update(next_page=1), "page id past the allocation counter"),
        (_link_the_last_leaf_to_the_first, "leaf chain disagrees"),
    ],
)
def test_snapshot_load_rejects_tampering(tmp_path, edit, fault):
    path = _tampered(tmp_path, edit)
    with pytest.raises(ValueError, match=fault):
        MovingObjectIndex.load(path)


def _give_second_entry_the_first_uid(snap):
    leaf = _leaf_pages(snap)[0]
    leaf["entries"][1][1] = leaf["entries"][0][1]


def test_snapshot_load_rejects_two_entries_for_one_uid(tmp_path):
    path = _tampered(tmp_path, _give_second_entry_the_first_uid)
    with pytest.raises(ValueError, match="two entries for uid") as raised:
        MovingObjectIndex.load(path)
    assert str(path) in str(raised.value)


def test_failed_save_keeps_the_last_good_snapshot(tmp_path, monkeypatch):
    path = _tampered(tmp_path, lambda snap: None)
    good = path.read_bytes()
    index = MovingObjectIndex.load(path)
    index.insert(MovingObject(500, 1.0, 1.0, 0.0, 0.0, 0.0))

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        index.save(path)
    assert path.read_bytes() == good
    assert MovingObjectIndex.load(path).entry_count == 150
    assert sorted(tmp_path.iterdir()) == [path]
    monkeypatch.undo()
    index.save(path)
    assert MovingObjectIndex.load(path).entry_count == 151
    assert sorted(tmp_path.iterdir()) == [path]


def test_untampered_snapshot_still_loads(tmp_path):
    loaded = MovingObjectIndex.load(_tampered(tmp_path, lambda snap: None))
    assert loaded.live_partitions() == [(0, 60.0)]
    assert loaded.entry_count == 150


@pytest.mark.parametrize(
    "edit, fault",
    [
        (lambda snap: snap.pop("format"), "format version None"),
        (lambda snap: snap.update(format=2), "format version 2, expected 3"),
        (lambda snap: snap.update(format=99), "format version 99"),
        # cut short mid-write, empty, and not UTF-8
        (lambda snap: b'{"format": 3, "kind": "bx"', "not UTF-8 JSON: Expecting ',' delimiter"),
        (lambda snap: b"", "not UTF-8 JSON: Expecting value"),
        (lambda snap: b"\xff\xfe", "not UTF-8 JSON: 'utf-8' codec can't decode"),
    ],
)
def test_snapshot_load_checks_the_format_version(tmp_path, edit, fault):
    assert MovingObjectIndex.load(_tampered(tmp_path, lambda snap: None)).entry_count == 150
    path = _tampered(tmp_path, edit)
    with pytest.raises(ValueError, match=fault) as raised:
        MovingObjectIndex.load(path)
    assert str(path) in str(raised.value)


@pytest.mark.parametrize(
    "edit, fault",
    [
        (lambda snap: snap["grid"].update(levels=5), "20 z-value bits, grid 10"),
        (lambda snap: snap["layout"].update(tid_bits=1), "1-bit partition field cannot hold 3 partitions"),
        (lambda snap: snap.pop("tree"), "missing field 'tree'"),
        (lambda snap: snap.pop("max_speeds"), "missing field 'max_speeds'"),
        (lambda snap: snap["grid"].pop("L"), "missing field 'L'"),
        (lambda snap: snap["max_speeds"].pop(), "DirectionalSpeeds"),
        (lambda snap: _leaf_pages(snap)[0]["entries"][3].pop(), "LeafEntry"),
        # uids the index refuses: one a scan would pass over, one the uid column cannot hold
        (lambda snap: _leaf_pages(snap)[0]["entries"][0].__setitem__(1, -3), re.escape("uid -3 is outside [0, 2**63)")),
        (lambda snap: _leaf_pages(snap)[0]["entries"][0].__setitem__(1, 2**63), "int too big to convert"),
        (lambda snap: snap["grid"].update(levels="10"), "not supported between"),
        (lambda snap: snap.update(tree=[snap["tree"]]), "list indices"),
        (lambda snap: snap["partition_labels"].update(x=60.0), "invalid literal for int"),
        (lambda snap: snap.update(kind="zz"), "unknown index kind 'zz'"),
    ],
)
def test_snapshot_load_checks_the_key_layout_and_the_fields(tmp_path, edit, fault):
    path = _tampered(tmp_path, edit)
    with pytest.raises(ValueError, match=fault) as raised:
        MovingObjectIndex.load(path)
    assert str(path) in str(raised.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("section, field, name", [("time_cfg", "delta_t_mu", "delta_t_mu"), ("grid", "L", "space side L")])
def test_snapshot_load_refuses_a_length_that_is_not_positive_and_finite(tmp_path, bad, section, field, name):
    # json writes NaN and the infinities as bare NaN / Infinity, and reads them back
    path = _tampered(tmp_path, lambda snap: snap[section].update({field: bad}))
    with pytest.raises(ValueError, match=f"{name} is {bad!r}, not a positive finite number") as raised:
        MovingObjectIndex.load(path)
    assert str(path) in str(raised.value)


# the snapshot's field names per format version: a layout change must bump SNAPSHOT_FORMAT and add its row
SNAPSHOT_FIELDS = {
    2: {
        "header": ["format", "grid", "kind", "layout", "max_speeds", "partition_labels", "time_cfg", "tree"],
        "tree": ["buffer_pages", "entry_count", "height", "leaf_count", "next_page", "page_size", "pages", "root"],
        "leaf page": ["entries", "id", "leaf", "next_leaf"],
        "leaf entry": ["key", "uid", "x", "y", "vx", "vy", "t"],
        "internal page": ["children", "id", "keys", "leaf"],
    },
    3: {  # the grid lost y_low
        "header": ["format", "grid", "kind", "layout", "max_speeds", "partition_labels", "time_cfg", "tree"],
        "grid": ["L", "levels"],
        "time_cfg": ["delta_t_mu", "n"],
        "layout": ["frac_bits", "sv_bits", "tid_bits", "zv_bits"],
        "tree": ["buffer_pages", "entry_count", "height", "leaf_count", "next_page", "page_size", "pages", "root"],
        "leaf page": ["entries", "id", "leaf", "next_leaf"],
        "leaf entry": ["key", "uid", "x", "y", "vx", "vy", "t"],
        "internal page": ["children", "id", "keys", "leaf"],
    },
}


def test_snapshot_field_names_are_pinned_per_format(tmp_path):
    snap = json.loads(_tampered(tmp_path, lambda snap: None).read_text())
    internal = [p for p in snap["tree"]["pages"] if not p["leaf"]]
    assert internal and {len(entry) for p in _leaf_pages(snap) for entry in p["entries"]} == {len(LeafEntry._fields)}
    found = {
        "header": sorted(snap),
        "grid": sorted(snap["grid"]),
        "time_cfg": sorted(snap["time_cfg"]),
        "layout": sorted(snap["layout"]),
        "tree": sorted(snap["tree"]),
        "leaf page": sorted({name for p in _leaf_pages(snap) for name in p}),
        "internal page": sorted({name for p in internal for name in p}),
        "leaf entry": list(LeafEntry._fields),
    }
    assert found == SNAPSHOT_FIELDS[SNAPSHOT_FORMAT]
