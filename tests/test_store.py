import json
import random

import pytest

from pebtree.keys import KeyLayout
from pebtree.motion import MovingObject, TimePartitionConfig
from pebtree.store import BPlusTree, LeafEntry, MovingObjectIndex
from pebtree.zcurve import GridConfig


def entry(key, uid=0):
    return LeafEntry(key, uid, float(key % 97), float(key % 89), 0.5, -0.5, 0.0, uid)


def collect_range(tree, lo, hi):
    out = []
    tree.range_scan(lo, hi, out.append)
    return [(e.key, e.uid) for e in out]


def test_insert_into_empty_tree():
    tree = BPlusTree()
    tree.insert(entry(42))
    stats = tree.stats()
    assert stats.height == 1
    assert stats.leaf_count == 1
    assert stats.entry_count == 1
    assert collect_range(tree, 0, 100) == [(42, 0)]


def test_sequential_inserts_match_sorted_oracle():
    tree = BPlusTree(page_size=512)  # small pages force splits early
    keys = list(range(500))
    for k in keys:
        tree.insert(entry(k))
    assert collect_range(tree, 0, 499) == [(k, 0) for k in keys]
    tree.audit()


def test_duplicate_insert_rejected():
    tree = BPlusTree()
    tree.insert(entry(7, uid=1))
    tree.insert(entry(7, uid=2))  # same key, different uid is fine
    with pytest.raises(ValueError):
        tree.insert(entry(7, uid=1))


def test_leaf_split_keeps_entries_reachable():
    tree = BPlusTree(page_size=512)  # leaf capacity 8
    for k in range(9):
        tree.insert(entry(k))
    stats = tree.stats()
    assert stats.height == 2
    assert stats.leaf_count == 2
    assert collect_range(tree, 0, 8) == [(k, 0) for k in range(9)]
    tree.audit()


def test_delete_missing_reported():
    tree = BPlusTree()
    tree.insert(entry(1))
    with pytest.raises(KeyError):
        tree.delete(2, 0)
    with pytest.raises(KeyError):
        tree.delete(1, 5)


def test_delete_after_insert_restores_prior_set():
    tree = BPlusTree(page_size=512)
    for k in range(100):
        tree.insert(entry(k))
    before = collect_range(tree, 0, 99)
    tree.insert(entry(1000))
    tree.delete(1000, 0)
    assert collect_range(tree, 0, 2000) == before
    tree.audit()


def test_full_drain_leaves_empty_tree():
    tree = BPlusTree(page_size=512)
    keys = list(range(200))
    random.Random(1).shuffle(keys)
    for k in keys:
        tree.insert(entry(k))
    for k in keys:
        tree.delete(k, 0)
    stats = tree.stats()
    assert stats.entry_count == 0
    assert stats.leaf_count == 1
    assert stats.height == 1
    assert collect_range(tree, 0, 10_000) == []


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
                    tree.insert(entry(k, uid))
            else:
                e = entry(k, uid)
                tree.insert(e)
                shadow[(k, uid)] = e
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
        tree.insert(entry(k))
    tree.buffer.clear()
    stats = tree.range_scan(100, 200, lambda e: None)
    assert stats.matched == 0
    assert stats.leaves_touched >= 1


def test_range_scan_rejects_inverted_range():
    tree = BPlusTree()
    with pytest.raises(ValueError):
        tree.range_scan(5, 4, lambda e: None)


def test_scan_intervals_equals_separate_scans():
    rng = random.Random(3)
    tree = BPlusTree(page_size=512)
    keys = rng.sample(range(5000), 800)
    for k in keys:
        tree.insert(entry(k))
    intervals = [(0, 100), (340, 342), (350, 900), (2000, 4999)]
    got = []
    tree.scan_intervals(intervals, got.append)
    expected = []
    for lo, hi in intervals:
        expected.extend(e for e in tree.entries_in(lo, hi))
    assert [(e.key, e.uid) for e in got] == [(e.key, e.uid) for e in expected]


def test_stats_leaf_count_bounds():
    tree = BPlusTree()
    n = 5000
    for k in range(n):
        tree.insert(entry(k))
    stats = tree.stats()
    fanout = tree.leaf_cap
    assert -(-n // fanout) <= stats.leaf_count <= -(-2 * n // fanout)
    assert stats.entry_count == n


def test_buffer_repeat_query_costs_zero_when_tree_fits():
    tree = BPlusTree(page_size=1024, buffer_pages=500)
    for k in range(2000):
        tree.insert(entry(k))
    assert tree.stats().page_count <= 500
    tree.buffer.clear()
    tree.range_scan(100, 1900, lambda e: None)
    first = tree.buffer.counters().misses
    assert first > 0
    tree.range_scan(100, 1900, lambda e: None)
    assert tree.buffer.counters().misses == first  # second run fully buffered


def test_io_determinism():
    def run():
        tree = BPlusTree(page_size=1024, buffer_pages=10)
        rng = random.Random(11)
        for _ in range(800):
            k = rng.randrange(10_000)
            uid = rng.randrange(3)
            try:
                tree.insert(entry(k, uid))
            except ValueError:
                pass
        tree.buffer.clear()
        for lo in range(0, 10_000, 500):
            tree.range_scan(lo, lo + 400, lambda e: None)
        return tree.buffer.counters()

    assert run() == run()


def test_write_counter_tracks_modifications():
    tree = BPlusTree()
    before = tree.buffer.counters().writes
    tree.insert(entry(1))
    assert tree.buffer.counters().writes > before


# -- moving-object index ------------------------------------------------------


def build_index(kind="bx", buffer_pages=50):
    time_cfg = TimePartitionConfig(120.0, 2)
    grid = GridConfig(L=1000.0, levels=10)
    layout = KeyLayout.for_index(time_cfg, grid, max_sv=100.0)
    sv_map = None
    if kind == "peb":
        from pebtree.keys import SequenceValueMap

        sv_map = SequenceValueMap({uid: 2.0 + 0.01 * uid for uid in range(200)}, 2.0, 2.0, (0,))
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
    index.update(obj, now=30.0)
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


def test_index_rejects_double_insert():
    index = build_index()
    index.insert(MovingObject(1, 0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        index.insert(MovingObject(1, 5.0, 5.0, 0.0, 0.0, 0.0))


def test_index_tracks_directional_speeds():
    index = build_index()
    index.insert(MovingObject(1, 0.0, 0.0, 2.0, -3.0, 0.0))
    index.insert(MovingObject(2, 0.0, 0.0, -1.0, 0.5, 0.0))
    speeds = index.max_speeds
    assert (speeds.pos_x, speeds.neg_x, speeds.pos_y, speeds.neg_y) == (2.0, 1.0, 0.5, 3.0)


def test_index_key_uses_projected_clamped_position():
    index = build_index()
    # fast object near the boundary projects outside; the key must clamp
    obj = MovingObject(9, 999.0, 999.0, 3.0, 3.0, 0.0)
    key, tid, label = index.key_for(obj)
    assert label == 60.0 and tid == 0
    assert key <= index.layout.bx_key(tid, index.grid.max_z)


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
    lo = loaded.layout.bx_key(0, 0)
    hi = loaded.layout.bx_key(0, loaded.grid.max_z)
    assert [e for e in loaded.tree.entries_in(lo, hi)] == [e for e in index.tree.entries_in(lo, hi)]
    loaded.tree.audit()
    # updates keep working after a reload
    obj = loaded.tree.entries_in(lo, hi)[0]
    loaded.update(MovingObject(obj.uid, obj.x, obj.y, obj.vx, obj.vy, 30.0))
    assert loaded.contains(obj.uid)


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
    edit(snap)
    path.write_text(json.dumps(snap))
    return path


def _leaf_pages(snap):
    return [p for p in snap["tree"]["pages"] if p["leaf"]]


@pytest.mark.parametrize(
    "edit, fault",
    [
        (lambda snap: snap["partition_labels"].clear(), "partition labels"),
        (lambda snap: snap["partition_labels"].update({"1": 120.0}), "partition labels"),
        (lambda snap: _leaf_pages(snap)[0]["keys"].reverse(), "corrupt tree"),
        (lambda snap: _leaf_pages(snap)[1]["keys"].pop(), "corrupt tree"),
        (lambda snap: snap["tree"].update(entry_count=149), "corrupt tree"),
    ],
)
def test_snapshot_load_rejects_tampering(tmp_path, edit, fault):
    path = _tampered(tmp_path, edit)
    with pytest.raises(ValueError, match=fault):
        MovingObjectIndex.load(path)


def test_untampered_snapshot_still_loads(tmp_path):
    loaded = MovingObjectIndex.load(_tampered(tmp_path, lambda snap: None))
    assert loaded.live_partitions() == [(0, 60.0)]
    assert loaded.entry_count == 150
