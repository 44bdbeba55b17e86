import functools
import hashlib
import math
import random
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import example, given, settings, strategies as st

from pebtree.bench import build_instance, run_update_round
from pebtree.keys import KeyLayout, SequenceValueMap, assign_sequence_values
from pebtree.motion import MovingObject, TimePartitionConfig
from pebtree.policy import (
    DAY,
    CompatibilityIndex,
    PolicyStore,
    PolicyTable,
    RelationshipGraph,
    window_contains,
)
from pebtree.query import (
    BaselineQueryEngine,
    FriendLists,
    PebQueryEngine,
    PknnRequest,
    PknnResult,
    PrqRequest,
    Rect,
    _visible,
    antidiagonal_order,
    enlarge,
    estimate_dk,
    oracle_knn,
    oracle_range,
)
from pebtree.store import BPlusTree, DirectionalSpeeds, LeafEntry, MovingObjectIndex
from pebtree.workload import WorkloadConfig, gen_policies, gen_queries, gen_uniform
from pebtree.zcurve import GridConfig, cells_covering, z_corner_interval, z_decompose
from test_motion import position_at
from test_store import records_into, reference_scan_intervals
from test_zcurve import subtract_intervals

TIME_CFG = TimePartitionConfig(120.0, 2)
GRID = GridConfig(L=1000.0, levels=10)


# -- enlarge ---------------------------------------------------------------


def test_enlarge_zero_gap_is_identity():
    speeds = DirectionalSpeeds(3.0, 2.0, 1.0, 4.0)
    r = (100.0, 200.0, 300.0, 400.0)
    assert enlarge(r, 60.0, 60.0, speeds, 1000.0) == r


def test_enlarge_upper_border_moves_by_max_downward_speed():
    # label one time unit before the query; max downward speed 2 moves the
    # upper border up by 2
    speeds = DirectionalSpeeds(pos_x=1.0, neg_x=1.5, pos_y=0.5, neg_y=2.0)
    r = (100.0, 100.0, 200.0, 200.0)
    out = enlarge(r, 5.0, 6.0, speeds, 1000.0)
    assert out[3] == 202.0
    assert out == (99.0, 99.5, 201.5, 202.0)


def test_enlarge_future_label_mirrors_directions():
    speeds = DirectionalSpeeds(pos_x=1.0, neg_x=2.0, pos_y=3.0, neg_y=4.0)
    r = (500.0, 500.0, 600.0, 600.0)
    out = enlarge(r, 61.0, 60.0, speeds, 1000.0)
    assert out == (498.0, 496.0, 601.0, 603.0)


def test_enlarge_clamps_to_space():
    speeds = DirectionalSpeeds(3.0, 3.0, 3.0, 3.0)
    out = enlarge((0.0, 0.0, 1000.0, 1000.0), 60.0, 120.0, speeds, 1000.0)
    assert out == (0.0, 0.0, 1000.0, 1000.0)


def test_enlarge_covers_moving_objects():
    rng = random.Random(21)
    speeds = DirectionalSpeeds(3.0, 3.0, 3.0, 3.0)
    r = (400.0, 400.0, 600.0, 600.0)
    for _ in range(500):
        t_lab = rng.choice([60.0, 120.0, 180.0])
        t_q = rng.uniform(0.0, 180.0)
        out = enlarge(r, t_lab, t_q, speeds, 1000.0)
        # any object inside r at t_q must project inside the enlarged window
        # at t_lab (positions clamped like the index does)
        vx = rng.uniform(-3, 3)
        vy = rng.uniform(-3, 3)
        qx = rng.uniform(r[0], r[2])
        qy = rng.uniform(r[1], r[3])
        px = min(max(qx + vx * (t_lab - t_q), 0.0), 1000.0)
        py = min(max(qy + vy * (t_lab - t_q), 0.0), 1000.0)
        assert out[0] - 1e-9 <= px <= out[2] + 1e-9
        assert out[1] - 1e-9 <= py <= out[3] + 1e-9


# -- Dk estimate --------------------------------------------------------------


def test_estimate_dk_at_k_equals_n():
    assert estimate_dk(10, 10, 1.0) == pytest.approx(2.0 / math.sqrt(math.pi))


def test_estimate_dk_small_k_limit():
    assert estimate_dk(1, 10**8, 1000.0) < 1.0


def test_estimate_dk_reference_value():
    assert estimate_dk(5, 10_000, 1.0) == pytest.approx(0.012687, abs=1e-5)


def test_estimate_dk_validates_inputs():
    with pytest.raises(ValueError):
        estimate_dk(0, 10, 1.0)
    with pytest.raises(ValueError):
        estimate_dk(11, 10, 1.0)


# -- key interval construction ---------------------------------------------------


def _dense_tree(layout, tid, svqs):
    """A tree holding one entry at every key of the given (partition, sequence value) rows."""
    tree = BPlusTree()
    for svq in svqs:
        for zv in range(1 << layout.zv_bits):
            key = layout.peb_key_q(tid, svq, zv)
            tree.insert(key, 0, (0.0, 0.0, 0.0, 0.0, 0.0))
    return tree


def _row_scan_keys(tree, layout, tid, svqs, zivs):
    """Keys read by one cursor scan per row, each row's intervals offset by its key prefix."""
    keys = []
    for svq in svqs:
        tree.scan_intervals(zivs, lambda leaf, i, j: keys.extend(leaf.keys[i:j]), layout.peb_key_q(tid, svq, 0))
    return keys


def _runs(keys):
    """Maximal runs of consecutive integers in an ascending key list."""
    runs = []
    for key in keys:
        if runs and key == runs[-1][1] + 1:
            runs[-1][1] = key
        else:
            runs.append([key, key])
    return [tuple(run) for run in runs]


def test_single_row_single_interval():
    layout = KeyLayout(tid_bits=2, sv_bits=7, zv_bits=6, frac_bits=0)
    tree = _dense_tree(layout, 0, (24, 25, 26))
    assert _row_scan_keys(tree, layout, 0, (25,), [(13, 16)]) == [1613, 1614, 1615, 1616]


def test_reference_search_range_list():
    # five friends x two curve intervals: ten ranges per partition, ordered
    # by sequence value then curve value
    layout = KeyLayout(tid_bits=2, sv_bits=7, zv_bits=6, frac_bits=0)
    rows = (25, 50, 55, 80, 89)
    tree = _dense_tree(layout, 0, range(20, 95))
    bounds = _runs(_row_scan_keys(tree, layout, 0, rows, [(13, 16), (25, 28)]))
    assert len(bounds) == 10
    assert bounds == sorted(bounds)
    assert bounds[0] == (25 * 64 + 13, 25 * 64 + 16)
    assert bounds[1] == (25 * 64 + 25, 25 * 64 + 28)
    assert bounds[2] == (50 * 64 + 13, 50 * 64 + 16)
    assert bounds[3] == (50 * 64 + 25, 50 * 64 + 28)
    assert bounds[8] == (89 * 64 + 13, 89 * 64 + 16)
    assert bounds[9] == (89 * 64 + 25, 89 * 64 + 28)


def test_interval_refinement_preserves_key_set():
    # rows own disjoint key prefixes, so scanning each row's curve
    # intervals offset by its prefix reads exactly the crossed key set
    layout = KeyLayout(tid_bits=2, sv_bits=8, zv_bits=4, frac_bits=0)
    tree = _dense_tree(layout, 1, range(200))
    rng = random.Random(17)
    for _ in range(50):
        rows = sorted(rng.sample(range(200), rng.randint(1, 6)))
        zivs = []
        cursor = 0
        while cursor < 14 and len(zivs) < 4:
            lo = rng.randint(cursor, 14)
            hi = rng.randint(lo, 15)
            zivs.append((lo, hi))
            cursor = hi + 2
        expected = []
        for svq in rows:
            for lo, hi in zivs:
                expected.extend(range(layout.peb_key_q(1, svq, lo), layout.peb_key_q(1, svq, hi) + 1))
        assert _row_scan_keys(tree, layout, 1, rows, zivs) == expected


def test_interval_subtract():
    covered = [(10, 20), (40, 50)]
    new = [(5, 12), (15, 45), (60, 70)]
    assert subtract_intervals(new, covered) == [(5, 9), (21, 39), (60, 70)]
    assert subtract_intervals([(10, 20)], [(0, 100)]) == []


def test_antidiagonal_order_covers_matrix():
    cells = list(antidiagonal_order(3, 4))
    assert len(cells) == 12
    assert set(cells) == {(r, c) for r in range(3) for c in range(4)}
    assert cells[0] == (0, 0)
    # diagonal index never decreases
    sums = [r + c for r, c in cells]
    assert sums == sorted(sums)


# -- reference scenario --------------------------------------------------------------


def reference_scenario():
    """The running example: an issuer, five friends, one of them visible.

    The nearest user spatially (uid 100) denies access at query time, so
    query answers must skip to uid 12.
    """
    t_q = 12.0  # noon
    issuer = MovingObject(1, 50.0, 50.0, 0.0, 0.0, 0.0)
    friends = {
        12: MovingObject(12, 60.0, 55.0, 0.0, 0.0, 0.0),
        30: MovingObject(30, 45.0, 40.0, 0.0, 0.0, 0.0),
        59: MovingObject(59, 70.0, 45.0, 0.0, 0.0, 0.0),
        100: MovingObject(100, 51.0, 50.0, 0.0, 0.0, 0.0),
        130: MovingObject(130, 55.0, 62.0, 0.0, 0.0, 0.0),
    }
    others = {uid: MovingObject(uid, 80.0 + uid, 900.0, 0.0, 0.0, 0.0) for uid in range(2, 8)}
    objects = {1: issuer, **friends, **others}
    graph = RelationshipGraph()
    specs = {
        # friend -> (region around their own position?, hours); only uid 12
        # is visible at noon from where they are
        12: ((50.0, 40.0, 80.0, 70.0), (8.0, 17.0)),
        30: ((40.0, 30.0, 60.0, 50.0), (20.0, 23.0)),  # wrong hours
        59: ((200.0, 200.0, 300.0, 300.0), (8.0, 17.0)),  # away from region
        100: ((300.0, 300.0, 400.0, 400.0), (8.0, 17.0)),  # denies here
        130: ((40.0, 50.0, 70.0, 80.0), (14.0, 18.0)),  # later hours
    }
    policies = PolicyTable()
    for uid, (rect, (lo, hi)) in specs.items():
        graph.set_roles(uid, {"u1": (1,)})
        policies.append(uid, "u1", *rect, lo, hi)
    store = PolicyStore(policies, graph, objects, space_side=1000.0)
    return objects, store, t_q


def build_engines(objects, store):
    compat = CompatibilityIndex.from_store(store)
    sv_map = assign_sequence_values(sorted(objects), compat)
    layout = KeyLayout.for_index(TIME_CFG, GRID, max_sv=sv_map.max_value + 1.0)
    peb = MovingObjectIndex(TIME_CFG, GRID, layout, sv_map=sv_map)
    bx = MovingObjectIndex(TIME_CFG, GRID, layout)
    for obj in objects.values():
        peb.insert(obj)
        bx.insert(obj)
    friends = FriendLists(store, sv_map, layout)
    return PebQueryEngine(peb, store, friends), BaselineQueryEngine(bx, store)


def test_reference_scenario_range_query():
    objects, store, t_q = reference_scenario()
    peb, bx = build_engines(objects, store)
    req = PrqRequest(1, (30.0, 30.0, 110.0, 80.0), t_q)
    assert oracle_range(objects.values(), store, req) == {12}
    assert peb.prq(req) == {12}
    assert bx.range_query(req) == {12}


def test_reference_scenario_nearest_friend():
    objects, store, t_q = reference_scenario()
    peb, bx = build_engines(objects, store)
    req = PknnRequest(1, (50.0, 50.0), 1, t_q)
    expected_dist = math.dist((50.0, 50.0), (60.0, 55.0))
    for result in (oracle_knn(objects.values(), store, req), peb.pknn(req), bx.knn_query(req)):
        assert not result.short
        assert result.neighbors == ((12, pytest.approx(expected_dist)),)


def test_empty_friend_list_returns_empty():
    objects, store, t_q = reference_scenario()
    peb, _ = build_engines(objects, store)
    peb.index.reset_io(cold=False)
    # uid 2 has no one naming it in any policy: no key intervals scanned
    assert peb.prq(PrqRequest(2, (0.0, 0.0, 1000.0, 1000.0), t_q)) == set()
    assert peb.index.buffer.counters().reads == 0
    result = peb.pknn(PknnRequest(2, (500.0, 500.0), 3, t_q))
    assert result.neighbors == () and result.short
    assert peb.index.buffer.counters().reads == 0


def _owners_toward(issuer_at, owners):
    """An issuer (uid 0) and owners 1..n, each with a whole-space policy toward the issuer.

    ``owners`` holds one ``((x, y), (t_lo, t_hi))`` per owner.
    """
    objects = {0: MovingObject(0, *issuer_at, 0.0, 0.0, 0.0)}
    graph = RelationshipGraph()
    policies = PolicyTable()
    for uid, ((x, y), window) in enumerate(owners, start=1):
        objects[uid] = MovingObject(uid, x, y, 0.0, 0.0, 0.0)
        graph.set_roles(uid, {"u1": (0,)})
        policies.append(uid, "u1", 0.0, 0.0, 1000.0, 1000.0, *window)
    return objects, PolicyStore(policies, graph, objects, space_side=1000.0)


@pytest.mark.parametrize(
    "window, open_at, closed_at",
    [
        ((8.0, 17.0), (8.0, 12.0, 16.5), (17.0, 20.0, 7.9)),
        ((22.0, 6.0), (22.0, 1.0, 29.0), (6.0, 12.0, 21.9)),
        ((12.0, 12.0), (), (12.0, 18.0, 0.0)),
        ((0.0, DAY), (0.0, 23.9, 2 * DAY), ()),
    ],
)
def test_an_owner_is_read_only_while_its_window_is_open(window, open_at, closed_at):
    # the issuer's one owner: its page is read only when its window holds t_q
    objects, store = _owners_toward((100.0, 100.0), [((500.0, 500.0), window)])
    peb, _ = build_engines(objects, store)
    for t_q, is_open in [(t, True) for t in open_at] + [(t, False) for t in closed_at]:
        for req in (PrqRequest(0, (400.0, 400.0, 600.0, 600.0), t_q), PknnRequest(0, (100.0, 100.0), 1, t_q)):
            peb.index.reset_io(cold=True)
            if isinstance(req, PrqRequest):
                got, want = peb.prq(req), oracle_range(objects.values(), store, req)
                assert got == ({1} if is_open else set())
            else:
                got, want = peb.pknn(req), oracle_knn(objects.values(), store, req)
                assert [uid for uid, _ in got.neighbors] == ([1] if is_open else [])
            assert got == want, req
            reads = peb.index.buffer.counters().reads
            assert reads >= 1 if is_open else reads == 0, req


coord = st.floats(0.0, 1000.0)
day_point = st.one_of(st.sampled_from([0.0, DAY / 3, DAY / 2, DAY]), st.floats(0.0, DAY))
daily_window = st.one_of(
    st.tuples(day_point, day_point),  # as drawn: t_lo > t_hi wraps past midnight
    day_point.map(lambda t: (t, t)),  # empty
    st.just((0.0, DAY)),  # the whole day
)


@settings(max_examples=100, deadline=None)
@given(
    owners=st.lists(st.tuples(st.tuples(coord, coord), daily_window), min_size=1, max_size=6),
    pick=st.integers(0, 5),
    at_end=st.booleans(),
    days=st.integers(0, 6),
)
# each kind of window at each of its ends: plain, wrapped, empty and the whole day
@example(owners=[((500.0, 500.0), (8.0, 17.0))], pick=0, at_end=False, days=3)
@example(owners=[((500.0, 500.0), (8.0, 17.0))], pick=0, at_end=True, days=0)
@example(owners=[((500.0, 500.0), (22.0, 6.0))], pick=0, at_end=False, days=0)
@example(owners=[((500.0, 500.0), (22.0, 6.0))], pick=0, at_end=True, days=1)
@example(owners=[((500.0, 500.0), (DAY, 0.0))], pick=0, at_end=False, days=2)
@example(owners=[((500.0, 500.0), (12.0, 12.0))], pick=0, at_end=False, days=0)
@example(owners=[((500.0, 500.0), (0.0, DAY))], pick=0, at_end=True, days=2)
def test_queries_at_window_ends_match_the_oracles(owners, pick, at_end, days):
    # t_q falls on one owner's t_lo or t_hi, in some day of the horizon
    objects, store = _owners_toward((500.0, 500.0), owners)
    peb, _ = build_engines(objects, store)
    t_q = owners[pick % len(owners)][1][at_end] + days * DAY
    req = PrqRequest(0, (0.0, 0.0, 1000.0, 1000.0), t_q)
    assert peb.prq(req) == oracle_range(objects.values(), store, req)
    knn = PknnRequest(0, (500.0, 500.0), len(owners), t_q)
    assert peb.pknn(knn) == oracle_knn(objects.values(), store, knn)


def test_unknown_issuer_rejected():
    objects, store, t_q = reference_scenario()
    peb, bx = build_engines(objects, store)
    with pytest.raises(KeyError):
        peb.prq(PrqRequest(999, (0.0, 0.0, 10.0, 10.0), t_q))
    with pytest.raises(KeyError):
        bx.knn_query(PknnRequest(999, (0.0, 0.0), 1, t_q))
    with pytest.raises(KeyError):
        oracle_range(objects.values(), store, PrqRequest(999, (0.0, 0.0, 10.0, 10.0), t_q))


@pytest.mark.parametrize(
    "t_q, fault",
    [
        (math.nan, "t_q is nan, not a finite number"),
        (math.inf, "t_q is inf, not a finite number"),
        (-5.0, "t_q is -5.0, a negative time"),
        (-1e-9, "t_q is -1e-09, a negative time"),
    ],
)
def test_request_refuses_a_bad_query_time(t_q, fault):
    # before, nan failed inside the curve code, inf answered nothing and -5.0 answered
    with pytest.raises(ValueError, match=fault):
        PrqRequest(1, (30.0, 30.0, 110.0, 80.0), t_q)
    with pytest.raises(ValueError, match=fault):
        PknnRequest(1, (50.0, 50.0), 1, t_q)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_request_refuses_a_non_finite_coordinate(bad):
    for i in range(4):
        rect = [30.0, 30.0, 110.0, 80.0]
        rect[i] = bad
        with pytest.raises(ValueError, match="query rectangle .* is not finite"):
            PrqRequest(1, tuple(rect), 12.0)
    for qloc in ((bad, 50.0), (50.0, bad)):
        with pytest.raises(ValueError, match="query point .* is not finite"):
            PknnRequest(1, qloc, 1, 12.0)


# -- randomized equivalence ------------------------------------------------------------


@pytest.fixture(scope="module")
def random_instance():
    cfg = WorkloadConfig(n_users=400, policies_per_user=25, theta=0.5, seed=42, group_size=50)
    objects = gen_uniform(cfg)
    policies, graph = gen_policies([o.uid for o in objects], cfg)
    store = PolicyStore(policies, graph, [o.uid for o in objects], space_side=cfg.space_side)
    by_uid = {o.uid: o for o in objects}
    peb, bx = build_engines(by_uid, store)
    return cfg, by_uid, store, peb, bx


def test_friend_rows_equal_quantizing_each_owner_per_viewer(random_instance):
    # the rows as built before each user's value was quantized once: per
    # (viewer, owner), with every row's owners sorted again
    _, objects, store, peb, _ = random_instance
    sv_map, layout = peb.index.sv_map, peb.layout
    shared = 0
    for viewer in objects:
        by_svq: dict[int, list[int]] = {}
        for owner in store.owners_naming(viewer):
            by_svq.setdefault(layout.quantize_sv(sv_map[owner]), []).append(owner)
        want = tuple(sorted((svq, tuple(sorted(us))) for svq, us in by_svq.items()))
        assert peb.friends.rows(viewer) == want
        shared += sum(len(us) > 1 for _, us in want)
        # the viewer's policy rows, one per owner in ascending uid order, and at each time
        # the rows of those whose window holds it, by owner in the same order
        p = store.policies
        owners = sorted(u for _, us in want for u in us)
        policy_rows = [store.row(owner, viewer) for owner in owners]
        assert store.policy_rows(viewer) == tuple(policy_rows)
        for t in (0.0, 7.5, 13.0, DAY - 1e-9, DAY + 20.25):
            assert list(store.active_rows(viewer, t).items()) == [
                (owner, row)
                for owner, row in zip(owners, policy_rows)
                if window_contains(p.t_lo[row], p.t_hi[row], p.day, t)
            ]
    assert shared > 0  # some rows hold several owners


def test_rows_of_non_contiguous_descending_owner_runs():
    # a generated table re-laid out so that each owner's rows come in two
    # runs, each half in descending owner order: the store merges the runs
    # and sorts each viewer's rows by owner.  Wide regions and long windows
    # make many answers non-empty
    wide = {"policy_side": (400.0, 1000.0), "policy_duration": (8.0, 24.0)}
    cfg = WorkloadConfig(n_users=300, policies_per_user=20, theta=0.5, seed=17, group_size=50, **wide)
    objects = {o.uid: o for o in gen_uniform(cfg)}
    store = PolicyStore(*gen_policies(objects, cfg), objects, space_side=cfg.space_side)
    p = store.policies
    by_owner: dict[int, list[int]] = {}
    for row, owner in enumerate(p.owner):
        by_owner.setdefault(owner, []).append(row)
    descending = sorted(by_owner, reverse=True)
    layout = [r for owner in descending for r in by_owner[owner][::2]]
    layout += [r for owner in descending for r in by_owner[owner][1::2]]
    table = PolicyTable(p.day)
    for r in layout:
        table.append(p.owner[r], p.role[r], p.x_lo[r], p.y_lo[r], p.x_hi[r], p.y_hi[r], p.t_lo[r], p.t_hi[r])
    graph = RelationshipGraph()
    for owner in by_owner:
        graph.set_roles(owner, {p.role[r]: (int(p.role[r][1:]),) for r in by_owner[owner]})
    merged = PolicyStore(table, graph, objects, space_side=cfg.space_side)
    for viewer in objects:
        owners = merged.owners_naming(viewer)
        assert owners == sorted(owners) == store.owners_naming(viewer)
        rows = merged.policy_rows(viewer)
        assert list(rows) == [merged.row(owner, viewer) for owner in owners]
        assert tuple(layout[r] for r in rows) == store.policy_rows(viewer)
    peb, bx = build_engines(objects, merged)
    users = list(objects.values())
    answered = 0
    for req in gen_queries(cfg, "range", users, count=40):
        want = oracle_range(users, merged, req)
        assert want == oracle_range(users, store, req)
        assert peb.prq(req) == bx.range_query(req) == want
        answered += bool(want)
    for req in gen_queries(cfg, "knn", users, count=40):
        want = oracle_knn(users, merged, req)
        assert peb.pknn(req) == bx.knn_query(req) == want
        answered += bool(want.neighbors)
    assert answered > 40


def test_random_range_queries_match_oracle(random_instance):
    cfg, objects, store, peb, bx = random_instance
    queries = gen_queries(cfg, "range", list(objects.values()), count=60)
    for req in queries:
        expected = oracle_range(objects.values(), store, req)
        assert peb.prq(req) == expected
        assert bx.range_query(req) == expected


def test_random_knn_queries_match_oracle(random_instance):
    cfg, objects, store, peb, bx = random_instance
    for k in (1, 5, 10):
        queries = [
            PknnRequest(q.qid, q.qloc, k, q.t_q)
            for q in gen_queries(cfg, "knn", list(objects.values()), count=25)
        ]
        for req in queries:
            want = oracle_knn(objects.values(), store, req)
            for got in (peb.pknn(req), bx.knn_query(req)):
                assert got.short == want.short
                got_d = [d for _, d in got.neighbors]
                want_d = [d for _, d in want.neighbors]
                assert got_d == pytest.approx(want_d, abs=1e-9)
                if want.neighbors:
                    kth = want_d[-1]
                    assert {u for u, d in got.neighbors if d < kth - 1e-9} == {
                        u for u, d in want.neighbors if d < kth - 1e-9
                    }


def test_baseline_checks_policies_of_the_issuers_owners_only(random_instance, monkeypatch):
    cfg, objects, store, peb, bx = random_instance
    users = list(objects.values())
    queries = list(gen_queries(cfg, "range", users, count=30)) + list(gen_queries(cfg, "knn", users, count=30))
    oracle = {
        q: oracle_range(users, store, q) if isinstance(q, PrqRequest) else oracle_knn(users, store, q) for q in queries
    }
    calls = []
    active_rows = PolicyStore.active_rows

    def recorded(self, viewer, t):
        rows = active_rows(self, viewer, t)
        calls.append((viewer, t, rows))
        return rows

    monkeypatch.setattr(PolicyStore, "active_rows", recorded)
    p = store.policies
    answered = 0
    for q in queries:
        calls.clear()
        got = bx.range_query(q) if isinstance(q, PrqRequest) else bx.knn_query(q)
        assert got == oracle[q]
        # one gather per query, of the issuer's rows at t_q
        [(viewer, t, rows)] = calls
        assert (viewer, t) == (q.qid, q.t_q)
        uids = got if isinstance(got, set) else [uid for uid, _ in got.neighbors]
        for uid in uids:
            # an answer is an owner whose policy toward the issuer is active at t_q
            row = rows[uid]
            assert row == store.row(uid, q.qid)
            assert window_contains(p.t_lo[row], p.t_hi[row], p.day, q.t_q)
        answered += bool(uids)
    assert answered > 4  # some answers hold owners to check


def test_oracle_full_space_returns_visible_set(random_instance):
    cfg, objects, store, peb, bx = random_instance
    from pebtree.query import _visible

    req = PrqRequest(3, (0.0, 0.0, cfg.space_side, cfg.space_side), 40.0)
    expected = set()
    for obj in objects.values():
        px, py = position_at(obj, req.t_q)
        if _visible(store, obj.uid, 3, px, py, req.t_q):
            expected.add(obj.uid)
    assert oracle_range(objects.values(), store, req) == expected
    # a kNN query asking for everyone visible returns exactly that set
    want = oracle_knn(objects.values(), store, PknnRequest(3, (500.0, 500.0), max(len(expected), 1), 40.0))
    assert {u for u, _ in want.neighbors} == expected


def test_oracle_input_order_invariance(random_instance):
    cfg, objects, store, peb, bx = random_instance
    req = PrqRequest(5, (200.0, 200.0, 600.0, 700.0), 30.0)
    shuffled = list(objects.values())
    random.Random(0).shuffle(shuffled)
    assert oracle_range(shuffled, store, req) == oracle_range(objects.values(), store, req)
    knn_req = PknnRequest(5, (250.0, 250.0), 4, 30.0)
    assert oracle_knn(shuffled, store, knn_req) == oracle_knn(objects.values(), store, knn_req)


def test_pknn_monotone_expansion_and_final_window():
    # the query point sits on the issuer's one visible friend
    objects, store, t_q = reference_scenario()
    peb, _ = build_engines(objects, store)
    req = PknnRequest(1, (60.0, 55.0), 1, t_q)
    result = peb.pknn(req)
    assert result.neighbors[0][0] == 12
    assert result.neighbors[0][1] == pytest.approx(0.0)


def test_updates_reflected_in_queries(random_instance):
    cfg, objects, store, peb, bx = random_instance
    # move a quarter of the objects and re-report them at time 30
    moved = {}
    rng = random.Random(9)
    uids = sorted(objects)[: len(objects) // 4]
    new_objects = dict(objects)
    for uid in uids:
        obj = objects[uid]
        moved_obj = MovingObject(uid, rng.uniform(0, 1000), rng.uniform(0, 1000), obj.vx, obj.vy, 30.0)
        peb.index.update(moved_obj)
        bx.index.update(moved_obj)
        new_objects[uid] = moved_obj
    queries = gen_queries(cfg, "range", list(new_objects.values()), now=30.0, count=30)
    for req in queries:
        expected = oracle_range(new_objects.values(), store, req)
        assert peb.prq(req) == expected
        assert bx.range_query(req) == expected
    # restore the original states so other tests see the shared fixture
    for uid in uids:
        peb.index.update(objects[uid])
        bx.index.update(objects[uid])


# -- kNN query against the search-matrix walk ---------------------------------------------


def _row_span(engine, tid, svq):
    """Curve values and entries of one (partition, sequence value) key span, in key order."""
    base = engine.layout.peb_key_q(tid, svq, 0)
    entries = []
    engine.index.tree.scan_intervals(((0, (1 << engine.grid.zv_bits) - 1),), records_into(entries), base)
    return [entry.key - base for entry in entries], entries


def _probe_new(span, zs, ze):
    """Entries of a row span inside [zs, ze]; the span read charged their pages."""
    z_list, entries = span
    i = bisect_left(z_list, zs)
    j = bisect_right(z_list, ze)
    return tuple(entries[i:j])


def reference_pknn(self: PebQueryEngine, req: PknnRequest) -> PknnResult:
    """The (friend row x expansion round) kNN walk, kept as a reference.

    Its step is sized by the issuer's friend owners.  A row's first visit
    reads the row's whole key span, and each visit verifies only the
    entries its round's interval newly covers.

    The k visible users nearest the query point at query time.

    Partitions are searched one at a time.  Within a partition the
    (friend row x expansion round) matrix is walked in the traversal
    order; each visited cell scans only the part of its round's curve
    interval not already covered for that row (rounds nest, so earlier
    work is never rescanned).  Once k verified candidates sit inside
    the current round's inscribed circle, the remaining rows of the
    column are vertically scanned with the interval shortened to the
    square of side twice the k'th candidate distance, which keeps the
    result exact no matter where the walk stopped.  Fewer than k
    visible users yields all of them with the result flagged short.
    """
    self.store.check_user(req.qid)
    rows = self.friends.rows(req.qid)
    k = req.k
    if not rows:
        return PknnResult((), short=True)
    live = self.index.live_partitions()
    if not live:
        return PknnResult((), short=True)
    side = self.grid.L
    n_f = sum(len(uids) for _, uids in rows)
    r_q = estimate_dk(min(k, n_f), n_f, side) / k
    if r_q <= 0:
        r_q = self.grid.cell_size
    qx, qy = req.qloc
    t_q = req.t_q
    store = self.store
    # the column whose square, clamped, covers the whole space
    needed = max(qx, side - qx, qy, side - qy)
    n_cols = max(1, math.ceil(needed / r_q))
    m = len(rows)

    candidates: dict[int, float] = {}
    seen: set[int] = set()

    def interval_for(square: Rect, tid: int, label: float) -> tuple[int, int]:
        cells = cells_covering(enlarge(square, label, t_q, self.index.max_speeds, side), self.grid)
        return z_corner_interval(cells, self.grid)

    def process(entry: LeafEntry) -> None:
        uid = entry.uid
        if uid in seen:
            return
        seen.add(uid)
        px = entry.x + entry.vx * (t_q - entry.t)
        py = entry.y + entry.vy * (t_q - entry.t)
        if _visible(store, uid, req.qid, px, py, t_q):
            candidates[uid] = math.hypot(px - qx, py - qy)

    def kth() -> float | None:
        if len(candidates) < k:
            return None
        return sorted(candidates.values())[k - 1]

    def search_partition(tid: int, label: float) -> None:
        spans: dict[int, tuple[list[int], list[LeafEntry]]] = {}
        covered: dict[int, tuple[int, int]] = {}  # row -> scanned z bounds
        col_ivs: dict[int, tuple[int, int]] = {}

        def column_interval(col: int) -> tuple[int, int]:
            iv = col_ivs.get(col)
            if iv is None:
                radius = (col + 1) * r_q
                square = (
                    max(qx - radius, 0.0),
                    max(qy - radius, 0.0),
                    min(qx + radius, side),
                    min(qy + radius, side),
                )
                iv = col_ivs[col] = interval_for(square, tid, label)
            return iv

        def scan_row(row_i: int, zs: int, ze: int) -> None:
            # scan only the uncovered remainder; the retained row span
            # (read once) proves emptiness without extra page fetches
            svq = rows[row_i][0]
            span = spans.get(row_i)
            if span is None:
                span = spans[row_i] = _row_span(self, tid, svq)
            done = covered.get(row_i)
            if done is None:
                deltas = [(zs, ze)]
                covered[row_i] = (zs, ze)
            else:
                deltas = []
                if zs < done[0]:
                    deltas.append((zs, done[0] - 1))
                if ze > done[1]:
                    deltas.append((done[1] + 1, ze))
                covered[row_i] = (min(zs, done[0]), max(ze, done[1]))
            for d_lo, d_hi in deltas:
                for entry in _probe_new(span, d_lo, d_hi):
                    process(entry)

        visited_cols: dict[int, int] = {}  # row -> last visited column
        for row_i, col in self.traversal(m, n_cols):
            if all(u in seen for u in rows[row_i][1]):
                visited_cols[row_i] = col
                continue
            zs, ze = column_interval(col)
            scan_row(row_i, zs, ze)
            visited_cols[row_i] = col
            kdist = kth()
            if kdist is not None and kdist <= (col + 1) * r_q:
                # vertical scan of this column, shortened to 2*kdist
                square = (
                    max(qx - kdist, 0.0),
                    max(qy - kdist, 0.0),
                    min(qx + kdist, side),
                    min(qy + kdist, side),
                )
                v_lo, v_hi = interval_for(square, tid, label)
                for other in range(m):
                    if visited_cols.get(other) == col:
                        continue
                    if all(u in seen for u in rows[other][1]):
                        continue
                    scan_row(other, v_lo, v_hi)
                return

    for tid, label in live:
        search_partition(tid, label)
    ranked = sorted((d, uid) for uid, d in candidates.items())[:k]
    return PknnResult(tuple((uid, d) for d, uid in ranked), short=len(ranked) < k)


def _churned(n_users):
    """Wide, long policies over three live partitions, reported at t = 0, 30, 70."""
    cfg = WorkloadConfig(
        n_users=n_users,
        policies_per_user=25,
        theta=0.5,
        seed=13,
        group_size=50,
        policy_side=(300.0, 800.0),
        policy_duration=(DAY / 3, DAY),
    )
    objects = gen_uniform(cfg)
    policies, graph = gen_policies([o.uid for o in objects], cfg)
    store = PolicyStore(policies, graph, [o.uid for o in objects], space_side=cfg.space_side)
    current = {o.uid: o for o in objects}
    peb, bx = build_engines(current, store)
    rng = random.Random(3)
    uids = sorted(current)
    for t_u, part in ((30.0, uids[::3]), (70.0, uids[1::3])):
        for uid in part:
            obj = current[uid]
            current[uid] = MovingObject(uid, rng.uniform(0, 1000), rng.uniform(0, 1000), obj.vx, obj.vy, t_u)
            peb.index.update(current[uid])
            bx.index.update(current[uid])
    queries = [
        PknnRequest(q.qid, q.qloc, k, q.t_q)
        for k in (1, 3, 8)
        for q in gen_queries(cfg, "knn", list(current.values()), now=70.0, count=20)
    ]
    return cfg, current, store, peb, bx, queries


@pytest.fixture(scope="module")
def churned_instance():
    return _churned(500)


@pytest.fixture(scope="module")
def churned_large_instance():
    return _churned(800)


def _small_page_index(instance, buffer_pages):
    """The instance's current objects in a tree of 4-entry leaves and a small buffer."""
    _, current, _, peb, _, _ = instance
    index = MovingObjectIndex(
        TIME_CFG, GRID, peb.layout, sv_map=peb.index.sv_map, buffer_pages=buffer_pages, page_size=256
    )
    for obj in current.values():
        index.insert(obj)
    assert index.tree.height == 4
    assert len(index.live_partitions()) == 3
    return index


def _run_batch(peb, call, queries):
    """Per-query (neighbors, short, reads, misses) from a cold buffer."""
    peb.index.reset_io(cold=True)
    buf = peb.index.buffer
    out = []
    for req in queries:
        reads, misses = buf.reads, buf.misses
        result = call(req)
        out.append((result.neighbors, result.short, buf.reads - reads, buf.misses - misses))
    return out


def _assert_pknn_matches_reference(engine, store, objects, queries):
    """Same answers as the walk and the oracle, and never more I/O than the walk.

    A later partition skips the rows whose owners the walk had read but not
    verified, so at least one query reads fewer pages.
    """
    stopped = []  # one flag per partition walk: True while it has not run out

    def tracked(n_rows, n_cols):
        stopped.append(True)
        yield from antidiagonal_order(n_rows, n_cols)
        stopped[-1] = False

    reference = PebQueryEngine(engine.index, store, engine.friends, traversal=tracked)

    def walk(req):
        return reference_pknn(reference, req)

    def cold_each(call):
        return [_run_batch(engine, call, [req])[0] for req in queries]

    # cold buffer per query: answers, page reads and misses
    want = cold_each(walk)
    got = cold_each(engine.pknn)
    # both kinds of walk are exercised: short results, and walks that end
    # on the termination test
    shorts = sum(short for _, short, _, _ in want)
    assert 0 < shorts < len(queries)
    assert any(stopped)
    for req, (g_nb, g_short, g_reads, g_misses), (w_nb, w_short, w_reads, w_misses) in zip(queries, got, want):
        assert (g_nb, g_short) == (w_nb, w_short), req
        assert PknnResult(g_nb, g_short) == oracle_knn(objects, store, req)
        assert g_reads <= w_reads, req
        assert g_misses <= w_misses, req
    assert any(g[2] < w[2] for g, w in zip(got, want))
    # warm buffer across the batch: the total misses
    assert sum(g[3] for g in _run_batch(engine, engine.pknn, queries)) <= sum(
        w[3] for w in _run_batch(engine, walk, queries)
    )


def test_pknn_matches_full_walk_reference(churned_instance, churned_large_instance):
    for _, current, store, peb, _, queries in (churned_instance, churned_large_instance):
        assert len(peb.index.live_partitions()) == 3
        _assert_pknn_matches_reference(peb, store, current.values(), queries)


@pytest.mark.parametrize("buffer_pages", [3, 4, 6])
def test_pknn_matches_full_walk_reference_on_small_pages_and_buffers(churned_large_instance, buffer_pages):
    # row spans cross leaves, and a 3-page buffer cannot hold one seek path and its leaf
    _, current, store, peb, _, queries = churned_large_instance
    engine = PebQueryEngine(_small_page_index(churned_large_instance, buffer_pages), store, peb.friends)
    _assert_pknn_matches_reference(engine, store, current.values(), queries)


def _active(store, viewer, owners, t_q):
    """The owners whose policy toward ``viewer`` has its daily window open at ``t_q``."""
    p = store.policies
    rows = [store.row(owner, viewer) for owner in owners]
    return {owner for owner, r in zip(owners, rows) if window_contains(p.t_lo[r], p.t_hi[r], p.day, t_q)}


def _row_reads_trace(peb, queries, cold_each):
    """Per-query buffer counters and LRU order of ``pknn``, and of reading each
    friend row's span from its first owner active at the query time to its
    last, once in one scan whose cursor holds its leaf from one row to the
    next and once in a scan per row, each seeking afresh."""
    index = peb.index
    zv_bits = peb.layout.zv_bits

    def read_rows(req, hold):
        intervals, unseen_at = [], {}  # each row's interval, and its active owners by key prefix
        for _, uids in peb.friends.rows(req.qid):
            unseen = _active(peb.store, req.qid, uids, req.t_q)
            if unseen:
                keys = [index._current[uid] for uid in unseen]
                intervals.append((min(keys), max(keys)))
                unseen_at[min(keys) >> zv_bits] = unseen

        def visit(leaf, i, j):
            unseen = unseen_at[leaf.keys[i] >> zv_bits]
            unseen.difference_update(leaf.uids[i:j])
            return not unseen

        for scan in [intervals] if hold else [[interval] for interval in intervals]:
            index.tree.scan_intervals(scan, visit)

    traces = []
    for call in (peb.pknn, functools.partial(read_rows, hold=True), functools.partial(read_rows, hold=False)):
        index.reset_io(cold=True)
        trace = []
        for req in queries:
            if cold_each:
                index.reset_io(cold=True)
            call(req)
            trace.append((index.buffer.counters(), list(index.buffer._lru)))
        traces.append(trace)
    return traces


@pytest.mark.parametrize("cold_each", [True, False])
def test_pknn_reads_every_friend_row_once_however_early_it_stops(random_instance, cold_each):
    # in one partition that holds every user, pknn reads each friend row's
    # key span once, in row order, from the entry of the row's first owner
    # whose policy window holds t_q to that of its last, and skips the rows
    # with no such owner,
    # whether or not the answer is short; the cursor's leaf is held from one
    # row to the next, which reads fewer pages than a seek per row and
    # charges the same misses
    cfg, objects, store, peb, _ = random_instance
    assert len(peb.index.live_partitions()) == 1
    queries = [
        PknnRequest(q.qid, q.qloc, k, q.t_q)
        for k in (1, 5, 10)
        for q in gen_queries(cfg, "knn", list(objects.values()), count=20)
    ]
    results = [peb.pknn(req) for req in queries]
    assert any(r.short for r in results) and not all(r.short for r in results)
    got, held, fresh = _row_reads_trace(peb, queries, cold_each)
    assert got == held
    for (g, _), (f, _) in zip(got, fresh):
        assert (g.misses, g.leaf_misses) == (f.misses, f.leaf_misses)
        assert g.reads <= f.reads
    assert any(g.reads < f.reads for (g, _), (f, _) in zip(got, fresh))


def test_pknn_walk_ignores_users_outside_friend_rows():
    # Users whom no policy links to anyone change neither the friend rows a
    # kNN query visits nor its I/O.  Their sequence values sort after every
    # other user's, and one leaf holds all entries, so adding theirs moves
    # no friend entry to another page.
    cfg = WorkloadConfig(n_users=300, policies_per_user=20, theta=0.5, seed=21, group_size=50)
    base = gen_uniform(cfg)
    policies, graph = gen_policies([o.uid for o in base], cfg)
    rng = random.Random(4)
    extra = [
        MovingObject(uid, rng.uniform(0, 1000), rng.uniform(0, 1000), 0.0, 0.0, 0.0)
        for uid in range(cfg.n_users, 4 * cfg.n_users)
    ]
    queries = [
        PknnRequest(q.qid, q.qloc, k, q.t_q)
        for k in (1, 5, 10)
        for q in gen_queries(cfg, "knn", base, count=20)
    ]
    traces = []
    for objects in (base, base + extra):
        store = PolicyStore(policies, graph, [o.uid for o in objects], space_side=cfg.space_side)
        sv_map = assign_sequence_values([o.uid for o in objects], CompatibilityIndex.from_store(store))
        layout = KeyLayout.for_index(TIME_CFG, GRID, max_sv=sv_map.max_value + 1.0)
        index = MovingObjectIndex(TIME_CFG, GRID, layout, sv_map=sv_map, page_size=1 << 17)
        for obj in objects:
            index.insert(obj)
        assert index.tree.height == 1
        cells = []

        def counting(n_rows, n_cols):
            for cell in antidiagonal_order(n_rows, n_cols):
                cells.append(cell)
                yield cell

        engine = PebQueryEngine(index, store, FriendLists(store, sv_map, layout), traversal=counting)

        def walk(req):
            cells.clear()
            result = engine.pknn(req)
            cells_per_query.append(len(cells))
            return result

        cells_per_query = []
        answers = _run_batch(engine, walk, queries)
        traces.append((answers, cells_per_query))
        for req, (neighbors, short, _, _) in zip(queries, answers):
            assert PknnResult(neighbors, short) == oracle_knn(objects, store, req)
    assert traces[0] == traces[1]


# -- range query against the per-interval reference ----------------------------------------


def reference_prq(self: PebQueryEngine, req: PrqRequest) -> set[int]:
    """The range query as one locate-then-walk per (friend row, partition) pair, kept as a reference.

    Users inside the window at query time who allow the issuer to see them.

    A window that misses the space ``[0, space_side]`` on either axis reads
    nothing.  An owner counts only when its policy window holds the query
    time.  Each (row, partition) pair that holds a counted owner's entry is
    scanned over one key interval, from the key of its first counted owner
    to that of its last, with the entry-by-entry cursor loop; every entry is
    verified, and the pair's interval ends at the entry that completes its
    counted owners.  One scan takes the pairs partition by partition, each
    partition's rows in ascending order, and its cursor holds its leaf
    from one pair to the next, across partitions too.
    """
    self.store.check_user(req.qid)
    result: set[int] = set()
    store = self.store
    rect = req.rect
    side = store.space_side
    if rect[2] < 0 or rect[3] < 0 or rect[0] > side or rect[1] > side:
        return result
    t_q = req.t_q
    # (partition, row) -> keys and uids of the row's counted owners; a key's
    # partition sits above its value and curve bits
    zv_bits = self.layout.zv_bits
    tid_shift = zv_bits + self.layout.sv_bits
    pairs: dict[tuple[int, int], dict[int, int]] = {}
    for row_i, (_, uids) in enumerate(self.friends.rows(req.qid)):
        for uid in _active(store, req.qid, uids, t_q):
            key = self.index._current.get(uid)
            if key is not None:
                pairs.setdefault((key >> tid_shift, row_i), {})[uid] = key
    # a pair's keys carry its prefix, so an entry's key names the owners its pair has yet to meet
    unseen_at = {min(owners.values()) >> zv_bits: set(owners) for owners in pairs.values()}

    def visit(entry):
        unseen = unseen_at[entry.key >> zv_bits]
        unseen.discard(entry.uid)
        px = entry.x + entry.vx * (t_q - entry.t)
        py = entry.y + entry.vy * (t_q - entry.t)
        if rect[0] <= px <= rect[2] and rect[1] <= py <= rect[3] and _visible(store, entry.uid, req.qid, px, py, t_q):
            result.add(entry.uid)
        return not unseen

    intervals = [(min(owners.values()), max(owners.values())) for _, owners in sorted(pairs.items())]
    reference_scan_intervals(self.index.tree, intervals, visit)
    return result


def _prq_trace(engine, call, queries, cold_each):
    """Per-query answer, buffer counters and LRU order.

    ``cold_each`` empties the buffer before every query; otherwise it is
    emptied once and each query starts from the buffer the previous left.
    """
    buf = engine.index.buffer
    engine.index.reset_io(cold=True)
    out = []
    for req in queries:
        if cold_each:
            engine.index.reset_io(cold=True)
        answer = call(engine, req)
        out.append((answer, buf.counters(), list(buf._lru)))
    return out


def _assert_prq_matches_reference(engine, queries, answers):
    for cold_each in (True, False):
        want = _prq_trace(engine, reference_prq, queries, cold_each)
        got = _prq_trace(engine, PebQueryEngine.prq, queries, cold_each)
        for req, g, w, answer in zip(queries, got, want, answers):
            assert g == w, (req, cold_each)
            assert g[0] == answer, req


def test_prq_matches_per_interval_reference(churned_instance):
    cfg, current, store, peb, _, _ = churned_instance
    assert len(peb.index.live_partitions()) == 3
    queries = gen_queries(cfg, "range", list(current.values()), now=70.0, count=40)
    answers = [oracle_range(current.values(), store, req) for req in queries]
    assert any(answers)
    _assert_prq_matches_reference(peb, queries, answers)


@pytest.mark.parametrize("buffer_pages", [3, 4, 6])
def test_prq_matches_reference_on_small_pages_and_buffers(churned_large_instance, buffer_pages):
    # 4 entries per leaf make a tree of height 4, so row scans cross leaves
    # and a 3-page buffer cannot hold one seek path and its leaf
    cfg, current, store, peb, _, _ = churned_large_instance
    engine = PebQueryEngine(_small_page_index(churned_large_instance, buffer_pages), store, peb.friends)
    queries = gen_queries(cfg, "range", list(current.values()), now=70.0, count=15)
    answers = [oracle_range(current.values(), store, req) for req in queries]
    assert any(answers)
    _assert_prq_matches_reference(engine, queries, answers)


# -- (friend row, partition) pairs -------------------------------------------------


@pytest.fixture
def scans(monkeypatch):
    """The key intervals of every ``BPlusTree.scan_intervals`` call, offset by its base, in call order."""
    calls = []
    scan = BPlusTree.scan_intervals

    def recording(tree, intervals, visit, base=0):
        calls.append([(base + lo, base + hi) for lo, hi in intervals])
        scan(tree, intervals, visit, base)

    monkeypatch.setattr(BPlusTree, "scan_intervals", recording)
    return calls


def _pair_owners(engine, rows, keep=None):
    """(row, partition) -> curve values of the row's owners, read off the pair's key span.

    With ``keep``, only the owners in it count.
    """
    owners = {}
    for tid, _ in engine.index.live_partitions():
        for row_i, (svq, uids) in enumerate(rows):
            z_list, entries = _row_span(engine, tid, svq)
            zs = [z for z, entry in zip(z_list, entries) if entry.uid in uids and (keep is None or entry.uid in keep)]
            if zs:
                owners[row_i, tid] = zs
    return owners


def _pairs_scanned(engine, rows, scans):
    """The (row, partition) pair of each interval of a query's one ``scan_intervals`` call, in scan order.

    A pair's key span starts at ``peb_key_q(tid, svq, 0)``, and an interval
    lies in one pair's span.
    """
    (intervals,) = scans  # one call per query
    zv_bits = engine.layout.zv_bits
    pair_of = {
        engine.layout.peb_key_q(tid, svq, 0) >> zv_bits: (row_i, tid)
        for tid, _ in engine.index.live_partitions()
        for row_i, (svq, _) in enumerate(rows)
    }
    assert all(lo >> zv_bits == hi >> zv_bits for lo, hi in intervals)
    return [pair_of[lo >> zv_bits] for lo, _ in intervals]


def _earlier_rule_scans(rows, partitions, found):
    """Scans under the rule the pair counts replaced.

    Each partition in turn scans every row with an owner that no earlier
    partition's scan saw; ``found[row_i, tid]`` is how many of the row's
    owners that partition's scan sees.
    """
    unseen = [len(uids) for _, uids in rows]
    n = 0
    for tid in partitions:
        for row_i in range(len(rows)):
            if unseen[row_i]:
                n += 1
                unseen[row_i] -= found.get((row_i, tid), 0)
    return n


def test_queries_scan_only_the_pairs_that_hold_an_owner(churned_instance, scans):
    cfg, current, _, peb, _, knn_queries = churned_instance
    live = [tid for tid, _ in peb.index.live_partitions()]
    assert len(live) == 3
    range_queries = gen_queries(cfg, "range", list(current.values()), now=70.0, count=40)
    fewer = ownerless = idle = 0
    for req in range_queries + knn_queries:
        rows = peb.friends.rows(req.qid)
        # only owners whose policy window holds t_q count
        held = _pair_owners(peb, rows)
        owners = _pair_owners(peb, rows, _active(peb.store, req.qid, [u for _, us in rows for u in us], req.t_q))
        # a pair's interval meets every active owner it holds, whatever the window
        found = {pair: len(zs) for pair, zs in owners.items()}
        scans.clear()
        if isinstance(req, PrqRequest):
            peb.prq(req)
        else:
            peb.pknn(req)
        got = _pairs_scanned(peb, rows, scans)
        want = set(owners)
        # one interval per pair that holds an active owner, in key order: by partition, then by row
        assert got == sorted(want, key=lambda pair: pair[::-1]), req
        earlier = _earlier_rule_scans(rows, live, found)
        assert len(got) <= earlier, req
        fewer += len(got) < earlier
        ownerless += len(rows) * len(live) - len(want)
        idle += len(set(held) - want)
    assert fewer and ownerless and idle


def test_deleted_owners_leave_no_scan_and_no_answer(scans):
    cfg, current, store, peb, _, knn_queries = _churned(300)
    assert len(peb.index.live_partitions()) == 3
    queries = gen_queries(cfg, "range", list(current.values()), now=70.0, count=30) + knn_queries
    before = [_pair_owners(peb, peb.friends.rows(req.qid)) for req in queries]
    # the friend lists keep naming the deleted owners
    for uid in random.Random(5).sample(sorted(current), len(current) // 4):
        peb.index.delete(uid)
        del current[uid]
    emptied = 0
    for req, owned in zip(queries, before):
        rows = peb.friends.rows(req.qid)
        owners = _pair_owners(peb, rows)
        if isinstance(req, PrqRequest):
            scans.clear()
            assert peb.prq(req) == oracle_range(current.values(), store, req), req
        else:
            scans.clear()
            assert peb.pknn(req) == oracle_knn(current.values(), store, req), req
        scanned = set(_pairs_scanned(peb, rows, scans))
        lost = set(owned) - set(owners)  # pairs whose owners were all deleted
        assert not scanned & lost, req
        assert scanned <= set(owners), req
        emptied += len(lost)
    assert emptied


def test_whole_space_knn_is_the_whole_space_range_query(churned_instance):
    # one scan serves both queries: with k at least every user and a window
    # holding every user, pknn and prq read the same pages and name the same users
    cfg, current, store, peb, _, knn_queries = churned_instance
    side = peb.grid.L
    buf = peb.index.buffer
    beyond = named = 0
    for q in knn_queries:
        # extrapolated positions may leave the space, so the window reaches past it
        xs, ys = zip(*(position_at(obj, q.t_q) for obj in current.values()))
        rect = (min(0.0, *xs), min(0.0, *ys), max(side, *xs), max(side, *ys))
        beyond += rect != (0.0, 0.0, side, side)
        cells = cells_covering(enlarge(rect, 0.0, q.t_q, peb.index.max_speeds, side), peb.grid)
        assert z_decompose(cells, peb.grid) == [(0, (1 << peb.grid.zv_bits) - 1)]
        traces = []
        for req in (PknnRequest(q.qid, q.qloc, len(current), q.t_q), PrqRequest(q.qid, rect, q.t_q)):
            peb.index.reset_io(cold=True)
            answer = peb.pknn(req) if isinstance(req, PknnRequest) else peb.prq(req)
            users = answer if isinstance(req, PrqRequest) else {uid for uid, _ in answer.neighbors}
            traces.append((users, buf.counters(), list(buf._lru)))
        assert traces[0] == traces[1], q
        assert traces[1][0] == oracle_range(current.values(), store, req), q
        assert traces[0][1].misses, q
        named += len(traces[0][0])
    assert beyond and named


@pytest.fixture(scope="module")
def churn_world():
    cfg = WorkloadConfig(
        n_users=150,
        policies_per_user=40,
        theta=0.7,
        seed=17,
        group_size=30,
        policy_side=(300.0, 800.0),
        policy_duration=(DAY / 2, DAY),
    )
    objects = {o.uid: o for o in gen_uniform(cfg)}
    policies, graph = gen_policies(sorted(objects), cfg)
    store = PolicyStore(policies, graph, sorted(objects), space_side=cfg.space_side)
    sv_map = assign_sequence_values(sorted(objects), CompatibilityIndex.from_store(store))
    # whole-number sequence values put about five owners in a friend row
    sv_bits = round(sv_map.max_value + 1.0).bit_length()
    layout = KeyLayout(tid_bits=2, sv_bits=sv_bits, zv_bits=GRID.zv_bits, frac_bits=0)
    return objects, store, sv_map, layout



@settings(max_examples=30, deadline=None)
@given(
    moves=st.lists(
        # (uid, delete?, report time, x, y); reports before t = 120 carry labels 60, 120 and 180,
        # one per partition
        st.tuples(st.integers(0, 149), st.booleans(), st.floats(0.0, 119.0), coord, coord),
        min_size=10,
        max_size=150,
    ),
    queries=st.lists(
        st.tuples(st.integers(0, 149), coord, coord, st.floats(1.0, 1000.0), st.integers(1, 8), st.floats(0.0, 150.0)),
        min_size=1,
        max_size=6,
    ),
)
def test_churned_queries_match_the_oracles(churn_world, moves, queries):
    objects, store, sv_map, layout = churn_world
    index = MovingObjectIndex(TIME_CFG, GRID, layout, sv_map=sv_map)
    current = dict(objects)
    for obj in current.values():
        index.insert(obj)
    for uid, delete, t_u, x, y in moves:
        if delete:
            if current.pop(uid, None) is not None:
                index.delete(uid)
            continue
        obj = MovingObject(uid, x, y, objects[uid].vx, objects[uid].vy, t_u)
        if uid in current:
            index.update(obj)
        else:
            index.insert(obj)
        current[uid] = obj
    engine = PebQueryEngine(index, store, FriendLists(store, sv_map, layout))
    for qid, x, y, side, k, t_q in queries:
        req = PrqRequest(qid, (x, y, x + side, y + side), t_q)
        assert engine.prq(req) == oracle_range(current.values(), store, req)
        knn = PknnRequest(qid, (x, y), k, t_q)
        assert engine.pknn(knn) == oracle_knn(current.values(), store, knn)


# -- the owner-bounded prefix scan ------------------------------------------------------

# six users per sequence value, so a key prefix holds up to six owners; users
# placed on the same spot with no velocity share a cell, so a prefix's first
# or last key is often several users' key
SPOTS = [(100.0, 100.0), (100.5, 100.5), (500.0, 500.0), (999.0, 20.0)]


@pytest.fixture(scope="module")
def owner_world():
    uids = list(range(48))
    rng = random.Random(29)
    table = PolicyTable()
    graph = RelationshipGraph()
    for owner in uids:
        roles = {}
        for viewer in uids:
            if viewer == owner or rng.random() < 0.4:
                continue
            role = f"v{viewer}"
            roles[role] = (viewer,)
            x_lo, y_lo = (0.0, 0.0) if rng.random() < 0.5 else (rng.uniform(0.0, 600.0), rng.uniform(0.0, 600.0))
            x_hi, y_hi = (1000.0, 1000.0) if x_lo == y_lo == 0.0 else (x_lo + 400.0, y_lo + 400.0)
            t_lo, t_hi = (0.0, DAY) if rng.random() < 0.5 else (rng.uniform(0.0, DAY), rng.uniform(0.0, DAY))
            table.append(owner, role, x_lo, y_lo, x_hi, y_hi, t_lo, t_hi)
        graph.set_roles(owner, roles)
    store = PolicyStore(table, graph, uids)
    sv_map = SequenceValueMap({uid: float(uid // 6) for uid in uids}, ())
    layout = KeyLayout(tid_bits=2, sv_bits=4, zv_bits=GRID.zv_bits, frac_bits=0)
    return store, sv_map, layout


speed = st.sampled_from([0.0, 1.5, -2.0])
# a spot with no velocity, or anywhere at any of the speeds
report = st.one_of(st.sampled_from(SPOTS).map(lambda spot: (spot, 0.0, 0.0)), st.tuples(st.tuples(coord, coord), speed, speed))
span = st.floats(1.0, 600.0)
window = st.one_of(
    st.tuples(st.floats(0.0, 400.0), st.floats(0.0, 400.0), st.floats(200.0, 600.0), st.floats(200.0, 600.0)),  # inside
    st.tuples(st.floats(-700.0, -1.0), st.floats(-100.0, 900.0), st.floats(700.0, 2000.0), span),  # straddling a wall
    st.tuples(st.floats(1000.5, 2000.0), st.floats(-2000.0, 2000.0), span, span),  # beyond the space
    st.tuples(st.floats(-100.0, 900.0), st.floats(-2000.0, -700.0), span, span),
)


@settings(max_examples=60, deadline=None)
@given(
    page_size=st.sampled_from([256, 320, 384, 448, 512]),  # 4 to 8 records a leaf
    placed=st.lists(report, min_size=48, max_size=48),
    moves=st.lists(
        # (uid, delete?, report time, report); reports before t = 120 carry labels 60, 120 and 180
        st.tuples(st.integers(0, 47), st.booleans(), st.one_of(st.sampled_from([0.0, 30.0, 90.0]), st.floats(0.0, 119.0)), report),
        max_size=80,
    ),
    queries=st.lists(
        st.tuples(st.integers(0, 47), window, st.integers(1, 8), st.floats(0.0, 150.0)), min_size=1, max_size=6
    ),
)
def test_each_prefix_scan_ends_on_the_leaf_of_its_last_active_owner(owner_world, page_size, placed, moves, queries):
    store, sv_map, layout = owner_world
    index = MovingObjectIndex(TIME_CFG, GRID, layout, sv_map=sv_map, page_size=page_size)
    current = {}
    for uid, ((x, y), vx, vy) in enumerate(placed):
        current[uid] = MovingObject(uid, x, y, vx, vy, 0.0)
        index.insert(current[uid])
    for uid, delete, t_u, ((x, y), vx, vy) in moves:
        if delete:
            if current.pop(uid, None) is not None:
                index.delete(uid)
            continue
        moved = uid in current
        current[uid] = MovingObject(uid, x, y, vx, vy, t_u)
        (index.update if moved else index.insert)(current[uid])
    tree = index.tree
    engine = PebQueryEngine(index, store, FriendLists(store, sv_map, layout))
    # what each query asks of the index: the uids whose keys it looks up,
    # and per scan its intervals, each with the leaves read for it: those
    # read from the end of the interval before, when visit returned true,
    # to the end of its own
    lookups, scans = [], []
    keys_of, scan, touch = index.keys_of, tree.scan_intervals, tree.touch_page

    def recording_keys_of(uids):
        lookups.append(sorted(uids))
        return keys_of(uids)

    def recording_scan(intervals, visit, base=0):
        reads = [[] for _ in intervals]
        scans.append(([(base + lo, base + hi) for lo, hi in intervals], reads))
        ended = 0  # the intervals visit has ended

        def recording_visit(leaf, i, j):
            nonlocal ended
            done = visit(leaf, i, j)
            ended += bool(done)
            return done

        def recording_touch(page_id):
            node = touch(page_id)
            if node.leaf:
                reads[ended].append(page_id)
            return node

        tree.touch_page = recording_touch
        try:
            scan(intervals, recording_visit, base)
        finally:
            tree.touch_page = touch
        assert ended == len(intervals)  # visit ends every interval

    index.keys_of, tree.scan_intervals = recording_keys_of, recording_scan
    # each leaf's place in the chain and the leaf of each (key, uid), read without a charge
    leaves = [pid for pid, node in tree.pages.items() if node.leaf]
    first = (set(leaves) - {tree.pages[pid].next_leaf for pid in leaves}).pop()
    place, leaf_of, pid = {}, {}, first
    while pid is not None:
        place[pid] = len(place)
        node = tree.pages[pid]
        leaf_of.update((composite, pid) for composite in zip(node.keys, node.uids))
        pid = node.next_leaf
    zv_bits = layout.zv_bits
    for qid, (x_lo, y_lo, w, h), k, t_q in queries:
        active = sorted(_active(store, qid, store.owners_naming(qid), t_q))
        # the prefix of each active owner's entry, with its owners' (key, uid) ascending
        owners_at: dict[int, list[tuple[int, int]]] = {}
        for uid in active:
            if uid in current:
                key = index._current[uid]
                owners_at.setdefault(key >> zv_bits, []).append((key, uid))
        for req in (PrqRequest(qid, (x_lo, y_lo, x_lo + w, y_lo + h), t_q), PknnRequest(qid, (x_lo, y_lo), k, t_q)):
            lookups.clear()
            scans.clear()
            index.reset_io(cold=True)
            if isinstance(req, PrqRequest):
                assert engine.prq(req) == oracle_range(current.values(), store, req)
                misses_space = x_lo + w < 0 or y_lo + h < 0 or x_lo > 1000.0 or y_lo > 1000.0
            else:
                assert engine.pknn(req) == oracle_knn(current.values(), store, req)
                misses_space = False
            if misses_space:
                # answered empty before any lookup or read
                assert (lookups, scans, index.buffer.counters().reads) == ([], [], 0)
                continue
            # one lookup a query, of exactly the active owners
            assert lookups == [active]
            # one scan a query, of one interval per prefix that holds an active
            # owner, ascending, each over its first active owner's key to its
            # last, and no leaf read for it past the one that holds its last
            # active owner
            ((intervals, reads),) = scans
            assert [lo >> zv_bits for lo, _ in intervals] == sorted(owners_at)
            for (lo, hi), read in zip(intervals, reads):
                owners = sorted(owners_at[lo >> zv_bits])
                assert (lo, hi) == (owners[0][0], owners[-1][0])
                assert all(place[pid] <= place[leaf_of[owners[-1]]] for pid in read)


# -- baseline kNN against the interval-merging reference ------------------------------------


def _merge_intervals(a, b):
    """Union of two interval lists as sorted disjoint non-adjacent intervals."""
    merged = []
    for lo, hi in sorted(a + b):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


class _MergingBaseline(BaselineQueryEngine):
    """The baseline engine as it stood when each round merged its new intervals into the covered ones."""

    def _visible_in(self, rect, t_q, active, window, scanned):
        out = []
        for tid, label in self.index.live_partitions():
            cells = cells_covering(enlarge(rect, label, t_q, self.index.max_speeds, self.grid.L), self.grid)
            done = scanned.setdefault(tid, [])
            zivs = subtract_intervals(z_decompose(cells, self.grid), done)
            scanned[tid] = _merge_intervals(done, zivs)
            if zivs:
                self.index.tree.scan_intervals(zivs, records_into(out), self.layout.bx_key(tid, 0))
        x_lo, y_lo, x_hi, y_hi = window or (-math.inf, -math.inf, math.inf, math.inf)
        p = self.store.policies
        found = []
        for e in out:
            row = active.get(e.uid)
            px, py = e.x + e.vx * (t_q - e.t), e.y + e.vy * (t_q - e.t)
            if (
                row is not None
                and x_lo <= px <= x_hi
                and y_lo <= py <= y_hi
                and p.x_lo[row] <= px <= p.x_hi[row]
                and p.y_lo[row] <= py <= p.y_hi[row]
            ):
                found.append((e.uid, px, py))
        return found


@pytest.mark.parametrize("instance", ["churned_instance", "churned_large_instance"])
def test_bx_knn_matches_the_merging_reference(instance, request):
    _, current, store, _, bx, queries = request.getfixturevalue(instance)
    assert len(bx.index.live_partitions()) == 3
    reference = _MergingBaseline(bx.index, store)
    buf = bx.index.buffer
    for cold_each in (True, False):
        traces = []
        for call in (reference.knn_query, bx.knn_query):
            bx.index.reset_io(cold=True)
            trace = []
            for req in queries:
                if cold_each:
                    bx.index.reset_io(cold=True)
                trace.append((call(req), buf.counters(), list(buf._lru)))
            traces.append(trace)
        want, got = traces
        for req, g, w in zip(queries, got, want):
            assert g == w, (req, cold_each)


@pytest.mark.parametrize("instance", ["churned_instance", "churned_large_instance"])
def test_bx_hands_no_entry_to_its_visitor_twice_in_one_query(instance, request, monkeypatch):
    # a kNN search's rounds nest and each scans only the blocks the last round
    # did not, and a uid has one entry, so the visitor needs no re-read guard
    cfg, current, _, _, bx, knn_queries = request.getfixturevalue(instance)
    assert len(bx.index.live_partitions()) == 3
    handed, calls = [], []
    scan = BPlusTree.scan_intervals

    def recording(tree, intervals, visit, base=0):
        def spy(leaf, i, j):
            handed.extend((leaf.page_id, uid) for uid in leaf.uids[i:j])
            return visit(leaf, i, j)

        calls.append(base)
        scan(tree, intervals, spy, base)

    monkeypatch.setattr(BPlusTree, "scan_intervals", recording)
    range_queries = gen_queries(cfg, "range", list(current.values()), now=70.0, count=20)
    rounds = []
    for req in [*knn_queries, *range_queries]:
        handed.clear()
        calls.clear()
        (bx.range_query if isinstance(req, PrqRequest) else bx.knn_query)(req)
        assert handed and len(set(handed)) == len(handed), req
        rounds.append(len(calls))
    # most kNN searches take several rounds, each scanning the three partitions
    assert sum(n > 3 for n in rounds[: len(knn_queries)]) > len(knn_queries) // 2


# -- golden answers and I/O ------------------------------------------------------

GOLDEN_CONFIGS = {
    "uniform": WorkloadConfig(n_users=2000, policies_per_user=10, seed=3),
    "visible": WorkloadConfig(
        n_users=2000, policies_per_user=10, seed=3, policy_side=(400.0, 1000.0), policy_duration=(DAY / 2, DAY)
    ),
    "network": WorkloadConfig(n_users=2000, distribution="network", policies_per_user=10, seed=3),
}

# sha256 per (engine, query kind) of every query's answer and charged-I/O
# delta over three query points (set-up and two update rounds).  The bx
# digests were written before the table-driven curve decomposition, so they
# pin that every answer and every page read, and with them the buffer's LRU
# order, stayed bit-identical.  The peb digests were re-pinned when scans
# became per (friend row, partition) pair: every answer stayed the same, and
# no batch's total misses rose (in the two-partition round they fell from
# 66 to 63 for range and from 62 to 59 for kNN in each configuration).  They
# were re-pinned again when owners whose policy window misses t_q stopped
# being counted into the pairs: every answer stayed the same (the answer
# digests below held), and no batch's total misses rose.  Per configuration,
# the range / kNN batches of the three query points went
#   uniform  43 / 43, 63 / 59, 46 / 46 -> 43 / 42, 48 / 47, 43 / 39
#   visible  43 / 43, 63 / 59, 47 / 47 -> 43 / 43, 56 / 58, 47 / 47
#   network  43 / 43, 63 / 59, 47 / 47 -> 43 / 42, 48 / 47, 44 / 41
# They were re-pinned a third time when a partition's scans began to hold the
# cursor's leaf from one key prefix to the next, in place of a seek from the
# root per prefix: the skipped seeks read only pages the same query had just
# read, so every answer and every batch's misses stayed the same (the misses
# digests below held) and only page reads fell.  Per configuration, the
# range / kNN batches' reads at the three query points went
#   uniform  275 / 266, 255 / 271, 281 / 255 -> 265 / 242, 239 / 255, 267 / 235
#   visible  581 / 622, 656 / 609, 587 / 564 -> 499 / 524, 576 / 539, 527 / 502
#   network  275 / 266, 254 / 271, 287 / 255 -> 265 / 242, 238 / 255, 273 / 237
# They were re-pinned a fourth time when each key prefix began to be scanned
# over one interval, from its first active owner's key to its last, in place
# of the range query's enlarged and decomposed window and the kNN query's
# full span: every answer stayed the same (the answer digests held).  The
# batches' reads went
#   uniform  265 / 242, 239 / 255, 267 / 235 -> 256 / 242, 236 / 254, 263 / 234
#   visible  499 / 524, 576 / 539, 527 / 502 -> 495 / 524, 512 / 539, 526 / 502
#   network  265 / 242, 238 / 255, 273 / 237 -> 256 / 241, 235 / 254, 265 / 237
# and their misses did not move (see the misses digests below).
GOLDEN_QUERY_DIGESTS = {
    "uniform": {
        ("peb", "range"): "3f105387c7e997222ee5f2592ac8bd9bef3e8fdaa3bf7073abb2c0a2f88ea59a",
        ("peb", "knn"): "979c105f4fcfa0c0e1af2a6f8248a4a11271f7f8a4ec71030ad5ecf08c8d471b",
        ("bx", "range"): "ad1ce88fb03358e1038cfbe1e865eef050db8dd4890dd63acbf23a3f3bfa7d66",
        ("bx", "knn"): "ffb7dafd2220d2f3f9fca24c5a98314a5456be9b40a6bcfedb717adb1ac49ab9",
    },
    "visible": {
        ("peb", "range"): "8aa6b3b2677f4bc36f60e0768050419c16a3b4fd0da06e9d8844829432579c92",
        ("peb", "knn"): "bf8afd19ef3faa4050e509f09a53d6686408d0230c253e15a9a23a100781c9ef",
        ("bx", "range"): "7e519e278146303811afd5b88cfdfb4852185e9fd2db41b4c2f56f879fdbc05c",
        ("bx", "knn"): "caa694db4b0013a26e9c8886ccda84b6398bdbdd00933687e4a02405d6702a11",
    },
    "network": {
        ("peb", "range"): "4a0c302aeb2b245ed27b69406a5792d4c2e4a3d4989e02df36fd348d14a010d5",
        ("peb", "knn"): "6fbbe97bbd801fb620daf8289dec1ec7ce2bdc66d5279ad74790fcc364eed734",
        ("bx", "range"): "690cc9562a83ad5ba69876758cfc0797230cc81b76028eb4a831f1270c0bcb46",
        ("bx", "knn"): "fdf5943ad3bbde17ea9ebb22154d3a75e4cf608bd5f7e9335c9e4d218efc4487",
    },
}


# sha256 per index kind, over the same three points, of the charged-I/O delta
# of every update and of the uid -> key map at each point.  Pinned before
# key_for computed the key in one pass and the delete path was trimmed, so
# they pin that every report kept its key and every update its page reads.
# The peb update_io digests were re-pinned with the query digests above:
# the updates start from the buffer the kNN batch left, so they move with
# the pages queries read (update misses of the two rounds went 18 + 21 ->
# 19 + 22, 18 + 21 -> 18 + 20 and 16 + 21 -> 17 + 22).  The cold-buffer
# update digests below, with no query before the updates, did not move.
# The update_io rows, and the cold_update_io rows below, were re-pinned when
# an underflow began to read its right sibling only when the left one cannot
# lend: every tree stayed page for page the same (the query, answer, keys
# and misses digests held), and each round's update reads fell, by 49 + 109,
# 45 + 120 and 46 + 120 (peb) and 46 + 141, 46 + 141 and 63 + 107 (bx).  The
# update misses of the two rounds went
#   uniform  peb 19 + 22 -> 14 + 22, bx 21 + 23 -> 21 + 25
#   visible  peb 18 + 20 -> 13 + 20, bx 21 + 23 -> 21 + 25
#   network  peb 17 + 22 -> 14 + 22, bx 35 + 24 -> 32 + 22
# and from a cold buffer (the cold_update_io rows)
#   uniform  peb 61 + 69 -> 56 + 68, bx 66 + 73 -> 66 + 75
#   visible  peb 61 + 69 -> 56 + 69, bx 66 + 73 -> 66 + 75
#   network  peb 59 + 69 -> 56 + 68, bx 81 + 73 -> 78 + 72
# bx's second round in uniform and visible misses two pages more: a right
# sibling the eager read kept recent can be evicted before its next read
GOLDEN_UPDATE_DIGESTS = {
    "uniform": {
        ("peb", "update_io"): "0b7c83cee1f314edcd6396b4b9d4fcf314b15ed2bb677c7ad6e3eb1e867fc0f3",
        ("peb", "keys"): "0234ec84a392e601701935ea5fa411a2247fee66be7fa0ce7b544e769ccb043c",
        ("bx", "update_io"): "9070e8623264961d31262676963245f4fd4e2f84412ff2fccf99972d19b7b6d7",
        ("bx", "keys"): "71ee1b34b2dab9af0969cbeaebc5c2f9478886ed6340a54d4479c1acd49aeae0",
    },
    "visible": {
        ("peb", "update_io"): "09365abf09b7a0dd1420f4e5e882521fb9b22dbf3a585941bb302bc406c9f453",
        ("peb", "keys"): "da2e44d8d35e284e0f30cb6212570ee25dc9d833f90047ca856bd5db736fc14b",
        ("bx", "update_io"): "9070e8623264961d31262676963245f4fd4e2f84412ff2fccf99972d19b7b6d7",
        ("bx", "keys"): "71ee1b34b2dab9af0969cbeaebc5c2f9478886ed6340a54d4479c1acd49aeae0",
    },
    "network": {
        ("peb", "update_io"): "6b17f8bdcd09c6be9e8e22a0c6fb034583616ad578fd6e5a3cafe45587ee45f8",
        ("peb", "keys"): "8dad1e1eaaf131f54be8dd796d0069b5c5afe2c231f641f4c4de51764c1eecca",
        ("bx", "update_io"): "3de4215f00041c01a4ed8ee00f818fdb8f56d3985862a4ced16363f14b771122",
        ("bx", "keys"): "eb0ba519e954cce5af0e349a28af9807f388132681918a186138f00747949be0",
    },
}


# sha256 per config and index kind of every query's answer alone, both kinds
# over the three query points, and of every update's charged-I/O delta when
# each update round starts from an empty buffer, as perfbench measures it.
# Neither depends on which pages a query reads, so a change that only moves
# query I/O leaves them as they are.  The cold_update_io rows were re-pinned
# with the update_io rows above, when an underflow stopped reading a right
# sibling it does not need
GOLDEN_ANSWER_DIGESTS = {
    "uniform": {
        ("peb", "answers"): "eaad488fccd928eb9eb954c0bd26aae59ed770f9a1e1b83d5827e8c824038f6e",
        ("peb", "cold_update_io"): "4c7e1aaf9382a48a489c787a4377a4e3ef93c0db4da5f76458f17c1ead26818b",
        ("bx", "answers"): "eaad488fccd928eb9eb954c0bd26aae59ed770f9a1e1b83d5827e8c824038f6e",
        ("bx", "cold_update_io"): "77927b12b03701c682449708f5c40045b79e0c2da95445e6649bef3fdb84efe6",
    },
    "visible": {
        ("peb", "answers"): "c1f989ca8f2e90b81d655dfd66a0c268572b2842732018be3dcfa0d72788876a",
        ("peb", "cold_update_io"): "72335c6a9309a296f5cc0a6093e0b7378fe14d851eab410a44310e707323798e",
        ("bx", "answers"): "c1f989ca8f2e90b81d655dfd66a0c268572b2842732018be3dcfa0d72788876a",
        ("bx", "cold_update_io"): "77927b12b03701c682449708f5c40045b79e0c2da95445e6649bef3fdb84efe6",
    },
    "network": {
        ("peb", "answers"): "057c0d336ec6015ac21349a4f6f02296f9727e0ae5718cf1fc501baf58195c1b",
        ("peb", "cold_update_io"): "39c90d5bc7be8555e4f73c86f4d5523125d2b954d54855bb5ae502cc932b4041",
        ("bx", "answers"): "057c0d336ec6015ac21349a4f6f02296f9727e0ae5718cf1fc501baf58195c1b",
        ("bx", "cold_update_io"): "d65900c200c72846daf1f875c0a70b7e05eea32cc9bebecffef45f7f6e743b0b",
    },
}


# sha256 per config and index kind of every query's answer with its charged
# misses and leaf misses, but not its page reads, over the same three points
# and batches as the query digests above.  A change that reads fewer pages
# but charges the same misses, as skipping a seek onto a page the same query
# has just read does, leaves them as they are.  The peb rows were re-pinned
# with the query digests' fourth re-pinning.  Each batch starts from an empty
# buffer that holds the whole tree, so its misses are the pages it touches,
# and no batch's misses moved: per configuration, the range / kNN batches of
# the three query points charged
#   uniform  43 / 42, 48 / 47, 43 / 39 -> 43 / 42, 48 / 47, 43 / 39
#   visible  43 / 43, 56 / 58, 47 / 47 -> 43 / 43, 56 / 58, 47 / 47
#   network  43 / 42, 48 / 47, 44 / 41 -> 43 / 42, 48 / 47, 44 / 41
# misses.  Yet in a few range batches a leaf miss moved from one query to
# a later one: the earlier query no longer reads that leaf, and the later
# one is the first to read it (one pair of queries in each of network's
# three rounds and in visible's last round), so those two rows moved; the
# uniform row did not.
GOLDEN_MISS_DIGESTS = {
    "uniform": {
        ("peb", "misses"): "949c5880633dc16144ec956fc8d6a1514144e20b129bcacdc77cc897169ea9c5",
        ("bx", "misses"): "5106e4eaf516c9f46fffa653e5a866358b72fa3e168c8c3549401f8b77dc15c5",
    },
    "visible": {
        ("peb", "misses"): "f48a0959cfdf1ee0ee70dfbba5f3f5a17155e2f738126b2b0ccc18d3cfd6b331",
        ("bx", "misses"): "7024dcd33a087fea6d047b0187092319febb8f9b28b17a0216828ae020eae3e3",
    },
    "network": {
        ("peb", "misses"): "5f7817c7a7bcd652ae37ac3327c6d0f5fadeb6fad2af22137f646a72fc2c624b",
        ("bx", "misses"): "4b022f288e6f027b7e490ecbd5ae1f6b6c0a00aa9ebf33f42a385d8d72639df5",
    },
}


def _record_update_io(index, digest) -> None:
    """Hash the charged-I/O delta of every update through ``index.update``."""
    apply = index.update

    def update(obj):
        before = index.buffer.counters()
        apply(obj)
        digest.update(f"{obj.uid}|{[a - b for a, b in zip(index.buffer.counters(), before)]}\n".encode())

    index.update = update  # run_update_round calls it through the instance


def query_digests(cfg: WorkloadConfig, rounds: int, count: int) -> dict[tuple[str, str], str]:
    inst = build_instance(cfg)
    engines = {
        "peb": (inst.peb, inst.peb_engine.prq, inst.peb_engine.pknn),
        "bx": (inst.bx, inst.bx_engine.range_query, inst.bx_engine.knn_query),
    }
    records = ("range", "knn", "answers", "misses", "update_io", "keys")
    digests = {(name, record): hashlib.sha256() for name in engines for record in records}
    for name, (index, _, _) in engines.items():
        _record_update_io(index, digests[name, "update_io"])
    for round_no in range(rounds + 1):
        if round_no:
            run_update_round(inst)
        for name, (index, _, _) in engines.items():
            digests[name, "keys"].update(f"{sorted(index._current.items())}\n".encode())
        objects = list(inst.objects.values())
        horizon = inst.peb.time_cfg.delta_t_mu
        for kind in ("range", "knn"):
            queries = gen_queries(cfg, kind, objects, now=inst.now, horizon=horizon, count=count)
            for name, (index, run_range, run_knn) in engines.items():
                index.reset_io(cold=True)
                digest = digests[name, kind]
                for q in queries:
                    before = index.buffer.counters()
                    if kind == "range":
                        answer = ",".join(map(str, sorted(run_range(q))))
                    else:
                        got = run_knn(q)
                        answer = ",".join(f"{uid}:{d.hex()}" for uid, d in got.neighbors) + f";{got.short}"
                    after = index.buffer.counters()
                    delta = [a - b for a, b in zip(after, before)]
                    digest.update(f"{answer}|{delta}\n".encode())
                    digests[name, "answers"].update(f"{kind}|{answer}\n".encode())
                    digests[name, "misses"].update(f"{kind}|{answer}|{delta[1]},{delta[3]}\n".encode())
    return {key: d.hexdigest() for key, d in digests.items()}


def cold_update_digests(cfg: WorkloadConfig, rounds: int) -> dict[tuple[str, str], str]:
    """sha256 per index kind of every update's charged-I/O delta, each round from an empty buffer.

    No query runs, so the digest does not depend on the pages queries
    leave in the buffer; the reports are those of :func:`query_digests`,
    whose queries change no entry.
    """
    inst = build_instance(cfg)
    digests = {}
    for name, index in (("peb", inst.peb), ("bx", inst.bx)):
        digests[name, "cold_update_io"] = hashlib.sha256()
        _record_update_io(index, digests[name, "cold_update_io"])
    for _ in range(rounds):
        inst.peb.reset_io(cold=True)
        inst.bx.reset_io(cold=True)
        run_update_round(inst)
    return {key: d.hexdigest() for key, d in digests.items()}


@functools.cache
def golden_digests(name: str) -> dict[tuple[str, str], str]:
    cfg = GOLDEN_CONFIGS[name]
    return {**query_digests(cfg, rounds=2, count=40), **cold_update_digests(cfg, rounds=2)}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_answers_and_io_match_golden_digests(name):
    digests = golden_digests(name)
    assert {key: digests[key] for key in GOLDEN_QUERY_DIGESTS[name]} == GOLDEN_QUERY_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_update_io_and_keys_match_golden_digests(name):
    digests = golden_digests(name)
    assert {key: digests[key] for key in GOLDEN_UPDATE_DIGESTS[name]} == GOLDEN_UPDATE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_answers_and_cold_update_io_match_golden_digests(name):
    digests = golden_digests(name)
    assert {key: digests[key] for key in GOLDEN_ANSWER_DIGESTS[name]} == GOLDEN_ANSWER_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_answers_and_misses_match_golden_digests(name):
    digests = golden_digests(name)
    assert {key: digests[key] for key in GOLDEN_MISS_DIGESTS[name]} == GOLDEN_MISS_DIGESTS[name]


@pytest.fixture(scope="module")
def uniform_instance():
    return build_instance(GOLDEN_CONFIGS["uniform"])


@pytest.mark.parametrize("kind, seeks, prefixes", [("range", 128, 133), ("knn", 120, 132)])
def test_a_peb_batch_seeks_fewer_times_than_it_scans_prefixes(
    uniform_instance, scans, monkeypatch, kind, seeks, prefixes
):
    # a query's one scan holds the cursor's leaf from one key prefix's
    # interval to the next, so a prefix that starts on the held leaf is read
    # without a seek
    inst = uniform_instance
    cfg = GOLDEN_CONFIGS["uniform"]
    descents = []
    descend = BPlusTree.descend

    def counted(tree, key):
        descents.append(key)
        return descend(tree, key)

    monkeypatch.setattr(BPlusTree, "descend", counted)
    run = inst.peb_engine.prq if kind == "range" else inst.peb_engine.pknn
    objects = list(inst.objects.values())
    queries = gen_queries(cfg, kind, objects, now=inst.now, horizon=inst.peb.time_cfg.delta_t_mu, count=40)
    for req in queries:
        run(req)
    assert len(scans) == len(queries)
    assert (len(descents), sum(map(len, scans))) == (seeks, prefixes)
    assert seeks < prefixes


@pytest.mark.parametrize(
    "rect",
    [
        (1500.0, 1500.0, 1600.0, 1600.0),
        (-300.0, -300.0, -200.0, -200.0),
        (1500.0, 400.0, 1600.0, 600.0),
        (400.0, -400.0, 600.0, -300.0),
    ],
)
def test_window_outside_the_space_answers_empty_without_reads(uniform_instance, rect):
    inst = uniform_instance
    for index, run in ((inst.peb, inst.peb_engine.prq), (inst.bx, inst.bx_engine.range_query)):
        for qid, t_q in ((5, 10.0), (17, 95.0)):
            req = PrqRequest(qid, rect, t_q)
            index.reset_io(cold=True)
            assert run(req) == set() == oracle_range(inst.objects.values(), inst.store, req)
            assert index.buffer.counters().reads == 0


def test_regions_beyond_the_space_are_refused_so_skipped_windows_stay_exact():
    # the owner moves past the wall at x = 1000; its key clamps to the edge
    # column, while its extrapolated position reaches a window beyond the space
    objects = {1: MovingObject(1, 500.0, 500.0, 0.0, 0.0, 0.0), 2: MovingObject(2, 999.0, 500.0, 2.5, 0.0, 0.0)}
    req = PrqRequest(1, (1200.0, 400.0, 1400.0, 600.0), 100.0)
    graph = RelationshipGraph()
    graph.set_roles(2, {"u1": (1,)})

    def one_policy(rect):
        table = PolicyTable()
        table.append(2, "u1", *rect, 0.0, 24.0)
        return table

    for rect in ((0.0, 0.0, 2000.0, 1000.0), (-1.0, 0.0, 1000.0, 1000.0), (0.0, 0.0, 1000.0, 1000.5)):
        with pytest.raises(ValueError, match="reaches beyond the space"):
            PolicyStore(one_policy(rect), graph, objects, space_side=1000.0)
    # the largest region the space admits: the window misses it, and no page is read
    store = PolicyStore(one_policy((0.0, 0.0, 1000.0, 1000.0)), graph, objects)
    peb, bx = build_engines(objects, store)
    for engine, run in ((peb, peb.prq), (bx, bx.range_query)):
        engine.index.reset_io(cold=True)
        assert run(req) == set() == oracle_range(objects.values(), store, req)
        assert engine.index.buffer.counters().reads == 0
    # a window over the owner's position inside the space still finds it
    inside = PrqRequest(1, (990.0, 450.0, 1000.0, 550.0), 0.2)
    assert peb.prq(inside) == bx.range_query(inside) == oracle_range(objects.values(), store, inside) == {2}


if __name__ == "__main__":
    # print the current golden digests in the form of the tables above, so
    # re-pinning after a change that moves them is one command:
    # PYTHONPATH=src python tests/test_query.py
    tables = {
        "GOLDEN_QUERY_DIGESTS": ("range", "knn"),
        "GOLDEN_UPDATE_DIGESTS": ("update_io", "keys"),
        "GOLDEN_ANSWER_DIGESTS": ("answers", "cold_update_io"),
        "GOLDEN_MISS_DIGESTS": ("misses",),
    }
    current = {name: golden_digests(name) for name in GOLDEN_CONFIGS}
    for table, records in tables.items():
        print(f"{table} = {{")
        for name, digests in current.items():
            print(f'    "{name}": {{')
            for engine in ("peb", "bx"):
                for record in records:
                    print(f'        ("{engine}", "{record}"): "{digests[engine, record]}",')
            print("    },")
        print("}")
