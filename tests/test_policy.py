import hashlib
import math
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from pebtree.keys import assign_sequence_values
from pebtree.query import _visible
from pebtree.policy import (
    DAY,
    CompatibilityIndex,
    _alpha_mutual,
    _degree,
    LocationPrivacyPolicy,
    PolicyStore,
    PolicyTable,
    RelationshipGraph,
    alpha,
    compatibility,
    load_policies,
    load_relationships,
    save_policies,
    save_relationships,
    time_set_duration,
    time_set_overlap,
)
from pebtree.workload import WorkloadConfig, gen_policies

SIDE = 1000.0
FULL_RECT = (0.0, 0.0, SIDE, SIDE)


def policy(owner, target, rect, t_lo, t_hi, graph):
    role = f"u{target}"
    graph.add(owner, role, target)
    return LocationPrivacyPolicy(owner, role, rect, t_lo, t_hi)


def overlap_area_oracle(r1, r2, steps=400):
    """Grid sampling of the intersection area (coarse but independent)."""
    hits = 0
    rng = random.Random(12345)
    for _ in range(steps * steps):
        x = rng.uniform(0, SIDE)
        y = rng.uniform(0, SIDE)
        if r1[0] <= x <= r1[2] and r1[1] <= y <= r1[3] and r2[0] <= x <= r2[2] and r2[1] <= y <= r2[3]:
            hits += 1
    return hits / (steps * steps) * SIDE * SIDE


def make_store(policy_specs, users):
    graph = RelationshipGraph()
    policies = [policy(o, t, rect, lo, hi, graph) for o, t, rect, lo, hi in policy_specs]
    return PolicyStore(policies, graph, users, space_side=SIDE)


def test_alpha_full_coverage_is_mutual_one():
    g = RelationshipGraph()
    p12 = policy(1, 2, FULL_RECT, 0.0, DAY, g)
    p21 = policy(2, 1, FULL_RECT, 0.0, DAY, g)
    assert alpha(p12, p21, SIDE) == pytest.approx(1.0)


def test_alpha_one_sided_half_area_half_day():
    g = RelationshipGraph()
    p12 = policy(1, 2, (0.0, 0.0, SIDE / 2, SIDE), 0.0, DAY / 2, g)
    assert alpha(p12, None, SIDE) == pytest.approx(0.125)


def test_alpha_rect_overlap_quarter():
    g = RelationshipGraph()
    r1 = (0.0, 0.0, 500.0, 1000.0)
    r2 = (250.0, 0.0, 750.0, 1000.0)
    p12 = policy(1, 2, r1, 0.0, DAY, g)
    p21 = policy(2, 1, r2, 0.0, DAY, g)
    assert alpha(p12, p21, SIDE) == pytest.approx(0.25)
    assert overlap_area_oracle(r1, r2) / (SIDE * SIDE) == pytest.approx(0.25, abs=0.01)


def test_alpha_no_policies_is_zero():
    assert alpha(None, None, SIDE) == 0.0


def test_compatibility_cases():
    store = make_store(
        [
            (1, 2, FULL_RECT, 0.0, DAY),
            (2, 1, FULL_RECT, 0.0, DAY),
            # one-way pair
            (3, 4, (0.0, 0.0, 100.0, 100.0), 8.0, 17.0),
            # both ways but time-disjoint: falls into the one-sided formula
            (5, 6, (0.0, 0.0, 500.0, 500.0), 0.0, 6.0),
            (6, 5, (0.0, 0.0, 500.0, 500.0), 12.0, 18.0),
        ],
        users=range(1, 8),
    )
    mutual = compatibility(store, 1, 2)
    assert mutual.mutual and mutual.alpha == pytest.approx(1.0) and mutual.c == pytest.approx(1.0)
    one_way = compatibility(store, 3, 4)
    assert not one_way.mutual
    assert one_way.c == one_way.alpha > 0
    disjoint = compatibility(store, 5, 6)
    assert not disjoint.mutual and 0 < disjoint.c <= 0.5
    assert compatibility(store, 1, 7).c == 0.0
    # symmetric in arguments
    assert compatibility(store, 4, 3) == one_way


def test_worked_example_values_echoed():
    values = {(2, 1): 0.4, (4, 1): 0.9, (4, 3): 0.8, (5, 3): 0.2, (6, 3): 0.6}
    index = CompatibilityIndex.from_values(values)
    for (u, v), c in values.items():
        assert index.c(u, v) == pytest.approx(c)
        assert index.c(v, u) == pytest.approx(c)
    assert set(index.related(3)) == {4, 5, 6}
    assert set(index.related(1)) == {2, 4}
    assert set(index.related(7)) == set()


def test_related_users_symmetry_random():
    rng = random.Random(5)
    users = list(range(20))
    specs = []
    pairs = set()
    for _ in range(60):
        o, t = rng.sample(users, 2)
        if (o, t) in pairs:
            continue
        pairs.add((o, t))
        x = rng.uniform(0, 800)
        y = rng.uniform(0, 800)
        specs.append((o, t, (x, y, x + 150, y + 150), 6.0, 20.0))
    store = make_store(specs, users)
    index = CompatibilityIndex.from_store(store)
    for u in users:
        for v in index.related(u):
            assert u in index.related(v)


def test_from_store_equals_pairwise_compatibility():
    # the one-pass build against compatibility() called once per pair,
    # lower id first, bit for bit
    cfg = WorkloadConfig(n_users=600, policies_per_user=20, theta=0.5, seed=3, group_size=50)
    uids = list(range(cfg.n_users))
    policies, graph = gen_policies(uids, cfg)
    store = PolicyStore(policies, graph, uids, space_side=cfg.space_side)
    want: dict[tuple[int, int], float] = {}
    for viewer in uids:
        for owner in store.owners_naming(viewer):
            key = (owner, viewer) if owner < viewer else (viewer, owner)
            if key not in want:
                want[key] = compatibility(store, *key).c
    two_way = [key for key in want if store.directed(*key) and store.directed(key[1], key[0])]
    assert len(two_way) < len(want)
    assert any(want[key] > 0.5 for key in two_way) and any(want[key] <= 0.5 for key in two_way)
    index = CompatibilityIndex.from_store(store)
    reference = CompatibilityIndex.from_values(want, two_way)
    for (u, v), c in want.items():
        assert index.c(u, v).hex() == index.c(v, u).hex() == c.hex()
    for u in uids:
        assert index.related(u) == reference.related(u)
        assert index.two_way(u) == reference.two_way(u)
    assert assign_sequence_values(uids, index) == assign_sequence_values(uids, reference)


def reference_from_store(store):
    """The eager build that scored every sharing pair, kept as a reference."""
    side, day = store.space_side, store.day
    values: dict[tuple[int, int], float] = {}
    two_way: list[tuple[int, int]] = []
    for viewer in sorted(store.users):
        for owner in store.owners_naming(viewer):
            p, back = store.directed(owner, viewer), store.directed(viewer, owner)
            if back is None:
                a, mutual = _alpha_mutual(p, None, side, day)
            elif owner < viewer:
                a, mutual = _alpha_mutual(p, back, side, day)
                two_way.append((owner, viewer))
            else:
                continue
            values[(owner, viewer) if owner < viewer else (viewer, owner)] = _degree(a, mutual)
    return CompatibilityIndex.from_values(values, two_way), values


def assert_matches_reference(store):
    """Neighbour and two-way lists, every sharing pair's degree and the sequence values equal the eager build's."""
    index = CompatibilityIndex.from_store(store)
    reference, values = reference_from_store(store)
    for u in store.users:
        assert index.related(u) == reference.related(u)
        assert index.two_way(u) == reference.two_way(u)
    for (u, v), c in values.items():
        assert index.c(u, v).hex() == index.c(v, u).hex() == c.hex()
    users = sorted(store.users)
    assert assign_sequence_values(users, index) == assign_sequence_values(users, reference)
    return index, values


@pytest.mark.parametrize("distribution", ["uniform", "network"])
@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_from_store_equals_eager_reference(distribution, theta):
    cfg = WorkloadConfig(n_users=500, policies_per_user=20, theta=theta, seed=5, distribution=distribution)
    uids = list(range(cfg.n_users))
    policies, graph = gen_policies(uids, cfg)
    store = PolicyStore(policies, graph, uids, space_side=cfg.space_side)
    _, values = assert_matches_reference(store)
    assert len(values) > 2000


def test_from_store_equals_eager_reference_on_degenerate_policies():
    tiny = 1e-150
    store = make_store(
        [
            # an empty time set, one-sided and two-way
            (1, 2, FULL_RECT, 9.0, 9.0),
            (3, 4, FULL_RECT, 5.0, 5.0),
            (4, 3, FULL_RECT, 12.0, 12.0),
            # a zero-width and a zero-height rectangle
            (5, 6, (100.0, 0.0, 100.0, 500.0), 0.0, 12.0),
            (6, 1, (0.0, 300.0, 500.0, 300.0), 0.0, 12.0),
            # a weight that underflows: 0.5 * area * duration is below the float range
            (7, 8, (0.0, 0.0, tiny, tiny), 0.0, 1e-20),
            # a two-way pair whose mutual overlap product underflows to 0
            (9, 10, (0.0, 0.0, tiny, tiny), 0.0, 1e-20),
            (10, 9, FULL_RECT, 0.0, 12.0),
            # wrapping time sets with an empty part still weigh something
            (11, 12, (0.0, 0.0, 10.0, 10.0), 5.0, 0.0),
            (12, 13, (0.0, 0.0, 10.0, 10.0), DAY, 3.0),
            # healthy pairs next to the degenerate ones
            (1, 3, FULL_RECT, 0.0, DAY),
            (3, 1, FULL_RECT, 0.0, DAY),
            (8, 9, (0.0, 0.0, 50.0, 50.0), 8.0, 17.0),
        ],
        users=range(1, 15),
    )
    assert _alpha_mutual(store.directed(9, 10), store.directed(10, 9), SIDE, DAY) == (0.0, True)
    index, values = assert_matches_reference(store)
    zero = {pair for pair, c in values.items() if c == 0.0}
    assert zero == {(1, 2), (3, 4), (5, 6), (1, 6), (7, 8), (9, 10)}
    assert index.related(1) == [3] and index.related(9) == [8]
    assert index.related(12) == [11, 13]
    # the two-way pairs of zero degree leave the two-way lists too
    assert [index.two_way(u) for u in (1, 3, 4, 9, 10)] == [[3], [1], [], [], []]


def test_from_store_equals_eager_reference_when_no_weight_fits_a_float():
    # a space so large that every weight underflows: no pair is related
    graph = RelationshipGraph()
    policies = [policy(1, 2, FULL_RECT, 0.0, DAY, graph), policy(2, 1, FULL_RECT, 0.0, DAY, graph)]
    policies.append(policy(3, 1, FULL_RECT, 8.0, 17.0, graph))
    store = PolicyStore(policies, graph, [1, 2, 3], space_side=1e300)
    index, values = assert_matches_reference(store)
    assert set(values.values()) == {0.0}
    assert [index.related(u) for u in (1, 2, 3)] == [[], [], []]


# sha256 of every related pair's degree and of the sequence values, written
# at the commit before the columnar policy table; it pins both bit for bit
GOLDEN_DEGREES_AND_SEQUENCE_VALUES = "b3398d0c6b0aea09d2fbeaf6c83490a3ea26264405cab8a345ec6b4c5564311d"


def test_degrees_and_sequence_values_match_golden_digest():
    cfg = WorkloadConfig(n_users=2000, policies_per_user=20, theta=0.7, seed=3)
    uids = list(range(cfg.n_users))
    policies, graph = gen_policies(uids, cfg)
    index = CompatibilityIndex.from_store(PolicyStore(policies, graph, uids, space_side=cfg.space_side))
    sv_map = assign_sequence_values(uids, index)
    digest = hashlib.sha256()
    for u in uids:
        for v in index.related(u):
            if u < v:
                digest.update(f"{u},{v},{index.c(u, v).hex()}\n".encode())
    for uid, value in sorted(sv_map.values.items()):
        digest.update(f"{uid},{value.hex()}\n".encode())
    assert digest.hexdigest() == GOLDEN_DEGREES_AND_SEQUENCE_VALUES


def test_store_from_records_answers_as_from_the_table():
    cfg = WorkloadConfig(n_users=300, policies_per_user=12, theta=0.5, group_size=30, seed=8)
    uids = list(range(cfg.n_users))
    table, graph = gen_policies(uids, cfg)
    from_table = PolicyStore(table, graph, uids, space_side=cfg.space_side)
    from_list = PolicyStore(list(table), graph, uids, space_side=cfg.space_side)
    rng = random.Random(4)
    visible = 0
    for viewer in uids:
        owners = from_table.owners_naming(viewer)
        assert from_list.owners_naming(viewer) == owners
        for owner in owners:
            p = from_table.directed(owner, viewer)
            assert from_list.directed(owner, viewer) == p
            x_lo, y_lo, x_hi, y_hi = p.rect
            x, y = rng.uniform(x_lo - 10.0, x_hi + 10.0), rng.uniform(y_lo - 10.0, y_hi + 10.0)
            t = rng.uniform(-DAY, 2 * DAY)
            seen = _visible(from_table, owner, viewer, x, y, t)
            assert _visible(from_list, owner, viewer, x, y, t) == seen
            visible += seen
    assert visible > 100
    by_table, by_list = CompatibilityIndex.from_store(from_table), CompatibilityIndex.from_store(from_list)
    for u in uids:
        assert by_list.related(u) == by_table.related(u)
        assert by_list.two_way(u) == by_table.two_way(u)
        assert [by_list.c(u, v).hex() for v in by_list.related(u)] == [by_table.c(u, v).hex() for v in by_table.related(u)]
    with pytest.raises(ValueError, match="the policy table has a day of 24.0, the store 12.0"):
        PolicyStore(table, graph, uids, space_side=cfg.space_side, day=12.0)


def test_policy_table_round_trips_through_the_file(tmp_path):
    # most of these daily windows wrap past midnight
    cfg = WorkloadConfig(n_users=200, policies_per_user=10, theta=0.5, group_size=40, seed=9, policy_duration=(18.0, 23.5))
    table, _ = gen_policies(range(cfg.n_users), cfg)
    save_policies(table, tmp_path / "policies.csv")
    loaded = load_policies(tmp_path / "policies.csv")
    assert isinstance(loaded, PolicyTable) and loaded.day == table.day
    records = list(table)
    assert list(loaded) == records and len(loaded) == len(records) == 2000
    assert any(p.t_lo > p.t_hi for p in records)
    # indexing and slicing build the same records
    assert [table[i] for i in range(len(table))] == records
    assert table[-1] == records[-1]
    assert isinstance(table[10:20], PolicyTable) and list(table[10:20]) == records[10:20]
    assert list(table[::-7]) == records[::-7]
    with pytest.raises(IndexError):
        table[len(table)]


@settings(max_examples=300)
@given(data=st.data(), day=st.sampled_from([DAY, 7.0]))
def test_visible_on_the_columns_equals_the_record(data, day):
    coord = st.floats(0.0, SIDE)
    x_lo, x_hi = sorted((data.draw(coord, label="x"), data.draw(coord, label="x")))
    y_lo, y_hi = sorted((data.draw(coord, label="y"), data.draw(coord, label="y")))
    end = st.floats(0.0, day)
    t_lo, t_hi = data.draw(
        st.one_of(
            st.tuples(end, end).map(lambda w: (max(w), min(w))),  # wrapped past midnight
            end.map(lambda t: (t, t)),  # empty
            st.sampled_from([(0.0, day), (day, 0.0)]),  # the whole day, and an empty wrap
            st.tuples(end, end),
        ),
        label="window",
    )

    def near(lo, hi):
        # on an edge, just outside one, or anywhere in the space
        return st.one_of(
            st.sampled_from([lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]), coord
        )

    x, y = data.draw(near(x_lo, x_hi), label="px"), data.draw(near(y_lo, y_hi), label="py")
    k = data.draw(st.integers(-2, 2), label="days")
    t = data.draw(
        st.one_of(
            st.floats(-1e3, 1e3),
            st.sampled_from([t_lo, t_hi, 0.0, day]).map(lambda v: v + k * day),
            st.sampled_from([-1e-20, -0.0]),  # a tiny negative time's remainder rounds to the day
        ),
        label="t",
    )
    table = PolicyTable(day)
    # another policy first, so the one under test sits in row 1
    table.append(3, "u1", 0.0, 0.0, SIDE, SIDE, 0.0, day)
    table.append(1, "u2", x_lo, y_lo, x_hi, y_hi, t_lo, t_hi)
    g = RelationshipGraph()
    g.add(3, "u1", 1)
    g.add(1, "u2", 2)
    store = PolicyStore(table, g, [1, 2, 3], space_side=SIDE, day=day)
    rec = store.directed(1, 2)
    assert rec == table[1] == LocationPrivacyPolicy(1, "u2", (x_lo, y_lo, x_hi, y_hi), t_lo, t_hi, day)
    r_x_lo, r_y_lo, r_x_hi, r_y_hi = rec.rect
    in_rect = r_x_lo <= x <= r_x_hi and r_y_lo <= y <= r_y_hi
    assert _visible(store, 1, 2, x, y, t) == (in_rect and rec.active_at(t))


rect_strategy = st.tuples(
    st.floats(0, 800), st.floats(0, 800), st.floats(50, 200), st.floats(50, 200)
).map(lambda t: (t[0], t[1], min(t[0] + t[2], SIDE), min(t[1] + t[3], SIDE)))
time_strategy = st.tuples(st.floats(0, DAY), st.floats(1.0, 12.0)).map(
    lambda t: (t[0], (t[0] + t[1]) % DAY)
)


@settings(max_examples=150)
@given(r1=rect_strategy, t1=time_strategy, r2=rect_strategy, t2=time_strategy, one_sided=st.booleans())
# a mutual overlap far below the float resolution of 0.5 * (1 + alpha)
@example(
    r1=(0.125, 1.5176436128178538e-08, 50.125, 50.00000001517644),
    t1=(0.0, 1.0),
    r2=(50.0, 50.0, 100.0, 100.0),
    t2=(0.0, 1.0),
    one_sided=False,
)
def test_alpha_symmetry_and_bounds(r1, t1, r2, t2, one_sided):
    g = RelationshipGraph()
    p12 = policy(1, 2, r1, t1[0], t1[1], g)
    p21 = None if one_sided else policy(2, 1, r2, t2[0], t2[1], g)
    a_fwd = alpha(p12, p21, SIDE)
    a_rev = alpha(p21, p12, SIDE)
    assert a_fwd == pytest.approx(a_rev)
    assert 0.0 <= a_fwd <= 1.0
    store = PolicyStore([p for p in (p12, p21) if p], g, [1, 2], space_side=SIDE)
    score = compatibility(store, 1, 2)
    if score.mutual:
        assert score.c > 0.5
    else:
        # the fallback form never exceeds one half
        assert score.alpha <= 0.5 + 1e-12
        assert score.c <= 0.5 + 1e-12


@settings(max_examples=50)
@given(r1=rect_strategy, r2=rect_strategy, t1=time_strategy, t2=time_strategy)
def test_mutual_pairs_can_disclose_simultaneously(r1, r2, t1, t2):
    g = RelationshipGraph()
    p12 = policy(1, 2, r1, t1[0], t1[1], g)
    p21 = policy(2, 1, r2, t2[0], t2[1], g)
    store = PolicyStore([p12, p21], g, [1, 2], space_side=SIDE)
    score = compatibility(store, 1, 2)
    if score.mutual:
        # a shared location in the region overlap and a shared instant exist
        x = max(r1[0], r2[0])
        y = max(r1[1], r2[1])
        shared = None
        for lo1, hi1 in p12.t_int:
            for lo2, hi2 in p21.t_int:
                if min(hi1, hi2) - max(lo1, lo2) > 1e-9:
                    shared = max(lo1, lo2)
        assert shared is not None
        assert _visible(store, 1, 2, x, y, shared)
        assert _visible(store, 2, 1, x, y, shared)


def test_visibility_basics():
    store = make_store([(1, 2, (100.0, 100.0, 300.0, 300.0), 8.0, 17.0)], users=[1, 2, 3])
    assert _visible(store, 1, 2, 200.0, 200.0, 12.0)
    assert _visible(store, 1, 2, 200.0, 200.0, 12.0 + 2 * DAY)  # cyclic time
    assert not _visible(store, 1, 2, 200.0, 200.0, 20.0)  # outside hours
    assert not _visible(store, 1, 2, 50.0, 200.0, 12.0)  # outside region
    assert not _visible(store, 1, 3, 200.0, 200.0, 12.0)  # not in role
    assert not _visible(store, 2, 1, 200.0, 200.0, 12.0)  # no reverse policy


def test_visibility_unknown_user_rejected():
    # the store rejects an unknown id; visibility itself does not validate
    # ids, and an unknown user holds no policy and is named by none
    store = make_store([(1, 2, FULL_RECT, 0.0, DAY)], users=[1, 2])
    with pytest.raises(KeyError):
        store.check_user(99)
    assert not _visible(store, 99, 2, 0.0, 0.0, 0.0)
    assert not _visible(store, 1, 99, 0.0, 0.0, 0.0)


def test_one_policy_per_ordered_pair_enforced():
    g = RelationshipGraph()
    p_a = policy(1, 2, FULL_RECT, 0.0, 12.0, g)
    g.add(1, "other", 2)
    p_b = LocationPrivacyPolicy(1, "other", FULL_RECT, 12.0, 18.0)
    with pytest.raises(ValueError):
        PolicyStore([p_a, p_b], g, [1, 2])


@pytest.mark.parametrize("owner, member, uid", [(99, 2, 99), (1, 99, 99)])
def test_policy_naming_an_unknown_user_rejected(owner, member, uid):
    g = RelationshipGraph()
    p = policy(owner, member, FULL_RECT, 0.0, DAY, g)
    with pytest.raises(ValueError, match=f"policy (owner|member) {uid} is not a known user"):
        PolicyStore([p], g, [1, 2])
    assert PolicyStore([p], g, [1, 2, 99]).owners_naming(member) == [owner]


def test_wraparound_interval():
    def t_int(t_lo, t_hi):
        return LocationPrivacyPolicy(1, "u2", FULL_RECT, t_lo, t_hi).t_int

    assert t_int(20.0, 4.0) == ((0.0, 4.0), (20.0, DAY))
    assert time_set_duration(t_int(20.0, 4.0)) == pytest.approx(8.0)
    assert time_set_overlap(t_int(20.0, 4.0), t_int(22.0, 23.0)) == pytest.approx(1.0)
    assert time_set_overlap(t_int(20.0, 4.0), t_int(2.0, 6.0)) == pytest.approx(2.0)
    assert time_set_overlap(t_int(20.0, 4.0), t_int(5.0, 19.0)) == 0.0


def reference_time_set(t_lo, t_hi, day):
    """The time set a policy held before its window was stored flat."""
    if t_lo == t_hi:
        return ()
    if t_lo < t_hi:
        return ((t_lo, t_hi),)
    return ((0.0, t_hi), (t_lo, day))


def reference_time_in_set(t, t_int, day):
    tm = t % day
    return any(lo <= tm < hi for lo, hi in t_int)


def assert_window_agrees(t_lo, t_hi, day, t):
    want = reference_time_set(t_lo, t_hi, day)
    p = LocationPrivacyPolicy(1, "u2", FULL_RECT, t_lo, t_hi, day)
    assert p.t_int == want
    # bit for bit, as the degree of a one-sided pair reads it
    assert p.duration.hex() == float(time_set_duration(want)).hex()
    inside = reference_time_in_set(t, want, day)
    assert p.active_at(t) == inside
    g = RelationshipGraph()
    g.add(1, "u2", 2)
    store = PolicyStore([p], g, [1, 2], space_side=SIDE, day=day)
    assert _visible(store, 1, 2, 5.0, 5.0, t) == inside
    return inside


@pytest.mark.parametrize(
    "t_lo, t_hi, t, inside",
    [
        (8.0, 17.0, 8.0, True),  # t at the window's start
        (8.0, 17.0, 17.0, False),  # t at its end
        (8.0, 17.0, 8.0 + 3 * DAY, True),
        (0.0, 6.0, 2 * DAY, True),  # t a multiple of the day
        (20.0, 4.0, -DAY, True),
        (20.0, 4.0, 22.0, True),  # a wrapping window
        (20.0, 4.0, 3.0, True),
        (20.0, 4.0, 4.0, False),
        (20.0, 4.0, 20.0, True),
        (20.0, 4.0, 12.0, False),
        (20.0, 4.0, -1e-20, False),  # the remainder rounds to the day itself
        (9.0, 9.0, 9.0, False),  # an empty window
        (0.0, 0.0, 0.0, False),
        (DAY, 5.0, DAY, True),  # t_lo at the day's end leaves [0, t_hi)
        (DAY, 5.0, 5.0, False),
        (DAY, 0.0, 0.0, False),
        (0.0, DAY, DAY - 1e-9, True),
        (8.0, 17.0, math.nan, False),
        (20.0, 4.0, math.inf, False),
    ],
)
def test_window_edges_agree_with_the_time_set(t_lo, t_hi, t, inside):
    assert assert_window_agrees(t_lo, t_hi, DAY, t) == inside


@settings(max_examples=300)
@given(data=st.data(), day=st.sampled_from([DAY, 7.0, 1.0, 0.1]))
def test_window_agrees_with_the_time_set(data, day):
    end = st.one_of(st.floats(0.0, day), st.sampled_from([0.0, day]))
    t_lo = data.draw(end, label="t_lo")
    t_hi = data.draw(st.one_of(end, st.just(t_lo)), label="t_hi")
    k = data.draw(st.integers(-3, 3), label="days")
    t = data.draw(
        st.one_of(
            st.floats(-1e4, 1e4),
            st.sampled_from([t_lo, t_hi, 0.0, day]).map(lambda x: x + k * day),
            st.sampled_from([-1e-20, -0.0, math.nan, math.inf, -math.inf]),
        ),
        label="t",
    )
    assert_window_agrees(t_lo, t_hi, day, t)


def test_store_refuses_a_policy_of_another_day():
    g = RelationshipGraph()
    g.add(1, "u2", 2)
    p = LocationPrivacyPolicy(1, "u2", FULL_RECT, 8.0, 11.0)
    assert p.day == DAY
    # the window fits either day
    with pytest.raises(ValueError, match="policy of user 1 has a day of 24.0, the store 12.0"):
        PolicyStore([p], g, [1, 2], day=12.0)
    half_day = p._replace(day=12.0)
    # records are built on demand: an equal one comes back
    assert PolicyStore([half_day], g, [1, 2], day=12.0).directed(1, 2) == half_day
    for bad in (p._replace(t_hi=30.0), p._replace(t_lo=-1.0), p._replace(t_lo=math.nan)):
        with pytest.raises(ValueError, match=r"outside \[0, 24.0\]"):
            PolicyStore([bad], g, [1, 2])


def test_store_refuses_a_region_beyond_the_space():
    g = RelationshipGraph()
    g.add(1, "u2", 2)
    # the space's own edges, a signed zero included, lie in it
    for rect in (FULL_RECT, (-0.0, -0.0, 1.0, 1.0), (SIDE, SIDE, SIDE, SIDE)):
        assert PolicyStore([LocationPrivacyPolicy(1, "u2", rect, 8.0, 11.0)], g, [1, 2]).directed(1, 2).rect == rect
    beyond = [
        (-1e-9, 0.0, 10.0, 10.0),
        (0.0, -5.0, 10.0, 10.0),
        (0.0, 0.0, 1000.0000001, 10.0),
        (0.0, 0.0, 10.0, math.inf),
        (1200.0, 400.0, 1400.0, 600.0),
    ]
    for rect in beyond:
        table = PolicyTable()
        for owner, x in ((1, 0.0), (3, 50.0)):  # the bad row comes last
            table.append(owner, "u2", x, 0.0, x + 10.0, 10.0, 8.0, 11.0)
        table.append(4, "u2", *rect, 8.0, 11.0)
        graph = RelationshipGraph()
        for owner in (1, 3, 4):
            graph.add(owner, "u2", 2)
        message = r"region \(.*\) of user 4 reaches beyond the space \[0, 1000.0\] x \[0, 1000.0\]"
        with pytest.raises(ValueError, match=message):
            PolicyStore(table, graph, [1, 2, 3, 4])
        with pytest.raises(ValueError, match="reaches beyond the space"):
            PolicyStore([LocationPrivacyPolicy(1, "u2", rect, 8.0, 11.0)], g, [1, 2])
    # the side is the store's
    assert PolicyStore([LocationPrivacyPolicy(1, "u2", beyond[-1], 8.0, 11.0)], g, [1, 2], space_side=2000.0)


def test_policy_file_round_trip(tmp_path):
    g = RelationshipGraph()
    policies = [
        policy(1, 2, (10.0, 20.0, 110.5, 220.25), 8.0, 17.0, g),
        policy(2, 1, (0.0, 0.0, 50.0, 50.0), 22.0, 3.5, g),  # wraps midnight
        policy(3, 1, FULL_RECT, 0.0, DAY, g),
    ]
    p_path = tmp_path / "policies.csv"
    r_path = tmp_path / "relationships.csv"
    save_policies(policies, p_path)
    save_relationships(g, r_path)
    loaded = load_policies(p_path)
    assert list(loaded) == policies
    g2 = load_relationships(r_path)
    assert list(g2.records()) == list(g.records())


@pytest.mark.parametrize(
    "bad, fault",
    [
        ("2,u1,0.0,0.0,50.0,50.0,8.0", "expected 8 fields"),
        ("2,u1,0.0,0.0,nan,50.0,8.0,17.0", "x_hi is 'nan', not a finite number"),
        ("2,u1,0.0,0.0,50.0,50.0,-8.0,17.0", "t_lo is '-8.0', a negative time"),
        ("2,u1,0.0,0.0,50.0,50.0,8.0,30.0", "outside [0, 24.0]"),
        ("two,u1,0.0,0.0,50.0,50.0,8.0,17.0", "invalid literal for int"),
    ],
)
def test_load_policies_rejects_bad_line(tmp_path, bad, fault):
    path = tmp_path / "policies.csv"
    good = "1,u2,10.0,20.0,110.5,220.25,8.0,17.0\n"
    path.write_text(good + bad + "\n")
    with pytest.raises(ValueError, match=f"policies.csv, line 2: .*{re.escape(fault)}"):
        load_policies(path)
    path.write_text(good)
    assert list(load_policies(path)) == [
        LocationPrivacyPolicy(1, "u2", (10.0, 20.0, 110.5, 220.25), 8.0, 17.0)
    ]


def test_load_relationships_drops_duplicates_in_first_seen_order(tmp_path):
    records = [(1, "friends", 5), (1, "friends", 3), (2, "boss", 1), (1, "friends", 5), (1, "friends", 4)]
    records += [(1, "friends", 3), (2, "boss", 1)]
    # a large role, each member twice, neither order sorted
    records += [(7, "all", m) for m in range(20_000, 0, -1)] + [(7, "all", m) for m in range(1, 20_001)]
    path = tmp_path / "relationships.csv"
    path.write_text("".join(f"{o},{r},{m}\n" for o, r, m in records))
    graph = load_relationships(path)
    assert graph._roles == {1: {"friends": (5, 3, 4)}, 2: {"boss": (1,)}, 7: {"all": tuple(range(20_000, 0, -1))}}
    one_by_one = RelationshipGraph()
    for record in records[:7]:
        one_by_one.add(*record)
    assert one_by_one._roles == {1: {"friends": (5, 3, 4)}, 2: {"boss": (1,)}}
    assert list(graph.records())[:4] == [(1, "friends", 3), (1, "friends", 4), (1, "friends", 5), (2, "boss", 1)]
    assert graph.members(7, "all") == frozenset(range(1, 20_001))


@pytest.mark.parametrize(
    "bad, fault",
    [
        ("1,u2", "expected 3 fields (owner_id,role_label,member_id), got 2"),
        ("1,u2,2,3", "expected 3 fields"),
        ("1,u2,b", "invalid literal for int"),
    ],
)
def test_load_relationships_rejects_bad_line(tmp_path, bad, fault):
    path = tmp_path / "relationships.csv"
    path.write_text("1,u2,2\n" + bad + "\n")
    with pytest.raises(ValueError, match=f"relationships.csv, line 2: .*{re.escape(fault)}"):
        load_relationships(path)
    path.write_text("1,u2,2\n")
    assert list(load_relationships(path).records()) == [(1, "u2", 2)]
