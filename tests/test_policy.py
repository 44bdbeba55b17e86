import gc
import hashlib
import math
import random
import re
from collections import Counter, defaultdict

import pytest
from hypothesis import example, given, settings, strategies as st

from pebtree import policy
from pebtree.keys import assign_sequence_values
from pebtree.query import _visible
from pebtree.policy import (
    DAY,
    CompatibilityIndex,
    _alpha_mutual_rows,
    _degree,
    LocationPrivacyPolicy,
    PolicyStore,
    PolicyTable,
    RelationshipGraph,
    check_window,
    compatibility,
    load_policies,
    load_relationships,
    save_policies,
    save_relationships,
    time_set_overlap,
    window_contains,
    window_duration,
)
from pebtree.workload import WorkloadConfig, gen_policies
from test_keys import ValuesCompatibility

SIDE = 1000.0
FULL_RECT = (0.0, 0.0, SIDE, SIDE)
# the float columns of a policy table
COLUMNS = ("x_lo", "y_lo", "x_hi", "y_hi", "t_lo", "t_hi")


def table_and_graph(policy_specs, day=DAY):
    """A policy table and its relationship graph from ``(owner, target, rect,
    t_lo, t_hi)`` specs; each policy's role ``u<target>`` holds its target alone."""
    table, roles = PolicyTable(day), {}
    for owner, target, rect, t_lo, t_hi in policy_specs:
        table.append(owner, f"u{target}", *rect, t_lo, t_hi)
        roles.setdefault(owner, {})[f"u{target}"] = (target,)
    graph = RelationshipGraph()
    for owner, owner_roles in roles.items():
        graph.set_roles(owner, owner_roles)
    return table, graph


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


def make_store(policy_specs, users, space_side=SIDE, day=DAY):
    return PolicyStore(*table_and_graph(policy_specs, day), users, space_side=space_side, day=day)


def test_alpha_full_coverage_is_mutual_one():
    store = make_store([(1, 2, FULL_RECT, 0.0, DAY), (2, 1, FULL_RECT, 0.0, DAY)], users=[1, 2])
    a, mutual = _alpha_mutual_rows(store.policies, store.row(1, 2), store.row(2, 1), SIDE)
    assert a == pytest.approx(1.0) and mutual


def test_alpha_one_sided_half_area_half_day():
    store = make_store([(1, 2, (0.0, 0.0, SIDE / 2, SIDE), 0.0, DAY / 2)], users=[1, 2])
    a, mutual = _alpha_mutual_rows(store.policies, store.row(1, 2), store.row(2, 1), SIDE)
    assert a == pytest.approx(0.125) and not mutual


def test_alpha_rect_overlap_quarter():
    r1 = (0.0, 0.0, 500.0, 1000.0)
    r2 = (250.0, 0.0, 750.0, 1000.0)
    store = make_store([(1, 2, r1, 0.0, DAY), (2, 1, r2, 0.0, DAY)], users=[1, 2])
    a, mutual = _alpha_mutual_rows(store.policies, store.row(1, 2), store.row(2, 1), SIDE)
    assert a == pytest.approx(0.25) and mutual
    assert overlap_area_oracle(r1, r2) / (SIDE * SIDE) == pytest.approx(0.25, abs=0.01)


def test_alpha_no_policies_is_zero():
    assert _alpha_mutual_rows(PolicyTable(), None, None, SIDE) == (0.0, False)


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
    table, row = store.policies, store.row
    assert _alpha_mutual_rows(table, row(1, 2), row(2, 1), SIDE) == (pytest.approx(1.0), True)
    assert compatibility(store, 1, 2) == pytest.approx(1.0)
    one_way = compatibility(store, 3, 4)
    assert _alpha_mutual_rows(table, row(3, 4), row(4, 3), SIDE) == (one_way, False) and one_way > 0
    disjoint = compatibility(store, 5, 6)
    assert not _alpha_mutual_rows(table, row(5, 6), row(6, 5), SIDE)[1] and 0 < disjoint <= 0.5
    assert compatibility(store, 1, 7) == 0.0
    # symmetric in arguments
    assert compatibility(store, 4, 3) == one_way


def test_worked_example_values_echoed():
    values = {(2, 1): 0.4, (4, 1): 0.9, (4, 3): 0.8, (5, 3): 0.2, (6, 3): 0.6}
    index = ValuesCompatibility(values)
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
                want[key] = compatibility(store, *key)
    two_way = [key for key in want if store.row(*key) is not None and store.row(key[1], key[0]) is not None]
    assert len(two_way) < len(want)
    assert any(want[key] > 0.5 for key in two_way) and any(want[key] <= 0.5 for key in two_way)
    index = CompatibilityIndex.from_store(store)
    reference = ValuesCompatibility(want, two_way)
    for (u, v), c in want.items():
        assert index.c(u, v).hex() == index.c(v, u).hex() == c.hex()
    for u in uids:
        assert index.related(u) == reference.related(u)
        assert index.two_way(u) == reference.two_way(u)
    assert assign_sequence_values(uids, index) == assign_sequence_values(uids, reference)


def reference_from_store(store):
    """The eager build that scored every sharing pair, kept as a reference."""
    side, table = store.space_side, store.policies
    values: dict[tuple[int, int], float] = {}
    two_way: list[tuple[int, int]] = []
    for viewer in sorted(store.users):
        for owner in store.owners_naming(viewer):
            p, back = store.row(owner, viewer), store.row(viewer, owner)
            if back is None:
                a, mutual = _alpha_mutual_rows(table, p, None, side)
            elif owner < viewer:
                a, mutual = _alpha_mutual_rows(table, p, back, side)
                two_way.append((owner, viewer))
            else:
                continue
            values[(owner, viewer) if owner < viewer else (viewer, owner)] = _degree(a, mutual)
    return ValuesCompatibility(values, two_way), values


def assert_matches_reference(store):
    """Neighbour and two-way lists, every sharing pair's degree and the sequence values equal the eager build's."""
    index = CompatibilityIndex.from_store(store)
    reference, values = reference_from_store(store)
    for u in store.users:
        assert index.related(u) == reference.related(u)
        assert index.related_count(u) == reference.related_count(u)
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


TINY = 1e-150
DEGENERATE_SPECS = [
    # an empty time set, one-sided and two-way
    (1, 2, FULL_RECT, 9.0, 9.0),
    (3, 4, FULL_RECT, 5.0, 5.0),
    (4, 3, FULL_RECT, 12.0, 12.0),
    # a zero-width and a zero-height rectangle
    (5, 6, (100.0, 0.0, 100.0, 500.0), 0.0, 12.0),
    (6, 1, (0.0, 300.0, 500.0, 300.0), 0.0, 12.0),
    # a weight that underflows: 0.5 * area * duration is below the float range
    (7, 8, (0.0, 0.0, TINY, TINY), 0.0, 1e-20),
    # a two-way pair whose mutual overlap product underflows to 0
    (9, 10, (0.0, 0.0, TINY, TINY), 0.0, 1e-20),
    (10, 9, FULL_RECT, 0.0, 12.0),
    # wrapping time sets with an empty part still weigh something
    (11, 12, (0.0, 0.0, 10.0, 10.0), 5.0, 0.0),
    (12, 13, (0.0, 0.0, 10.0, 10.0), DAY, 3.0),
    # healthy pairs next to the degenerate ones
    (1, 3, FULL_RECT, 0.0, DAY),
    (3, 1, FULL_RECT, 0.0, DAY),
    (8, 9, (0.0, 0.0, 50.0, 50.0), 8.0, 17.0),
]
# the owners of a policy with a side or a time interval of (nearly) no length
DEGENERATE_OWNERS = {1, 3, 4, 5, 6, 7, 9, 11, 12}


def test_from_store_equals_eager_reference_on_degenerate_policies():
    store = make_store(DEGENERATE_SPECS, users=range(1, 15))
    assert _alpha_mutual_rows(store.policies, store.row(9, 10), store.row(10, 9), SIDE) == (0.0, True)
    index, values = assert_matches_reference(store)
    zero = {pair for pair, c in values.items() if c == 0.0}
    assert zero == {(1, 2), (3, 4), (5, 6), (1, 6), (7, 8), (9, 10)}
    assert index.related(1) == [3] and index.related(9) == [8]
    assert index.related(12) == [11, 13]
    # the two-way pairs of zero degree leave the two-way lists too
    assert [index.two_way(u) for u in (1, 3, 4, 9, 10)] == [[3], [1], [], [], []]


def test_from_store_equals_eager_reference_when_no_weight_fits_a_float():
    # a space so large that every weight underflows: no pair is related
    specs = [(1, 2, FULL_RECT, 0.0, DAY), (2, 1, FULL_RECT, 0.0, DAY), (3, 1, FULL_RECT, 8.0, 17.0)]
    store = make_store(specs, [1, 2, 3], space_side=1e300)
    assert store.weightless_owners == reference_suspects(store, reference_floor(1e300, DAY)) == {1, 2, 3}
    index, values = assert_matches_reference(store)
    assert set(values.values()) == {0.0}
    assert [index.related(u) for u in (1, 2, 3)] == [[], [], []]


def _steps(x: float, k: int, scale: float) -> float:
    """``x`` moved ``|k|`` float steps, up for ``k > 0`` and down otherwise, kept in ``[0, scale]``."""
    for _ in range(abs(k)):
        x = math.nextafter(x, scale if k > 0 else 0.0)
    return min(max(x, 0.0), scale)


# lengths near the build's floor and below it, and near the float range's end
NEAR_FLOOR = (1e-50, math.nextafter(1e-50, 0.0), 2e-50, 5e-51, 1e-66, 1e-100, 1e-150, 1e-300)


@st.composite
def adversarial_tables(draw):
    """``(specs, users, space_side, day, bad)`` of up to 6 users whose policies sit on float edges.

    Ends come from a few anchors per table (0, the space side or the day,
    its middle, drawn fractions of it, lengths near the floor), moved a few
    float steps, or lie a length near the floor past another end; windows
    are drawn in either order, so some wrap.  The space side and the day
    span enough decades that the build's floor is finite in some tables and
    infinite in others.  In about one table of four, ``bad`` is ``(row,
    column, value)``: a value for one column of one row that is not finite,
    negative, a signed zero or past the space's side or the day.
    """
    side = 10.0 ** draw(st.floats(-30, 150))
    day = 10.0 ** draw(st.floats(-20, 20))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))

    def interval(scale):
        anchors = [0.0, scale, scale / 2, *(scale * f for f in fractions), *(min(d, scale) for d in NEAR_FLOOR)]

        def near_anchor():
            return _steps(draw(st.sampled_from(anchors)), draw(st.integers(-2, 2)), scale)

        lo = near_anchor()
        kind = draw(st.sampled_from(["steps", "length", "anchor"]))
        if kind == "steps":
            return lo, _steps(lo, draw(st.integers(0, 3)), scale)
        if kind == "length":
            return lo, min(lo + draw(st.sampled_from(NEAR_FLOOR)), scale)
        return lo, near_anchor()

    n = draw(st.integers(2, 6))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    specs = []
    for owner, target in draw(st.lists(pair, unique=True, max_size=12)):
        (x_lo, x_hi), (y_lo, y_hi) = sorted(interval(side)), sorted(interval(side))
        specs.append((owner, target, (x_lo, y_lo, x_hi, y_hi), *interval(day)))
    bad = None
    if specs and draw(st.integers(0, 3)) == 0:
        column = draw(st.sampled_from(COLUMNS))
        scale = day if column.startswith("t") else side
        value = draw(st.sampled_from(boundary_values(scale)))
        bad = draw(st.integers(0, len(specs) - 1)), column, value
    return specs, range(1, n + 1), side, day, bad


def boundary_values(scale):
    """Values for a column of range ``[0, scale]``: not finite, negative, a signed zero or past its end."""
    return [math.nan, math.inf, -math.inf, -5e-324, -scale, -0.0, math.nextafter(scale, math.inf), 2 * scale]


def build_or_refuse(table, graph, users, side, day, bad=None):
    """The store of ``table`` with ``bad = (row, column, value)`` put in it, if any.

    ``None`` when the row leaves the space or the day: the store must then
    refuse the table with the message the row meets.
    """
    if bad is not None:
        row, column, value = bad
        getattr(table, column)[row] = value
        message = refusal(table, row, side, day)
        if message is not None:
            with pytest.raises(ValueError) as got:
                PolicyStore(table, graph, users, space_side=side, day=day)
            assert str(got.value) == message
            return None
    return PolicyStore(table, graph, users, space_side=side, day=day)


def ulp_overlap_specs(edge, side=SIDE, day=DAY):
    """Two policies that overlap by one float step below ``edge`` on each axis and in time."""
    below = math.nextafter(edge, 0.0)
    return [(1, 2, (0.0, 0.0, edge, edge), 0.0, edge), (2, 1, (below, below, side, side), below, day)]


@settings(max_examples=300, deadline=None)
@given(adversarial_tables())
@example((DEGENERATE_SPECS, range(1, 15), SIDE, DAY, None))
@example(
    (
        [(1, 2, FULL_RECT, 0.0, DAY), (2, 1, FULL_RECT, 0.0, DAY), (3, 1, FULL_RECT, 8.0, 17.0)],
        range(1, 4),
        1e300,
        DAY,
        None,
    )
)
# a mutual overlap of one float step per side and in time, with every policy
# longer than 1e-100 and than 1e-50: it underflows to a zero degree, which a
# floor of either size without the float-step test would miss
@example((ulp_overlap_specs(2e-100), range(1, 3), SIDE, DAY, None))
@example((ulp_overlap_specs(2e-50, 1e70, 1.0), range(1, 3), 1e70, 1.0, None))
# a NaN in a later row, and an empty region the store serves
@example((DEGENERATE_SPECS, range(1, 15), SIDE, DAY, (12, "y_hi", math.nan)))
@example((DEGENERATE_SPECS, range(1, 15), SIDE, DAY, (12, "x_lo", math.inf)))
def test_from_store_equals_eager_reference_on_adversarial_tables(case):
    specs, users, side, day, bad = case
    table, graph = table_and_graph(specs, day)
    store = build_or_refuse(table, graph, users, side, day, bad)
    if store is None:
        return
    assert store.weightless_owners == reference_suspects(store, reference_floor(side, day))
    index, _ = assert_matches_reference(store)
    reference, _ = reference_from_store(store)
    for u in users:
        for v in users:
            assert index.c(u, v).hex() == reference.c(u, v).hex()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), column=st.sampled_from(COLUMNS))
def test_store_refuses_or_serves_one_bad_value_in_a_generated_table(data, column):
    # no owner of a generated table may weigh nothing, so the store's one pass
    # alone must find the bad value
    cfg = WorkloadConfig(n_users=60, policies_per_user=4, theta=0.7, seed=5, group_size=20)
    uids = range(cfg.n_users)
    table, graph = gen_policies(uids, cfg)
    assert not PolicyStore(table, graph, uids).weightless_owners
    row = data.draw(st.integers(0, len(table) - 1))
    value = data.draw(st.sampled_from(boundary_values(cfg.day if column.startswith("t") else cfg.space_side)))
    store = build_or_refuse(table, graph, uids, cfg.space_side, cfg.day, (row, column, value))
    if store is not None:
        assert store.weightless_owners == reference_suspects(store, reference_floor(cfg.space_side, cfg.day))


def count_scores(monkeypatch) -> Counter:
    """Each set of rows that ``_alpha_mutual_rows`` scores, counted, from now on."""
    calls: Counter = Counter()
    score = policy._alpha_mutual_rows

    def counting(table, r12, r21, space_side):
        calls[frozenset({r12, r21} - {None})] += 1
        return score(table, r12, r21, space_side)

    monkeypatch.setattr(policy, "_alpha_mutual_rows", counting)
    return calls


def pair_rows(store, pairs) -> Counter:
    """Each pair's set of policy rows, counted once."""
    return Counter(frozenset({store.row(u, v), store.row(v, u)} - {None}) for u, v in pairs)


def test_from_store_scores_no_pair_of_a_generated_table(monkeypatch):
    cfg = WorkloadConfig(n_users=500, policies_per_user=20, theta=0.7, seed=5)
    uids = list(range(cfg.n_users))
    store = PolicyStore(*gen_policies(uids, cfg), uids, space_side=cfg.space_side)
    calls = count_scores(monkeypatch)
    index = CompatibilityIndex.from_store(store)
    assert not calls
    assert sum(map(index.related_count, uids)) > 10_000


def test_from_store_scores_each_pair_of_a_degenerate_owner_once(monkeypatch):
    store = make_store(DEGENERATE_SPECS, users=range(1, 15))
    assert store.weightless_owners == reference_suspects(store, reference_floor(SIDE, DAY)) == DEGENERATE_OWNERS
    calls = count_scores(monkeypatch)
    CompatibilityIndex.from_store(store)
    owned = {(min(o, t), max(o, t)) for o, t, *_ in DEGENERATE_SPECS if o in DEGENERATE_OWNERS}
    assert calls == pair_rows(store, owned)
    assert (8, 9) not in owned and len(owned) == 9


def test_from_store_scores_every_pair_once_when_no_weight_fits_a_float(monkeypatch):
    store = make_store(DEGENERATE_SPECS, users=range(1, 15), space_side=1e300)
    owners = {o for o, *_ in DEGENERATE_SPECS}
    assert store.weightless_owners == reference_suspects(store, reference_floor(1e300, DAY)) == owners
    calls = count_scores(monkeypatch)
    index = CompatibilityIndex.from_store(store)
    assert calls == pair_rows(store, {(min(o, t), max(o, t)) for o, t, *_ in DEGENERATE_SPECS})
    assert not any(map(index.related, range(1, 15)))


def reference_floor(side, day):
    """The build's floor ``F``: ``1e-50``, or infinite where a score built from its bounds underflows."""
    floor = 1e-50
    delta, s = math.ulp(floor / 2), side * side
    if not (0.5 * (((floor * floor) / s) * (floor / day)) > 0 and ((delta * delta) / s) * (delta / day) > 0):
        floor = math.inf
    return floor


def reference_suspects(store, floor):
    """The owners with a policy whose sides or time intervals are not longer than ``floor``, kept as a reference."""
    day, table = store.day, store.policies
    # owners with a policy that may weigh nothing, found in one pass over the columns
    return {
        u
        for u, x_lo, y_lo, x_hi, y_hi, t_lo, t_hi in zip(
            table.owner, table.x_lo, table.y_lo, table.x_hi, table.y_hi, table.t_lo, table.t_hi
        )
        # the time intervals: [t_lo, t_hi), or [0, t_hi) and [t_lo, day) wrapped
        if not (
            x_hi - x_lo > floor
            and y_hi - y_lo > floor
            and (t_hi - t_lo > floor if t_lo < t_hi else t_lo > t_hi and t_hi > floor and day - t_lo > floor)
        )
    }


def reference_neighbour_lists(store):
    """The neighbour lists, two-way lists and scores as the eager build made them, kept as a reference.

    The body is that build's, which sorted every user's candidates into a list.
    """
    side, day, table = store.space_side, store.day, store.policies
    directed = store._directed
    naming = {v: store.owners_naming(v) for v in store._rows_naming}
    # rounding is monotone, so a policy whose sides and time intervals all
    # exceed `floor` weighs at least a floor-sized one, which is positive
    floor = 1e-100
    if not 0.5 * (((floor * floor) / (side * side)) * (floor / day)) > 0:
        floor = math.inf
    no_policies: dict[int, int] = {}
    scores: dict[tuple[int, int], float] = {}
    neighbors: dict[int, list[int]] = {}
    two_way: dict[int, list[int]] = {}
    for u in directed.keys() | naming.keys():
        per_owner = directed.get(u, no_policies)
        owners = naming.get(u, ())
        both = per_owner.keys() & owners
        if both:
            for v in both:
                if u < v:
                    scores[(u, v)] = _degree(*_alpha_mutual_rows(table, per_owner[v], directed[v][u], side))
            two_way[u] = sorted(both)
        neighbors[u] = sorted(per_owner.keys() | owners)
    suspects = reference_suspects(store, floor)
    dropped = [pair for pair, c in scores.items() if not c > 0]
    for u, v in dropped:
        two_way[u].remove(v)
        two_way[v].remove(u)
    for u in suspects:
        for v in directed[u]:
            if u not in directed.get(v, no_policies) and not compatibility(store, u, v) > 0:
                dropped.append((u, v))
    for u, v in dropped:
        neighbors[u].remove(v)
        neighbors[v].remove(u)
    return neighbors, scores, two_way


def assert_matches_eager_lists(store):
    """Related and two-way lists, counts and every sharing pair's degree equal the eager build's."""
    index = CompatibilityIndex.from_store(store)
    neighbors, scores, two_way = reference_neighbour_lists(store)
    for u in sorted(store.users):
        assert index.related(u) == neighbors.get(u, [])
        assert index.related_count(u) == len(index.related(u))
        assert index.two_way(u) == two_way.get(u, [])
        for v in set(store._directed.get(u, ())) | set(store.owners_naming(u)):
            key = (u, v) if u < v else (v, u)
            want = scores[key] if key in scores else compatibility(store, *key)
            assert index.c(u, v).hex() == want.hex()
    return index, neighbors, scores


def test_neighbour_lists_on_demand_equal_the_eager_build():
    cfg = WorkloadConfig(n_users=500, policies_per_user=20, theta=0.7, seed=5)
    uids = list(range(cfg.n_users))
    store = PolicyStore(*gen_policies(uids, cfg), uids, space_side=cfg.space_side)
    assert_matches_eager_lists(store)


def test_neighbour_lists_on_demand_equal_the_eager_build_with_dropped_pairs():
    tiny = 1e-150
    specs = [
        # suspects: a zero-area and a zero-length window, one-sided
        (5, 6, (100.0, 0.0, 100.0, 500.0), 0.0, 12.0),
        (1, 2, FULL_RECT, 9.0, 9.0),
        (1, 6, FULL_RECT, 2.0, 4.0),
        # two-way pairs of zero degree: an empty window and an underflowing overlap
        (3, 4, FULL_RECT, 5.0, 5.0),
        (4, 3, FULL_RECT, 12.0, 12.0),
        (9, 10, (0.0, 0.0, tiny, tiny), 0.0, 1e-20),
        (10, 9, FULL_RECT, 0.0, 12.0),
        # positive pairs beside them
        (1, 3, FULL_RECT, 0.0, DAY),
        (3, 1, FULL_RECT, 0.0, DAY),
        (4, 10, (0.0, 0.0, 50.0, 50.0), 8.0, 17.0),
        (6, 5, (0.0, 0.0, 50.0, 50.0), 8.0, 17.0),
    ]
    store = make_store(specs, users=range(1, 12))
    index, neighbors, scores = assert_matches_eager_lists(store)
    assert [index.related(u) for u in (1, 2, 3, 4, 5, 6, 9, 10)] == [[3, 6], [], [1], [10], [6], [1, 5], [], [4]]
    # a two-way pair of which one policy weighs nothing scores by the other
    assert [index.two_way(u) for u in (1, 3, 4, 5, 9)] == [[3], [1], [], [6], []]
    # a list is built on each call: changing one leaves the index as it was
    index.related(1).append(99)
    assert index.related(1) == [3, 6] and index.related_count(1) == 2


def test_related_count_is_the_list_length_from_values():
    index = ValuesCompatibility({(1, 2): 0.3, (3, 1): 0.75, (2, 3): 0.0, (4, 5): 0.0}, [(1, 3)])
    assert [index.related(u) for u in range(1, 7)] == [[2, 3], [1], [1], [], [], []]
    assert [index.related_count(u) for u in range(1, 7)] == [2, 1, 1, 0, 0, 0]
    assert index.two_way(3) == [1]


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
    g.set_roles(3, {"u1": (1,)})
    g.set_roles(1, {"u2": (2,)})
    store = PolicyStore(table, g, [1, 2, 3], space_side=SIDE, day=day)
    rec = list(table)[store.row(1, 2)]
    assert rec == LocationPrivacyPolicy(1, "u2", (x_lo, y_lo, x_hi, y_hi), t_lo, t_hi, day)
    r_x_lo, r_y_lo, r_x_hi, r_y_hi = rec.rect
    in_rect = r_x_lo <= x <= r_x_hi and r_y_lo <= y <= r_y_hi
    assert _visible(store, 1, 2, x, y, t) == (in_rect and window_contains(rec.t_lo, rec.t_hi, rec.day, t))


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
    store = make_store([(1, 2, r1, *t1)] + ([] if one_sided else [(2, 1, r2, *t2)]), [1, 2])
    a_fwd, mutual = _alpha_mutual_rows(store.policies, store.row(1, 2), store.row(2, 1), SIDE)
    a_rev, _ = _alpha_mutual_rows(store.policies, store.row(2, 1), store.row(1, 2), SIDE)
    assert a_fwd == pytest.approx(a_rev)
    assert 0.0 <= a_fwd <= 1.0
    c = compatibility(store, 1, 2)
    if mutual and a_fwd != 0.0:
        assert c > 0.5
    else:
        # the fallback form never exceeds one half
        assert a_fwd <= 0.5 + 1e-12
        assert c <= 0.5 + 1e-12


@settings(max_examples=50)
@given(r1=rect_strategy, r2=rect_strategy, t1=time_strategy, t2=time_strategy)
# windows that share one float step: t = 1.0 lies in both half-open windows
@example(r1=(0.0, 0.0, 100.0, 100.0), r2=(50.0, 50.0, 150.0, 150.0), t1=(0.0, 1.0000000000000002), t2=(1.0, 2.0))
def test_mutual_pairs_can_disclose_simultaneously(r1, r2, t1, t2):
    store = make_store([(1, 2, r1, *t1), (2, 1, r2, *t2)], [1, 2])
    p12, p21 = store.policies
    if _alpha_mutual_rows(store.policies, store.row(1, 2), store.row(2, 1), SIDE)[1]:
        # a shared location in the region overlap and a shared instant exist: the
        # later start of two overlapping time intervals lies in both windows
        x = max(r1[0], r2[0])
        y = max(r1[1], r2[1])
        shared = [
            max(lo1, lo2) for lo1, hi1 in p12.t_int for lo2, hi2 in p21.t_int if max(lo1, lo2) < min(hi1, hi2)
        ]
        assert shared
        for t in shared:
            assert _visible(store, 1, 2, x, y, t)
            assert _visible(store, 2, 1, x, y, t)


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
    table = PolicyTable()
    table.append(1, "u2", *FULL_RECT, 0.0, 12.0)
    table.append(1, "other", *FULL_RECT, 12.0, 18.0)
    g = RelationshipGraph()
    g.set_roles(1, {"u2": (2,), "other": (2,)})
    with pytest.raises(ValueError):
        PolicyStore(table, g, [1, 2])


def test_store_refuses_a_policy_that_names_its_own_owner(tmp_path):
    table = PolicyTable()
    for owner, role in ((1, "f"), (2, "g"), (1, "me")):  # owner 1's second run names it
        table.append(owner, role, *FULL_RECT, 8.0, 11.0)
    graph = RelationshipGraph()
    graph.set_roles(1, {"me": (1,), "f": (2,)})
    graph.set_roles(2, {"g": (1, 2)})
    message = "policy role 'g' of user 2 names its own owner"
    with pytest.raises(ValueError, match=message):
        PolicyStore(table, graph, [1, 2])
    # through the files: the relationship records and the policy table
    save_policies(table, tmp_path / "policies.csv")
    save_relationships(graph, tmp_path / "relationships.csv")
    loaded = load_policies(tmp_path / "policies.csv"), load_relationships(tmp_path / "relationships.csv")
    with pytest.raises(ValueError, match=message):
        PolicyStore(*loaded, [1, 2])
    graph.set_roles(2, {"g": (1,)})
    with pytest.raises(ValueError, match="policy role 'me' of user 1 names its own owner"):
        PolicyStore(table, graph, [1, 2])
    graph.set_roles(1, {"me": (2,), "f": (2,)})
    with pytest.raises(ValueError, match=r"two policies for ordered pair \(1, 2\)"):
        PolicyStore(table, graph, [1, 2])


@pytest.mark.parametrize("owner, member, uid", [(99, 2, 99), (1, 99, 99)])
def test_policy_naming_an_unknown_user_rejected(owner, member, uid):
    table, g = table_and_graph([(owner, member, FULL_RECT, 0.0, DAY)])
    with pytest.raises(ValueError, match=f"policy (owner|member) {uid} is not a known user"):
        PolicyStore(table, g, [1, 2])
    assert PolicyStore(table, g, [1, 2, 99]).owners_naming(member) == [owner]


def test_wraparound_interval():
    def t_int(t_lo, t_hi):
        return LocationPrivacyPolicy(1, "u2", FULL_RECT, t_lo, t_hi).t_int

    assert t_int(20.0, 4.0) == ((0.0, 4.0), (20.0, DAY))
    assert window_duration(20.0, 4.0, DAY) == pytest.approx(8.0)
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
    assert window_duration(t_lo, t_hi, day).hex() == float(sum(hi - lo for lo, hi in want)).hex()
    inside = reference_time_in_set(t, want, day)
    assert window_contains(t_lo, t_hi, day, t) == inside
    store = make_store([(1, 2, FULL_RECT, t_lo, t_hi)], [1, 2], day=day)
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


@settings(max_examples=300)
@given(data=st.data(), day=st.sampled_from([DAY, 7.0]))
def test_active_rows_are_the_policy_rows_whose_window_holds_t(data, day):
    end = st.floats(0.0, day)
    window = st.one_of(
        st.tuples(end, end).map(lambda w: (max(w), min(w))),  # wrapped past midnight
        end.map(lambda t: (t, t)),  # empty
        st.just((0.0, day)),  # the whole day
        st.tuples(end, end),
    )
    windows = data.draw(st.lists(window, min_size=1, max_size=8), label="windows")
    # owners n, ..., 1 name viewer 0 in descending order, so the store sorts the viewer's rows by owner
    owners = range(len(windows), 0, -1)
    specs = [(owner, 0, FULL_RECT, lo, hi) for owner, (lo, hi) in zip(owners, windows)]
    store = make_store(specs, range(len(windows) + 2), day=day)
    k = data.draw(st.integers(-2, 2), label="days")
    t = data.draw(
        st.one_of(
            st.sampled_from([v for w in windows for v in w]),  # at a window's t_lo or t_hi
            st.sampled_from([0.0, day, math.nextafter(day, 0.0)]),  # a multiple of the day, and just below the day
            end,
        ).map(lambda v: v + k * day),
        label="t",
    )
    p = store.policies
    want = {p.owner[r]: r for r in store.policy_rows(0) if window_contains(p.t_lo[r], p.t_hi[r], day, t)}
    got = store.active_rows(0, t)
    assert got == want
    assert list(got) == sorted(got)  # in ascending owner order
    assert store.active_rows(len(windows) + 1, t) == {}  # a user no policy names
    with pytest.raises(KeyError):
        store.active_rows(len(windows) + 2, t)


def test_store_refuses_a_policy_of_another_day():
    table, g = table_and_graph([(1, 2, FULL_RECT, 8.0, 11.0)])
    assert table.day == DAY
    # the window fits either day
    with pytest.raises(ValueError, match="the policy table has a day of 24.0, the store 12.0"):
        PolicyStore(table, g, [1, 2], day=12.0)
    # records are built on demand: an equal one comes back
    half_day = LocationPrivacyPolicy(1, "u2", FULL_RECT, 8.0, 11.0, 12.0)
    assert list(make_store([(1, 2, FULL_RECT, 8.0, 11.0)], [1, 2], day=12.0).policies) == [half_day]
    for t_lo, t_hi in ((8.0, 30.0), (-1.0, 11.0), (math.nan, 11.0)):
        with pytest.raises(ValueError, match=r"outside \[0, 24.0\]"):
            make_store([(1, 2, FULL_RECT, t_lo, t_hi)], [1, 2])


@pytest.mark.parametrize("day", [0.0, -1.0, math.inf, math.nan])
def test_store_refuses_a_day_that_is_not_positive_and_finite(day):
    # a zero day once reached CompatibilityIndex.from_store and divided by zero there
    message = rf"day is {day!r}, not a positive finite number"
    with pytest.raises(ValueError, match=message):
        PolicyStore(PolicyTable(day), RelationshipGraph(), [1, 2], day=day)
    table, graph = table_and_graph([(1, 2, FULL_RECT, 0.0, 0.0)], day)
    with pytest.raises(ValueError, match=message):
        PolicyStore(table, graph, [1, 2], day=day)


def test_store_refuses_a_region_beyond_the_space():
    # the space's own edges, a signed zero included, lie in it
    for rect in (FULL_RECT, (-0.0, -0.0, 1.0, 1.0), (SIDE, SIDE, SIDE, SIDE)):
        store = make_store([(1, 2, rect, 8.0, 11.0)], [1, 2])
        assert [p.rect for p in store.policies] == [rect]
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
            graph.set_roles(owner, {"u2": (2,)})
        message = r"region \(.*\) of user 4 reaches beyond the space \[0, 1000.0\] x \[0, 1000.0\]"
        with pytest.raises(ValueError, match=message):
            PolicyStore(table, graph, [1, 2, 3, 4])
        with pytest.raises(ValueError, match="reaches beyond the space"):
            make_store([(1, 2, rect, 8.0, 11.0)], [1, 2])
    # the side is the store's
    assert make_store([(1, 2, beyond[-1], 8.0, 11.0)], [1, 2], space_side=2000.0)


@pytest.mark.parametrize("column", ["x_lo", "y_lo", "x_hi", "y_hi", "t_lo", "t_hi"])
def test_store_refuses_nan_in_a_later_row(column):
    # min() and max() skip a NaN that is not first, so the checks must not rest on them
    table = PolicyTable()
    for owner in (1, 3):
        table.append(owner, "u2", 0.0, 0.0, 10.0, 10.0, 8.0, 11.0)
    getattr(table, column)[1] = math.nan
    graph = RelationshipGraph()
    for owner in (1, 3):
        graph.set_roles(owner, {"u2": (2,)})
    if column.startswith("t"):
        message = r"interval \[.*\] outside \[0, 24.0\]"
    else:
        message = r"region \(.*\) of user 3 reaches beyond the space \[0, 1000.0\] x \[0, 1000.0\]"
    with pytest.raises(ValueError, match=message):
        PolicyStore(table, graph, [1, 2, 3])


# the row of each table below: a 10 x 10 square at the space's origin, 8:00 to 11:00
GOOD_ROW = (0.0, 0.0, 10.0, 10.0, 8.0, 11.0)


def two_owner_table(bad_row=1, **values):
    """Owners 1 and 3 with a policy toward 2 each; the row ``bad_row`` takes ``values`` by column."""
    table, graph = PolicyTable(), RelationshipGraph()
    for owner in (1, 3):
        table.append(owner, "u2", *GOOD_ROW)
        graph.set_roles(owner, {"u2": (2,)})
    for column, value in values.items():
        getattr(table, column)[bad_row] = value
    return table, graph


def refusal(table, row, space_side=SIDE, day=DAY):
    """The message a bad value in ``row`` meets: the region's if it leaves the space, else the window's.

    ``None`` when the row lies in the space and the day.
    """
    rect = (table.x_lo[row], table.y_lo[row], table.x_hi[row], table.y_hi[row])
    if not all(0.0 <= side <= space_side for side in rect):
        side = f"[0, {space_side}]"
        return f"policy region {rect} of user {table.owner[row]} reaches beyond the space {side} x {side}"
    t_lo, t_hi = table.t_lo[row], table.t_hi[row]
    return None if 0.0 <= t_lo <= day and 0.0 <= t_hi <= day else f"interval [{t_lo}, {t_hi}] outside [0, {day}]"


@pytest.mark.parametrize("column", COLUMNS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
def test_store_refuses_a_bad_value_in_one_column_by_name(column, value):
    # every side of a region lies in the space, so a lower side at +inf or an
    # upper side below 0, which leaves the region empty, is refused as well
    table, graph = two_owner_table(**{column: value})
    rect = tuple(value if c == column else v for c, v in zip(COLUMNS[:4], GOOD_ROW))
    window = tuple(value if c == column else v for c, v in zip(COLUMNS[4:], GOOD_ROW[4:]))
    if column.startswith("t"):
        message = f"interval [{window[0]}, {window[1]}] outside [0, 24.0]"
    else:
        message = f"policy region {rect} of user 3 reaches beyond the space [0, 1000.0] x [0, 1000.0]"
    assert refusal(table, 1) == message
    with pytest.raises(ValueError) as got:
        PolicyStore(table, graph, [1, 2, 3])
    assert str(got.value) == message


@pytest.mark.parametrize(
    "column, value",
    [(c, v) for c in COLUMNS for v in (-0.0, 0.0)] + [(c, SIDE) for c in COLUMNS[:4]] + [(c, DAY) for c in COLUMNS[4:]],
)
def test_store_accepts_a_signed_zero_and_the_edges_of_the_space_and_the_day(column, value):
    table, graph = two_owner_table(**{column: value})
    store = PolicyStore(table, graph, [1, 2, 3])
    kept = getattr(store.policies, column)[1]
    assert kept == value and math.copysign(1.0, kept) == math.copysign(1.0, value)
    assert store.row(3, 2) == 1 and store.owners_naming(2) == [1, 3]


@pytest.mark.parametrize("region_row, window_row", [(1, 0), (0, 1)])
def test_store_refuses_a_bad_region_before_a_bad_window_in_any_row(region_row, window_row):
    table, graph = two_owner_table(bad_row=region_row, x_hi=2000.0)
    table.t_hi[window_row] = 25.0
    owner = table.owner[region_row]
    message = (
        f"policy region (0.0, 0.0, 2000.0, 10.0) of user {owner} reaches beyond the space [0, 1000.0] x [0, 1000.0]"
    )
    with pytest.raises(ValueError) as got:
        PolicyStore(table, graph, [1, 2, 3])
    assert str(got.value) == message


def test_store_refuses_a_role_fault_before_a_bad_window_in_a_later_row():
    table, graph = two_owner_table(t_lo=-2.0)
    graph.set_roles(1, {"v2": (2,)})
    with pytest.raises(ValueError) as got:
        PolicyStore(table, graph, [1, 2, 3])
    assert str(got.value) == "policy role 'u2' of user 1 has no members"
    # and a bad region in a later row before the role fault
    table.y_lo[1] = -3.0
    with pytest.raises(ValueError) as got:
        PolicyStore(table, graph, [1, 2, 3])
    message = "policy region (0.0, -3.0, 10.0, 10.0) of user 3 reaches beyond the space [0, 1000.0] x [0, 1000.0]"
    assert str(got.value) == message


def reference_store_maps(table, graph, users, space_side=SIDE, day=DAY):
    """The store's maps as the row-by-row build made them, kept as a reference.

    The body is that constructor's, with the store's attributes as locals:
    it refuses what the store refuses, with the same message.  It kept each
    viewer's owners in a list; each viewer's rows are kept here, sorted by
    owner, in a tuple.
    """
    users = frozenset(users)
    if table.day != day:
        raise ValueError(f"the policy table has a day of {table.day}, the store {day}")
    # a user is visible only inside a region, so with every region in the
    # space the engines may skip a window that misses it without a read
    if table.owner and not (
        0.0 <= min(table.x_lo)
        and 0.0 <= min(table.y_lo)
        and max(table.x_hi) <= space_side
        and max(table.y_hi) <= space_side
    ):
        for owner, *rect in zip(table.owner, table.x_lo, table.y_lo, table.x_hi, table.y_hi):
            x_lo, y_lo, x_hi, y_hi = rect
            if not (0.0 <= x_lo and 0.0 <= y_lo and x_hi <= space_side and y_hi <= space_side):
                side = f"[0, {space_side}]"
                raise ValueError(
                    f"policy region {tuple(rect)} of user {owner} reaches beyond the space {side} x {side}"
                )
    # role member tuples are read as they are: no set per policy
    roles, no_roles = graph._roles, {}
    directed: defaultdict[int, dict[int, int]] = defaultdict(dict)
    naming: defaultdict[int, list[int]] = defaultdict(list)
    for row, (owner, role, t_lo, t_hi) in enumerate(zip(table.owner, table.role, table.t_lo, table.t_hi)):
        if not (0.0 <= t_lo <= day and 0.0 <= t_hi <= day):
            check_window(t_lo, t_hi, day)
        targets = roles.get(owner, no_roles).get(role)
        if not targets:
            raise ValueError(f"policy role {role!r} of user {owner} has no members")
        per_owner = directed[owner]
        for v in targets:
            if v in per_owner:
                raise ValueError(f"two policies for ordered pair ({owner}, {v})")
            per_owner[v] = row
            naming[v].append(row)
    for lst in naming.values():
        lst.sort(key=table.owner.__getitem__)
    # dicts of ints only: the garbage collector leaves the inner ones untracked
    _directed = dict(directed)
    _rows_naming = {v: tuple(rows) for v, rows in naming.items()}
    for who, uids in (("owner", _directed.keys()), ("member", _rows_naming.keys())):
        unknown = uids - users
        if unknown:
            raise ValueError(f"policy {who} {min(unknown)} is not a known user")
    return _directed, _rows_naming


def ordered(maps):
    """The maps with their key order, inner dicts included, so that == compares it."""
    directed, naming = maps
    return [(owner, list(per_owner.items())) for owner, per_owner in directed.items()], list(naming.items())


def table_of(rows, roles, day=DAY):
    """A table of ``(owner, role, t_lo, t_hi)`` rows over the whole space and a graph of ``roles``."""
    table = PolicyTable(day)
    for owner, role, t_lo, t_hi in rows:
        table.append(owner, role, *FULL_RECT, t_lo, t_hi)
    graph = RelationshipGraph()
    for owner, owner_roles in roles.items():
        graph.set_roles(owner, owner_roles)
    return table, graph


# owner 1's rows come in two runs, around owner 2's and owner 5's, and
# some roles have several members
INTERLEAVED_ROWS = [
    (1, "friends", 8.0, 11.0),
    (1, "boss", 0.0, 24.0),
    (2, "family", 20.0, 4.0),
    (1, "team", 9.0, 17.0),
    (5, "friends", 1.0, 2.0),
    (1, "gym", 6.0, 7.0),
    (2, "boss", 3.0, 3.0),
]
INTERLEAVED_ROLES = {
    1: {"friends": (4, 2, 6), "boss": (3,), "team": (7, 5), "gym": (8,)},
    2: {"family": (1, 6, 3), "boss": (5,)},
    5: {"friends": (1, 2, 3, 4)},
}


@pytest.mark.parametrize("distribution", ["uniform", "network"])
def test_store_maps_equal_the_row_by_row_build_on_generated_tables(distribution):
    cfg = WorkloadConfig(n_users=500, policies_per_user=20, theta=0.7, seed=9, distribution=distribution)
    uids = list(range(cfg.n_users))
    table, graph = gen_policies(uids, cfg)
    store = PolicyStore(table, graph, uids, space_side=cfg.space_side)
    want = reference_store_maps(table, graph, uids, space_side=cfg.space_side)
    assert ordered((store._directed, store._rows_naming)) == ordered(want)
    assert_rows_are_the_maps_ints(store)
    # a full collection need not walk the row ints: the collector untracks their tuples
    gc.collect()
    assert not any(map(gc.is_tracked, store._rows_naming.values()))


def test_store_maps_equal_the_row_by_row_build_on_interleaved_runs():
    table, graph = table_of(INTERLEAVED_ROWS, INTERLEAVED_ROLES)
    users = range(1, 9)
    store = PolicyStore(table, graph, users)
    want = reference_store_maps(table, graph, users)
    assert ordered((store._directed, store._rows_naming)) == ordered(want)
    assert_rows_are_the_maps_ints(store)
    # the second run's rows follow the first's in owner 1's map
    assert list(store._directed[1].items()) == [(4, 0), (2, 0), (6, 0), (3, 1), (7, 3), (5, 3), (8, 5)]
    assert store.owners_naming(1) == [2, 5] and store.owners_naming(6) == [1, 2]
    # viewer 5's rows: owner 1's second run (row 3) and owner 2's "boss" (row 6)
    assert store.policy_rows(5) == (3, 6) and store.policy_rows(3) == (1, 2, 4)


def assert_rows_are_the_maps_ints(store):
    """Each viewer's rows are the int objects the owners' maps hold, and give its owners ascending."""
    for viewer, rows in store._rows_naming.items():
        owners = store.owners_naming(viewer)
        assert owners == sorted(set(owners))
        assert all(store._directed[owner][viewer] is row for owner, row in zip(owners, rows))


@pytest.mark.parametrize(
    "rows, roles, users, message",
    [
        # a duplicate pair within one run, and across two runs of one owner
        ([(1, "a", 0.0, 5.0), (1, "b", 5.0, 9.0)], {1: {"a": (2, 3), "b": (4, 3)}}, range(1, 5), "ordered pair"),
        (
            [(1, "a", 0.0, 5.0), (2, "a", 0.0, 5.0), (1, "b", 5.0, 9.0)],
            {1: {"a": (3,), "b": (4, 3)}, 2: {"a": (3,)}},
            range(1, 5),
            r"ordered pair \(1, 3\)",
        ),
        # a role the owner lacks, an owner with no roles, a role with no members
        ([(1, "a", 0.0, 5.0), (1, "b", 0.0, 5.0)], {1: {"a": (2,)}}, [1, 2], "'b' of user 1 has no members"),
        ([(1, "a", 0.0, 5.0), (3, "a", 0.0, 5.0)], {1: {"a": (2,)}}, [1, 2, 3], "of user 3 has no members"),
        ([(1, "a", 0.0, 5.0), (1, "b", 0.0, 5.0)], {1: {"a": (2,), "b": ()}}, [1, 2], "'b' of user 1 has no"),
        # a window outside the day; with a role fault in an earlier row, that fault comes first
        ([(1, "a", 0.0, 5.0), (3, "a", 0.0, 25.0)], {1: {"a": (2,)}, 3: {"a": (2,)}}, [1, 2, 3], r"25.0\] outside"),
        ([(1, "a", -1.0, 5.0), (1, "b", 0.0, 5.0)], {1: {"a": (2,), "b": (3,)}}, [1, 2, 3], r"\[-1.0, 5.0\] outside"),
        ([(1, "b", 0.0, 5.0), (1, "a", 0.0, 25.0)], {1: {"a": (2,)}}, [1, 2], "'b' of user 1 has no members"),
        # an unknown owner and an unknown member
        ([(1, "a", 0.0, 5.0), (9, "a", 0.0, 5.0)], {1: {"a": (2,)}, 9: {"a": (2,)}}, [1, 2], "owner 9 is not"),
        ([(1, "a", 0.0, 5.0), (2, "a", 0.0, 5.0)], {1: {"a": (2,)}, 2: {"a": (8, 1)}}, [1, 2], "member 8 is not"),
    ],
)
def test_store_refuses_as_the_row_by_row_build(rows, roles, users, message):
    table, graph = table_of(rows, roles)
    with pytest.raises(ValueError, match=message) as want:
        reference_store_maps(table, graph, users)
    with pytest.raises(ValueError) as got:
        PolicyStore(table, graph, users)
    assert str(got.value) == str(want.value)


def test_policy_file_round_trip(tmp_path):
    table, g = table_and_graph(
        [
            (1, 2, (10.0, 20.0, 110.5, 220.25), 8.0, 17.0),
            (2, 1, (0.0, 0.0, 50.0, 50.0), 22.0, 3.5),  # wraps midnight
            (3, 1, FULL_RECT, 0.0, DAY),
        ]
    )
    policies = list(table)
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
    assert list(graph.records())[:4] == [(1, "friends", 3), (1, "friends", 4), (1, "friends", 5), (2, "boss", 1)]


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
