import random
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from pebtree.keys import DELTA, SV0, KeyLayout, assign_sequence_values, communities
from pebtree.motion import TimePartitionConfig
from pebtree.policy import CompatibilityIndex, PolicyStore
from pebtree.workload import WorkloadConfig, assign_groups, gen_policies
from pebtree.zcurve import GridConfig

WORKED_VALUES = {(2, 1): 0.4, (4, 1): 0.9, (4, 3): 0.8, (5, 3): 0.2, (6, 3): 0.6}
WORKED_EXPECTED = {3: 2.0, 4: 2.2, 5: 2.8, 6: 2.4, 1: 4.0, 2: 4.6}


def _adjacency(pairs):
    """Each id's partners in ``pairs``, ascending."""
    adjacency = {}
    for u, v in pairs:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    for lst in adjacency.values():
        lst.sort()
    return adjacency


class ValuesCompatibility:
    """A :class:`~pebtree.keys.CompatibilityOracle` over given degrees, keyed by either id order.

    The fake the worked examples and the references assign sequence values
    over.  A pair with a positive degree is related; ``two_way`` names the
    pairs in which each user holds a policy toward the other, and like the
    related pairs, only those with a positive degree count.  A pair with no
    given degree scores 0.
    """

    def __init__(self, values, two_way=()):
        self._c = {((u, v) if u < v else (v, u)): c for (u, v), c in values.items()}
        pairs = {(u, v) if u < v else (v, u) for u, v in two_way}
        self._related = _adjacency(pair for pair, c in self._c.items() if c > 0)
        self._two_way = _adjacency(pair for pair in pairs if self._c.get(pair, 0.0) > 0)

    def related(self, u):
        return list(self._related.get(u, ()))

    def related_count(self, u):
        return len(self._related.get(u, ()))

    def two_way(self, u):
        return self._two_way.get(u, [])

    def c(self, u, v):
        return self._c.get((u, v) if u < v else (v, u), 0.0)


def community_oracle(order, partners):
    """Label propagation replayed with explicit counts: three rounds at most, in ``order``."""
    label = {u: i for i, u in enumerate(order)}
    voters = [u for u in order if any(v in label for v in partners.get(u, ()))]
    for _ in range(3):
        changed = False
        for u in voters:
            counts = Counter(label[v] for v in partners[u] if v in label)
            best = min(counts, key=lambda lab: (-counts[lab], lab))
            changed |= best != label[u]
            label[u] = best
        if not changed:
            break
    return {u: label[u] for u in voters}


def assignment_oracle(users, values, sv0, delta, two_way=()):
    """Independent replay of the assignment procedure, structured differently."""
    neighbors = {u: {} for u in users}
    for (a, b), c in values.items():
        neighbors[a][b] = c
        neighbors[b][a] = c
    partners = defaultdict(set)
    for a, b in two_way:
        partners[a].add(b)
        partners[b].add(a)
    order = sorted(users, key=lambda u: (-len(neighbors[u]), u))
    label = community_oracle(order, partners)
    rank = {u: (label.get(u, i), i) for i, u in enumerate(order)}
    sv = {}
    ladder = None
    for u in sorted(order, key=rank.get):
        if u in sv:
            continue
        ladder = sv0 if ladder is None else ladder + delta
        sv[u] = ladder
        for v in sorted(neighbors[u]):
            if v not in sv and (v not in label or label[v] == label.get(u)):
                sv[v] = ladder + (1.0 - neighbors[u][v])
    return sv


def random_instance(seed, n_users, n_pairs, two_way_share):
    rng = random.Random(seed)
    users = list(range(n_users))
    values = {}
    for _ in range(n_pairs):
        a, b = rng.sample(users, 2)
        values.setdefault((min(a, b), max(a, b)), round(rng.uniform(0.05, 0.95), 3))
    two_way = [pair for pair in values if rng.random() < two_way_share]
    return users, values, two_way


def test_worked_example_assignment():
    index = ValuesCompatibility(WORKED_VALUES)
    svm = assign_sequence_values([1, 2, 3, 4, 5, 6], index)
    assert svm[3] == pytest.approx(2.0)
    assert svm[4] == pytest.approx(2.2)
    assert svm[5] == pytest.approx(2.8)
    assert svm[6] == pytest.approx(2.4)
    assert svm[1] == pytest.approx(4.0)
    assert svm[2] == pytest.approx(4.6)
    assert svm.anchors == (3, 1)


def test_worked_example_with_every_pair_two_way():
    # the propagation puts all six users in one community, so the paper's values stand
    index = ValuesCompatibility(WORKED_VALUES, WORKED_VALUES)
    order = [3, 1, 4, 2, 5, 6]
    assert set(communities(order, index).values()) == {2}
    svm = assign_sequence_values([1, 2, 3, 4, 5, 6], index)
    assert svm.values == pytest.approx(WORKED_EXPECTED)
    assert svm.anchors == (3, 1)


@pytest.mark.parametrize(
    "two_way, moved",
    [
        # 3 and 4 form one community, 1 and 2 another; 5 and 6 have no two-way pair
        ([(4, 3), (2, 1)], {}),
        # 3 has no two-way pair either, so its community-less anchor leaves 4 to 1
        ([(4, 1), (2, 1)], {4: 4.1}),
    ],
)
def test_user_without_two_way_pair_absorbed_as_in_the_paper(two_way, moved):
    index = ValuesCompatibility(WORKED_VALUES, two_way)
    svm = assign_sequence_values([1, 2, 3, 4, 5, 6], index)
    assert svm.values == pytest.approx({**WORKED_EXPECTED, **moved})
    assert svm.anchors == (3, 1)
    assert (svm[5], svm[6]) == pytest.approx((2.8, 2.4))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n_pairs", [150, 900])
def test_assignment_with_two_way_pairs_matches_oracle_replay(seed, n_pairs):
    users, values, two_way = random_instance(seed, 60, n_pairs, 0.5)
    index = ValuesCompatibility(values, two_way)
    svm = assign_sequence_values(users, index)
    assert svm.values == pytest.approx(assignment_oracle(users, values, 2.0, 2.0, two_way))
    order = sorted(users, key=lambda u: (-len(index.related(u)), u))
    partners = {u: index.two_way(u) for u in users}
    assert communities(order, index) == community_oracle(order, partners)


def test_assignment_does_not_depend_on_user_order():
    users, values, two_way = random_instance(7, 80, 200, 0.6)
    want = assign_sequence_values(users, ValuesCompatibility(values, two_way))
    rng = random.Random(1)
    for _ in range(3):
        shuffled = users[:]
        rng.shuffle(shuffled)
        flipped = [(b, a) for a, b in reversed(two_way)]
        assert assign_sequence_values(shuffled, ValuesCompatibility(values, flipped)) == want
    assert assign_sequence_values(reversed(users), ValuesCompatibility(values, two_way)) == want


class WithoutTwoWayPairs:
    """An index's related users and degrees with no two-way pairs: the paper's rule."""

    def __init__(self, index):
        self.related, self.related_count, self.c = index.related, index.related_count, index.c

    def two_way(self, u):
        return []


def generated_instance(seed):
    cfg = WorkloadConfig(n_users=2_000, group_size=100, theta=0.7, seed=seed)
    uids = list(range(cfg.n_users))
    policies, graph = gen_policies(uids, cfg)
    store = PolicyStore(policies, graph, uids, space_side=cfg.space_side)
    return cfg, uids, store, CompatibilityIndex.from_store(store)


@pytest.mark.parametrize("seed", [3, 5, 6])
def test_communities_follow_generator_groups(seed):
    # Each community lies within one generator group, or is a union of whole
    # groups: seeds 5 and 6 each merge two groups, which label propagation can
    # do when early labels cross a two-way pair between groups.
    cfg, uids, _, index = generated_instance(seed)
    order = sorted(uids, key=lambda u: (-len(index.related(u)), u))
    label = communities(order, index)
    assert len(label) == len(uids)
    groups, group_of = assign_groups(uids, cfg)
    members = defaultdict(set)
    for u, lab in label.items():
        members[lab].add(u)
    mixed = []
    for users in members.values():
        spanned = {group_of[u] for u in users}
        if len(spanned) > 1:
            mixed.append(users)
            assert users == {u for g in spanned for u in groups[g]}
    assert len(mixed) <= 1
    assert len(members) >= len(groups) - 1


def test_viewer_friend_owners_fall_under_fewer_anchors_than_in_the_paper():
    _, uids, store, index = generated_instance(3)

    def mean_anchors(svm):
        # an anchor and the users it absorbs share one step of the ladder
        steps = {u: int((svm[u] - SV0) // DELTA) for u in uids}
        return sum(len({steps[o] for o in store.owners_naming(v)}) for v in uids) / len(uids)

    ours = mean_anchors(assign_sequence_values(uids, index))
    paper = mean_anchors(assign_sequence_values(uids, WithoutTwoWayPairs(index)))
    assert ours < 0.9 * paper


def test_unrelated_users_get_ladder():
    index = ValuesCompatibility({})
    svm = assign_sequence_values([10, 11, 12, 13], index)
    assert [svm[u] for u in (10, 11, 12, 13)] == [2.0, 4.0, 6.0, 8.0]
    assert svm.anchors == (10, 11, 12, 13)


def test_random_assignment_matches_oracle_replay():
    rng = random.Random(99)
    users = list(range(50))
    values = {}
    for _ in range(120):
        a, b = rng.sample(users, 2)
        key = (min(a, b), max(a, b))
        values.setdefault(key, round(rng.uniform(0.05, 0.95), 3))
    index = ValuesCompatibility(values)
    svm = assign_sequence_values(users, index)
    expected = assignment_oracle(users, values, 2.0, 2.0)
    assert svm.values == pytest.approx(expected)


def test_assignment_totality_and_member_locality():
    rng = random.Random(4)
    users = list(range(40))
    values = {}
    for _ in range(80):
        a, b = rng.sample(users, 2)
        values.setdefault((min(a, b), max(a, b)), rng.uniform(0.01, 0.99))
    index = ValuesCompatibility(values)
    svm = assign_sequence_values(users, index)
    assert set(svm.values) == set(users)
    anchor_svs = [svm[a] for a in svm.anchors]
    # consecutive anchors differ by exactly DELTA
    for a, b in zip(anchor_svs, anchor_svs[1:]):
        assert b - a == pytest.approx(DELTA)
    anchors = set(svm.anchors)
    for u in users:
        if u in anchors:
            continue
        # members sit strictly within one unit above some anchor, closer
        # for higher compatibility
        gaps = [(svm[u] - svm[a], a) for a in svm.anchors if 0 < svm[u] - svm[a] < 1]
        assert gaps
        gap, anchor = min(gaps)
        assert gap == pytest.approx(1.0 - index.c(anchor, u))


LAYOUT = KeyLayout(tid_bits=2, sv_bits=16, zv_bits=8, frac_bits=8)


@pytest.mark.parametrize("sv,expected", [(2.0, 512), (2.2, 563), (4.6, 1178)])
def test_quantize_examples(sv, expected):
    assert LAYOUT.quantize_sv(sv) == expected


def test_quantize_rejects_out_of_range():
    with pytest.raises(ValueError):
        LAYOUT.quantize_sv(-0.1)
    with pytest.raises(ValueError):
        LAYOUT.quantize_sv(257.0)  # 257 * 256 > 2^16


def test_quantize_preserves_order_at_resolution():
    values = [2.0, 2.2, 2.4, 2.8, 4.0, 4.6]
    quantized = [LAYOUT.quantize_sv(v) for v in values]
    assert quantized == sorted(quantized)
    assert len(set(quantized)) == len(values)


def test_peb_key_bit_concatenation_example():
    layout = KeyLayout(tid_bits=2, sv_bits=4, zv_bits=4, frac_bits=0)
    assert layout.peb_key_q(1, 5, 3) == 0b01_0101_0011 == 339


def test_peb_key_zero():
    layout = KeyLayout(tid_bits=2, sv_bits=4, zv_bits=4, frac_bits=0)
    assert layout.peb_key_q(0, layout.quantize_sv(0.0), 0) == 0


def test_key_field_overflow_rejected():
    layout = KeyLayout(tid_bits=2, sv_bits=4, zv_bits=4, frac_bits=0)
    with pytest.raises(ValueError):
        layout.peb_key_q(4, 0, 0)
    with pytest.raises(ValueError):
        layout.peb_key_q(0, 16, 0)
    with pytest.raises(ValueError):
        layout.peb_key_q(0, 0, 16)
    with pytest.raises(ValueError):
        layout.bx_key(0, 16)


def test_bx_key_examples():
    layout = KeyLayout(tid_bits=2, sv_bits=4, zv_bits=6, frac_bits=0)
    assert layout.bx_key(1, 0) == 1 << 6
    assert layout.bx_key(0, 14) == 14
    # partition 1 contributes the binary prefix 01
    assert layout.bx_key(1, 14) >> 6 == 0b01


def test_reference_interval_ordering():
    # with the partition fixed, all keys of a lower sequence value precede
    # all keys of a higher one; the worked decimal illustration's pairs
    # ([13,16] under 25 and 50) come out as 25*64+13 etc.
    layout = KeyLayout(tid_bits=2, sv_bits=7, zv_bits=6, frac_bits=0)
    lo_sv = [layout.peb_key_q(0, 25, z) for z in range(13, 17)]
    hi_sv = [layout.peb_key_q(0, 50, z) for z in range(13, 17)]
    assert max(lo_sv) < min(hi_sv)
    assert (lo_sv[0], lo_sv[-1]) == (1613, 1616)
    assert (hi_sv[0], hi_sv[-1]) == (3213, 3216)
    assert (layout.peb_key_q(0, 50, 25), layout.peb_key_q(0, 50, 28)) == (3225, 3228)


def test_layout_for_index_sizes_fields():
    layout = KeyLayout.for_index(TimePartitionConfig(120.0, 2), GridConfig(L=1000.0, levels=10), max_sv=42.0)
    assert layout.tid_bits == 2
    assert layout.zv_bits == 20
    assert layout.quantize_sv(42.0) == 42 * 256
    assert layout.sv_bits == (42 * 256).bit_length() == 14
    key = layout.peb_key_q(2, layout.quantize_sv(41.5), 12345)
    assert key == (2 << 34) | (int(41.5 * 256) << 20) | 12345


@settings(max_examples=500, deadline=None)
@given(
    a=st.tuples(st.integers(0, 3), st.integers(0, 65535), st.integers(0, 255)),
    b=st.tuples(st.integers(0, 3), st.integers(0, 65535), st.integers(0, 255)),
)
def test_key_order_is_lexicographic(a, b):
    layout = KeyLayout(tid_bits=2, sv_bits=16, zv_bits=8)
    key_a = layout.peb_key_q(*a)
    key_b = layout.peb_key_q(*b)
    assert (key_a < key_b) == (a < b)
    assert (key_a == key_b) == (a == b)
