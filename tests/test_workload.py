import gc
import hashlib
import math
import re
import statistics
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from pebtree.motion import MovingObject
from pebtree.policy import DAY, PolicyStore, save_policies, save_relationships, window_contains
from pebtree.query import PknnRequest, PrqRequest
from pebtree.workload import (
    NETWORK_SPEED_CLASSES,
    UniformWorld,
    WorkloadConfig,
    assign_groups,
    build_network,
    gen_network,
    gen_policies,
    gen_queries,
    gen_uniform,
    load_objects,
    load_queries,
    save_objects,
    save_queries,
)


def test_empty_dataset():
    cfg = WorkloadConfig(n_users=0, seed=1)
    assert gen_uniform(cfg) == []
    policies, graph = gen_policies([], cfg)
    assert len(policies) == 0 and list(graph.records()) == []
    with pytest.raises(ValueError):
        gen_queries(cfg, "range", [])


def test_uniform_statistics():
    cfg = WorkloadConfig(n_users=10_000, seed=3)
    objects = gen_uniform(cfg)
    assert len(objects) == 10_000
    mean_x = statistics.fmean(o.x for o in objects)
    mean_y = statistics.fmean(o.y for o in objects)
    # sample mean of U(0, 1000) is within 3 sigma of 500
    sigma = 1000.0 / math.sqrt(12) / math.sqrt(len(objects))
    assert abs(mean_x - 500.0) < 3 * sigma
    assert abs(mean_y - 500.0) < 3 * sigma
    for o in objects[:200]:
        assert 0.0 <= o.x <= 1000.0 and 0.0 <= o.y <= 1000.0
        assert math.hypot(o.vx, o.vy) <= cfg.max_speed + 1e-9


def test_uniform_determinism():
    cfg = WorkloadConfig(n_users=500, seed=9)
    assert gen_uniform(cfg) == gen_uniform(cfg)
    other = WorkloadConfig(n_users=500, seed=10)
    assert gen_uniform(other) != gen_uniform(cfg)


def test_uniform_world_reflects_and_stays_inside():
    cfg = WorkloadConfig(n_users=200, seed=5)
    objects = gen_uniform(cfg)
    world = UniformWorld(objects, cfg.space_side)
    for t in (50.0, 300.0, 1234.5):
        world.advance(t)
        for uid in range(0, 200, 17):
            obj = world.report(uid)
            assert 0.0 <= obj.x <= 1000.0 and 0.0 <= obj.y <= 1000.0
            assert obj.t_u == t


def test_network_rejects_too_few_destinations():
    with pytest.raises(ValueError):
        gen_network(WorkloadConfig(n_users=10, distribution="network", destinations=1, seed=1))


def test_network_objects_on_segments_and_speed_classes():
    cfg = WorkloadConfig(n_users=900, distribution="network", destinations=40, seed=8)
    objects, world = gen_network(cfg)
    assert len(objects) == 900
    net = world.net
    # every object's position lies on some route segment
    def on_some_segment(o):
        for a in range(len(net.nodes)):
            ax, ay = net.nodes[a]
            for b in net.adjacency[a]:
                bx, by = net.nodes[b]
                seg = math.dist((ax, ay), (bx, by))
                if seg == 0:
                    continue
                d = abs((bx - ax) * (ay - o.y) - (ax - o.x) * (by - ay)) / seg
                within = min(ax, bx) - 1e-6 <= o.x <= max(ax, bx) + 1e-6 and min(ay, by) - 1e-6 <= o.y <= max(ay, by) + 1e-6
                if d < 1e-6 and within:
                    return True
        return False

    for o in objects[::90]:
        assert on_some_segment(o)
    # speed classes present in roughly equal shares
    counts = {v: 0 for v in NETWORK_SPEED_CLASSES}
    for t in world._travelers.values():
        counts[t.vmax] += 1
    for v, c in counts.items():
        assert abs(c - 300) < 100
    # speeds never exceed the class maximum, and motion is continuous
    previous = {o.uid: o for o in objects}
    for step in range(1, 6):
        world.advance(step * 10.0)
        for uid in range(0, 900, 60):
            obj = world.report(uid)
            t = world._travelers[uid]
            assert math.hypot(obj.vx, obj.vy) <= t.vmax + 1e-9
            moved = math.dist((obj.x, obj.y), (previous[uid].x, previous[uid].y))
            assert moved <= t.vmax * 10.0 + 1e-6
            previous[uid] = obj


def test_network_graph_connected():
    cfg = WorkloadConfig(n_users=1, distribution="network", destinations=60, seed=4)
    net = build_network(cfg, cfg.stream("net"))
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for nxt in net.adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert seen == set(range(60))


def test_policies_theta_one_targets_in_group():
    cfg = WorkloadConfig(n_users=300, policies_per_user=10, theta=1.0, group_size=50, seed=2)
    users = list(range(300))
    policies, graph = gen_policies(users, cfg)
    _, group_of = assign_groups(users, cfg)
    assert statistics.fmean(group_of[o] == group_of[m] for o, _, m in graph.records()) == 1.0
    assert len(policies) == 300 * 10


def test_policies_theta_zero_spreads_over_population():
    cfg = WorkloadConfig(n_users=600, policies_per_user=10, theta=0.0, group_size=50, seed=2)
    users = list(range(600))
    _, graph = gen_policies(users, cfg)
    _, group_of = assign_groups(users, cfg)
    realized = statistics.fmean(group_of[o] == group_of[m] for o, _, m in graph.records())
    assert realized < 0.25  # in-group hits only by chance


def test_policies_realized_theta_tracks_parameter():
    cfg = WorkloadConfig(n_users=1500, policies_per_user=20, theta=0.7, group_size=100, seed=6)
    users = list(range(1500))
    _, graph = gen_policies(users, cfg)
    _, group_of = assign_groups(users, cfg)
    realized = statistics.fmean(group_of[o] == group_of[m] for o, _, m in graph.records())
    assert realized == pytest.approx(0.7, abs=0.02)


def test_policies_pair_uniqueness_and_load():
    cfg = WorkloadConfig(n_users=200, policies_per_user=15, theta=0.5, group_size=40, seed=11)
    users = list(range(200))
    policies, graph = gen_policies(users, cfg)
    # constructing the store enforces one policy per ordered pair
    store = PolicyStore(policies, graph, users, space_side=cfg.space_side)
    assert sum(len(store.owners_naming(u)) for u in users) == len(policies)


# sha256 of policies.csv and relationships.csv, written at the commit before
# the compact policy records: they pin the random draw order of gen_policies
GOLDEN_POLICY_FILES = [
    (
        WorkloadConfig(n_users=300, policies_per_user=8, theta=0.7, group_size=20, seed=3),
        "7f5b1354e99acf2e545d009e3e736641b6e5a246291c197423c3e719999a8b53",
        "736df1b0796e02e7d3b5f4a516f7b27da9e7584808996a744ab7c188c25d79b9",
    ),
    (
        WorkloadConfig(n_users=300, policies_per_user=8, theta=0.0, group_size=20, seed=4),
        "47b77a39b503d8582e7602c2fa93ddc6a6754b6e0eff625056c77f125a12a2ea",
        "0d6881db695d3368f1297ff125e80098b9d1c0eb4428e1d26259aa33b1b6c6d5",
    ),
    (  # most of these daily windows wrap past midnight
        WorkloadConfig(
            n_users=300, policies_per_user=8, theta=0.5, group_size=20, seed=5, policy_duration=(18.0, 23.5)
        ),
        "72822b0deb2a9e209dacf09dae559a9eef107cb7a05d955832397ff05d0a6765",
        "43719de8c105f418ab81f723b9ca03bfe26378076b22aaaac31b399bef8f8c85",
    ),
]


@pytest.mark.parametrize("cfg, policies_sha, relationships_sha", GOLDEN_POLICY_FILES)
def test_policy_files_match_golden_digests(tmp_path, cfg, policies_sha, relationships_sha):
    policies, graph = gen_policies(range(cfg.n_users), cfg)
    save_policies(policies, tmp_path / "policies.csv")
    save_relationships(graph, tmp_path / "relationships.csv")
    assert hashlib.sha256((tmp_path / "policies.csv").read_bytes()).hexdigest() == policies_sha
    assert hashlib.sha256((tmp_path / "relationships.csv").read_bytes()).hexdigest() == relationships_sha


def test_generated_policies_stay_within_the_memory_budget():
    # about 600 B a policy with a nested time set, a role string and a member
    # list per policy; about 350 B with flat windows and shared roles
    cfg = WorkloadConfig(n_users=2000, policies_per_user=20, theta=0.7, seed=5)
    users = list(range(cfg.n_users))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        policies, graph = gen_policies(users, cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(policies) == 40_000 and len(list(graph.records())) == 40_000
    assert held / len(policies) <= 450


def test_generated_policies_leave_the_collector_nothing_to_walk():
    # a record per policy kept one tracked object per policy alive; the
    # columns keep none, and the count after a full collection is exact
    cfg = WorkloadConfig(n_users=2000, policies_per_user=20, theta=0.7, seed=5)
    users = list(range(cfg.n_users))
    gc.collect()
    before = len(gc.get_objects())
    policies, graph = gen_policies(users, cfg)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert len(policies) == 40_000
    assert grown < len(policies) / 10


def test_policies_infeasible_configs_rejected():
    with pytest.raises(ValueError):
        gen_policies(range(100), WorkloadConfig(n_users=100, policies_per_user=100, seed=0))
    with pytest.raises(ValueError):
        gen_policies(
            range(100),
            WorkloadConfig(n_users=100, policies_per_user=60, theta=1.0, group_size=50, seed=0),
        )


def test_policies_fit_the_real_out_of_group_count():
    # fewer users than a group: one group, no out-of-group user.  Asking for
    # no policy, or for in-group policies only, was refused before
    assert len(gen_policies(range(50), WorkloadConfig(n_users=50, policies_per_user=0, seed=1))[0]) == 0
    whole = gen_policies(range(50), WorkloadConfig(n_users=50, policies_per_user=49, theta=1.0, seed=1))[0]
    assert len(whole) == 50 * 49
    with pytest.raises(ValueError, match="not enough out-of-group users"):
        gen_policies(range(50), WorkloadConfig(n_users=50, policies_per_user=2, theta=0.5, seed=1))
    # 60 users in groups of 10: each has 50 others outside its group, so 5
    # in-group and 50 out-of-group policies are the most theta 0.1 allows
    cfg = WorkloadConfig(n_users=60, policies_per_user=55, theta=0.1, group_size=10, seed=1)
    policies, graph = gen_policies(range(60), cfg)
    assert len(policies) == 60 * 55
    _, group_of = assign_groups(range(60), cfg)
    out = Counter(owner for owner, _, member in graph.records() if group_of[owner] != group_of[member])
    assert set(out.values()) == {50}
    with pytest.raises(ValueError, match="not enough out-of-group users"):
        gen_policies(range(60), replace(cfg, policies_per_user=56))


def test_a_full_day_duration_gives_the_whole_day():
    def policies(duration):
        cfg = WorkloadConfig(n_users=50, policies_per_user=3, theta=0.0, seed=1, policy_duration=duration)
        return gen_policies(range(50), cfg)[0]

    full_day = policies((DAY, DAY))
    assert len(full_day) == 150
    assert all((p.t_lo, p.t_hi) == (0.0, DAY) for p in full_day)
    assert all(window_contains(p.t_lo, p.t_hi, p.day, t) for p in full_day for t in (0.0, 7.5, DAY - 1e-9, DAY))
    # a whole-day window consumes a start and a duration draw like any other,
    # so the regions drawn after it are unchanged
    assert [p.rect for p in full_day] == [p.rect for p in policies((DAY / 6, DAY / 2))]


@pytest.mark.parametrize(
    "duration", [(0.0, 6.0), (-1.0, 6.0), (8.0, 6.0), (6.0, DAY + 1.0), (math.nan, 6.0), (6.0, math.inf)]
)
def test_policy_duration_outside_the_day_rejected(duration):
    with pytest.raises(ValueError, match="policy_duration"):
        WorkloadConfig(n_users=20, policies_per_user=2, theta=0.0, seed=0, policy_duration=duration)


@pytest.mark.parametrize(
    "field, value",
    [
        ("theta", -0.1),
        ("theta", 1.5),
        ("theta", math.nan),
        ("distribution", "gaussian"),
        ("distribution", "Uniform"),
        # counts: a group of 0 divided by zero, and the negative counts gave empty output
        ("n_users", -5),
        ("policies_per_user", -1),
        ("queries_per_point", -3),
        ("group_size", 0),
        ("k", 0),
        # a NaN speed wrote NaN velocities and a negative window a degenerate rectangle
        ("max_speed", -3.0),
        ("max_speed", math.nan),
        ("max_speed", math.inf),
        ("space_side", 0.0),
        ("space_side", -1000.0),
        ("space_side", math.nan),
        ("space_side", math.inf),
        ("query_window", -5.0),
        ("query_window", math.nan),
        ("query_window", math.inf),
        ("policy_side", (-50.0, 100.0)),
        ("policy_side", (300.0, 50.0)),
        ("policy_side", (50.0, 1000.5)),
        ("policy_side", (math.nan, 100.0)),
        ("day", math.inf),  # drew infinite and NaN window ends
        ("day", math.nan),
        ("day", 0.0),
    ],
)
def test_config_field_outside_its_domain_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        WorkloadConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        replace(WorkloadConfig(), **{field: value})


def test_config_edges_of_the_float_fields_accepted():
    cfg = WorkloadConfig(max_speed=0.0, query_window=0.0, space_side=300.0, policy_side=(0.0, 300.0))
    assert (cfg.max_speed, cfg.query_window, cfg.policy_side) == (0.0, 0.0, (0.0, 300.0))
    assert WorkloadConfig(policy_side=(120.0, 120.0)).policy_side == (120.0, 120.0)


def test_policy_side_checked_against_the_configured_space_side():
    assert WorkloadConfig(space_side=2000.0, policy_side=(50.0, 1500.0)).space_side == 2000.0
    with pytest.raises(ValueError, match="policy_side"):
        WorkloadConfig(space_side=200.0)  # the default sides run to 300


def test_policy_duration_checked_against_the_configured_day():
    assert WorkloadConfig(day=12.0, policy_duration=(1.0, 12.0)).day == 12.0
    with pytest.raises(ValueError, match="policy_duration"):
        WorkloadConfig(day=6.0)  # the default durations run to half of a 24-hour day


def test_policy_shapes_within_bounds():
    cfg = WorkloadConfig(n_users=120, policies_per_user=8, seed=13)
    policies, _ = gen_policies(range(120), cfg)
    lo, hi = cfg.policy_side
    for p in list(policies)[:200]:
        x_lo, y_lo, x_hi, y_hi = p.rect
        assert 0.0 <= x_lo < x_hi <= cfg.space_side
        assert 0.0 <= y_lo < y_hi <= cfg.space_side
        assert lo - 1e-9 <= x_hi - x_lo <= hi + 1e-9
        assert lo - 1e-9 <= y_hi - y_lo <= hi + 1e-9
        dur = sum(b - a for a, b in p.t_int)
        assert cfg.policy_duration[0] - 1e-9 <= dur <= cfg.policy_duration[1] + 1e-9


def test_queries_windows_inside_space_and_deterministic():
    cfg = WorkloadConfig(n_users=50, query_window=200.0, seed=21)
    objects = gen_uniform(cfg)
    queries = gen_queries(cfg, "range", objects, count=100)
    for q in queries:
        x_lo, y_lo, x_hi, y_hi = q.rect
        assert x_hi - x_lo == pytest.approx(200.0)
        assert 0.0 <= x_lo and x_hi <= cfg.space_side
        assert 0.0 <= y_lo and y_hi <= cfg.space_side
        assert 0.0 <= q.t_q <= 120.0
    assert queries == gen_queries(cfg, "range", objects, count=100)
    knn = gen_queries(cfg, "knn", objects, count=50)
    assert all(q.k == cfg.k for q in knn)
    assert knn == gen_queries(cfg, "knn", objects, count=50)


def test_object_and_query_files_round_trip(tmp_path):
    cfg = WorkloadConfig(n_users=40, seed=31)
    objects = gen_uniform(cfg)
    path = tmp_path / "objects.csv"
    save_objects(objects, path)
    assert load_objects(path) == objects
    # byte-identical regeneration
    path2 = tmp_path / "objects2.csv"
    save_objects(gen_uniform(cfg), path2)
    assert path.read_bytes() == path2.read_bytes()

    queries = list(gen_queries(cfg, "range", objects, count=10)) + list(
        gen_queries(cfg, "knn", objects, count=10)
    )
    qpath = tmp_path / "queries.csv"
    save_queries(queries, qpath)
    loaded = load_queries(qpath)
    assert loaded == queries


@pytest.mark.parametrize(
    "bad, fault",
    [
        ("7,1.0,2.0,0.5,0.5", "expected 6 fields"),
        ("7,1.0,abc,0.5,0.5,0.0", "could not convert"),
        ("7,nan,2.0,0.5,0.5,0.0", "x is 'nan', not a finite number"),
        ("7,1.0,2.0,inf,0.5,0.0", "vx is 'inf'"),
        ("7,1.0,2.0,0.5,0.5,-3.0", "t_u is '-3.0', a negative time"),
        ("x7,1.0,2.0,0.5,0.5,0.0", "invalid literal for int"),
        # uids the index cannot store, or whose entries a scan would pass over
        ("-1,1.0,2.0,0.5,0.5,0.0", "uid -1 is outside [0, 2**63)"),
        (f"{2**63},1.0,2.0,0.5,0.5,0.0", f"uid {2**63} is outside [0, 2**63)"),
        # an index holds one entry per object
        ("1,5.0,5.0,0.0,0.0,0.0", "uid 1 appears twice"),
    ],
)
def test_load_objects_rejects_bad_line(tmp_path, bad, fault):
    path = tmp_path / "objects.csv"
    path.write_text(f"1,1.0,2.0,0.5,0.5,0.0\n\n{bad}\n")
    with pytest.raises(ValueError, match=f"objects.csv, line 3: .*{re.escape(fault)}"):
        load_objects(path)
    path.write_text("1,1.0,2.0,0.5,0.5,0.0\n")
    assert load_objects(path) == [MovingObject(1, 1.0, 2.0, 0.5, 0.5, 0.0)]


@pytest.mark.parametrize(
    "bad, fault",
    [
        ("knn,3,12.0,50.0,50.0", "expected 6 fields (knn,qid,t_q,qx,qy,k)"),
        ("range,3,12.0,0.0,0.0,10.0", "expected 7 fields"),
        ("knn,3,12.0,nan,50.0,2", "qx is 'nan'"),
        ("range,3,-1.0,0.0,0.0,10.0,10.0", "t_q is '-1.0', a negative time"),
        ("range,3,12.0,0.0,0.0,10.0,-inf", "y_hi is '-inf'"),
        ("knn,3,12.0,50.0,50.0,0", "k must be at least 1"),
        ("near,3,12.0,50.0,50.0,2", "unknown query tag 'near'"),
    ],
)
def test_load_queries_rejects_bad_line(tmp_path, bad, fault):
    path = tmp_path / "queries.csv"
    good = "range,3,12.0,0.0,0.0,10.0,10.0\nknn,3,12.0,50.0,50.0,2\n"
    path.write_text(good + bad + "\n")
    with pytest.raises(ValueError, match=f"queries.csv, line 3: .*{re.escape(fault)}"):
        load_queries(path)
    path.write_text(good)
    assert load_queries(path) == [
        PrqRequest(3, (0.0, 0.0, 10.0, 10.0), 12.0),
        PknnRequest(3, (50.0, 50.0), 2, 12.0),
    ]
