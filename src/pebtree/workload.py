"""Synthetic workload generation: datasets, policies, updates, queries.

Everything is driven by ``random.Random`` seeded per stream, so identical
(config, seed) pairs reproduce byte-identical datasets, policy sets, and
query streams.  Positions live in a square space; uniform datasets move
objects in straight lines with reflective walls, network datasets move
them along a random connected route graph between destination hubs with
a trapezoidal speed profile.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Iterable

from .motion import MovingObject
from .policy import (
    DAY,
    PolicyTable,
    RelationshipGraph,
    finite_field,
    read_records,
    record_fields,
    rect_fields,
    time_field,
)
from .query import PknnRequest, PrqRequest
from .store import check_uid


DISTRIBUTIONS = ("uniform", "network")
# the least value of each count a WorkloadConfig holds
COUNT_FLOORS = (("n_users", 0), ("policies_per_user", 0), ("queries_per_point", 0), ("group_size", 1), ("k", 1))


@dataclass(frozen=True)
class WorkloadConfig:
    """One benchmark point's data generation parameters.

    Construction refuses a ``distribution`` other than those in
    ``DISTRIBUTIONS``, a ``theta`` outside ``[0, 1]``, a ``space_side`` or
    ``day`` that is not positive and finite, a ``space_side`` whose square
    underflows to 0, a ``max_speed`` or ``query_window`` that is negative
    or not finite, a ``policy_side`` outside ``0 <= lo <= hi <=
    space_side``, a ``policy_duration`` outside ``0 < lo <= hi <= day``, a
    negative count of users, policies or queries, and a ``group_size`` or
    ``k`` below 1, naming the field.
    """

    n_users: int = 10_000
    max_speed: float = 3.0
    space_side: float = 1000.0
    distribution: str = "uniform"  # "uniform" | "network"
    destinations: int = 100
    policies_per_user: int = 50
    theta: float = 0.7
    group_size: int = 100
    seed: int = 0
    policy_side: tuple[float, float] = (50.0, 300.0)
    policy_duration: tuple[float, float] = (DAY / 6, DAY / 2)
    day: float = DAY
    query_window: float = 200.0
    k: int = 5
    queries_per_point: int = 200

    def __post_init__(self) -> None:
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution {self.distribution!r} is not one of {DISTRIBUTIONS}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta {self.theta} is not within [0, 1]")
        for name in ("space_side", "day"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} {getattr(self, name)} is not a positive finite number")
        if not self.space_side * self.space_side > 0:
            raise ValueError(f"space_side {self.space_side} is so small that the space's area underflows to 0")
        for name in ("max_speed", "query_window"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} {getattr(self, name)} is not a non-negative finite number")
        lo, hi = self.policy_side
        if not 0.0 <= lo <= hi <= self.space_side:
            raise ValueError(
                f"policy_side {self.policy_side} is not within 0 <= lo <= hi <= space_side {self.space_side}"
            )
        lo, hi = self.policy_duration
        if not 0.0 < lo <= hi <= self.day:
            raise ValueError(f"policy_duration {self.policy_duration} is not within 0 < lo <= hi <= day {self.day}")
        for name, least in COUNT_FLOORS:
            if getattr(self, name) < least:
                raise ValueError(f"{name} {getattr(self, name)} is below {least}")

    def stream(self, name: str) -> Random:
        return Random(f"{self.seed}/{name}")


NETWORK_SPEED_CLASSES = (0.75, 1.5, 3.0)


# -- uniform datasets -----------------------------------------------------------


def gen_uniform(cfg: WorkloadConfig) -> list[MovingObject]:
    """Uniform positions, uniform speed in [0, max_speed], uniform heading."""
    rng = cfg.stream("uniform")
    side = cfg.space_side
    objects = []
    for uid in range(cfg.n_users):
        x = rng.uniform(0.0, side)
        y = rng.uniform(0.0, side)
        speed = rng.uniform(0.0, cfg.max_speed)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        objects.append(MovingObject(uid, x, y, speed * math.cos(heading), speed * math.sin(heading), 0.0))
    return objects


class UniformWorld:
    """Ground-truth motion for uniform datasets: straight lines, reflective walls."""

    def __init__(self, objects: Iterable[MovingObject], side: float) -> None:
        self.side = side
        self.now = 0.0
        self._state = {o.uid: [o.x, o.y, o.vx, o.vy] for o in objects}

    def advance(self, to_time: float) -> None:
        dt = to_time - self.now
        if dt < 0:
            raise ValueError("time moves forward only")
        side = self.side
        for s in self._state.values():
            for axis in (0, 1):
                p = s[axis] + s[axis + 2] * dt
                # reflect off the walls as often as needed
                while p < 0 or p > side:
                    if p < 0:
                        p = -p
                    else:
                        p = 2 * side - p
                    s[axis + 2] = -s[axis + 2]
                s[axis] = p
        self.now = to_time

    def report(self, uid: int) -> MovingObject:
        x, y, vx, vy = self._state[uid]
        return MovingObject(uid, x, y, vx, vy, self.now)


# -- network datasets -------------------------------------------------------------


@dataclass
class RouteNetwork:
    """Two-way routes connecting destination hubs."""

    nodes: list[tuple[float, float]]
    adjacency: list[list[int]]

    def edge_length(self, a: int, b: int) -> float:
        return math.dist(self.nodes[a], self.nodes[b])

    def shortest_path(self, src: int, dst: int) -> list[int]:
        if src == dst:
            return [src]
        dist = {src: 0.0}
        prev: dict[int, int] = {}
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if u == dst:
                break
            if d > dist.get(u, math.inf):
                continue
            for v in self.adjacency[u]:
                nd = d + self.edge_length(u, v)
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path


def build_network(cfg: WorkloadConfig, rng: Random) -> RouteNetwork:
    """Random connected route graph: a spanning tree plus extra edges."""
    if cfg.destinations < 2:
        raise ValueError("a route network needs at least 2 destinations")
    side = cfg.space_side
    nodes = [(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(cfg.destinations)]
    adjacency: list[list[int]] = [[] for _ in nodes]
    edges: set[tuple[int, int]] = set()

    def connect(a: int, b: int) -> None:
        if a == b:
            return
        e = (a, b) if a < b else (b, a)
        if e in edges:
            return
        edges.add(e)
        adjacency[a].append(b)
        adjacency[b].append(a)

    # spanning tree over a shuffled order, attaching each node to the
    # nearest already-connected one
    order = list(range(len(nodes)))
    rng.shuffle(order)
    connected = [order[0]]
    for nid in order[1:]:
        nearest = min(connected, key=lambda c: math.dist(nodes[nid], nodes[c]))
        connect(nid, nearest)
        connected.append(nid)
    # extra edges up to an average degree of about 3
    target_edges = min(3 * len(nodes) // 2, len(nodes) * (len(nodes) - 1) // 2)
    guard = 0
    while len(edges) < target_edges and guard < 50 * len(nodes):
        connect(rng.randrange(len(nodes)), rng.randrange(len(nodes)))
        guard += 1
    return RouteNetwork(nodes, adjacency)


@dataclass
class _Traveler:
    vmax: float
    path: list[int]  # node ids still ahead, path[0] is the edge start
    leg: int  # index into path of the current edge start
    offset: float  # distance along the current edge
    trip_done: float  # distance covered since the last destination
    trip_total: float  # full trip length


class NetworkWorld:
    """Ground-truth motion on a route network.

    Objects accelerate after leaving a destination and decelerate when
    approaching one, capped by their speed class maximum.
    """

    RAMP = 60.0  # distance over which speed ramps between floor and vmax
    FLOOR = 0.1  # minimum speed so objects never stall
    STEP = 5.0  # simulation time step

    def __init__(self, net: RouteNetwork, cfg: WorkloadConfig, rng: Random) -> None:
        self.net = net
        self.rng = rng
        self.now = 0.0
        self._travelers: dict[int, _Traveler] = {}
        for uid in range(cfg.n_users):
            vmax = NETWORK_SPEED_CLASSES[rng.randrange(3)]
            a = rng.randrange(len(net.nodes))
            b = rng.choice(net.adjacency[a])
            path = [a, b]
            length = net.edge_length(a, b)
            self._travelers[uid] = _Traveler(
                vmax=vmax,
                path=path,
                leg=0,
                offset=rng.uniform(0.0, length),
                trip_done=0.0,
                trip_total=length,
            )
            t = self._travelers[uid]
            t.trip_done = t.offset

    def _retarget(self, t: _Traveler, at_node: int) -> None:
        dst = self.rng.randrange(len(self.net.nodes))
        while dst == at_node:
            dst = self.rng.randrange(len(self.net.nodes))
        t.path = self.net.shortest_path(at_node, dst)
        t.leg = 0
        t.offset = 0.0
        t.trip_done = 0.0
        t.trip_total = sum(
            self.net.edge_length(t.path[i], t.path[i + 1]) for i in range(len(t.path) - 1)
        )

    def _speed(self, t: _Traveler) -> float:
        ramp_up = self.FLOOR + (t.vmax - self.FLOOR) * min(1.0, t.trip_done / self.RAMP)
        remaining = max(0.0, t.trip_total - t.trip_done)
        ramp_down = self.FLOOR + (t.vmax - self.FLOOR) * min(1.0, remaining / self.RAMP)
        return min(t.vmax, ramp_up, ramp_down)

    def advance(self, to_time: float) -> None:
        while self.now < to_time - 1e-9:
            dt = min(self.STEP, to_time - self.now)
            for t in self._travelers.values():
                self._move(t, dt)
            self.now += dt

    def _move(self, t: _Traveler, dt: float) -> None:
        budget = self._speed(t) * dt
        while budget > 0:
            a, b = t.path[t.leg], t.path[t.leg + 1]
            length = self.net.edge_length(a, b)
            room = length - t.offset
            if budget < room:
                t.offset += budget
                t.trip_done += budget
                return
            budget -= room
            t.trip_done += room
            if t.leg + 2 < len(t.path):
                t.leg += 1
                t.offset = 0.0
            else:
                self._retarget(t, t.path[-1])

    def report(self, uid: int) -> MovingObject:
        t = self._travelers[uid]
        a, b = t.path[t.leg], t.path[t.leg + 1]
        ax, ay = self.net.nodes[a]
        bx, by = self.net.nodes[b]
        length = self.net.edge_length(a, b)
        frac = t.offset / length if length else 0.0
        x = ax + (bx - ax) * frac
        y = ay + (by - ay) * frac
        speed = self._speed(t)
        if length:
            vx = speed * (bx - ax) / length
            vy = speed * (by - ay) / length
        else:
            vx = vy = 0.0
        return MovingObject(uid, x, y, vx, vy, self.now)


def gen_network(cfg: WorkloadConfig) -> tuple[list[MovingObject], NetworkWorld]:
    """Network dataset plus the movement script that produced it."""
    rng = cfg.stream("network")
    net = build_network(cfg, rng)
    world = NetworkWorld(net, cfg, rng)
    return [world.report(uid) for uid in range(cfg.n_users)], world


def make_world(cfg: WorkloadConfig):
    if cfg.distribution == "uniform":
        objects = gen_uniform(cfg)
        return objects, UniformWorld(objects, cfg.space_side)
    return gen_network(cfg)


# -- policies -----------------------------------------------------------------


def assign_groups(users: Iterable[int], cfg: WorkloadConfig) -> tuple[list[list[int]], dict[int, int]]:
    """Partition users into groups of ``group_size`` (seeded shuffle)."""
    order = list(users)
    cfg.stream("groups").shuffle(order)
    groups: list[list[int]] = []
    group_of: dict[int, int] = {}
    for i, uid in enumerate(order):
        g = i // cfg.group_size
        if g == len(groups):
            groups.append([])
        groups[g].append(uid)
        group_of[uid] = g
    return groups, group_of


def gen_policies(
    users: Iterable[int], cfg: WorkloadConfig
) -> tuple[PolicyTable, RelationshipGraph]:
    """Random policies steered by the grouping factor.

    Users are partitioned into groups of ``group_size``.  With grouping
    factor theta, ``floor(theta * policies_per_user)`` of each user's
    policies target distinct same-group users and the rest target distinct
    out-of-group users; theta of exactly 0 means no grouping at all and
    targets are drawn from the whole population.  Each policy registers
    its single target in its own role, so at most one policy exists per
    ordered pair.  A policy's daily window starts at a uniform time of day
    and lasts a duration drawn uniformly from ``policy_duration``; a
    duration of the whole day gives the window ``[0, day)``.  The policies
    fill a :class:`PolicyTable` of ``cfg.day`` in owner order.
    """
    users = list(users)
    n = len(users)
    if n == 0:
        return PolicyTable(cfg.day), RelationshipGraph()
    n_p = cfg.policies_per_user
    if n_p >= n:
        raise ValueError("policies per user must be below the user count")
    rng = cfg.stream("policies")
    groups, group_of = assign_groups(users, cfg)
    k_in = int(cfg.theta * n_p) if cfg.theta > 0 else 0
    for g in groups:
        if cfg.theta > 0 and k_in > len(g) - 1:
            raise ValueError(
                f"grouping factor {cfg.theta} with group size {len(g)} cannot host "
                f"{k_in} in-group policies"
            )
    if cfg.theta > 0 and n_p - k_in > n - max(map(len, groups)):
        raise ValueError("not enough out-of-group users for the requested policies")

    graph = RelationshipGraph()
    policies = PolicyTable(cfg.day)
    # each value is drawn as rng.uniform(a, b) computes it, a + (b - a) * random()
    random = rng.random
    side_lo, side_hi = cfg.policy_side
    dur_lo, dur_hi = cfg.policy_duration
    space, day = cfg.space_side, cfg.day
    side_span, dur_span = side_hi - side_lo, dur_hi - dur_lo
    # every policy toward one target shares its role name and member tuple
    grant_to = {u: (f"u{u}", (u,)) for u in users}
    # one bound append per column: no record and no rect tuple per policy
    add_owner, add_role = policies.owner.append, policies.role.append
    add_x_lo, add_y_lo, add_x_hi, add_y_hi = (
        policies.x_lo.append,
        policies.y_lo.append,
        policies.x_hi.append,
        policies.y_hi.append,
    )
    add_t_lo, add_t_hi = policies.t_lo.append, policies.t_hi.append
    for owner in users:
        g = groups[group_of[owner]]
        chosen: set[int] = set()
        if cfg.theta > 0:
            in_group = [u for u in g if u != owner]
            chosen.update(rng.sample(in_group, k_in))
            while len(chosen) < n_p:
                cand = users[rng.randrange(n)]
                if cand != owner and cand not in chosen and group_of[cand] != group_of[owner]:
                    chosen.add(cand)
        else:
            while len(chosen) < n_p:
                cand = users[rng.randrange(n)]
                if cand != owner and cand not in chosen:
                    chosen.add(cand)
        roles = {}
        for target in sorted(chosen):
            half_w = (side_lo + side_span * random()) / 2
            half_h = (side_lo + side_span * random()) / 2
            cx = half_w + ((space - half_w) - half_w) * random()
            cy = half_h + ((space - half_h) - half_h) * random()
            start = day * random()  # 0.0 + (day - 0.0) * random(), exactly
            duration = dur_lo + dur_span * random()
            if duration >= day:  # the whole day; (start + day) % day would empty the window
                start, end = 0.0, day
            else:
                end = (start + duration) % day
            role, members = grant_to[target]
            roles[role] = members
            add_owner(owner)
            add_role(role)
            add_x_lo(cx - half_w)
            add_y_lo(cy - half_h)
            add_x_hi(cx + half_w)
            add_y_hi(cy + half_h)
            add_t_lo(start)
            add_t_hi(end)
        graph.set_roles(owner, roles)
    return policies, graph


# -- queries --------------------------------------------------------------------


def gen_queries(
    cfg: WorkloadConfig,
    kind: str,
    objects: list[MovingObject],
    now: float = 0.0,
    horizon: float = 120.0,
    count: int | None = None,
) -> list[PrqRequest] | list[PknnRequest]:
    """Query stream for one measurement point.

    Range windows are squares of the configured side, clamped fully inside
    the space; kNN issuers query from their own position.  Query times are
    drawn within the current update horizon.
    """
    if kind not in ("range", "knn"):
        raise ValueError(f"unknown query kind {kind!r}")
    if not objects:
        raise ValueError("cannot generate queries for an empty dataset")
    rng = cfg.stream(f"queries/{kind}/{now}")
    count = cfg.queries_per_point if count is None else count
    side = cfg.space_side
    w = min(cfg.query_window, side)
    by_uid = {o.uid: o for o in objects}
    uids = sorted(by_uid)
    out = []
    for _ in range(count):
        qid = uids[rng.randrange(len(uids))]
        t_q = rng.uniform(now, now + horizon)
        if kind == "range":
            cx = rng.uniform(w / 2, side - w / 2)
            cy = rng.uniform(w / 2, side - w / 2)
            out.append(PrqRequest(qid, (cx - w / 2, cy - w / 2, cx + w / 2, cy + w / 2), t_q))
        else:
            obj = by_uid[qid]
            px = obj.x + obj.vx * (t_q - obj.t_u)
            py = obj.y + obj.vy * (t_q - obj.t_u)
            px = min(max(px, 0.0), side)
            py = min(max(py, 0.0), side)
            out.append(PknnRequest(qid, (px, py), cfg.k, t_q))
    return out


# -- file formats ------------------------------------------------------------------
#
# Dataset file: uid,x,y,vx,vy,t_u per line.
# Query file:   range,qid,t_q,x_lo,y_lo,x_hi,y_hi
#               knn,qid,t_q,qx,qy,k


def save_objects(objects: Iterable[MovingObject], path: str | Path) -> None:
    with open(path, "w") as fh:
        for o in objects:
            fh.write(f"{o.uid},{o.x!r},{o.y!r},{o.vx!r},{o.vy!r},{o.t_u!r}\n")


def load_objects(path: str | Path) -> list[MovingObject]:
    seen: set[int] = set()

    def parse(fields: list[str]) -> MovingObject:
        uid, x, y, vx, vy, t_u = record_fields(fields, "uid,x,y,vx,vy,t_u")
        uid = int(uid)
        check_uid(uid)  # a uid the index refuses is refused by line
        if uid in seen:  # an index holds one entry per object
            raise ValueError(f"uid {uid} appears twice")
        seen.add(uid)
        return MovingObject(
            uid,
            finite_field(x, "x"),
            finite_field(y, "y"),
            finite_field(vx, "vx"),
            finite_field(vy, "vy"),
            time_field(t_u, "t_u"),
        )

    return list(read_records(path, parse))


def save_queries(queries: Iterable[PrqRequest | PknnRequest], path: str | Path) -> None:
    with open(path, "w") as fh:
        for q in queries:
            if isinstance(q, PrqRequest):
                x_lo, y_lo, x_hi, y_hi = q.rect
                fh.write(f"range,{q.qid},{q.t_q!r},{x_lo!r},{y_lo!r},{x_hi!r},{y_hi!r}\n")
            else:
                fh.write(f"knn,{q.qid},{q.t_q!r},{q.qloc[0]!r},{q.qloc[1]!r},{q.k}\n")


def load_queries(path: str | Path) -> list[PrqRequest | PknnRequest]:
    def parse(fields: list[str]) -> PrqRequest | PknnRequest:
        if fields[0] == "range":
            _, qid, t_q, *rect = record_fields(fields, "range,qid,t_q,x_lo,y_lo,x_hi,y_hi")
            return PrqRequest(int(qid), rect_fields(rect), time_field(t_q, "t_q"))
        if fields[0] == "knn":
            _, qid, t_q, qx, qy, k = record_fields(fields, "knn,qid,t_q,qx,qy,k")
            qloc = (finite_field(qx, "qx"), finite_field(qy, "qy"))
            return PknnRequest(int(qid), qloc, int(k), time_field(t_q, "t_q"))
        raise ValueError(f"unknown query tag {fields[0]!r}")

    return list(read_records(path, parse))
