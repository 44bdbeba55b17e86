"""Location privacy policies, visibility evaluation, and compatibility scoring.

A policy ``<role, loc_r, t_int>`` owned by one user grants the members of
``role`` sight of the owner's location while the owner is inside the
rectangle ``loc_r`` during the daily time set ``t_int``, one window
``[t_lo, t_hi)`` that may wrap past midnight.  Pairs of users
are scored with a compatibility degree in [0, 1]: above 0.5 when both
directions can disclose simultaneously (their regions and time sets
overlap), at most 0.5 otherwise.

Note one asymmetry inherited from the scoring definition: simultaneous
two-way visibility only requires the time sets to overlap (each user sits
in their own region), yet a pair counts as mutual only when the regions
overlap as well.  Pairs with region-disjoint policies and overlapping
times therefore score by the one-sided fallback formula.

Sequence value assignment reads every user's related users and two-way
partners but the degrees of few pairs, so :class:`CompatibilityIndex`
stores the neighbour lists, the two-way lists and the degrees of two-way
pairs only, and scores any other pair when asked.

The store is read-only after loading; concurrent readers are fine.
"""

from __future__ import annotations

import math
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, TypeVar

DAY = 24.0

Rect = tuple[float, float, float, float]  # x_lo, y_lo, x_hi, y_hi
TimeSet = tuple[tuple[float, float], ...]  # disjoint half-open [lo, hi) intervals


class LocationPrivacyPolicy(NamedTuple):
    """One policy, stored as ``policies.csv`` holds it.

    The daily window is ``[t_lo, t_hi)`` of a day of length ``day``; it
    wraps past midnight when ``t_lo > t_hi`` and is empty when the two are
    equal.  Both ends lie in ``[0, day]``, which :class:`PolicyStore` and
    :func:`load_policies` check.
    """

    owner: int
    role: str
    rect: Rect
    t_lo: float
    t_hi: float
    day: float = DAY

    @property
    def t_int(self) -> TimeSet:
        """The daily window as disjoint half-open intervals within ``[0, day]``."""
        _, _, _, t_lo, t_hi, day = self
        if t_lo < t_hi:
            return ((t_lo, t_hi),)
        if t_lo > t_hi:
            return ((0.0, t_hi), (t_lo, day))
        return ()

    @property
    def duration(self) -> float:
        """Length of the daily window: ``time_set_duration(self.t_int)``, summed in the same order."""
        _, _, _, t_lo, t_hi, day = self
        if t_lo < t_hi:
            return t_hi - t_lo
        if t_lo > t_hi:
            return t_hi + (day - t_lo)
        return 0.0

    def active_at(self, t: float) -> bool:
        """Whether time ``t`` falls in the daily window."""
        _, _, _, t_lo, t_hi, day = self
        tm = t % day
        if t_lo <= t_hi:
            return t_lo <= tm < t_hi
        # `tm < day` also holds for a tiny negative t, whose remainder rounds to day
        return t_lo <= tm < day or tm < t_hi


def check_window(t_lo: float, t_hi: float, day: float) -> None:
    if not (0 <= t_lo <= day and 0 <= t_hi <= day):
        raise ValueError(f"interval [{t_lo}, {t_hi}] outside [0, {day}]")


# conditional expressions pick what min() and max() of two would, without the calls


def rect_area(rect: Rect) -> float:
    x_lo, y_lo, x_hi, y_hi = rect
    w, h = x_hi - x_lo, y_hi - y_lo
    return (w if w > 0.0 else 0.0) * (h if h > 0.0 else 0.0)


def rect_overlap_area(a: Rect, b: Rect) -> float:
    ax_lo, ay_lo, ax_hi, ay_hi = a
    bx_lo, by_lo, bx_hi, by_hi = b
    w = (bx_hi if bx_hi < ax_hi else ax_hi) - (bx_lo if bx_lo > ax_lo else ax_lo)
    h = (by_hi if by_hi < ay_hi else ay_hi) - (by_lo if by_lo > ay_lo else ay_lo)
    return (w if w > 0.0 else 0.0) * (h if h > 0.0 else 0.0)


def point_in_rect(x: float, y: float, rect: Rect) -> bool:
    return rect[0] <= x <= rect[2] and rect[1] <= y <= rect[3]


def time_set_duration(t_int: TimeSet) -> float:
    return sum(hi - lo for lo, hi in t_int)


def time_set_overlap(a: TimeSet, b: TimeSet) -> float:
    total = 0.0
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            total += max(0.0, min(hi1, hi2) - max(lo1, lo2))
    return total


class CompatibilityScore(NamedTuple):
    alpha: float
    c: float
    mutual: bool


class RelationshipGraph:
    """Per-owner map from relationship label to the users holding it."""

    def __init__(self) -> None:
        # members are tuples of distinct ids in first-seen order: one tuple can
        # serve many roles, and the garbage collector stops tracking them
        self._roles: dict[int, dict[str, tuple[int, ...]]] = {}

    def add(self, owner: int, role: str, member: int) -> None:
        """Add one member to a role; this copies the role, so build large ones with :meth:`set_roles`."""
        roles = self._roles.setdefault(owner, {})
        members = roles.get(role, ())
        if member not in members:
            roles[role] = members + (member,)

    def set_roles(self, owner: int, roles: dict[str, tuple[int, ...]]) -> None:
        """Make ``roles`` the owner's whole role map; each tuple must hold distinct ids."""
        self._roles[owner] = roles

    def members(self, owner: int, role: str) -> frozenset[int]:
        return frozenset(self._roles.get(owner, {}).get(role, ()))

    def records(self) -> Iterable[tuple[int, str, int]]:
        for owner, roles in sorted(self._roles.items()):
            for role, members in sorted(roles.items()):
                for member in sorted(members):
                    yield owner, role, member


class PolicyStore:
    """All policies of a deployment, indexed for per-pair lookup.

    At most one policy may apply per ordered (owner, viewer) pair, and
    every policy's window must lie in the store's day; the constructor
    rejects violations.
    """

    def __init__(
        self,
        policies: Iterable[LocationPrivacyPolicy],
        graph: RelationshipGraph,
        users: Iterable[int],
        space_side: float = 1000.0,
        day: float = DAY,
    ) -> None:
        self.users = frozenset(users)
        self.space_side = space_side
        self.day = day
        # role member tuples are read as they are: no set per policy
        roles, no_roles = graph._roles, {}
        directed: defaultdict[int, dict[int, LocationPrivacyPolicy]] = defaultdict(dict)
        naming: defaultdict[int, list[int]] = defaultdict(list)
        for p in policies:
            owner, role, _, t_lo, t_hi, p_day = p
            if not (p_day == day and 0.0 <= t_lo <= day and 0.0 <= t_hi <= day):
                # one test in the common case; the branches name the fault
                if p_day != day:
                    raise ValueError(f"policy of user {owner} has a day of {p_day}, the store {day}")
                check_window(t_lo, t_hi, day)
            targets = roles.get(owner, no_roles).get(role)
            if not targets:
                raise ValueError(f"policy role {role!r} of user {owner} has no members")
            per_owner = directed[owner]
            for v in targets:
                if v in per_owner:
                    raise ValueError(f"two policies for ordered pair ({owner}, {v})")
                per_owner[v] = p
                naming[v].append(owner)
        for lst in naming.values():
            lst.sort()
        self._directed = dict(directed)
        self._owners_naming = dict(naming)
        for who, uids in (("owner", self._directed.keys()), ("member", self._owners_naming.keys())):
            unknown = uids - self.users
            if unknown:
                raise ValueError(f"policy {who} {min(unknown)} is not a known user")

    def directed(self, owner: int, viewer: int) -> LocationPrivacyPolicy | None:
        """The owner's policy applicable to ``viewer``, if any."""
        return self._directed.get(owner, {}).get(viewer)

    def owners_naming(self, viewer: int) -> list[int]:
        """Users holding a policy toward ``viewer`` (the viewer's friend set)."""
        return self._owners_naming.get(viewer, [])

    def check_user(self, uid: int) -> None:
        if uid not in self.users:
            raise KeyError(f"unknown user id {uid}")


def alpha(
    p12: LocationPrivacyPolicy | None,
    p21: LocationPrivacyPolicy | None,
    space_side: float = 1000.0,
    day: float = DAY,
) -> float:
    """Pairwise policy overlap score in [0, 1]; 0 when neither policy exists."""
    return _alpha_mutual(p12, p21, space_side, day)[0]


def _alpha_mutual(
    p12: LocationPrivacyPolicy | None,
    p21: LocationPrivacyPolicy | None,
    space_side: float,
    day: float,
) -> tuple[float, bool]:
    if p12 is None and p21 is None:
        return 0.0, False
    s = space_side * space_side
    if p12 is not None and p21 is not None:
        overlap = rect_overlap_area(p12.rect, p21.rect)
        if overlap > 0:
            shared = time_set_overlap(p12.t_int, p21.t_int)
            if shared > 0:
                return (overlap / s) * (shared / day), True
    total = 0.0
    for p in (p12, p21):
        if p is not None:
            total += (rect_area(p.rect) / s) * (p.duration / day)
    return 0.5 * total, False


_ABOVE_HALF = math.nextafter(0.5, 1.0)


def _degree(a: float, mutual: bool) -> float:
    # a mutual pair scores above every one-sided pair (at most 0.5), also when
    # its overlap is too small to show in 0.5 * (1 + a)
    return max(0.5 * (1.0 + a), _ABOVE_HALF) if mutual and a != 0.0 else a


def compatibility(store: PolicyStore, u1: int, u2: int) -> CompatibilityScore:
    """Degree of compatibility between two users' policies (symmetric)."""
    a, mutual = _alpha_mutual(
        store.directed(u1, u2), store.directed(u2, u1), store.space_side, store.day
    )
    if a == 0.0:
        return CompatibilityScore(0.0, 0.0, False)
    return CompatibilityScore(a, _degree(a, mutual), mutual)


class CompatibilityIndex:
    """Users related by compatibility, and the degree of any pair.

    Only a pair that shares at least one policy can score above zero, so
    the neighbour lists stay linear in the number of policies rather than
    quadratic in users.  Built from a store, the index keeps those lists,
    the two-way lists (the related users toward whom each user holds a
    policy and who hold one back) and the degrees of the two-way pairs;
    any other pair is scored on demand by :func:`compatibility`, lower id
    first.  Sequence value assignment reads every list but the degrees of
    few pairs.
    """

    def __init__(
        self,
        neighbors: dict[int, list[int]],
        scores: dict[tuple[int, int], float],
        two_way: dict[int, list[int]],
        store: PolicyStore | None = None,
    ) -> None:
        self._neighbors = neighbors
        self._c = scores  # keyed (lower id, higher id)
        self._two_way = two_way
        self._store = store

    @classmethod
    def from_store(cls, store: PolicyStore) -> "CompatibilityIndex":
        """Neighbour lists from the store's policy maps, scoring two-way pairs only.

        A user's candidates are the viewers it names and the owners naming
        it, less the pairs whose degree is not positive; its two-way list
        holds the candidates that are both.  A two-way pair is
        scored once, from its lower id, since even a mutual overlap can
        underflow to a zero degree.  A one-sided pair's degree is half its
        one policy's weight, positive unless the policy has no area, no time
        or a weight below the float range; only the one-sided pairs of an
        owner with a policy that a safe floor cannot clear are scored.
        """
        side, day = store.space_side, store.day
        directed, naming = store._directed, store._owners_naming
        # rounding is monotone, so a policy whose sides and time intervals all
        # exceed `floor` weighs at least a floor-sized one, which is positive
        floor = 1e-100
        if not 0.5 * (((floor * floor) / (side * side)) * (floor / day)) > 0:
            floor = math.inf
        no_policies: dict[int, LocationPrivacyPolicy] = {}
        scores: dict[tuple[int, int], float] = {}
        neighbors: dict[int, list[int]] = {}
        two_way: dict[int, list[int]] = {}
        suspects: list[int] = []  # owners with a policy that may weigh nothing
        for u in directed.keys() | naming.keys():
            per_owner = directed.get(u, no_policies)
            owners = naming.get(u, ())
            both = per_owner.keys() & owners
            if both:
                for v in both:
                    if u < v:
                        scores[(u, v)] = _degree(*_alpha_mutual(per_owner[v], directed[v][u], side, day))
                two_way[u] = sorted(both)
            neighbors[u] = sorted(per_owner.keys() | owners)
            for _, _, (x_lo, y_lo, x_hi, y_hi), t_lo, t_hi, _ in per_owner.values():
                # the time intervals: [t_lo, t_hi), or [0, t_hi) and [t_lo, day) wrapped
                if not (
                    x_hi - x_lo > floor
                    and y_hi - y_lo > floor
                    and (
                        t_hi - t_lo > floor
                        if t_lo < t_hi
                        else t_lo > t_hi and t_hi > floor and day - t_lo > floor
                    )
                ):
                    suspects.append(u)
                    break
        dropped = [pair for pair, c in scores.items() if not c > 0]
        for u, v in dropped:
            two_way[u].remove(v)
            two_way[v].remove(u)
        for u in suspects:
            for v in directed[u]:
                if u not in directed.get(v, no_policies) and not compatibility(store, u, v).c > 0:
                    dropped.append((u, v))
        for u, v in dropped:
            neighbors[u].remove(v)
            neighbors[v].remove(u)
        return cls(neighbors, scores, two_way, store)

    @classmethod
    def from_values(
        cls, values: dict[tuple[int, int], float], two_way: Iterable[tuple[int, int]] = ()
    ) -> "CompatibilityIndex":
        """Build from given compatibility values, keyed by either id order.

        ``two_way`` names the pairs in which each user holds a policy toward
        the other; like the related pairs, only those with a positive value
        count.
        """
        scores = {((u, v) if u < v else (v, u)): c for (u, v), c in values.items()}
        pairs = {(u, v) if u < v else (v, u) for u, v in two_way}
        return cls(
            _adjacency(pair for pair, c in scores.items() if c > 0),
            scores,
            _adjacency(pair for pair in pairs if scores.get(pair, 0.0) > 0),
        )

    def c(self, u: int, v: int) -> float:
        key = (u, v) if u < v else (v, u)
        c = self._c.get(key)
        if c is None:
            return 0.0 if self._store is None else compatibility(self._store, *key).c
        return c

    def related(self, u: int) -> list[int]:
        """Users with non-zero compatibility to ``u``, ascending."""
        return self._neighbors.get(u, [])

    def two_way(self, u: int) -> list[int]:
        """Related users toward whom ``u`` holds a policy and who hold one back, ascending."""
        return self._two_way.get(u, [])


def _adjacency(pairs: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    """Each id's partners in ``pairs``, ascending."""
    adjacency: dict[int, list[int]] = {}
    for u, v in pairs:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    for lst in adjacency.values():
        lst.sort()
    return adjacency


# --- file formats -----------------------------------------------------------
#
# Policy file: one record per line, comma separated:
#     owner_id,role_label,x_lo,y_lo,x_hi,y_hi,t_lo,t_hi
# Relationship file:
#     owner_id,role_label,member_id

T = TypeVar("T")


def read_records(path: str | Path, parse: Callable[[list[str]], T]) -> list[T]:
    """Parse each non-blank line of a comma-separated file.

    ``parse`` receives the line's fields.  A ``ValueError`` it raises is
    raised again with the file name and the line number in front.
    """
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(parse(line.split(",")))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
    return out


def record_fields(fields: list[str], names: str) -> list[str]:
    """``fields`` if it has one field per comma-separated name in ``names``."""
    n = names.count(",") + 1
    if len(fields) != n:
        raise ValueError(f"expected {n} fields ({names}), got {len(fields)}")
    return fields


def finite_field(text: str, name: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{name} is {text!r}, not a finite number")
    return value


def rect_fields(texts: list[str]) -> Rect:
    x_lo, y_lo, x_hi, y_hi = (finite_field(t, n) for t, n in zip(texts, ("x_lo", "y_lo", "x_hi", "y_hi")))
    return (x_lo, y_lo, x_hi, y_hi)


def time_field(text: str, name: str) -> float:
    value = finite_field(text, name)
    if value < 0:
        raise ValueError(f"{name} is {text!r}, a negative time")
    return value


def save_policies(policies: Iterable[LocationPrivacyPolicy], path: str | Path) -> None:
    with open(path, "w") as fh:
        for owner, role, (x_lo, y_lo, x_hi, y_hi), t_lo, t_hi, _ in policies:
            fh.write(f"{owner},{role},{x_lo!r},{y_lo!r},{x_hi!r},{y_hi!r},{t_lo!r},{t_hi!r}\n")


def load_policies(path: str | Path, day: float = DAY) -> list[LocationPrivacyPolicy]:
    def parse(fields: list[str]) -> LocationPrivacyPolicy:
        owner, role, *rect, t_lo, t_hi = record_fields(fields, "owner_id,role_label,x_lo,y_lo,x_hi,y_hi,t_lo,t_hi")
        window = time_field(t_lo, "t_lo"), time_field(t_hi, "t_hi")
        check_window(*window, day)
        return LocationPrivacyPolicy(int(owner), role, rect_fields(rect), *window, day)

    return read_records(path, parse)


def save_relationships(graph: RelationshipGraph, path: str | Path) -> None:
    with open(path, "w") as fh:
        for owner, role, member in graph.records():
            fh.write(f"{owner},{role},{member}\n")


def load_relationships(path: str | Path) -> RelationshipGraph:
    def parse(fields: list[str]) -> tuple[int, str, int]:
        owner, role, member = record_fields(fields, "owner_id,role_label,member_id")
        return int(owner), role, int(member)

    # dicts as ordered sets: duplicates drop out in linear time, first-seen order stays
    roles: dict[int, dict[str, dict[int, None]]] = {}
    for owner, role, member in read_records(path, parse):
        roles.setdefault(owner, {}).setdefault(role, {})[member] = None
    graph = RelationshipGraph()
    for owner, owner_roles in roles.items():
        graph.set_roles(owner, {role: tuple(members) for role, members in owner_roles.items()})
    return graph
