"""Location privacy policies, visibility evaluation, and compatibility scoring.

A policy ``<role, loc_r, t_int>`` owned by one user grants the members of
``role`` sight of the owner's location while the owner is inside the
rectangle ``loc_r`` during the daily time set ``t_int``.  Pairs of users
are scored with a compatibility degree in [0, 1]: above 0.5 when both
directions can disclose simultaneously (their regions and time sets
overlap), at most 0.5 otherwise.

Note one asymmetry inherited from the scoring definition: simultaneous
two-way visibility only requires the time sets to overlap (each user sits
in their own region), yet a pair counts as mutual only when the regions
overlap as well.  Pairs with region-disjoint policies and overlapping
times therefore score by the one-sided fallback formula.

The store is read-only after loading; concurrent readers are fine.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, TypeVar

DAY = 24.0

Rect = tuple[float, float, float, float]  # x_lo, y_lo, x_hi, y_hi
TimeSet = tuple[tuple[float, float], ...]  # disjoint half-open [lo, hi) intervals


class LocationPrivacyPolicy(NamedTuple):
    owner: int
    role: str
    rect: Rect
    t_int: TimeSet


def make_time_set(t_lo: float, t_hi: float, day: float = DAY) -> TimeSet:
    """Daily interval as a time set; ``t_lo > t_hi`` wraps past midnight."""
    if not (0 <= t_lo <= day and 0 <= t_hi <= day):
        raise ValueError(f"interval [{t_lo}, {t_hi}] outside [0, {day}]")
    if t_lo == t_hi:
        return ()
    if t_lo < t_hi:
        return ((t_lo, t_hi),)
    return ((0.0, t_hi), (t_lo, day))


def time_set_span(t_int: TimeSet, day: float = DAY) -> tuple[float, float]:
    """Collapse a time set back to a single (t_lo, t_hi) record."""
    if not t_int:
        return (0.0, 0.0)
    if len(t_int) == 1:
        return t_int[0]
    if len(t_int) == 2 and t_int[0][0] == 0.0 and t_int[1][1] == day:
        return (t_int[1][0], t_int[0][1])
    raise ValueError(f"time set {t_int} is not a single daily interval")


def rect_area(rect: Rect) -> float:
    x_lo, y_lo, x_hi, y_hi = rect
    return max(0.0, x_hi - x_lo) * max(0.0, y_hi - y_lo)


def rect_overlap_area(a: Rect, b: Rect) -> float:
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    return max(0.0, w) * max(0.0, h)


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


def time_in_set(t: float, t_int: TimeSet, day: float = DAY) -> bool:
    tm = t % day
    return any(lo <= tm < hi for lo, hi in t_int)


class CompatibilityScore(NamedTuple):
    alpha: float
    c: float
    mutual: bool


class RelationshipGraph:
    """Per-owner map from relationship label to the users holding it."""

    def __init__(self) -> None:
        # lists keep memory low for the common singleton roles
        self._roles: dict[int, dict[str, list[int]]] = {}

    def add(self, owner: int, role: str, member: int) -> None:
        members = self._roles.setdefault(owner, {}).setdefault(role, [])
        if member not in members:
            members.append(member)

    def members(self, owner: int, role: str) -> frozenset[int]:
        return frozenset(self._roles.get(owner, {}).get(role, ()))

    def records(self) -> Iterable[tuple[int, str, int]]:
        for owner, roles in sorted(self._roles.items()):
            for role, members in sorted(roles.items()):
                for member in sorted(members):
                    yield owner, role, member


class PolicyStore:
    """All policies of a deployment, indexed for per-pair lookup.

    At most one policy may apply per ordered (owner, viewer) pair; the
    constructor rejects violations.
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
        self._directed: dict[int, dict[int, LocationPrivacyPolicy]] = {}
        self._owners_naming: dict[int, list[int]] = {}
        for p in policies:
            targets = graph.members(p.owner, p.role)
            if not targets:
                raise ValueError(f"policy role {p.role!r} of user {p.owner} has no members")
            per_owner = self._directed.setdefault(p.owner, {})
            for v in targets:
                if v in per_owner:
                    raise ValueError(f"two policies for ordered pair ({p.owner}, {v})")
                per_owner[v] = p
                self._owners_naming.setdefault(v, []).append(p.owner)
        for lst in self._owners_naming.values():
            lst.sort()

    def directed(self, owner: int, viewer: int) -> LocationPrivacyPolicy | None:
        """The owner's policy applicable to ``viewer``, if any."""
        return self._directed.get(owner, {}).get(viewer)

    def owners_naming(self, viewer: int) -> list[int]:
        """Users holding a policy toward ``viewer`` (the viewer's friend set)."""
        return self._owners_naming.get(viewer, [])

    def check_user(self, uid: int) -> None:
        if uid not in self.users:
            raise KeyError(f"unknown user id {uid}")


def evaluate_visibility(store: PolicyStore, owner: int, viewer: int, loc: tuple[float, float], t: float) -> bool:
    """True iff ``viewer`` may see ``owner`` located at ``loc`` at time ``t``."""
    store.check_user(owner)
    store.check_user(viewer)
    p = store.directed(owner, viewer)
    if p is None:
        return False
    return point_in_rect(loc[0], loc[1], p.rect) and time_in_set(t, p.t_int, store.day)


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
        shared = time_set_overlap(p12.t_int, p21.t_int)
        if overlap > 0 and shared > 0:
            return (overlap / s) * (shared / day), True
    total = 0.0
    for p in (p12, p21):
        if p is not None:
            total += (rect_area(p.rect) / s) * (time_set_duration(p.t_int) / day)
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
    """Compatibility degrees of every pair that shares at least one policy.

    Only such pairs can score above zero, so the index stays linear in the
    number of policies rather than quadratic in users.  Keys are (lower id,
    higher id) pairs.
    """

    def __init__(self, values: dict[tuple[int, int], float]) -> None:
        self._c = values
        self._neighbors: dict[int, list[int]] = {}
        for (u, v), c in values.items():
            if c > 0:
                self._neighbors.setdefault(u, []).append(v)
                self._neighbors.setdefault(v, []).append(u)
        for lst in self._neighbors.values():
            lst.sort()

    @classmethod
    def from_store(cls, store: PolicyStore) -> "CompatibilityIndex":
        """Score every pair in one pass over each owner's directed policies.

        A one-sided pair is scored from its owner's side and a two-way pair
        once, from its lower id; either way the values equal
        :func:`compatibility` with the lower id first.
        """
        side, day = store.space_side, store.day
        directed = store._directed
        empty: dict[int, LocationPrivacyPolicy] = {}
        values: dict[tuple[int, int], float] = {}
        for owner, per_owner in directed.items():
            for viewer, p in per_owner.items():
                back = directed.get(viewer, empty).get(owner)
                if back is None:
                    a, mutual = _alpha_mutual(p, None, side, day)
                elif owner < viewer:
                    a, mutual = _alpha_mutual(p, back, side, day)
                else:
                    continue
                values[(owner, viewer) if owner < viewer else (viewer, owner)] = _degree(a, mutual)
        return cls(values)

    @classmethod
    def from_values(cls, values: dict[tuple[int, int], float]) -> "CompatibilityIndex":
        """Build from given compatibility values, keyed by either id order."""
        return cls({((u, v) if u < v else (v, u)): c for (u, v), c in values.items()})

    def c(self, u: int, v: int) -> float:
        return self._c.get((u, v) if u < v else (v, u), 0.0)

    def related(self, u: int) -> list[int]:
        """Users with non-zero compatibility to ``u``, ascending."""
        return self._neighbors.get(u, [])


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


def save_policies(policies: Iterable[LocationPrivacyPolicy], path: str | Path, day: float = DAY) -> None:
    with open(path, "w") as fh:
        for p in policies:
            t_lo, t_hi = time_set_span(p.t_int, day)
            x_lo, y_lo, x_hi, y_hi = p.rect
            fh.write(f"{p.owner},{p.role},{x_lo!r},{y_lo!r},{x_hi!r},{y_hi!r},{t_lo!r},{t_hi!r}\n")


def load_policies(path: str | Path, day: float = DAY) -> list[LocationPrivacyPolicy]:
    def parse(fields: list[str]) -> LocationPrivacyPolicy:
        owner, role, *rect, t_lo, t_hi = record_fields(fields, "owner_id,role_label,x_lo,y_lo,x_hi,y_hi,t_lo,t_hi")
        return LocationPrivacyPolicy(
            int(owner),
            role,
            rect_fields(rect),
            make_time_set(time_field(t_lo, "t_lo"), time_field(t_hi, "t_hi"), day),
        )

    return read_records(path, parse)


def save_relationships(graph: RelationshipGraph, path: str | Path) -> None:
    with open(path, "w") as fh:
        for owner, role, member in graph.records():
            fh.write(f"{owner},{role},{member}\n")


def load_relationships(path: str | Path) -> RelationshipGraph:
    def parse(fields: list[str]) -> tuple[int, str, int]:
        owner, role, member = record_fields(fields, "owner_id,role_label,member_id")
        return int(owner), role, int(member)

    graph = RelationshipGraph()
    for owner, role, member in read_records(path, parse):
        graph.add(owner, role, member)
    return graph
