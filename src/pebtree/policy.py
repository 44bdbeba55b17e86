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

Policies are stored as columns.  A :class:`PolicyTable` holds one row per
policy: ``array('d')`` columns for the rectangle and the window, an owner
column, a role column and one day length.  :class:`PolicyStore` maps each
ordered (owner, viewer) pair to the row of its policy, and each viewer to
the rows of the policies naming it, in dicts and tuples of ints, so the
garbage collector walks neither the policies nor the maps to them.  It
checks the columns in one pass, which also finds the owners whose policies
may weigh nothing, then builds the maps one owner at a time, from each run
of rows with one owner, in C-level passes rather than one Python step per
row.  Visibility checks and :meth:`CompatibilityIndex.from_store` read
the columns in place, gathering a viewer's owners and windows over its
rows; a :class:`LocationPrivacyPolicy` record is built only on demand,
when a table is iterated (the file writer does this).

Sequence value assignment ranks every user by its related count, reads
every user's two-way partners, but the related users of its anchors only
and the degrees of few pairs.  So :class:`CompatibilityIndex` keeps the
related counts and the two-way lists; it builds a neighbour list, or
scores a pair, only when asked.  Building it scores only the pairs of the
owners the store found, the pairs whose degree might not be positive.

The store and the table it keeps are read-only after construction, so
readers may share them; the query engines that read them are not safe to
run concurrently (see :mod:`pebtree.query`).
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from itertools import chain, groupby, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn, TypeVar

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
        return window_time_set(self.t_lo, self.t_hi, self.day)


def window_time_set(t_lo: float, t_hi: float, day: float) -> TimeSet:
    if t_lo < t_hi:
        return ((t_lo, t_hi),)
    if t_lo > t_hi:
        return ((0.0, t_hi), (t_lo, day))
    return ()


def window_duration(t_lo: float, t_hi: float, day: float) -> float:
    if t_lo < t_hi:
        return t_hi - t_lo
    if t_lo > t_hi:
        return t_hi + (day - t_lo)
    return 0.0


def window_contains(t_lo: float, t_hi: float, day: float, t: float) -> bool:
    tm = t % day
    if t_lo <= t_hi:
        return t_lo <= tm < t_hi
    # `tm < day` also holds for a tiny negative t, whose remainder rounds to day
    return t_lo <= tm < day or tm < t_hi


class PolicyTable:
    """Policies of one day length as columns, one row per policy.

    The rectangle sides and the window ends are ``array('d')`` columns, so
    the garbage collector has nothing to walk in them.  The owner column is
    a list that holds the caller's own int objects: dicts keyed by the same
    objects then find them by identity.  Iteration builds
    :class:`LocationPrivacyPolicy` records on demand.
    """

    def __init__(self, day: float = DAY) -> None:
        self.day = day
        self.owner: list[int] = []
        self.role: list[str] = []
        self.x_lo, self.y_lo, self.x_hi, self.y_hi = array("d"), array("d"), array("d"), array("d")
        self.t_lo, self.t_hi = array("d"), array("d")

    def _columns(self) -> tuple:
        return (self.owner, self.role, self.x_lo, self.y_lo, self.x_hi, self.y_hi, self.t_lo, self.t_hi)

    def append(
        self, owner: int, role: str, x_lo: float, y_lo: float, x_hi: float, y_hi: float, t_lo: float, t_hi: float
    ) -> None:
        for column, value in zip(self._columns(), (owner, role, x_lo, y_lo, x_hi, y_hi, t_lo, t_hi)):
            column.append(value)

    def __len__(self) -> int:
        return len(self.owner)

    def __iter__(self) -> Iterator[LocationPrivacyPolicy]:
        day = self.day
        for owner, role, x_lo, y_lo, x_hi, y_hi, t_lo, t_hi in zip(*self._columns()):
            yield LocationPrivacyPolicy(owner, role, (x_lo, y_lo, x_hi, y_hi), t_lo, t_hi, day)


def check_window(t_lo: float, t_hi: float, day: float) -> None:
    if not (0 <= t_lo <= day and 0 <= t_hi <= day):
        raise ValueError(f"interval [{t_lo}, {t_hi}] outside [0, {day}]")


def time_set_overlap(a: TimeSet, b: TimeSet) -> float:
    total = 0.0
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            total += max(0.0, min(hi1, hi2) - max(lo1, lo2))
    return total


class RelationshipGraph:
    """Per-owner map from relationship label to the users holding it."""

    def __init__(self) -> None:
        # members are tuples of distinct ids in first-seen order: one tuple can
        # serve many roles, and the garbage collector stops tracking them
        self._roles: dict[int, dict[str, tuple[int, ...]]] = {}

    def set_roles(self, owner: int, roles: dict[str, tuple[int, ...]]) -> None:
        """Make ``roles`` the owner's whole role map; each tuple must hold distinct ids."""
        self._roles[owner] = roles

    def records(self) -> Iterable[tuple[int, str, int]]:
        for owner, roles in sorted(self._roles.items()):
            for role, members in sorted(roles.items()):
                for member in sorted(members):
                    yield owner, role, member


def _gather(seq, indices: tuple[int, ...]) -> tuple:
    """``seq[i]`` for each ``i`` in ``indices``, as a tuple.

    ``itemgetter`` reads them in one C loop, which every query needs: each
    read of a fresh viewer's policies misses the processor cache, and the
    tight loop keeps several misses in flight.  It returns a bare item for
    one index.
    """
    return itemgetter(*indices)(seq) if len(indices) > 1 else tuple(seq[i] for i in indices)


def _weight_floor(space_side: float, day: float) -> float:
    """The floor ``F`` of :meth:`CompatibilityIndex.from_store`: ``1e-50``, or infinite where its bounds underflow."""
    floor = 1e-50
    delta, s = math.ulp(floor / 2), space_side * space_side
    if not (0.5 * (((floor * floor) / s) * (floor / day)) > 0 and ((delta * delta) / s) * (delta / day) > 0):
        return math.inf
    return floor


def _refuse_rows(table: PolicyTable, roles: dict[int, dict[str, tuple[int, ...]]], day: float) -> NoReturn:
    """Raise the refusal a row-by-row build meets first; the caller has found that one exists."""
    seen: defaultdict[int, set[int]] = defaultdict(set)
    for owner, role, t_lo, t_hi in zip(table.owner, table.role, table.t_lo, table.t_hi):
        check_window(t_lo, t_hi, day)
        targets = roles.get(owner, {}).get(role)
        if not targets:
            raise ValueError(f"policy role {role!r} of user {owner} has no members")
        if owner in targets:
            raise ValueError(f"policy role {role!r} of user {owner} names its own owner")
        named = seen[owner]
        for v in targets:
            if v in named:
                raise ValueError(f"two policies for ordered pair ({owner}, {v})")
            named.add(v)
    raise AssertionError("no row of the policy table is at fault")


class PolicyStore:
    """All policies of a deployment, indexed for per-pair lookup.

    The store keeps a :class:`PolicyTable`, maps each ordered (owner,
    viewer) pair to the row of the policy that applies, in dicts of ints,
    and keeps each viewer's rows, the policies naming it, in ascending
    owner order.  A viewer's owners and window ends are gathered from the
    table's columns over those rows.  At most one policy may apply per
    ordered pair, no policy may name its own owner, the table's day must
    be the store's, every policy's window must lie in that day and every
    region in the space (each of its four sides in ``[0, space_side]``, so
    a region empty by a side at ``+inf``, ``-inf`` or below 0 is refused as
    :func:`load_policies` refuses it), the space must have a positive area
    and the day a positive finite length; the constructor rejects
    violations.

    The constructor reads the columns once, gathering the owner of each
    row whose region leaves the space or whose window leaves the day, or
    whose policy may weigh nothing: a side or a time interval not longer
    than the floor ``F`` of :meth:`CompatibilityIndex.from_store`.  When
    it gathers nobody, the table is valid; otherwise it checks the regions
    and then the windows row by row, and if nothing is refused, the owners
    gathered are :attr:`weightless_owners`.  It then builds the maps one
    owner at a time: each run of rows with the same owner becomes the
    owner's map in one ``dict(zip(...))``, and its members' row lists grow
    in one ``map``, holding the map's own int objects.  Rows appended in
    table order are in owner order when the owners ascend run by run, as
    generated tables do; otherwise, such as when an owner's rows are not
    contiguous and its runs are merged, each viewer's rows are sorted by
    owner.  Each list is kept as a tuple.  On a fault the rows are walked
    again one by one, so the refusal is the one a row-by-row build would
    meet first.
    """

    def __init__(
        self,
        table: PolicyTable,
        graph: RelationshipGraph,
        users: Iterable[int],
        space_side: float = 1000.0,
        day: float = DAY,
    ) -> None:
        # the compatibility scores divide by the space's area
        if not space_side * space_side > 0:
            raise ValueError(f"space_side {space_side} gives the space no positive area")
        # and divide by the day's length
        if not 0.0 < day < math.inf:
            raise ValueError(f"day is {day!r}, not a positive finite number")
        self.users = frozenset(users)
        self.space_side = space_side
        self.day = day
        if table.day != day:
            raise ValueError(f"the policy table has a day of {table.day}, the store {day}")
        self.policies = table
        # one pass gathers the owner of each row that leaves the space or the day, or
        # may weigh nothing (see CompatibilityIndex.from_store).  A side needs one bound
        # test: lo >= 0, hi <= side and hi - lo > F >= 0 put both in [0, side].  Nor does
        # a wrapped window: t_lo > t_hi > F >= 0 and day - t_lo > F put it in the day
        floor = _weight_floor(space_side, day)
        weightless = {
            u
            for u, x_lo, y_lo, x_hi, y_hi, t_lo, t_hi in zip(
                table.owner, table.x_lo, table.y_lo, table.x_hi, table.y_hi, table.t_lo, table.t_hi
            )
            if not (
                0.0 <= x_lo and 0.0 <= y_lo and x_hi <= space_side and y_hi <= space_side
                and x_hi - x_lo > floor
                and y_hi - y_lo > floor
                # the time intervals: [t_lo, t_hi), or [0, t_hi) and [t_lo, day) wrapped
                and (
                    0.0 <= t_lo and t_hi <= day and t_hi - t_lo > floor
                    if t_lo < t_hi
                    else t_lo > t_hi and t_hi > floor and day - t_lo > floor
                )
            )
        }
        roles, no_roles = graph._roles, {}
        if weightless:
            # a user is visible only inside a region, so with every region in the
            # space the engines may skip a window that misses it without a read
            for owner, *rect in zip(table.owner, table.x_lo, table.y_lo, table.x_hi, table.y_hi):
                if not all(0.0 <= v <= space_side for v in rect):
                    side = f"[0, {space_side}]"
                    raise ValueError(
                        f"policy region {tuple(rect)} of user {owner} reaches beyond the space {side} x {side}"
                    )
            if not all(0.0 <= t <= day for t in chain(table.t_lo, table.t_hi)):
                _refuse_rows(table, roles, day)
        # no row is refused: the owners gathered are those whose policies may weigh nothing
        self.weightless_owners = frozenset(weightless)
        # one run of rows per owner; role member tuples are read as they are
        role_col = table.role
        directed: dict[int, dict[int, int]] = {}
        naming: defaultdict[int, list[int]] = defaultdict(list)
        start, ascending, last = 0, True, -math.inf
        for owner, run in groupby(table.owner):
            ascending = ascending and last < owner
            last = owner
            end = start + len(list(run))
            members = list(map(roles.get(owner, no_roles).get, role_col[start:end]))
            if not all(members):
                _refuse_rows(table, roles, day)
            targets = list(chain.from_iterable(members))
            # every tuple is non-empty, so equal lengths mean one member per row
            rows = range(start, end)
            if len(targets) != end - start:
                rows = chain.from_iterable(map(repeat, rows, map(len, members)))
            per_owner = dict(zip(targets, rows))
            if len(per_owner) != len(targets) or owner in per_owner:
                _refuse_rows(table, roles, day)
            known = directed.setdefault(owner, per_owner)
            if known is not per_owner:  # the owner's rows are not contiguous: merge its runs
                if not known.keys().isdisjoint(per_owner):
                    _refuse_rows(table, roles, day)
                known.update(per_owner)
            # each member's list takes the row the owner's map holds, the same int
            # object; list.append returns None, so any() runs the appends to the end
            any(map(list.append, map(naming.__getitem__, per_owner), per_owner.values()))
            start = end
        if not ascending:  # rows in table order are in owner order only if the owners ascend
            for lst in naming.values():
                lst.sort(key=table.owner.__getitem__)
        # dicts of ints only: the garbage collector leaves the inner ones untracked.
        # It untracks tuples of ints too, so a full collection does not walk the
        # row ints, one per policy, as it would walk them in lists
        self._directed = directed
        self._rows_naming = dict(zip(naming, map(tuple, naming.values())))
        for who, uids in (("owner", self._directed.keys()), ("member", self._rows_naming.keys())):
            unknown = uids - self.users
            if unknown:
                raise ValueError(f"policy {who} {min(unknown)} is not a known user")

    def row(self, owner: int, viewer: int) -> int | None:
        """The table row of the owner's policy applicable to ``viewer``, if any."""
        per_owner = self._directed.get(owner)
        return None if per_owner is None else per_owner.get(viewer)

    def policy_rows(self, viewer: int) -> tuple[int, ...]:
        """The table rows of the policies toward ``viewer``, in ascending owner order."""
        return self._rows_naming.get(viewer, ())

    def owners_naming(self, viewer: int) -> list[int]:
        """Users holding a policy toward ``viewer`` (the viewer's friend set), ascending."""
        return list(_gather(self.policies.owner, self.policy_rows(viewer)))

    def windows(self, viewer: int) -> tuple[tuple[int, ...], tuple, tuple, tuple]:
        """The rows of :meth:`policy_rows`, with each one's owner, ``t_lo`` and ``t_hi``."""
        rows = self.policy_rows(viewer)
        table = self.policies
        return rows, _gather(table.owner, rows), _gather(table.t_lo, rows), _gather(table.t_hi, rows)

    def check_user(self, uid: int) -> None:
        if uid not in self.users:
            raise KeyError(f"unknown user id {uid}")


def _alpha_mutual_rows(
    table: PolicyTable, r12: int | None, r21: int | None, space_side: float
) -> tuple[float, bool]:
    """The score of the policies in rows ``r12`` and ``r21`` (``None`` for no policy), and whether it is mutual."""
    if r12 is None and r21 is None:
        return 0.0, False
    s = space_side * space_side
    day, t_lo, t_hi = table.day, table.t_lo, table.t_hi
    x_lo, y_lo, x_hi, y_hi = table.x_lo, table.y_lo, table.x_hi, table.y_hi
    # the columns are read in place; conditional expressions pick what min()
    # and max() of two would, without the calls
    if r12 is not None and r21 is not None:
        a_lo, a_hi, b_lo, b_hi = x_lo[r12], x_hi[r12], x_lo[r21], x_hi[r21]
        w = (b_hi if b_hi < a_hi else a_hi) - (b_lo if b_lo > a_lo else a_lo)
        a_lo, a_hi, b_lo, b_hi = y_lo[r12], y_hi[r12], y_lo[r21], y_hi[r21]
        h = (b_hi if b_hi < a_hi else a_hi) - (b_lo if b_lo > a_lo else a_lo)
        overlap = (w if w > 0.0 else 0.0) * (h if h > 0.0 else 0.0)
        if overlap > 0:
            shared = time_set_overlap(
                window_time_set(t_lo[r12], t_hi[r12], day), window_time_set(t_lo[r21], t_hi[r21], day)
            )
            if shared > 0:
                return (overlap / s) * (shared / day), True
    total = 0.0
    for r in (r12, r21):
        if r is not None:
            w, h = x_hi[r] - x_lo[r], y_hi[r] - y_lo[r]
            area = (w if w > 0.0 else 0.0) * (h if h > 0.0 else 0.0)
            total += (area / s) * (window_duration(t_lo[r], t_hi[r], day) / day)
    return 0.5 * total, False


_ABOVE_HALF = math.nextafter(0.5, 1.0)


def _degree(a: float, mutual: bool) -> float:
    # a mutual pair scores above every one-sided pair (at most 0.5), also when
    # its overlap is too small to show in 0.5 * (1 + a)
    return max(0.5 * (1.0 + a), _ABOVE_HALF) if mutual and a != 0.0 else a


def compatibility(store: PolicyStore, u1: int, u2: int) -> float:
    """Degree of compatibility between two users' policies (symmetric)."""
    return _degree(*_alpha_mutual_rows(store.policies, store.row(u1, u2), store.row(u2, u1), store.space_side))


class CompatibilityIndex:
    """Users related by compatibility, and the degree of any pair.

    Only a pair that shares at least one policy can score above zero, so
    the index stays linear in the number of policies rather than
    quadratic in users.  The index keeps each user's related count, the
    pairs dropped for a degree that is not positive and the two-way lists
    (the related users toward whom each user holds a policy and who hold
    one back).  A user's related users are the viewers it names and the
    owners naming it in the store, less its dropped partners;
    :meth:`related` builds that list on each call.  Sequence value
    assignment ranks every user by its count but reads the list of its
    anchors only, and the degrees of few pairs.  The index keeps no
    degree: it scores each pair on demand by :func:`compatibility`, lower
    id first, the order the build scores in.  Nothing is cached, so the
    index is read-only.  Build one with :meth:`from_store`.
    """

    def __init__(
        self,
        store: PolicyStore,
        dropped: dict[int, set[int]],
        counts: dict[int, int],
        two_way: dict[int, list[int]],
    ) -> None:
        self._store = store
        self._dropped = dropped
        self._counts = counts
        self._two_way = two_way

    @classmethod
    def from_store(cls, store: PolicyStore) -> "CompatibilityIndex":
        """Related counts and two-way lists from the store's policy maps.

        A user's candidates are the viewers it names and the owners naming
        it, less the pairs whose degree is not positive; its two-way list
        holds the candidates that are both.  Only a pair with a *suspect*
        owner, one holding a policy whose sides or time intervals are not
        longer than a floor ``F``, is scored here (once, lower id first).
        The store finds these owners, :attr:`PolicyStore.weightless_owners`,
        as it checks the table, with ``F`` from :func:`_weight_floor`.

        Any other pair is positive.  Coordinates are at least 0 (the store
        checks it) and rounding is monotone, so a one-sided score is at
        least half the weight of a policy of sides and duration ``F``.  In
        a mutual score each positive overlap side or shared time is some
        ``x - y`` with ``x > F`` and ``y >= 0``: at least ``F/2`` if ``y <=
        x/2``, else exact (Sterbenz's lemma), so at least ``δ = ulp(F/2)``.
        If a score built from either bound underflows, ``F`` is infinite
        and every owner is a suspect.
        """
        directed, owners_naming = store._directed, store.owners_naming
        no_policies: dict[int, int] = {}
        counts: dict[int, int] = {}
        two_way: dict[int, list[int]] = {}
        for u in directed.keys() | store._rows_naming.keys():
            per_owner = directed.get(u, no_policies)
            owners = owners_naming(u)
            both = per_owner.keys() & owners
            if both:
                two_way[u] = sorted(both)
            counts[u] = len(per_owner) + len(owners) - len(both)
        dropped: dict[int, set[int]] = {}
        for pair in {(u, v) if u < v else (v, u) for u in store.weightless_owners for v in directed[u]}:
            if compatibility(store, *pair) > 0:
                continue
            for u, v in (pair, pair[::-1]):
                dropped.setdefault(u, set()).add(v)
                counts[u] -= 1
                if v in two_way.get(u, ()):
                    two_way[u].remove(v)
        return cls(store, dropped, counts, two_way)

    def c(self, u: int, v: int) -> float:
        return compatibility(self._store, *((u, v) if u < v else (v, u)))

    def related(self, u: int) -> list[int]:
        """Users with non-zero compatibility to ``u``, ascending, in a list built on each call."""
        store = self._store
        found = set(store._directed.get(u, ()))
        found.update(store.owners_naming(u))
        dropped = self._dropped.get(u)
        if dropped:
            found -= dropped
        return sorted(found)

    def related_count(self, u: int) -> int:
        """``len(self.related(u))``, without building the list."""
        return self._counts.get(u, 0)

    def two_way(self, u: int) -> list[int]:
        """Related users toward whom ``u`` holds a policy and who hold one back, ascending."""
        return self._two_way.get(u, [])


# --- file formats -----------------------------------------------------------
#
# Policy file: one record per line, comma separated:
#     owner_id,role_label,x_lo,y_lo,x_hi,y_hi,t_lo,t_hi
# Relationship file:
#     owner_id,role_label,member_id

T = TypeVar("T")


def read_records(path: str | Path, parse: Callable[[list[str]], T]) -> Iterator[T]:
    """Yield the parse of each non-blank line of a comma-separated file.

    ``parse`` receives the line's fields.  A ``ValueError`` it raises is
    raised again with the file name and the line number in front.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = parse(line.split(","))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            yield record


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


def load_policies(path: str | Path, day: float = DAY) -> PolicyTable:
    def parse(fields: list[str]) -> tuple[int, str, float, float, float, float, float, float]:
        owner, role, *rect, t_lo, t_hi = record_fields(fields, "owner_id,role_label,x_lo,y_lo,x_hi,y_hi,t_lo,t_hi")
        window = time_field(t_lo, "t_lo"), time_field(t_hi, "t_hi")
        check_window(*window, day)
        return (int(owner), role, *rect_fields(rect), *window)

    table = PolicyTable(day)
    for record in read_records(path, parse):
        table.append(*record)
    return table


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
