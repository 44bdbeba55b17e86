"""Reference answers for privacy-aware range and kNN queries.

Written apart from ``pebtree.query``: it never calls the program's
oracles, its visibility test or ``PolicyStore``.  It applies the query
definitions to the objects as last reported and to the raw policy records
and relationship records:

* an object's position at query time is extrapolated linearly from its
  last report;
* a range window and a policy rectangle are closed;
* a policy's daily time set is half-open, ``[start, end)``, and wraps past
  midnight when ``start > end``;
* a policy grants sight to every member of its role for its owner.

kNN answers are compared by distance within a tolerance; membership may
differ only among users at the k'th distance.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Mapping

KNN_TOLERANCE = 1e-9


class ReferenceChecker:
    def __init__(self, policies: Iterable, relationship_records: Iterable[tuple[int, str, int]], day: float) -> None:
        self.day = day
        members: dict[int, dict[str, list[int]]] = defaultdict(dict)
        for owner, role, member in relationship_records:
            members[owner].setdefault(role, []).append(member)
        # viewer -> (owner, policy rectangle, daily start, daily end)
        self._grants: dict[int, list[tuple[int, tuple, float, float]]] = defaultdict(list)
        for p in policies:
            grant = (p.owner, p.rect, *self._daily_window(p.t_int))
            for viewer in members[p.owner].get(p.role, ()):
                self._grants[viewer].append(grant)

    def _daily_window(self, t_int: tuple) -> tuple[float, float]:
        """The record's intervals as one daily window ``[start, end)``."""
        if not t_int:
            return 0.0, 0.0
        if len(t_int) == 1:
            return t_int[0]
        (lo1, hi1), (lo2, hi2) = t_int
        if lo1 != 0.0 or hi2 != self.day:
            raise ValueError(f"time set {t_int} is not one daily window")
        return lo2, hi1

    def _in_window(self, t: float, start: float, end: float) -> bool:
        tod = t % self.day
        if start < end:
            return start <= tod < end
        if start > end:
            return tod >= start or tod < end
        return False

    def _visible_positions(self, objects: Mapping, viewer: int, t: float):
        for owner, (x_lo, y_lo, x_hi, y_hi), start, end in self._grants.get(viewer, ()):
            obj = objects[owner]
            px = obj.x + obj.vx * (t - obj.t_u)
            py = obj.y + obj.vy * (t - obj.t_u)
            if x_lo <= px <= x_hi and y_lo <= py <= y_hi and self._in_window(t, start, end):
                yield owner, px, py

    def range_answer(self, objects: Mapping, req) -> set[int]:
        x_lo, y_lo, x_hi, y_hi = req.rect
        return {
            uid
            for uid, px, py in self._visible_positions(objects, req.qid, req.t_q)
            if x_lo <= px <= x_hi and y_lo <= py <= y_hi
        }

    def visible_distances(self, objects: Mapping, req) -> dict[int, float]:
        qx, qy = req.qloc
        return {
            uid: math.hypot(px - qx, py - qy)
            for uid, px, py in self._visible_positions(objects, req.qid, req.t_q)
        }


def range_ok(got: set[int], want: set[int]) -> bool:
    return set(got) == want


def knn_ok(neighbors, short: bool, k: int, visible: dict[int, float], tol: float = KNN_TOLERANCE) -> bool:
    """Whether ``neighbors`` (uid, distance) ascending is a correct kNN answer.

    ``visible`` maps every user visible to the issuer at query time to its
    distance from the query point.
    """
    want = sorted((d, uid) for uid, d in visible.items())[:k]
    if short != (len(want) < k) or len(neighbors) != len(want):
        return False
    uids = [uid for uid, _ in neighbors]
    if len(set(uids)) != len(uids):
        return False
    for (uid, d), (want_d, _) in zip(neighbors, want):
        if uid not in visible or abs(visible[uid] - d) > tol or abs(d - want_d) > tol:
            return False
    if not want:
        return True
    kth = want[-1][0]
    got_core = {uid for uid, d in neighbors if d < kth - tol}
    want_core = {uid for d, uid in want if d < kth - tol}
    return got_core == want_core
