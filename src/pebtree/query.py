"""Privacy-aware range and k-nearest-neighbor query processing.

Two engines answer the same queries:

* :class:`PebQueryEngine` runs against the policy-embedded index.  A range
  query enlarges the window per time partition and decomposes it into
  curve intervals.  Each friend sequence value owns the key prefix
  ``partition | sequence value``, so its key intervals are the curve
  intervals offset by that prefix; the tree's leaf cursor scans them,
  stopping once every owner of the sequence value has been retrieved (a
  user has only one location).  The kNN query walks a (friend row x
  expansion round) search matrix in anti-diagonal order, keeps one curve
  interval per round, and finishes with a vertical scan of the last
  visited column shortened to the square of side twice the k'th candidate
  distance.

* :class:`BaselineQueryEngine` runs against the baseline index: a plain
  spatial query first, policy filtering after, with kNN by incrementally
  expanded range queries.

Both engines read the tree only through
:meth:`~pebtree.store.BPlusTree.scan_intervals`, so a query's charged I/O
is the buffer misses of the pages it reads.

Brute-force oracles apply the query definitions literally over all users
and anchor every correctness test.  Queries leave the index's entries
unchanged but are not safe to run concurrently: each one moves pages in
the index's shared LRU buffer and bumps its counters, and
:class:`FriendLists` fills its row cache lazily.  Issue queries against
one index from one thread at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappush, heapreplace
from typing import Callable, Iterable, Iterator, Sequence

from .keys import KeyLayout, SequenceValueMap
from .motion import MovingObject
from .policy import PolicyStore, point_in_rect
from .store import DirectionalSpeeds, LeafEntry, MovingObjectIndex
from .zcurve import cells_covering, z_corner_interval, z_decompose

Rect = tuple[float, float, float, float]

# Query windows are snapped outward to blocks of 2^SCAN_BLOCK_SHIFT cells per
# side before curve decomposition.  That bounds the number of key intervals
# per window; the scanned key set only grows, so results are unaffected.
SCAN_BLOCK_SHIFT = 4


def _check_query(t_q: float, coords: tuple[float, ...], what: str) -> None:
    # the checks load_queries makes on each field
    if not math.isfinite(t_q):
        raise ValueError(f"t_q is {t_q!r}, not a finite number")
    if t_q < 0:
        raise ValueError(f"t_q is {t_q!r}, a negative time")
    if not all(map(math.isfinite, coords)):
        raise ValueError(f"query {what} {coords} is not finite")


@dataclass(frozen=True)
class PrqRequest:
    """Range query: issuer, window rectangle, query time."""

    qid: int
    rect: Rect
    t_q: float

    def __post_init__(self) -> None:
        _check_query(self.t_q, self.rect, "rectangle")
        x_lo, y_lo, x_hi, y_hi = self.rect
        if x_lo > x_hi or y_lo > y_hi:
            raise ValueError(f"degenerate query rectangle {self.rect}")


@dataclass(frozen=True)
class PknnRequest:
    """kNN query: issuer, query point, neighbor count, query time."""

    qid: int
    qloc: tuple[float, float]
    k: int
    t_q: float

    def __post_init__(self) -> None:
        _check_query(self.t_q, self.qloc, "point")
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class PknnResult:
    """Neighbors as (uid, distance) ascending; ``short`` flags fewer than k."""

    neighbors: tuple[tuple[int, float], ...]
    short: bool


def enlarge(rect: Rect, t_lab: float, t_q: float, speeds: DirectionalSpeeds, space_side: float) -> Rect:
    """Expand a query window so index-time positions of matches are covered.

    Entries are stored at their label-timestamp positions.  Each window
    side moves outward by the matching directional maximum speed times the
    label/query time gap, then clamps to the space; any object whose
    query-time position lies in ``rect`` has its label-time position in
    the result.
    """
    x_lo, y_lo, x_hi, y_hi = rect
    gap = t_q - t_lab
    if gap >= 0:
        # labels in the past: an object now inside drifted in since t_lab
        x_lo -= speeds.pos_x * gap
        x_hi += speeds.neg_x * gap
        y_lo -= speeds.pos_y * gap
        y_hi += speeds.neg_y * gap
    else:
        x_lo -= speeds.neg_x * -gap
        x_hi += speeds.pos_x * -gap
        y_lo -= speeds.neg_y * -gap
        y_hi += speeds.pos_y * -gap
    return (max(x_lo, 0.0), max(y_lo, 0.0), min(x_hi, space_side), min(y_hi, space_side))


def estimate_dk(k: int, n_users: int, side: float) -> float:
    """Estimated distance to the k'th nearest of ``n_users`` uniform users."""
    if not 1 <= k <= n_users:
        raise ValueError("need 1 <= k <= number of users")
    ratio = (k / n_users) ** 0.5
    return side * (2.0 / math.sqrt(math.pi)) * (1.0 - math.sqrt(1.0 - ratio))


def antidiagonal_order(n_rows: int, n_cols: int) -> Iterator[tuple[int, int]]:
    """Triangular search order: anti-diagonals from the upper-left corner.

    Yields 0-based (row, column) pairs; within a diagonal the column
    decreases, so the sequence alternates between advancing the curve
    radius and advancing the sequence-value row.
    """
    for d in range(n_rows + n_cols - 1):
        for r in range(max(0, d - n_cols + 1), min(d, n_rows - 1) + 1):
            yield r, d - r


TraversalOrder = Callable[[int, int], Iterator[tuple[int, int]]]


def _visible(store: PolicyStore, owner: int, viewer: int, x: float, y: float, t: float) -> bool:
    # hot path shared by engines and oracles: no id validation here
    per_owner = store._directed.get(owner)
    if per_owner is None:
        return False
    p = per_owner.get(viewer)
    if p is None:
        return False
    return point_in_rect(x, y, p.rect) and p.active_at(t)


class FriendLists:
    """Per-user rows of the sequence values that can ever see the user.

    A user's row list holds the quantized sequence values of every owner
    with a policy naming the user, ascending, each tagged with the owner
    uids that quantize to it.  Built lazily and cached per user.
    """

    def __init__(self, store: PolicyStore, sv_map: SequenceValueMap, layout: KeyLayout) -> None:
        self.store = store
        self.sv_map = sv_map
        self.layout = layout
        self._rows: dict[int, tuple[tuple[int, tuple[int, ...]], ...]] = {}

    def rows(self, viewer: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        cached = self._rows.get(viewer)
        if cached is None:
            by_svq: dict[int, list[int]] = {}
            for owner in self.store.owners_naming(viewer):
                by_svq.setdefault(self.layout.quantize_sv(self.sv_map[owner]), []).append(owner)
            cached = tuple(sorted((svq, tuple(sorted(us))) for svq, us in by_svq.items()))
            self._rows[viewer] = cached
        return cached


# friend row states of the kNN walk within one partition
_OPEN, _EXHAUSTED, _RETIRED = range(3)


def _owner_rows(rows: Sequence[tuple[int, tuple[int, ...]]]) -> tuple[dict[int, int], list[int]]:
    """Map each owner uid to its friend row, and count each row's owners."""
    row_of = {uid: row_i for row_i, (_, uids) in enumerate(rows) for uid in uids}
    return row_of, [len(uids) for _, uids in rows]


class _EngineBase:
    def __init__(self, index: MovingObjectIndex, store: PolicyStore) -> None:
        self.index = index
        self.store = store
        self.grid = index.grid
        self.layout = index.layout

    def _zivs(self, rect: Rect) -> list[tuple[int, int]]:
        return z_decompose(cells_covering(rect, self.grid), self.grid, SCAN_BLOCK_SHIFT)


class PebQueryEngine(_EngineBase):
    """Query processor for the policy-embedded index."""

    def __init__(
        self,
        index: MovingObjectIndex,
        store: PolicyStore,
        friends: FriendLists,
        traversal: TraversalOrder = antidiagonal_order,
    ) -> None:
        if index.kind != "peb":
            raise ValueError("engine requires a policy-embedded index")
        super().__init__(index, store)
        self.friends = friends
        self.traversal = traversal

    # -- scans ---------------------------------------------------------------

    def _row_span(self, tid: int, svq: int) -> tuple[list[int], list[LeafEntry]]:
        """Curve values and entries of one (partition, sequence value) key span, in key order."""
        base = self.layout.peb_key_q(tid, svq, 0)
        entries: list[LeafEntry] = []
        self.index.tree.scan_intervals(((0, self.grid.max_z),), entries.append, base)
        return [entry.key - base for entry in entries], entries

    def prq(self, req: PrqRequest, skip_rule: bool = True) -> set[int]:
        """Users inside the window at query time who allow the issuer to see them.

        For each live partition the enlarged window is decomposed into
        curve intervals once; then each friend row's key intervals, the
        curve intervals offset by the row's key prefix, are read with one
        leaf-cursor scan.  Only the row's owners can be visible to the
        issuer, so only their entries are verified.

        With ``skip_rule`` a row's scan stops at the entry that completes
        its owners, and a row whose owners were all retrieved in an earlier
        partition is not scanned (a user has only one location).
        ``skip_rule=False`` disables that; results are identical, only the
        I/O changes.
        """
        self.store.check_user(req.qid)
        rows = self.friends.rows(req.qid)
        result: set[int] = set()
        if not rows:
            return result
        store = self.store
        tree = self.index.tree
        layout = self.layout
        qid = req.qid
        t_q = req.t_q
        x_lo, y_lo, x_hi, y_hi = rect = req.rect
        row_of, unseen = _owner_rows(rows)

        def visit(entry: LeafEntry) -> bool:
            # entries of a row's key span carry its sequence value: an owner found is the row's own
            row_i = row_of.get(entry.uid)
            if row_i is None:
                return False
            unseen[row_i] -= 1
            px = entry.x + entry.vx * (t_q - entry.t)
            py = entry.y + entry.vy * (t_q - entry.t)
            if x_lo <= px <= x_hi and y_lo <= py <= y_hi and _visible(store, entry.uid, qid, px, py, t_q):
                result.add(entry.uid)
            return skip_rule and not unseen[row_i]

        for tid, label in self.index.live_partitions():
            zivs = self._zivs(enlarge(rect, label, t_q, self.index.max_speeds, self.grid.L))
            if not zivs:
                continue
            for row_i, (svq, _) in enumerate(rows):
                if unseen[row_i] or not skip_rule:
                    tree.scan_intervals(zivs, visit, layout.peb_key_q(tid, svq, 0))
        return result

    # -- kNN query ---------------------------------------------------------------

    def pknn(self, req: PknnRequest) -> PknnResult:
        """The k visible users nearest the query point at query time.

        Partitions are searched one at a time.  Within a partition the
        (friend row x expansion round) matrix is walked in the traversal
        order.  A row's first visit reads the row's whole key span,
        ``partition | sequence value | [0, max_z]``, with one leaf-cursor
        scan; each visited cell then verifies only the span's entries in
        the part of its round's curve interval not yet covered for that row
        (rounds nest, so no entry is verified twice).  So every row that
        still has an unseen owner is read once per partition, however early
        the walk stops (in row order, under the anti-diagonal traversal);
        the walk only chooses which of the entries read get verified.
        Once k verified candidates sit inside the current round's
        inscribed circle, the remaining rows of the column are vertically
        scanned with the interval shortened to the square of side twice
        the k'th candidate distance, which keeps the result exact no
        matter where the walk stopped.  Fewer than k visible users yields
        all of them with the result flagged short.

        Round ``c`` (0-based) covers the square of half-side
        ``(c + 1) * r_q``.  The step is ``r_q = estimate_dk(min(k, n_f),
        n_f, L) / k``, where ``n_f`` counts the owners in the issuer's
        friend rows: only they can be answers.  The paper's Bx-tree
        estimate counts all N indexed users instead, which assumes the
        neighbors are drawn from all of them; for an issuer who can see a
        small share of the users, that step is so short that nearly every
        cell scans nothing.  The step only sets how far each round reaches,
        so any step gives the same answers.

        Rows that can no longer change the answer are retired from the
        walk.  Within a partition each row is *open*, *retired* (every
        owner uid in it has been seen; its cells do nothing) or
        *exhausted* (its span holds no entry outside the z bounds already
        covered for it, but an owner is still unseen because it lives in
        another partition; its cells only run the termination test).  A
        row's entries carry its own sequence value in the key, so only the
        row's own scans change its state.  An open row whose round interval
        does not yet reach the nearest entry outside its covered bounds has
        nothing to verify, so its cell, too, only runs the termination test.
        The walk over a partition ends once no row is open, because no later
        cell could then read or verify an entry.  None of this changes which
        row spans are read, in which order, or which entries are verified,
        so answers and I/O are those of the full walk.
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
        n_f = sum(len(uids) for _, uids in rows)  # each owner sits in one row
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
        nearest: list[float] = []  # max-heap (negated) of the k smallest distances
        seen: set[int] = set()
        row_of, unseen = _owner_rows(rows)
        state = [_OPEN] * m  # per-partition row states, and the open rows' count
        n_open = 0

        def interval_for(square: Rect, tid: int, label: float) -> tuple[int, int]:
            cells = cells_covering(enlarge(square, label, t_q, self.index.max_speeds, side), self.grid)
            return z_corner_interval(cells, self.grid)

        def process(entry: LeafEntry) -> None:
            nonlocal n_open
            uid = entry.uid
            if uid in seen:
                return
            seen.add(uid)
            owner_row = row_of.get(uid)
            if owner_row is not None:
                unseen[owner_row] -= 1
                if not unseen[owner_row]:
                    if state[owner_row] == _OPEN:
                        n_open -= 1
                    state[owner_row] = _RETIRED
            px = entry.x + entry.vx * (t_q - entry.t)
            py = entry.y + entry.vy * (t_q - entry.t)
            if _visible(store, uid, req.qid, px, py, t_q):
                d = math.hypot(px - qx, py - qy)
                candidates[uid] = d
                if len(nearest) < k:
                    heappush(nearest, -d)
                elif d < -nearest[0]:
                    heapreplace(nearest, -d)

        def search_partition(tid: int, label: float) -> None:
            nonlocal n_open
            for row_i in range(m):
                state[row_i] = _OPEN if unseen[row_i] else _RETIRED
            n_open = m - state.count(_RETIRED)
            if not n_open:
                return
            spans: list[tuple[list[int], list[LeafEntry]] | None] = [None] * m
            # a read row's entries [done_lo, done_hi) are the ones inside the
            # z bounds scanned so far for it; below and above hold the z of
            # the nearest entries outside them (an unread row wakes at once)
            done_lo = [0] * m
            done_hi = [0] * m
            below = [-1] * m
            above = [-1] * m
            no_z = self.grid.max_z + 1
            visited_cols = [-1] * m  # last column visited while the row was open
            col_ivs: dict[int, tuple[int, int]] = {}

            def column_interval(col: int) -> tuple[int, int]:
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
                # the first visit reads the whole span; each visit verifies
                # the entries between the old and the new z bounds
                nonlocal n_open
                span = spans[row_i]
                if span is None:
                    span = spans[row_i] = self._row_span(tid, rows[row_i][0])
                    done_lo[row_i] = done_hi[row_i] = bisect_left(span[0], zs)
                z_list, entries = span
                lo = done_lo[row_i]
                if lo and z_list[lo - 1] >= zs:
                    new_lo = done_lo[row_i] = bisect_left(z_list, zs, 0, lo)
                    for entry in entries[new_lo:lo]:
                        process(entry)
                    lo = new_lo
                hi = done_hi[row_i]
                if hi < len(z_list) and z_list[hi] <= ze:
                    new_hi = done_hi[row_i] = bisect_right(z_list, ze, hi)
                    for entry in entries[hi:new_hi]:
                        process(entry)
                    hi = new_hi
                below[row_i] = z_list[lo - 1] if lo else -1
                above[row_i] = z_list[hi] if hi < len(z_list) else no_z
                if state[row_i] == _OPEN and not lo and hi == len(z_list):
                    state[row_i] = _EXHAUSTED
                    n_open -= 1

            for row_i, col in self.traversal(m, n_cols):
                row_state = state[row_i]
                if row_state == _RETIRED:
                    continue
                if row_state == _OPEN:
                    zs, ze = col_ivs.get(col) or column_interval(col)
                    if zs <= below[row_i] or ze >= above[row_i]:
                        scan_row(row_i, zs, ze)
                    visited_cols[row_i] = col
                if len(nearest) == k and -nearest[0] <= (col + 1) * r_q:
                    # vertical scan of this column, shortened to 2*kdist
                    kdist = -nearest[0]
                    square = (
                        max(qx - kdist, 0.0),
                        max(qy - kdist, 0.0),
                        min(qx + kdist, side),
                        min(qy + kdist, side),
                    )
                    v_lo, v_hi = interval_for(square, tid, label)
                    for other in range(m):
                        if state[other] == _OPEN and visited_cols[other] != col:
                            scan_row(other, v_lo, v_hi)
                    return
                if not n_open:
                    return

        for tid, label in live:
            search_partition(tid, label)
        ranked = sorted((d, uid) for uid, d in candidates.items())[:k]
        return PknnResult(tuple((uid, d) for d, uid in ranked), short=len(ranked) < k)


class BaselineQueryEngine(_EngineBase):
    """Spatial-index-then-filter query processor for the baseline index."""

    def __init__(self, index: MovingObjectIndex, store: PolicyStore) -> None:
        if index.kind != "bx":
            raise ValueError("engine requires a baseline index")
        super().__init__(index, store)

    def _spatial_candidates(self, rect: Rect, t_q: float, scanned: dict[int, list[tuple[int, int]]] | None = None) -> list[LeafEntry]:
        """Entries whose window scan retrieves them for this rectangle.

        ``scanned`` carries per-partition curve intervals already covered
        by earlier rounds of an incremental search, and only the rest is
        scanned.  Rounds nest, and a window's intervals cover exactly the
        scan blocks it meets, so each round's intervals contain the
        previous round's and replace them.
        """
        out: list[LeafEntry] = []
        layout = self.layout
        tree = self.index.tree
        for tid, label in self.index.live_partitions():
            enlarged = enlarge(rect, label, t_q, self.index.max_speeds, self.grid.L)
            zivs = self._zivs(enlarged)
            if scanned is not None:
                done = scanned.get(tid, [])
                scanned[tid] = zivs
                zivs = subtract_intervals(zivs, done)
            if zivs:
                tree.scan_intervals(zivs, out.append, layout.bx_key(tid, 0))
        return out

    def range_query(self, req: PrqRequest) -> set[int]:
        """Same contract as the policy-embedded range query."""
        self.store.check_user(req.qid)
        rect = req.rect
        t_q = req.t_q
        store = self.store
        result: set[int] = set()
        for entry in self._spatial_candidates(rect, t_q):
            px = entry.x + entry.vx * (t_q - entry.t)
            py = entry.y + entry.vy * (t_q - entry.t)
            if rect[0] <= px <= rect[2] and rect[1] <= py <= rect[3]:
                # spatial hit; now the policy filter
                if _visible(store, entry.uid, req.qid, px, py, t_q):
                    result.add(entry.uid)
        return result

    def knn_query(self, req: PknnRequest) -> PknnResult:
        """Same contract as the policy-embedded kNN query."""
        self.store.check_user(req.qid)
        k = req.k
        n = self.index.entry_count
        if n == 0:
            return PknnResult((), short=True)
        side = self.grid.L
        qx, qy = req.qloc
        t_q = req.t_q
        store = self.store
        radius = estimate_dk(min(k, n), n, side) / k
        if radius <= 0:
            radius = self.grid.cell_size
        scanned: dict[int, list[tuple[int, int]]] = {}
        candidates: dict[int, float] = {}
        while True:
            square = (max(qx - radius, 0.0), max(qy - radius, 0.0), min(qx + radius, side), min(qy + radius, side))
            covers_all = square == (0.0, 0.0, side, side)
            for entry in self._spatial_candidates(square, t_q, scanned):
                if entry.uid in candidates:
                    continue
                px = entry.x + entry.vx * (t_q - entry.t)
                py = entry.y + entry.vy * (t_q - entry.t)
                if _visible(store, entry.uid, req.qid, px, py, t_q):
                    candidates[entry.uid] = math.hypot(px - qx, py - qy)
            if len(candidates) >= k:
                kdist = sorted(candidates.values())[k - 1]
                if kdist <= radius:
                    break
            if covers_all:
                break
            radius *= 2.0
        ranked = sorted((d, uid) for uid, d in candidates.items())[:k]
        return PknnResult(tuple((uid, d) for d, uid in ranked), short=len(ranked) < k)


def subtract_intervals(new: list[tuple[int, int]], covered: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Parts of sorted disjoint ``new`` not covered by sorted disjoint ``covered``."""
    out: list[tuple[int, int]] = []
    ci = 0
    n_cov = len(covered)
    for lo, hi in new:
        while ci < n_cov and covered[ci][1] < lo:
            ci += 1
        start = lo
        j = ci
        while j < n_cov and covered[j][0] <= hi:
            c_lo, c_hi = covered[j]
            if c_lo > start:
                out.append((start, min(c_lo - 1, hi)))
            start = max(start, c_hi + 1)
            if start > hi:
                break
            j += 1
        if start <= hi:
            out.append((start, hi))
    return out


# -- brute-force oracles --------------------------------------------------------


def oracle_range(objects: Iterable[MovingObject], store: PolicyStore, req: PrqRequest) -> set[int]:
    """Linear-scan reference: the query definition applied to every user."""
    store.check_user(req.qid)
    x_lo, y_lo, x_hi, y_hi = req.rect
    t_q = req.t_q
    qid = req.qid
    out: set[int] = set()
    for obj in objects:
        px = obj.x + obj.vx * (t_q - obj.t_u)
        py = obj.y + obj.vy * (t_q - obj.t_u)
        if x_lo <= px <= x_hi and y_lo <= py <= y_hi and _visible(store, obj.uid, qid, px, py, t_q):
            out.add(obj.uid)
    return out


def oracle_knn(objects: Iterable[MovingObject], store: PolicyStore, req: PknnRequest) -> PknnResult:
    """Linear-scan reference kNN; ties at equal distance break by ascending uid."""
    store.check_user(req.qid)
    qx, qy = req.qloc
    t_q = req.t_q
    qid = req.qid
    ranked: list[tuple[float, int]] = []
    for obj in objects:
        px = obj.x + obj.vx * (t_q - obj.t_u)
        py = obj.y + obj.vy * (t_q - obj.t_u)
        if _visible(store, obj.uid, qid, px, py, t_q):
            ranked.append((math.hypot(px - qx, py - qy), obj.uid))
    ranked.sort()
    top = ranked[: req.k]
    return PknnResult(tuple((uid, d) for d, uid in top), short=len(top) < req.k)
