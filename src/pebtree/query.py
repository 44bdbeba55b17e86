"""Privacy-aware range and k-nearest-neighbor query processing.

Two engines answer the same queries:

* :class:`PebQueryEngine` runs against the policy-embedded index.  A range
  query enlarges the window per time partition and decomposes it into
  curve intervals.  Each friend sequence value owns the key prefix
  ``partition | sequence value``, so its key intervals are the curve
  intervals offset by that prefix; the tree's leaf cursor scans them,
  stopping once every owner of the sequence value has been retrieved (a
  user has only one location).  The kNN query reads each friend row's
  whole key span once per partition, verifies every owner entry it reads,
  and skips in later partitions the rows whose owners were all found.

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
from dataclasses import dataclass
from heapq import nsmallest
from typing import Callable, Iterable, Iterator, Sequence

from .keys import KeyLayout, SequenceValueMap
from .motion import MovingObject
from .policy import PolicyStore, point_in_rect
from .store import DirectionalSpeeds, LeafEntry, MovingObjectIndex
from .zcurve import cells_covering, z_decompose
from .zcurve import z_corner_interval  # noqa: F401  perfbench/harness.py's tracer wraps it by this name

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
    radius and advancing the sequence-value row.  With one column it is
    row order.
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
    """Query processor for the policy-embedded index.

    ``traversal`` orders each partition's friend rows in :meth:`pknn`,
    called as ``traversal(n_rows, 1)``; the default,
    :func:`antidiagonal_order`, yields them in row order.  It is kept
    because perfbench counts the rows a kNN query visits through it.
    """

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

        For each live partition, each friend row that still has an unseen
        owner is read with one leaf-cursor scan of its whole key span,
        ``partition | sequence value | [0, max_z]``, and every owner entry
        read is verified: extrapolated to the query time, tested against
        its policy toward the issuer, and ranked by distance.  A user has
        only one location, so a row whose owners were all found is not
        read in a later partition.  The answer is the k nearest verified
        users, ties broken by ascending uid as in :func:`oracle_knn`;
        fewer than k visible users yields all of them with the result
        flagged short.

        This is the paper's (friend row x expansion round) search matrix
        reduced to one round whose square covers the whole space.  The
        paper walks more rounds so it can stop early, but a row span holds
        a few entries and a leaf dozens, so reading part of a span costs
        the pages of reading all of it.
        """
        self.store.check_user(req.qid)
        rows = self.friends.rows(req.qid)
        store = self.store
        tree = self.index.tree
        layout = self.layout
        full = ((0, self.grid.max_z),)
        qid = req.qid
        qx, qy = req.qloc
        t_q = req.t_q
        row_of, unseen = _owner_rows(rows)
        candidates: list[tuple[float, int]] = []

        def visit(entry: LeafEntry) -> None:
            # entries of a row's key span carry its sequence value: an owner found is the row's own
            row_i = row_of.get(entry.uid)
            if row_i is None:
                return
            unseen[row_i] -= 1
            px = entry.x + entry.vx * (t_q - entry.t)
            py = entry.y + entry.vy * (t_q - entry.t)
            if _visible(store, entry.uid, qid, px, py, t_q):
                candidates.append((math.hypot(px - qx, py - qy), entry.uid))

        for tid, _ in self.index.live_partitions():
            for row_i, _ in self.traversal(len(rows), 1):
                if unseen[row_i]:
                    tree.scan_intervals(full, visit, layout.peb_key_q(tid, rows[row_i][0], 0))
        ranked = nsmallest(req.k, candidates)
        return PknnResult(tuple((uid, d) for d, uid in ranked), short=len(ranked) < req.k)


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
