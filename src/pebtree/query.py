"""Privacy-aware range and k-nearest-neighbor query processing.

Two engines answer the same queries:

* :class:`PebQueryEngine` runs against the policy-embedded index.  Both
  of its queries are one owner scan.  It first checks each friend owner's
  daily policy window at the query time, from window ends cached beside
  the friend rows, which reads no page.  It then counts, from the index's
  uid -> partition map, how many of each friend row's active owners sit
  in each partition, and scans only the (row, partition) pairs that hold
  one.  Each friend sequence value owns the key prefix ``partition |
  sequence value``, so a pair's key intervals are curve intervals offset
  by that prefix; the tree's leaf cursor scans them and ends at the entry
  that meets the pair's count of active owners (a user has only one
  location).  A range query enlarges its window per partition and
  decomposes it into curve intervals; a kNN query is the range query over
  the whole space, each pair's full span, ranked by distance.

* :class:`BaselineQueryEngine` runs against the baseline index: a plain
  spatial query first, policy filtering after, with kNN by incrementally
  expanded range queries.  It searches space without the friend list, so
  the pages it reads are the paper's baseline cost.  The issuer's owner
  set (:meth:`~pebtree.policy.PolicyStore.owners_naming`) only spares the
  policy lookup of candidates that are not friends; answers and I/O are
  those of checking every candidate's policy.

Both engines read the tree only through
:meth:`~pebtree.store.BPlusTree.scan_intervals`, so a query's charged I/O
is the buffer misses of the pages it reads.

Brute-force oracles apply the query definitions literally over all users
and anchor every correctness test.  Queries leave the index's entries
unchanged but are not safe to run concurrently: each one moves pages in
the index's shared LRU buffer and bumps its counters, and
:class:`FriendLists` fills its row and window cache lazily.  Issue
queries against one index from one thread at a time.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from heapq import nsmallest
from itertools import groupby, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .keys import KeyLayout, SequenceValueMap
from .motion import MovingObject
from .policy import PolicyStore, window_contains
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
    if n_cols == 1:
        return zip(range(n_rows), repeat(0))
    return (
        (r, d - r)
        for d in range(n_rows + n_cols - 1)
        for r in range(max(0, d - n_cols + 1), min(d, n_rows - 1) + 1)
    )


TraversalOrder = Callable[[int, int], Iterator[tuple[int, int]]]


def _visible(store: PolicyStore, owner: int, viewer: int, x: float, y: float, t: float) -> bool:
    # hot path shared by engines and oracles: no id validation here, and the
    # policy's columns are read where they are, with no record built
    per_owner = store._directed.get(owner)
    if per_owner is None:
        return False
    row = per_owner.get(viewer)
    if row is None:
        return False
    p = store.policies
    return (
        p.x_lo[row] <= x <= p.x_hi[row]
        and p.y_lo[row] <= y <= p.y_hi[row]
        and window_contains(p.t_lo[row], p.t_hi[row], p.day, t)
    )


Rows = tuple[tuple[int, tuple[int, ...]], ...]


def _gather(seq, indices: list[int]) -> tuple:
    """``seq[i]`` for each ``i`` in ``indices``, as a tuple.

    ``itemgetter`` reads them in one C loop, which a fresh issuer's cache
    fill needs: each read misses the processor cache, and the tight loop
    keeps several misses in flight.  It returns a bare item for one index.
    """
    return itemgetter(*indices)(seq) if len(indices) > 1 else tuple(seq[i] for i in indices)


class FriendLists:
    """Per-user rows of the sequence values that can ever see the user.

    A user's row list holds the quantized sequence values of every owner
    with a policy naming the user, ascending, each tagged with the owner
    uids that quantize to it, ascending.  Beside the rows, two
    ``array('d')`` columns hold the daily window ends ``t_lo`` and ``t_hi``
    of each owner's policy toward the user, owners in row order, so a query
    checks a window without a policy lookup and the collector has nothing
    to walk in them.  Each user's sequence value is quantized once, here;
    the rows and windows are built lazily and cached per user.
    """

    def __init__(self, store: PolicyStore, sv_map: SequenceValueMap, layout: KeyLayout) -> None:
        self.store = store
        self._svq = layout.quantize_map(sv_map)
        self._cache: dict[int, tuple[Rows, array, array]] = {}

    def _entry(self, viewer: int) -> tuple[Rows, array, array]:
        cached = self._cache.get(viewer)
        if cached is None:
            svq = self._svq.__getitem__
            # the store keeps each owner list ascending, and a stable sort by
            # quantized value keeps each row's owners so: the owners in row order
            owners = sorted(self.store.owners_naming(viewer), key=svq)
            rows = tuple((q, tuple(us)) for q, us in groupby(owners, svq))
            table = self.store.policies
            # the table row of each owner's policy toward the viewer
            policy_rows = list(map(itemgetter(viewer), _gather(self.store._directed, owners)))
            t_lo, t_hi = (array("d", _gather(column, policy_rows)) for column in (table.t_lo, table.t_hi))
            cached = (rows, t_lo, t_hi)
            self._cache[viewer] = cached
        return cached

    def rows(self, viewer: int) -> Rows:
        return self._entry(viewer)[0]

    def windows(self, viewer: int) -> tuple[array, array]:
        """``t_lo`` and ``t_hi`` of each row owner's policy toward ``viewer``, owners in row order."""
        _, t_lo, t_hi = self._entry(viewer)
        return t_lo, t_hi


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

    :meth:`prq` and :meth:`pknn` share one scan, :meth:`_visible_owners`.
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

    def _visible_owners(
        self, qid: int, t_q: float, rect: Rect | None, order: TraversalOrder
    ) -> list[tuple[int, float, float]]:
        """``(uid, x, y)`` at ``t_q`` of each owner visible to ``qid`` in ``rect``.

        An owner counts only while its policy toward ``qid`` is active: its
        daily window holds ``t_q``, by :func:`~pebtree.policy.window_contains`'s
        test on the window ends :meth:`FriendLists.windows` caches, with
        ``t_q % day`` taken once.  That is a necessary condition of
        :func:`_visible`, so skipping the others changes no answer, and the
        check reads no page.  Each (friend row, live partition) pair that
        holds one of the row's active owners is read with one leaf-cursor
        scan of the row's key intervals, the partition's curve intervals
        offset by the row's key prefix, taking the partition's rows in
        ``order(n_rows, 1)``.  A scan ends at the entry that meets its
        pair's count of active owners, and every active owner entry read is
        extrapolated to ``t_q`` and verified; the entries of other users
        and of inactive owners are passed over.  ``rect=None`` is the whole
        space: each pair's full span ``[0, max_z]``, with no window enlarged
        or decomposed.
        """
        self.store.check_user(qid)
        rows = self.friends.rows(qid)
        t_lo, t_hi = self.friends.windows(qid)
        index = self.index
        store = self.store
        tree = index.tree
        layout = self.layout
        zv_bits = layout.zv_bits
        day = store.day
        tm = t_q % day
        # counts[tid][row_i]: how many of row row_i's owners are active at t_q
        # and have their entry in partition tid; an owner that is not indexed
        # counts nowhere
        row_of: dict[int, int] = {}
        counts: dict[int, list[int]] = {}
        los, his = iter(t_lo), iter(t_hi)
        for row_i, (_, uids) in enumerate(rows):
            for uid, lo, hi in zip(uids, los, his):
                # window_contains(lo, hi, day, t_q), with t_q % day taken once:
                # _visible refuses an owner whose window misses t_q, so it is not counted
                if not ((lo <= tm < hi) if lo <= hi else (lo <= tm < day or tm < hi)):
                    continue
                tid = index.partition_of(uid)
                if tid is not None:
                    row_of[uid] = row_i
                    counts.setdefault(tid, [0] * len(rows))[row_i] += 1
        x_lo, y_lo, x_hi, y_hi = rect or (-math.inf, -math.inf, math.inf, math.inf)
        full = ((0, self.grid.max_z),)
        found: list[tuple[int, float, float]] = []

        def visit(entry: LeafEntry) -> bool:
            # entries of a pair's key span carry its row and partition: an owner found is the pair's own
            row_i = row_of.get(entry.uid)
            if row_i is None:
                return False
            left[row_i] -= 1
            px = entry.x + entry.vx * (t_q - entry.t)
            py = entry.y + entry.vy * (t_q - entry.t)
            if x_lo <= px <= x_hi and y_lo <= py <= y_hi and _visible(store, entry.uid, qid, px, py, t_q):
                found.append((entry.uid, px, py))
            return not left[row_i]

        for tid, label in index.live_partitions():
            left = counts.get(tid)  # per row, the partition's owners that visit has yet to meet
            if left is None:
                continue
            zivs = full if rect is None else self._zivs(enlarge(rect, label, t_q, index.max_speeds, self.grid.L))
            if not zivs:
                continue
            base = layout.peb_key_q(tid, 0, 0)  # a row's key prefix adds its value above the curve bits
            for row_i, _ in order(len(rows), 1):
                if left[row_i]:
                    tree.scan_intervals(zivs, visit, base | rows[row_i][0] << zv_bits)
        return found

    def prq(self, req: PrqRequest) -> set[int]:
        """Users inside the window at query time who allow the issuer to see them.

        Each live partition's window is enlarged and decomposed into curve
        intervals once, and each friend row holding an owner there whose
        policy window is open at ``t_q`` is scanned over them in row order;
        only those owners can be visible to the issuer, so only their
        entries are verified.
        """
        return {uid for uid, _, _ in self._visible_owners(req.qid, req.t_q, req.rect, antidiagonal_order)}

    def pknn(self, req: PknnRequest) -> PknnResult:
        """The k visible users nearest the query point at query time.

        The range query over the whole space, with each partition's rows
        taken in ``self.traversal`` order: every verified owner is ranked
        by distance, and the answer is the k nearest, ties broken by
        ascending uid as in :func:`oracle_knn`; fewer than k visible users
        yields all of them with the result flagged short.

        This is the paper's (friend row x expansion round) search matrix
        reduced to one round whose square covers the whole space.  The
        paper walks more rounds so it can stop early, but a row span holds
        a few entries and a leaf dozens, so reading part of a span costs
        the pages of reading all of it.
        """
        qx, qy = req.qloc
        found = self._visible_owners(req.qid, req.t_q, None, self.traversal)
        ranked = nsmallest(req.k, [(math.hypot(px - qx, py - qy), uid) for uid, px, py in found])
        return PknnResult(tuple((uid, d) for d, uid in ranked), short=len(ranked) < req.k)


class BaselineQueryEngine(_EngineBase):
    """Spatial-index-then-filter query processor for the baseline index.

    The search reads every candidate in space, as the baseline must without
    the friend list.  The filter then drops the candidates whose owner holds
    no policy toward the issuer, by a set lookup, and checks the policy of
    the rest with :func:`_visible`.  A dropped candidate could not have
    passed that check, so answers and page reads do not depend on the set.
    """

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
        naming = set(store.owners_naming(req.qid))
        result: set[int] = set()
        for entry in self._spatial_candidates(rect, t_q):
            if entry.uid not in naming:
                continue
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
        naming = set(store.owners_naming(req.qid))
        radius = estimate_dk(min(k, n), n, side) / k
        if radius <= 0:
            radius = self.grid.cell_size
        scanned: dict[int, list[tuple[int, int]]] = {}
        candidates: dict[int, float] = {}
        while True:
            square = (max(qx - radius, 0.0), max(qy - radius, 0.0), min(qx + radius, side), min(qy + radius, side))
            covers_all = square == (0.0, 0.0, side, side)
            for entry in self._spatial_candidates(square, t_q, scanned):
                if entry.uid not in naming or entry.uid in candidates:
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
