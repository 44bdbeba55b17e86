"""Privacy-aware range and k-nearest-neighbor query processing.

Two engines answer the same queries:

* :class:`PebQueryEngine` runs against the policy-embedded index.  Both
  of its queries are one owner scan.  It first checks each friend owner's
  daily policy window at the query time, from the issuer's policy rows and
  their window ends, which the policy store gathers without reading a
  page, and holds the row of each owner that passes.  An owner's key prefix
  ``partition | sequence value`` names its (friend row, partition) pair,
  so the engine sorts the active owners' keys, from the index's uid -> key
  map, and scans only the prefixes that hold one, each over one interval
  from its first active owner's key to its last.  One scan of the tree's
  leaf cursor reads these intervals in ascending order, across partitions;
  it ends a prefix's interval at the entry that meets the prefix's count of
  active owners (a user has only one location), holds its leaf from one
  interval to the next and seeks only when an interval starts beyond it.
  An owner entry found is verified by the query window, if any, and the
  region of its held row; a kNN query ranks the verified owners by
  distance.  Unlike the paper's range algorithm, no window is enlarged or
  decomposed into curve intervals: a prefix span holds a few entries on
  one or two leaves, so a window would save few pages.

* :class:`BaselineQueryEngine` runs against the baseline index: a plain
  spatial query first, policy filtering after, with kNN by incrementally
  expanded range queries, each round scanning only the blocks the last
  round's square did not cover.  It searches space without the friend
  list, so the pages it reads are the paper's baseline cost.  Each
  candidate is looked up in a map from the issuer's owners to their policy
  rows (:meth:`~pebtree.policy.PolicyStore.policy_rows`), and a held row is
  checked in place; answers and I/O are those of checking every
  candidate's policy.

Both engines read the tree only through
:meth:`~pebtree.store.BPlusTree.scan_intervals`, so a query's charged I/O
is the buffer misses of the pages it reads.  Its visitor takes a leaf slice
at a time.  The baseline engine's slices run through the whole window, so
it filters a slice's uid column against the owners it holds with C-level
passes: ``isdisjoint`` skips a slice with no owner, and ``compress(range(i,
j), map(owners.__contains__, uids[i:j]))`` picks the owners of the rest.
The policy-embedded engine's slices lie in key prefix spans and hold one
or two records on most scans, so it looks each record's uid up among its
owners in turn.  Only a held owner's motion record is read.

Brute-force oracles apply the query definitions literally over all users
and anchor every correctness test.  Queries leave the index's entries
unchanged and fill no cache, but they are not safe to run concurrently:
each one moves pages in the index's shared LRU buffer and bumps its
counters.  Issue queries against one index from one thread at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import nsmallest
from itertools import compress, repeat
from typing import Callable, Iterable, Iterator

from .keys import KeyLayout, SequenceValueMap
from .motion import MovingObject
from .policy import PolicyStore, PolicyTable, window_contains
from .store import DirectionalSpeeds, MovingObjectIndex, Node, Record
from .zcurve import CellRect, cells_covering, z_decompose
from .zcurve import z_corner_interval  # noqa: F401  perfbench/harness.py's tracer wraps it by this name

Rect = tuple[float, float, float, float]


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
    row order, each row once and ascending, the one order
    :class:`PebQueryEngine` takes for its key prefixes.
    """
    if n_cols == 1:
        return zip(range(n_rows), repeat(0))
    return (
        (r, d - r)
        for d in range(n_rows + n_cols - 1)
        for r in range(max(0, d - n_cols + 1), min(d, n_rows - 1) + 1)
    )


# called as order(n, 1) for n key prefixes, it must yield each (prefix, 0) once, ascending
TraversalOrder = Callable[[int, int], Iterator[tuple[int, int]]]


def _row_visible(p: PolicyTable, row: int, x: float, y: float, t: float) -> bool:
    # the policy's columns are read where they are, with no record built
    return (
        p.x_lo[row] <= x <= p.x_hi[row]
        and p.y_lo[row] <= y <= p.y_hi[row]
        and window_contains(p.t_lo[row], p.t_hi[row], p.day, t)
    )


def _visible(store: PolicyStore, owner: int, viewer: int, x: float, y: float, t: float) -> bool:
    # the oracles' test: no id validation here
    row = store.row(owner, viewer)
    return row is not None and _row_visible(store.policies, row, x, y, t)


Rows = tuple[tuple[int, tuple[int, ...]], ...]


class FriendLists:
    """The owners that can ever see each user, grouped by sequence value.

    Each user's sequence value is quantized once, here.  Nothing else is
    kept: each call reads the policy store afresh, so the lists follow the
    store and no query fills a cache.  The engine reads the store's
    :meth:`~pebtree.policy.PolicyStore.windows` instead; these lists remain
    for the benchmark's friend-row count.
    """

    def __init__(self, store: PolicyStore, sv_map: SequenceValueMap, layout: KeyLayout) -> None:
        self.store = store
        self._svq = layout.quantize_map(sv_map)

    def rows(self, viewer: int) -> Rows:
        """The quantized sequence values of the owners naming ``viewer``, ascending, each with its owners ascending."""
        by_value: dict[int, list[int]] = {}
        for uid in self.store.owners_naming(viewer):
            by_value.setdefault(self._svq[uid], []).append(uid)
        return tuple((q, tuple(uids)) for q, uids in sorted(by_value.items()))


class _EngineBase:
    def __init__(self, index: MovingObjectIndex, store: PolicyStore) -> None:
        self.index = index
        self.store = store
        self.grid = index.grid
        self.layout = index.layout


class PebQueryEngine(_EngineBase):
    """Query processor for the policy-embedded index.

    :meth:`prq` and :meth:`pknn` share one scan, :meth:`_visible_owners`.
    ``traversal`` orders the key prefixes :meth:`pknn` scans, called once
    per query as ``traversal(n, 1)`` for the ``n`` prefixes of every live
    partition; it must yield each prefix once, in ascending order, since
    one scan reads their intervals and its cursor only moves forward.  The
    default, :func:`antidiagonal_order`, does.  It is kept because perfbench
    counts the prefixes a kNN query scans through it.
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
        test on the window ends :meth:`~pebtree.policy.PolicyStore.windows`
        gathers, with ``t_q % day`` taken once.  That is the window half of
        the visibility test, so skipping the others changes no answer, and
        the check reads no page.  Each active owner's policy row is held for
        the region half.  The active owners' keys, from the index's
        uid -> key map, give each one's prefix ``partition | sequence
        value``: its (friend row, partition) pair, with the partition in the
        key's top field.  One pass over the sorted keys splits them per
        prefix.  Each prefix that holds an active owner gives one interval,
        from its first active owner's key to its last, and one leaf-cursor
        scan reads the intervals of every live partition, taken in ``order(n,
        1)`` over their ascending list, which must yield them ascending.
        The cursor holds its leaf from one interval to the next, so an
        interval whose first owner lies on that leaf, in the same partition
        or the next, is read without a seek from the root.  ``visit`` ends
        an interval at the entry that meets its prefix's count of active
        owners (a user has only one location), so the scan reads no leaf
        for it past the one that holds the prefix's last active owner.  Each
        record of a leaf slice the scan hands over is looked up among the
        active owners by its uid; only an active owner's motion record is
        read, extrapolated to ``t_q`` and verified against ``rect`` and the
        region of its held row.  ``rect=None`` is the whole space.  A window
        that does not meet the space, ``[0, space_side]`` on each axis, holds
        no visible owner, since the policy store refuses a region beyond the
        space, so it is answered empty before any read.
        """
        store = self.store
        store.check_user(qid)
        x_lo, y_lo, x_hi, y_hi = rect or (-math.inf, -math.inf, math.inf, math.inf)
        side = store.space_side
        if x_hi < 0.0 or y_hi < 0.0 or x_lo > side or y_lo > side:
            return []
        rows, owners, t_lo, t_hi = store.windows(qid)
        index = self.index
        tree = index.tree
        zv_bits = self.layout.zv_bits
        day = store.day
        tm = t_q % day
        # window_contains(lo, hi, day, t_q), with t_q % day taken once: an
        # owner whose window misses t_q is not visible, so it is not scanned
        active = {
            uid: row
            for uid, row, lo, hi in zip(owners, rows, t_lo, t_hi)
            if ((lo <= tm < hi) if lo <= hi else (lo <= tm < day or tm < hi))
        }
        p = store.policies
        rx_lo, ry_lo, rx_hi, ry_hi = p.x_lo, p.y_lo, p.x_hi, p.y_hi
        # the active owners' keys, ascending; an owner that is not indexed has none
        keys = index.keys_of(active)
        if None in keys:
            keys = [key for key in keys if key is not None]
        keys.sort()
        found: list[tuple[int, float, float]] = []
        todo = 0  # the active owners of the scanned prefix that visit has yet to meet

        def visit(leaf: Node, i: int, j: int) -> bool:
            # entries of a prefix's key span carry that prefix: an owner found is the interval's own.
            # A slice holds one or two records on most scans, fewer than a C-level filter pays for
            nonlocal todo
            if not todo:  # the interval's first slice
                todo = owners_in[leaf.keys[i] >> zv_bits]
            uids = leaf.uids
            for r in range(i, j):
                uid = uids[r]
                row = active.get(uid)
                if row is None:
                    continue
                todo -= 1
                x, y, vx, vy, t = leaf.recs[r]
                px = x + vx * (t_q - t)
                py = y + vy * (t_q - t)
                # the query window, then the policy region of the held row
                if (
                    x_lo <= px <= x_hi
                    and y_lo <= py <= y_hi
                    and rx_lo[row] <= px <= rx_hi[row]
                    and ry_lo[row] <= py <= ry_hi[row]
                ):
                    found.append((uid, px, py))
            return not todo

        # one pass over the sorted keys: [first key, last key] of each prefix that
        # holds an active owner, ascending, and how many it holds
        intervals: list[list[int]] = []
        owners_in: dict[int, int] = {}
        prefix = -1
        for key in keys:
            if key >> zv_bits != prefix:
                prefix = key >> zv_bits
                interval = [key, key]
                intervals.append(interval)
                owners_in[prefix] = 0
            interval[1] = key
            owners_in[prefix] += 1
        tree.scan_intervals([intervals[i] for i, _ in order(len(intervals), 1)], visit)
        return found

    def prq(self, req: PrqRequest) -> set[int]:
        """Users inside the window at query time who allow the issuer to see them.

        Each key prefix holding an owner whose policy window is open at
        ``t_q`` is scanned from its first such owner's key to its last, in
        ascending order; only those owners can be visible to the issuer, so
        only their entries are verified, against the window and their
        policy regions.  The window is not enlarged or decomposed.
        """
        return {uid for uid, _, _ in self._visible_owners(req.qid, req.t_q, req.rect, antidiagonal_order)}

    def pknn(self, req: PknnRequest) -> PknnResult:
        """The k visible users nearest the query point at query time.

        The owner scan of :meth:`prq` with no window, its key prefixes taken
        in ``self.traversal`` order: every verified owner is ranked by
        distance, and the answer is the k nearest, ties broken by ascending
        uid as in :func:`oracle_knn`; fewer than k visible users yields all
        of them with the result flagged short.

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
    the friend list.  The filter then looks each candidate up in a map from
    the owners naming the issuer to the rows of their policies toward it,
    built once per query, drops the candidates it does not hold and checks
    the held row's region and window.  A dropped candidate holds no policy
    toward the issuer, so answers and page reads do not depend on the map.
    The lookup is one C-level pass over each leaf slice's uid column, and
    only a held owner's motion record is read.
    """

    def __init__(self, index: MovingObjectIndex, store: PolicyStore) -> None:
        if index.kind != "bx":
            raise ValueError("engine requires a baseline index")
        super().__init__(index, store)

    def _held_rows(self, qid: int) -> dict[int, int]:
        """The row of each owner's policy toward ``qid``, by owner."""
        store = self.store
        return dict(zip(store.owners_naming(qid), store.policy_rows(qid)))

    def _spatial_candidates(
        self, rect: Rect, t_q: float, held: dict[int, int], scanned: dict[int, CellRect] | None = None
    ) -> list[tuple[int, Record]]:
        """``(uid, record)`` of each entry the window scan retrieves for this rectangle whose owner ``held`` holds.

        Every entry in the window is read; each leaf slice is filtered
        against ``held`` in one pass over its uid column, and only a held
        owner's record is taken.  ``scanned`` carries each partition's cell
        rectangle of the last round of an incremental search, and only the
        rest is scanned: the window's cells are decomposed minus that
        rectangle's.  ``z_decompose`` snaps a window to the blocks it meets,
        16 cells per side on the 1024-cell grid, so the window's intervals
        cover a few keys beyond it, and the filter drops them.  Rounds
        nest, and a window's intervals cover exactly the blocks it meets,
        so the last round's rectangle covers every earlier round's blocks,
        and this round's replaces it.
        """
        out: list[tuple[int, Record]] = []
        layout = self.layout
        tree = self.index.tree
        owners = held.keys()

        def visit(leaf: Node, i: int, j: int) -> None:
            uids = leaf.uids[i:j]
            if owners.isdisjoint(uids):  # most slices hold no owner, and one C-level pass skips them
                return
            recs = leaf.recs
            for r in compress(range(i, j), map(held.__contains__, uids)):
                out.append((leaf.uids[r], recs[r]))

        for tid, label in self.index.live_partitions():
            cells = cells_covering(enlarge(rect, label, t_q, self.index.max_speeds, self.grid.L), self.grid)
            done = None
            if scanned is not None:
                done = scanned.get(tid)
                scanned[tid] = cells
            zivs = z_decompose(cells, self.grid, done)
            if zivs:
                tree.scan_intervals(zivs, visit, layout.bx_key(tid, 0))
        return out

    def range_query(self, req: PrqRequest) -> set[int]:
        """Same contract as the policy-embedded range query."""
        self.store.check_user(req.qid)
        rect = req.rect
        t_q = req.t_q
        p, held = self.store.policies, self._held_rows(req.qid)
        result: set[int] = set()
        for uid, (x, y, vx, vy, t) in self._spatial_candidates(rect, t_q, held):
            px = x + vx * (t_q - t)
            py = y + vy * (t_q - t)
            if rect[0] <= px <= rect[2] and rect[1] <= py <= rect[3]:
                # spatial hit; now the policy filter
                if _row_visible(p, held[uid], px, py, t_q):
                    result.add(uid)
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
        p, held = self.store.policies, self._held_rows(req.qid)
        radius = estimate_dk(min(k, n), n, side) / k
        if radius <= 0:
            radius = self.grid.cell_size
        scanned: dict[int, CellRect] = {}
        candidates: dict[int, float] = {}
        while True:
            square = (max(qx - radius, 0.0), max(qy - radius, 0.0), min(qx + radius, side), min(qy + radius, side))
            covers_all = square == (0.0, 0.0, side, side)
            for uid, (x, y, vx, vy, t) in self._spatial_candidates(square, t_q, held, scanned):
                if uid in candidates:
                    continue
                px = x + vx * (t_q - t)
                py = y + vy * (t_q - t)
                if _row_visible(p, held[uid], px, py, t_q):
                    candidates[uid] = math.hypot(px - qx, py - qy)
            if len(candidates) >= k:
                kdist = sorted(candidates.values())[k - 1]
                if kdist <= radius:
                    break
            if covers_all:
                break
            radius *= 2.0
        ranked = sorted((d, uid) for uid, d in candidates.items())[:k]
        return PknnResult(tuple((uid, d) for d, uid in ranked), short=len(ranked) < k)


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
