"""Disk-page-simulated B+-tree with an LRU buffer and I/O accounting.

Pages are plain in-memory objects sized by a byte budget: a 4 KB page
holds 64 leaf records (64 bytes each: key, uid, four motion fields,
update time, policy handle) or 256 child slots (16 bytes per fence/child
pair).  A leaf holds only its records, ordered by (key, uid); an internal
page holds the (key, uid) fences and its children.  The policy handle is
the uid, under which the policy store files the owner's policies, so it
is budgeted in the record size but not stored twice.

A leaf stores its records column by column, as PAX pages do (Ailamaki et
al., VLDB 2001): a list of int keys, an ``array('q')`` of uids and one
``(x, y, vx, vy, t)`` tuple of doubles per record, the three in step.  A
record is then an 8-byte key, an 8-byte uid and five 8-byte doubles: 56 of
the 64 bytes :data:`LEAF_RECORD_BYTES` budgets, the other 8 being the
policy handle that the uid doubles as, so a page holds as many records as
before.  A scan bisects the key column and filters the uid column a leaf
slice at a time, building nothing for a record it passes over; a
:class:`LeafEntry` is built only when one is asked for (perfbench's index
check and the tests ask).  So the garbage collector tracks four objects
per leaf, not one per record: a motion tuple holds only floats, and the
collector untracks such tuples.

Every page read goes through :meth:`BPlusTree.touch_page`, the one place
that charges a page to the buffer, and so does every page a split
allocates; the benchmark's charged I/O is the number of buffer misses.
Queries read the tree through one leaf cursor,
:meth:`BPlusTree.scan_intervals`, which seeks through
:meth:`BPlusTree.descend` and walks the leaf chain, so the charged pages
are exactly the pages a query reads.  The cursor holds its leaf from one
interval to the next, so a policy-embedded query reads all of its key
prefixes with one scan.  Benchmarks are meant to run single-threaded so
the counters stay reproducible; parallel experiments should use
independent instances.

:class:`MovingObjectIndex` wraps the tree with key computation for moving
objects and is instantiated once with policy-embedded keys and once with
baseline keys.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .keys import KeyLayout, SequenceValueMap
from .motion import MovingObject, TimePartitionConfig
from .zcurve import GridConfig, _spread

PAGE_SIZE = 4096
LEAF_RECORD_BYTES = 64
INTERNAL_RECORD_BYTES = 16
BUFFER_PAGES = 50
SPREAD_BITS = 15  # a cell coordinate's bits spread by one table lookup per 15 bits
UID_LIMIT = 1 << 63  # uids are 64-bit signed column values; the index takes 0 <= uid < UID_LIMIT

Record = tuple[float, float, float, float, float]  # x, y, vx, vy, t of a leaf record


class LeafEntry(NamedTuple):
    """A leaf record as one tuple, built on demand from a leaf's columns; the uid is also its policy handle.

    No query builds one: perfbench's index check and the tests ask for them.
    """

    key: int
    uid: int
    x: float
    y: float
    vx: float
    vy: float
    t: float


class TreeStats(NamedTuple):
    height: int
    leaf_count: int
    entry_count: int
    page_count: int


class IoCounters(NamedTuple):
    reads: int
    misses: int
    leaf_reads: int
    leaf_misses: int


class DirectionalSpeeds(NamedTuple):
    """Dataset-wide maximum speed toward each axis direction."""

    pos_x: float
    neg_x: float
    pos_y: float
    neg_y: float

    def absorb(self, vx: float, vy: float) -> "DirectionalSpeeds":
        """The maxima with one more velocity folded in; ``self`` unless one grows."""
        if not (vx > self.pos_x or -vx > self.neg_x or vy > self.pos_y or -vy > self.neg_y):
            return self
        return DirectionalSpeeds(
            max(self.pos_x, vx),
            max(self.neg_x, -vx),
            max(self.pos_y, vy),
            max(self.neg_y, -vy),
        )


ZERO_SPEEDS = DirectionalSpeeds(0.0, 0.0, 0.0, 0.0)


class PageBuffer:
    """Strict LRU buffer of page ids with access counters.

    :meth:`BPlusTree.touch_page` charges every page read to it.
    """

    def __init__(self, capacity: int = BUFFER_PAGES) -> None:
        self.capacity = capacity
        self._lru: OrderedDict[int, None] = OrderedDict()
        self.reads = 0
        self.misses = 0
        self.leaf_reads = 0
        self.leaf_misses = 0

    def drop(self, page_id: int) -> None:
        self._lru.pop(page_id, None)

    def counters(self) -> IoCounters:
        return IoCounters(self.reads, self.misses, self.leaf_reads, self.leaf_misses)

    def reset_counters(self) -> None:
        self.reads = self.misses = self.leaf_reads = self.leaf_misses = 0

    def clear(self) -> None:
        """Empty the buffer (cold cache) and zero the counters."""
        self._lru.clear()
        self.reset_counters()


class Node:
    """A page: a leaf has the columns ``keys``, ``uids`` and ``recs`` and ``next_leaf``, an internal page ``keys`` and ``children``.

    A leaf's record ``i`` is ``keys[i]``, ``uids[i]`` and ``recs[i]``, the
    motion fields ``(x, y, vx, vy, t)``; records are ordered by (key, uid).
    The keys are Python ints, so a key layout of any width fits; the uids
    are an ``array('q')``.  An internal page's ``keys`` are its (key, uid)
    fences instead.
    """

    __slots__ = ("page_id", "leaf", "keys", "uids", "recs", "children", "next_leaf")

    def __init__(self, page_id: int, leaf: bool) -> None:
        self.page_id = page_id
        self.leaf = leaf
        if leaf:
            self.keys: list = []  # a leaf's int keys; an internal page's fences
            self.uids = array("q")
            self.recs: list[Record] = []
            self.next_leaf: int | None = None
        else:
            self.keys = []  # fence (key, uid) before every child but the first
            self.children: list[int] = []

    def columns(self) -> tuple[list[int], array, list[Record]]:
        """A leaf's three columns, which every leaf mutation moves in step."""
        return self.keys, self.uids, self.recs

    def records(self, i: int, j: int) -> list[LeafEntry]:
        """Records ``i`` to ``j - 1`` of a leaf, each built as a :class:`LeafEntry`."""
        return [
            tuple.__new__(LeafEntry, (key, uid, *rec))
            for key, uid, rec in zip(self.keys[i:j], self.uids[i:j], self.recs[i:j])
        ]

    @property
    def entries(self) -> list[LeafEntry]:
        """Every record of a leaf, built on demand: a read-only view, not the storage.

        perfbench's index check reads a leaf's records through it, and so do the tests.
        """
        return self.records(0, len(self.keys))


def _fill(node: Node) -> int:
    """Records of a leaf, children of an internal page."""
    return len(node.keys) if node.leaf else len(node.children)


def _borrow(parent: Node, i: int, left: Node, right: Node, to_right: bool) -> None:
    """Move one record or child between siblings ``left`` and ``right`` across fence ``i`` of ``parent``."""
    if left.leaf:
        for lcol, rcol in zip(left.columns(), right.columns()):
            if to_right:
                rcol.insert(0, lcol.pop())
            else:
                lcol.append(rcol.pop(0))
        parent.keys[i] = (right.keys[0], right.uids[0])  # a leaf fence is the right page's first (key, uid)
    elif to_right:  # an internal fence rotates through the parent
        right.keys.insert(0, parent.keys[i])
        parent.keys[i] = left.keys.pop()
        right.children.insert(0, left.children.pop())
    else:
        left.keys.append(parent.keys[i])
        parent.keys[i] = right.keys.pop(0)
        left.children.append(right.children.pop(0))


def _check(ok: bool, fault: str) -> None:
    if not ok:
        raise AssertionError(fault)


class BPlusTree:
    """B+-tree over composite (key, uid) with simulated paging.

    Leaves form a singly linked chain in key order; occupancy stays
    between 50% and 100% everywhere but the root.
    """

    def __init__(self, page_size: int = PAGE_SIZE, buffer_pages: int = BUFFER_PAGES) -> None:
        self.page_size = page_size
        self.leaf_cap = page_size // LEAF_RECORD_BYTES
        self.internal_cap = page_size // INTERNAL_RECORD_BYTES
        if self.leaf_cap < 4 or self.internal_cap < 4:
            raise ValueError("page size too small for the record formats")
        self.buffer = PageBuffer(buffer_pages)
        self.pages: dict[int, Node] = {}
        self._next_page = 0
        root = self._alloc(leaf=True)
        self.root_id = root.page_id
        self.height = 1
        self.leaf_count = 1
        self.entry_count = 0

    # -- page plumbing ------------------------------------------------------

    def _alloc(self, leaf: bool) -> Node:
        node = Node(self._next_page, leaf)
        self._next_page += 1
        self.pages[node.page_id] = node
        return self.touch_page(node.page_id)

    def _free(self, node: Node) -> None:
        del self.pages[node.page_id]
        self.buffer.drop(node.page_id)

    def touch_page(self, page_id: int) -> Node:
        """Read a page, charging the access to the buffer.

        A page not resident counts as a miss (one charged I/O) and evicts
        the least recently used page when the buffer is full.
        """
        node = self.pages[page_id]
        buf = self.buffer
        lru = buf._lru
        buf.reads += 1
        if node.leaf:
            buf.leaf_reads += 1
        if page_id in lru:
            lru.move_to_end(page_id)
            return node
        buf.misses += 1
        if node.leaf:
            buf.leaf_misses += 1
        lru[page_id] = None
        if len(lru) > buf.capacity:
            lru.popitem(last=False)
        return node

    # -- descent ------------------------------------------------------------

    def _descend(self, composite: tuple[int, int]) -> tuple[list[tuple[Node, int]], Node]:
        """Root-to-leaf path of (node, child slot) pairs for a mutation, and the leaf."""
        path: list[tuple[Node, int]] = []
        node = self.touch_page(self.root_id)
        while not node.leaf:
            i = bisect_right(node.keys, composite)
            path.append((node, i))
            node = self.touch_page(node.children[i])
        return path, node

    def descend(self, key: int) -> Node:
        """Seek the leaf where entries with ``key`` start, reading each page on the way.

        The pages and their order are :meth:`_descend`'s, without the path.
        The probe ``(key,)`` sorts before every fence ``(key, uid)``, so the
        seek lands left of every entry with ``key``, whatever its uid.
        """
        composite = (key,)
        node = self.touch_page(self.root_id)
        while not node.leaf:
            node = self.touch_page(node.children[bisect_right(node.keys, composite)])
        return node

    # -- mutation -----------------------------------------------------------

    def insert(self, key: int, uid: int, rec: Record) -> None:
        """Insert one record; duplicates of (key, uid) are rejected."""
        path, leaf = self._descend((key, uid))
        keys, uids = leaf.keys, leaf.uids
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:  # among the records of this key, the uid places it
            i = bisect_left(uids, uid, i, bisect_right(keys, key, i))
            if i < len(keys) and keys[i] == key and uids[i] == uid:
                raise ValueError(f"duplicate entry {(key, uid)}")
        uids.insert(i, uid)  # first: a uid the column cannot hold raises before any column moves
        keys.insert(i, key)
        leaf.recs.insert(i, rec)
        self.entry_count += 1
        if len(keys) > self.leaf_cap:
            self._split_leaf(leaf, path)

    def _split_leaf(self, leaf: Node, path: list[tuple[Node, int]]) -> None:
        mid = len(leaf.keys) // 2
        right = self._alloc(leaf=True)
        right.keys, right.uids, right.recs = (col[mid:] for col in leaf.columns())
        for col in leaf.columns():
            del col[mid:]
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right.page_id
        self.leaf_count += 1
        self._insert_in_parent(path, (right.keys[0], right.uids[0]), right.page_id)

    def _insert_in_parent(self, path: list[tuple[Node, int]], sep: tuple[int, int], right_pid: int) -> None:
        if not path:
            old_root = self.root_id
            new_root = self._alloc(leaf=False)
            new_root.keys = [sep]
            new_root.children = [old_root, right_pid]
            self.root_id = new_root.page_id
            self.height += 1
            return
        parent, idx = path.pop()
        parent.keys.insert(idx, sep)
        parent.children.insert(idx + 1, right_pid)
        if len(parent.children) > self.internal_cap:
            mid = len(parent.keys) // 2
            up_sep = parent.keys[mid]
            right = self._alloc(leaf=False)
            right.keys = parent.keys[mid + 1 :]
            right.children = parent.children[mid + 1 :]
            del parent.keys[mid:]
            del parent.children[mid + 1 :]
            self._insert_in_parent(path, up_sep, right.page_id)

    def delete(self, key: int, uid: int) -> None:
        """Remove the entry with this (key, uid); missing entries are reported."""
        path, leaf = self._descend((key, uid))
        keys, uids = leaf.keys, leaf.uids
        i = bisect_left(keys, key)
        if i == len(keys) or keys[i] != key or uids[i] != uid:  # not the key's first record: bisect its run by uid
            i = bisect_left(uids, uid, i, bisect_right(keys, key, i))
            if i == len(keys) or keys[i] != key or uids[i] != uid:
                raise KeyError(f"no entry {(key, uid)}")
        del keys[i], uids[i], leaf.recs[i]
        self.entry_count -= 1
        if len(keys) < self.leaf_cap // 2:  # a fuller leaf, the root among them, needs no rebalancing
            self._rebalance(leaf, path)

    def _rebalance(self, node: Node, path: list[tuple[Node, int]]) -> None:
        while True:
            if node.page_id == self.root_id:
                if not node.leaf and len(node.children) == 1:
                    self.root_id = node.children[0]
                    self._free(node)
                    self.height -= 1
                return
            half = (self.leaf_cap if node.leaf else self.internal_cap) // 2
            if _fill(node) >= half:
                return
            parent, idx = path.pop()
            left = self.touch_page(parent.children[idx - 1]) if idx > 0 else None
            if left is not None and _fill(left) > half:
                _borrow(parent, idx - 1, left, node, to_right=True)
                return
            # the right sibling is read only when the left cannot lend
            right = self.touch_page(parent.children[idx + 1]) if idx + 1 < len(parent.children) else None
            if right is not None and _fill(right) > half:
                _borrow(parent, idx, node, right, to_right=False)
                return
            if left is not None:
                self._merge(parent, idx - 1, left, node)
            else:
                self._merge(parent, idx, node, right)
            node = parent

    def _merge(self, parent: Node, i: int, left: Node, right: Node) -> None:
        """Fold page ``right`` into its left sibling ``left``, dropping fence ``i`` of ``parent``."""
        fence = parent.keys.pop(i)
        del parent.children[i + 1]
        if left.leaf:
            for lcol, rcol in zip(left.columns(), right.columns()):
                lcol.extend(rcol)
            left.next_leaf = right.next_leaf
            self.leaf_count -= 1
        else:
            left.keys += [fence, *right.keys]
            left.children.extend(right.children)
        self._free(right)

    # -- scans ---------------------------------------------------------------

    def scan_intervals(
        self,
        intervals: Sequence[tuple[int, int]],
        visit: Callable[[Node, int, int], object],
        base: int = 0,
    ) -> None:
        """Visit, in key order, the records with keys in ``base + [lo, hi]`` per interval, a leaf slice at a time.

        ``intervals`` are sorted and disjoint.  Each call ``visit(leaf, i,
        j)`` hands over records ``i`` to ``j - 1`` of ``leaf``, ``i < j``, all
        inside one interval: the visitor reads the slices it needs of the
        leaf's columns (``leaf.keys[i:j]``, ``leaf.uids[i:j]``,
        ``leaf.recs[i:j]``) and must not change them.  A ``visit`` that
        returns true ends the current interval before any further page is
        read for it, and the scan goes on with the next interval.

        The cursor seeks through :meth:`descend` when an interval starts
        beyond the leaf it holds, and otherwise bisects that leaf's key
        column; it follows the sibling chain while the interval goes on past
        a leaf's last record, and jumps over the intervals that hold no
        record of the leaf.  This is the Bx-tree's locate-then-walk per
        search interval, with every seek and sibling read charged as it
        happens.  Every record before the held leaf has a key below the
        next interval's start, so a held leaf that reaches that start is
        bisected without a seek: the pages saved are the seek's, the root
        and inner pages, and the leaf before the held one when the seek
        would land there.
        """
        keys: list[int] = []
        k, n = 0, len(intervals)
        while k < n:
            lo, hi = intervals[k]
            lo += base
            if not keys or keys[-1] < lo:
                leaf = self.descend(lo)
                keys = leaf.keys
            i = bisect_left(keys, lo)
            hi += base
            while True:
                j = bisect_right(keys, hi, i)
                if i < j and visit(leaf, i, j):
                    break
                if j < len(keys) or leaf.next_leaf is None:
                    break
                leaf = self.touch_page(leaf.next_leaf)
                keys = leaf.keys
                i = 0
            k += 1
            # jump over the intervals that end before the leaf's next record.  A
            # policy-embedded query's next interval never does, as its ends are
            # keys of records, so a comparison comes before the bisect
            if j < len(keys) and k < n and intervals[k][1] + base < keys[j]:
                k = bisect_left(intervals, keys[j] - base, k + 1, n, key=itemgetter(1))

    def stats(self) -> TreeStats:
        return TreeStats(self.height, self.leaf_count, self.entry_count, len(self.pages))

    # -- integrity audit (perfbench's index check and the tests) -------------

    def audit(self) -> None:
        """Check structural invariants; raises AssertionError on violation, also under ``-O``."""
        visited: list[int] = []
        count = self._audit_node(self.pages[self.root_id], None, None, 1, visited)
        _check(count == self.entry_count, "entry count drift")
        _check(sorted(visited) == sorted(self.pages), "pages outside the tree or reached twice")
        _check(max(self.pages) < self._next_page, "page id past the allocation counter")
        leaf_pages = [pid for pid in visited if self.pages[pid].leaf]  # in tree order
        _check(len(leaf_pages) == self.leaf_count, "leaf count drift")
        chain = [self.pages[pid].next_leaf for pid in leaf_pages]
        _check(chain == leaf_pages[1:] + [None], "leaf chain disagrees with tree order")
        flat = [composite for pid in leaf_pages for composite in zip(self.pages[pid].keys, self.pages[pid].uids)]
        _check(flat == sorted(flat), "leaf chain not sorted")
        _check(len(set(flat)) == len(flat), "duplicate composite keys")

    def _audit_node(self, node: Node, lo, hi, depth: int, visited: list[int]) -> int:
        is_root = node.page_id == self.root_id
        visited.append(node.page_id)
        if node.leaf:
            _check(depth == self.height, "uneven leaf depth")
            n = len(node.keys)
            _check(len(node.uids) == n and len(node.recs) == n, "leaf columns of different lengths")
            if not is_root:
                _check(n >= self.leaf_cap // 2, "leaf underflow")
            _check(n <= self.leaf_cap, "leaf overflow")
            for k in zip(node.keys, node.uids):
                _check((lo is None or k >= lo) and (hi is None or k < hi), "key outside fence range")
            return n
        _check(depth < self.height, "uneven leaf depth")
        if not is_root:
            _check(len(node.children) >= self.internal_cap // 2, "internal underflow")
        _check(len(node.children) <= self.internal_cap, "internal overflow")
        _check(len(node.children) == len(node.keys) + 1, "fence/child mismatch")
        _check(node.keys == sorted(node.keys), "unsorted fences")
        total = 0
        bounds = [lo] + list(node.keys) + [hi]
        for i, child_pid in enumerate(node.children):
            total += self._audit_node(self.pages[child_pid], bounds[i], bounds[i + 1], depth + 1, visited)
        return total


def check_uid(uid: int) -> None:
    """Refuse, naming it, a uid that is not an int in ``[0, 2**63)``, the range the index stores and scans."""
    if not (isinstance(uid, int) and 0 <= uid < UID_LIMIT):
        raise ValueError(f"uid {uid!r} is outside [0, 2**63)")


def _refuse_report(obj: MovingObject) -> None:
    """Raise the ``ValueError`` that names the first field of ``obj`` the index cannot take."""
    for field in ("x", "y", "vx", "vy", "t_u"):
        if not math.isfinite(getattr(obj, field)):
            raise ValueError(f"object {obj.uid}: {field} is {getattr(obj, field)!r}, not a finite number")
    if obj.t_u < 0:
        raise ValueError(f"object {obj.uid}: t_u is {obj.t_u!r}; timestamps are non-negative")
    raise ValueError(f"object {obj.uid}: t_u is {obj.t_u!r}, past the last finite label")


class MovingObjectIndex:
    """Moving-object index over the B+-tree, keyed per the chosen layout.

    One physical tree stores all time partitions, distinguished by the
    partition prefix of the key.  The index keeps per-partition entry
    counts (so queries can skip drained partitions), the label timestamp
    each live partition was filled under, and dataset-wide directional
    speed maxima used for query-window enlargement.
    """

    def __init__(
        self,
        time_cfg: TimePartitionConfig,
        grid: GridConfig,
        layout: KeyLayout,
        sv_map: SequenceValueMap | None = None,
        buffer_pages: int = BUFFER_PAGES,
        page_size: int = PAGE_SIZE,
    ) -> None:
        if layout.zv_bits != grid.zv_bits:
            raise ValueError(f"key layout has {layout.zv_bits} z-value bits, grid {grid.zv_bits}")
        if time_cfg.num_partitions > 1 << layout.tid_bits:
            raise ValueError(
                f"{layout.tid_bits}-bit partition field cannot hold {time_cfg.num_partitions} partitions"
            )
        self.time_cfg = time_cfg
        self.grid = grid
        self.layout = layout
        self.sv_map = sv_map
        self.kind = "peb" if sv_map is not None else "bx"
        self.tree = BPlusTree(page_size=page_size, buffer_pages=buffer_pages)
        self.max_speeds = ZERO_SPEEDS
        self._current: dict[int, int] = {}  # uid -> key
        self._tid_shift = layout.zv_bits + (layout.sv_bits if sv_map is not None else 0)  # key -> partition
        self._partition_label: dict[int, float] = {}
        self._partition_count: dict[int, int] = {}
        svq = layout.quantize_map(sv_map) if sv_map is not None else {}
        self._sv_field = {uid: q << layout.zv_bits for uid, q in svq.items()}  # each sequence value in place
        # key_for's constants, with each axis's bit spreading as a table of at most 2^15 entries
        spread = [_spread(v) for v in range(1 << min(grid.levels, SPREAD_BITS))]
        self._key_consts = (
            time_cfg.grid_step, time_cfg.num_partitions, grid.L, grid.cell_size, grid.cells_per_axis - 1,
            len(spread) - 1, spread, [s << 1 for s in spread],
        )

    @property
    def buffer(self) -> PageBuffer:
        return self.tree.buffer

    @property
    def entry_count(self) -> int:
        return self.tree.entry_count

    def key_for(self, obj: MovingObject) -> tuple[int, int, float]:
        """Key, partition, and label timestamp the object indexes under.

        The label is the smallest multiple ``c`` of the grid step at least one
        step past ``t_u``, and its partition is ``(c - 1) mod (n + 1)``.  The
        position at the label, clamped to the space, picks the cell whose
        Z-value ends the key; a point at ``L`` lies in the last cell.  A
        report with a field that is not a finite number, a negative ``t_u``,
        or a ``t_u`` whose label is past the largest float raises
        ``ValueError``.
        """
        uid, x, y, vx, vy, t_u = obj.uid, obj.x, obj.y, obj.vx, obj.vy, obj.t_u
        if x - x + y - y + vx - vx + vy - vy + t_u - t_u != 0.0 or t_u < 0:  # NaN unless all are finite
            _refuse_report(obj)
        step, partitions, side, size, last, mask, x_spread, y_spread = self._key_consts
        c = math.ceil((t_u + step) / step)
        label = step * c
        if label == math.inf:
            _refuse_report(obj)
        tid = (c - 1) % partitions
        dt = label - t_u
        px, py = x + vx * dt, y + vy * dt
        # the cell of the position clamped to [0, L]
        cx = min(int(px / size), last) if 0.0 < px < side else (0 if px <= 0.0 else last)
        cy = min(int(py / size), last) if 0.0 < py < side else (0 if py <= 0.0 else last)
        key = (tid << self._tid_shift) | x_spread[cx & mask] | y_spread[cy & mask]
        if last > mask:  # more than 2^15 cells per side: the high bits spread by the same tables
            key |= (x_spread[cx >> SPREAD_BITS] | y_spread[cy >> SPREAD_BITS]) << 2 * SPREAD_BITS
        if self.sv_map is not None:
            key |= self._sv_field[uid]
        return key, tid, label

    def insert(self, obj: MovingObject) -> None:
        if obj.uid in self._current:
            raise ValueError(f"object {obj.uid} already indexed; use update()")
        check_uid(obj.uid)
        key, tid, label = self.key_for(obj)
        self._check_label(tid, label, self._partition_count.get(tid, 0))
        self._insert_keyed(obj, key, tid, label)

    def _check_label(self, tid: int, label: float, others: int) -> None:
        """Refuse ``label`` for partition ``tid`` while ``others`` entries hold another."""
        if others > 0 and self._partition_label[tid] != label:
            raise ValueError(
                f"partition {tid} still holds entries for label {self._partition_label[tid]}"
            )

    def _insert_keyed(self, obj: MovingObject, key: int, tid: int, label: float) -> None:
        self.tree.insert(key, obj.uid, (obj.x, obj.y, obj.vx, obj.vy, obj.t_u))
        self._current[obj.uid] = key
        self._partition_label[tid] = label
        self._partition_count[tid] = self._partition_count.get(tid, 0) + 1
        self.max_speeds = self.max_speeds.absorb(obj.vx, obj.vy)

    def delete(self, uid: int) -> None:
        key = self._current.pop(uid, None)
        if key is None:
            raise KeyError(f"object {uid} is not indexed; use insert()")
        self.tree.delete(key, uid)
        self._uncount(key >> self._tid_shift)

    def _uncount(self, tid: int) -> None:
        """One entry fewer in partition ``tid``; a drained partition drops its label."""
        remaining = self._partition_count[tid] - 1
        if remaining:
            self._partition_count[tid] = remaining
        else:
            del self._partition_count[tid]
            del self._partition_label[tid]

    def update(self, obj: MovingObject) -> None:
        """Replace the object's entry with a fresh one as of ``obj.t_u``.

        An object that is not indexed raises ``KeyError``.  A refused update
        (a uid outside ``[0, 2**63)``, a field that is not a finite number, or
        a target partition that still holds entries under another label)
        raises ``ValueError``.  Either way the index is left as it was.

        An update is a delete and an insert, each a descent from the root.
        :meth:`BPlusTree.touch_page` charges every page either reads: an
        underflowing leaf's left sibling and then, only when the left cannot
        lend, its right one, and each page a split allocates.
        """
        old = self._current.get(obj.uid)
        if old is None:  # an indexed uid was checked when it came in
            check_uid(obj.uid)
            raise KeyError(f"object {obj.uid} is not indexed; use insert()")
        key, tid, label = self.key_for(obj)
        old_tid = old >> self._tid_shift
        # the object's own old entry leaves the partition before the insert
        self._check_label(tid, label, self._partition_count.get(tid, 0) - (old_tid == tid))
        self.tree.delete(old, obj.uid)
        self._uncount(old_tid)
        self._insert_keyed(obj, key, tid, label)

    def live_partitions(self) -> list[tuple[int, float]]:
        """Partitions currently holding entries, with their labels."""
        return sorted((tid, self._partition_label[tid]) for tid in self._partition_count)

    def contains(self, uid: int) -> bool:
        return uid in self._current

    def keys_of(self, uids: Iterable[int]) -> list[int | None]:
        """The key of each object's entry, or None for an object that is not indexed.

        Read in one C-level pass from the in-memory uid → key map an update
        already keeps, so no page is read or charged.
        """
        return list(map(self._current.get, uids))

    def stats(self) -> TreeStats:
        return self.tree.stats()

    def reset_io(self, cold: bool = True) -> None:
        if cold:
            self.buffer.clear()
        else:
            self.buffer.reset_counters()
