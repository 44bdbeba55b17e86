"""Z-order (Morton) encoding of grid cells and rectangle decomposition.

The space ``[0, L)^2`` is cut into ``2^levels x 2^levels`` cells.  A
cell's Z-value interleaves the bits of its coordinates; rectangles of
cells decompose into maximal runs of consecutive Z-values so that a
two-dimensional window becomes a short list of one-dimensional key
intervals.

Decomposition is table-driven.  For a 64 x 64 tile, four tables hold one
4 096-bit mask per column or row bound ("column <= x", "column >= x" and
the same for rows), with bit z standing for the cell of Z-value z.  The
AND of four masks is the rectangle's cells in the tile, and its runs of
set bits are the rectangle's runs of the curve, read off the mask's
binary string.  Larger grids are walked as a quadtree down to such tiles.

The x bit of each pair sits at the even (less significant) position.
Illustrations of the curve differ in orientation: the reference worked
example of the 8x8 grid puts y on the even bits, so the tests state its
rectangle transposed and display curve positions 1-based.

Pure functions throughout; thread-safe: the tables are built once at
import and never written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from operator import or_

CellRect = tuple[int, int, int, int]  # (cx_lo, cy_lo, cx_hi, cy_hi), inclusive


@dataclass(frozen=True)
class GridConfig:
    """Geometry of the Z-curve grid.

    ``levels`` is the number of bits per axis.
    """

    L: float = 1000.0
    levels: int = 10

    def __post_init__(self) -> None:
        # a NaN fails every comparison, so this refuses it with the infinities
        if not 0 < self.L < math.inf:
            raise ValueError(f"space side L is {self.L!r}, not a positive finite number")
        if not 1 <= self.levels <= 30:
            raise ValueError("levels must be in [1, 30]")

    @cached_property
    def cells_per_axis(self) -> int:
        return 1 << self.levels

    @cached_property
    def cell_size(self) -> float:
        return self.L / self.cells_per_axis

    @property
    def zv_bits(self) -> int:
        return 2 * self.levels

    @cached_property
    def max_z(self) -> int:
        return (1 << (2 * self.levels)) - 1


def _spread(v: int) -> int:
    """Move bit i of a value below 2^32 to bit 2i, in five mask steps."""
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    return (v | (v << 1)) & 0x5555555555555555


# Tile masks for z_decompose.  Bit z of a mask stands for the cell of Z-value
# z in a 64 x 64 tile: _A_LE[v] holds the cells whose even-bit coordinate a is
# at most v, _A_GE[v] those whose a is at least v, and _B_* the same for the
# odd-bit coordinate b.  Built once at import and never written.
_TILE_BITS = 6
_TILE_LAST = (1 << _TILE_BITS) - 1


def _tile_masks() -> tuple[list[int], list[int], list[int], list[int]]:
    spread = [_spread(v) for v in range(_TILE_LAST + 1)]
    a_zero = reduce(or_, (1 << (bits << 1) for bits in spread))  # the cells with a = 0
    b_zero = reduce(or_, (1 << bits for bits in spread))  # the cells with b = 0
    a_lines = [a_zero << bits for bits in spread]
    b_lines = [b_zero << (bits << 1) for bits in spread]
    return (
        list(accumulate(a_lines, or_)),
        list(accumulate(reversed(a_lines), or_))[::-1],
        list(accumulate(b_lines, or_)),
        list(accumulate(reversed(b_lines), or_))[::-1],
    )


_A_LE, _A_GE, _B_LE, _B_GE = _tile_masks()


def _tile_mask(a0: int, b0: int, a_lo: int, b_lo: int, a_hi: int, b_hi: int) -> int:
    """The units of ``[a_lo, a_hi] x [b_lo, b_hi]`` in the tile whose first unit is ``(a0, b0)``; the two must meet."""
    return (
        _A_GE[max(a_lo - a0, 0)]
        & _A_LE[min(a_hi - a0, _TILE_LAST)]
        & _B_GE[max(b_lo - b0, 0)]
        & _B_LE[min(b_hi - b0, _TILE_LAST)]
    )


def z_encode(cell: tuple[int, int], cfg: GridConfig) -> int:
    """Z-value of a grid cell by bit interleaving."""
    cx, cy = cell
    n = cfg.cells_per_axis
    if not (0 <= cx < n and 0 <= cy < n):
        raise ValueError(f"cell {cell} outside {n}x{n} grid")
    return _spread(cx) | (_spread(cy) << 1)


def cell_span(lo: float, hi: float, cfg: GridConfig) -> tuple[int, int]:
    """Inclusive range of cells overlapping the closed interval [lo, hi].

    An end beyond the space clamps to the edge cell.  An interval that
    misses ``[0, L]`` overlaps no cell: its range is empty (first > last).
    """
    if hi < 0.0 or lo > cfg.L or lo > hi:
        return 1, 0
    last = cfg.cells_per_axis - 1
    size = cfg.cell_size
    return min(max(int(lo / size), 0), last), min(max(int(hi / size), 0), last)


def cells_covering(rect: tuple[float, float, float, float], cfg: GridConfig) -> CellRect:
    """Cell rectangle covering a closed continuous rectangle.

    A rectangle that misses the space on either axis covers no cell, and
    its cell rectangle is empty, so it decomposes to no interval.  The
    engines rely on :class:`pebtree.policy.PolicyStore` refusing policy
    regions beyond the space: no user can be visible outside it.
    """
    x_lo, y_lo, x_hi, y_hi = rect
    cx_lo, cx_hi = cell_span(x_lo, x_hi, cfg)
    cy_lo, cy_hi = cell_span(y_lo, y_hi, cfg)
    return cx_lo, cy_lo, cx_hi, cy_hi


def z_corner_interval(rect: CellRect, cfg: GridConfig) -> tuple[int, int]:
    """Minimum and maximum Z-value over a cell rectangle.

    Interleaving is monotone in each coordinate, so the extremes sit at
    the low and high corners.  No query calls it; it is kept because
    perfbench's tracer wraps ``pebtree.query.z_corner_interval`` by name.
    """
    cx_lo, cy_lo, cx_hi, cy_hi = rect
    if cx_lo > cx_hi or cy_lo > cy_hi:
        raise ValueError(f"empty cell rectangle {rect}")
    return z_encode((cx_lo, cy_lo), cfg), z_encode((cx_hi, cy_hi), cfg)


def z_decompose(
    rect: CellRect, cfg: GridConfig, min_block_shift: int = 0, minus: CellRect | None = None
) -> list[tuple[int, int]]:
    """Decompose a cell rectangle into maximal runs of consecutive Z-values.

    With ``min_block_shift=0`` the result is exact: sorted, pairwise
    disjoint, non-adjacent intervals whose union is precisely the set of
    Z-values of cells in the rectangle.  A positive ``min_block_shift``
    covers every block of ``2^shift`` cells per side that the rectangle
    meets whole, yielding fewer, slightly wider intervals (a superset of
    the exact ones); query code uses this to bound per-window interval
    counts.

    The rectangle is snapped to such blocks ("units").  A quadtree walk
    over the unit grid emits fully covered blocks and stops at tiles of
    64 x 64 units; each partly covered tile is finished with one AND of
    four precomputed tile masks, whose runs of set bits are the tile's
    runs of the curve.  Grids of at most 64 units per side are one tile.

    ``minus``, a second cell rectangle, leaves out the units it meets: the
    runs are those of ``rect`` with the runs of ``minus`` (at the same
    shift) taken out.  The walk skips the blocks inside it, and a tile
    that meets it ANDs its mask with the complement of ``minus``'s.  An
    expanding search whose rectangles nest decomposes each one minus the
    last, and so scans only what the last did not.
    """
    cx_lo, cy_lo, cx_hi, cy_hi = rect
    if cx_lo > cx_hi or cy_lo > cy_hi:
        return []
    n = cfg.cells_per_axis
    if not (0 <= cx_lo and cx_hi < n and 0 <= cy_lo and cy_hi < n):
        raise ValueError(f"cell rectangle {rect} outside {n}x{n} grid")

    shift = min(max(min_block_shift, 0), cfg.levels)
    # a is the coordinate on the even bits of the Z-value (x), b the one on the odd bits (y)
    a_lo, b_lo, a_hi, b_hi = cx_lo >> shift, cy_lo >> shift, cx_hi >> shift, cy_hi >> shift
    # the units left out; with no cell to leave out, a unit left of the grid, which no block meets
    ma_lo = mb_lo = ma_hi = mb_hi = -1
    if minus is not None and minus[0] <= minus[2] and minus[1] <= minus[3]:
        ma_lo, mb_lo, ma_hi, mb_hi = (m >> shift for m in minus)
    unit_bits = 2 * shift
    runs: list[tuple[int, int]] = []
    stack = [(0, 0, cfg.levels - shift, 0)]
    while stack:
        a0, b0, side_bits, z0 = stack.pop()
        last = (1 << side_bits) - 1
        # the block's overlap with the left-out units: none, part, or all of it
        clear = a0 > ma_hi or a0 + last < ma_lo or b0 > mb_hi or b0 + last < mb_lo
        if not clear and ma_lo <= a0 and a0 + last <= ma_hi and mb_lo <= b0 and b0 + last <= mb_hi:
            continue
        if clear and a_lo <= a0 and a0 + last <= a_hi and b_lo <= b0 and b0 + last <= b_hi:
            lo = z0 << unit_bits
            hi = ((z0 + (1 << (2 * side_bits))) << unit_bits) - 1
            if runs and runs[-1][1] + 1 == lo:
                lo = runs.pop()[0]
            runs.append((lo, hi))
        elif side_bits <= _TILE_BITS:
            mask = _tile_mask(a0, b0, a_lo, b_lo, a_hi, b_hi)
            if not clear:
                mask &= ~_tile_mask(a0, b0, ma_lo, mb_lo, ma_hi, mb_hi)
                if not mask:
                    continue
            # format() writes the highest bit first, so string index i is unit
            # top - i and searching from the end finds the runs lowest first;
            # a run's '1's end at index j and start after the '0' before them
            bits = format(mask, "b")
            top = z0 + len(bits) - 1
            end = len(bits)
            first = len(runs)
            while end > 0:
                j = bits.rfind("1", 0, end)
                end = bits.rfind("0", 0, j)
                runs.append(((top - j) << unit_bits, ((top - end) << unit_bits) - 1))
            # a tile's runs are maximal within it; only its first can continue the last tile's
            if first and runs[first - 1][1] + 1 == runs[first][0]:
                runs[first - 1 : first + 1] = [(runs[first - 1][0], runs[first][1])]
        else:
            side_bits -= 1
            h = 1 << side_bits
            quarter = h * h
            # quadrants last to first, so the depth-first walk pops them in curve order
            for q in (3, 2, 1, 0):
                a = a0 + (q & 1) * h
                b = b0 + (q >> 1) * h
                if a <= a_hi and b <= b_hi and a + h > a_lo and b + h > b_lo:
                    stack.append((a, b, side_bits, z0 + q * quarter))
    return runs
