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
binary string.  A grid of more than 64 cells per side is coarsened to
one tile of 64 x 64 blocks, and a rectangle is snapped to the blocks it
meets.

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

    ``levels`` is the number of bits per axis, 1 to 15 (at most 32 768 cells per side).
    """

    L: float = 1000.0
    levels: int = 10

    def __post_init__(self) -> None:
        # a NaN fails every comparison, so this refuses it with the infinities
        if not 0 < self.L < math.inf:
            raise ValueError(f"space side L is {self.L!r}, not a positive finite number")
        if not 1 <= self.levels <= 15:
            raise ValueError("levels must be in [1, 15]")

    @cached_property
    def cells_per_axis(self) -> int:
        return 1 << self.levels

    @cached_property
    def cell_size(self) -> float:
        return self.L / self.cells_per_axis

    @property
    def zv_bits(self) -> int:
        return 2 * self.levels


def _spread(v: int) -> int:
    """Move bit i of a value below 2^32 to bit 2i, in five mask steps."""
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    return (v | (v << 1)) & 0x5555555555555555


# Tile masks for z_decompose.  Bit z of a mask stands for the block of Z-value
# z in a 64 x 64 tile: _A_LE[v] holds the blocks whose even-bit coordinate a
# (x) is at most v, _A_GE[v] those whose a is at least v, and _B_* the same for
# the odd-bit coordinate b (y).  Built once at import and never written.
_TILE_BITS = 6


def _tile_masks() -> tuple[list[int], list[int], list[int], list[int]]:
    spread = [_spread(v) for v in range(1 << _TILE_BITS)]
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


def _block_mask(rect: CellRect, cfg: GridConfig, shift: int) -> int:
    """The tile mask of the blocks of ``2^shift`` cells per side that a cell rectangle meets; 0 if it is empty."""
    cx_lo, cy_lo, cx_hi, cy_hi = rect
    if cx_lo > cx_hi or cy_lo > cy_hi:
        return 0
    n = cfg.cells_per_axis
    if not (0 <= cx_lo and cx_hi < n and 0 <= cy_lo and cy_hi < n):
        raise ValueError(f"cell rectangle {rect} outside {n}x{n} grid")
    return _A_GE[cx_lo >> shift] & _A_LE[cx_hi >> shift] & _B_GE[cy_lo >> shift] & _B_LE[cy_hi >> shift]


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


def z_decompose(rect: CellRect, cfg: GridConfig, minus: CellRect | None = None) -> list[tuple[int, int]]:
    """Decompose a cell rectangle into maximal runs of consecutive Z-values.

    The grid is coarsened to one tile of at most 64 x 64 blocks, each
    ``2^max(levels - 6, 0)`` cells per side: one cell on grids of up to 64
    cells per side, where the runs are exact, and 16 cells on the
    1024-cell query grid.  One AND of four precomputed tile masks gives the
    blocks the rectangle meets, and the mask's runs of set bits are the
    result: sorted, pairwise disjoint, non-adjacent intervals whose union
    is the Z-values of those blocks, a superset of the rectangle's cells'.
    Snapping to blocks bounds the number of intervals per window.

    ``minus``, a second cell rectangle, leaves out the blocks it meets:
    the mask is ANDed with the complement of ``minus``'s, so the runs are
    those of ``rect`` with the runs of ``minus`` taken out.  An expanding
    search whose rectangles nest decomposes each one minus the last, and
    so scans only what the last did not.  Either rectangle may be empty;
    one that reaches beyond the grid raises ``ValueError``.
    """
    shift = max(cfg.levels - _TILE_BITS, 0)
    mask = _block_mask(rect, cfg, shift)
    if minus is not None:
        mask &= ~_block_mask(minus, cfg, shift)
    if not mask:
        return []
    # format() writes the highest bit first, so string index i is block top - i
    # and searching from the end finds the runs lowest first; a run's '1's end
    # at index j and start after the '0' before them
    block_bits = 2 * shift
    bits = format(mask, "b")
    top = len(bits) - 1
    end = len(bits)
    runs: list[tuple[int, int]] = []
    while end > 0:
        j = bits.rfind("1", 0, end)
        end = bits.rfind("0", 0, j)
        runs.append(((top - j) << block_bits, ((top - end) << block_bits) - 1))
    return runs
