"""Z-order (Morton) encoding of grid cells and rectangle decomposition.

The space ``[0, L)^2`` is cut into ``2^levels x 2^levels`` cells.  A
cell's Z-value interleaves the bits of its coordinates; rectangles of
cells decompose into maximal runs of consecutive Z-values so that a
two-dimensional window becomes a short list of one-dimensional key
intervals.

Interleave orientation is not universal across illustrations of the
curve, so it is a config flag: by default the x bit of each pair sits at
the even (less significant) position.  The reference worked example of
the 8x8 grid is reproduced with ``y_low=True`` and with curve positions
displayed 1-based; see the tests for the recorded convention.

Pure functions throughout; thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

CellRect = tuple[int, int, int, int]  # (cx_lo, cy_lo, cx_hi, cy_hi), inclusive


@dataclass(frozen=True)
class GridConfig:
    """Geometry of the Z-curve grid.

    ``levels`` is the number of bits per axis.  ``y_low=True`` flips the
    interleave so the y bit of each pair takes the even position.
    """

    L: float = 1000.0
    levels: int = 10
    y_low: bool = False

    def __post_init__(self) -> None:
        if self.L <= 0:
            raise ValueError("space side must be positive")
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


def z_encode(cell: tuple[int, int], cfg: GridConfig) -> int:
    """Z-value of a grid cell by bit interleaving."""
    cx, cy = cell
    n = cfg.cells_per_axis
    if not (0 <= cx < n and 0 <= cy < n):
        raise ValueError(f"cell {cell} outside {n}x{n} grid")
    low, high = (cy, cx) if cfg.y_low else (cx, cy)
    return _spread(low) | (_spread(high) << 1)


def z_decode(z: int, cfg: GridConfig) -> tuple[int, int]:
    """Inverse of :func:`z_encode`."""
    if not 0 <= z <= cfg.max_z:
        raise ValueError(f"z-value {z} out of range")
    low = high = 0
    for i in range(cfg.levels):
        low |= ((z >> (2 * i)) & 1) << i
        high |= ((z >> (2 * i + 1)) & 1) << i
    return (high, low) if cfg.y_low else (low, high)


def cell_of(x: float, y: float, cfg: GridConfig) -> tuple[int, int]:
    """Cell containing a point; coordinates at ``L`` clamp to the last cell."""
    last = cfg.cells_per_axis - 1
    size = cfg.cell_size
    return min(max(int(x / size), 0), last), min(max(int(y / size), 0), last)


def cell_span(lo: float, hi: float, cfg: GridConfig) -> tuple[int, int]:
    """Inclusive range of cells overlapping the closed interval [lo, hi]."""
    last = cfg.cells_per_axis - 1
    size = cfg.cell_size
    return min(max(int(lo / size), 0), last), min(max(int(hi / size), 0), last)


def cells_covering(rect: tuple[float, float, float, float], cfg: GridConfig) -> CellRect:
    """Cell rectangle covering a closed continuous rectangle."""
    x_lo, y_lo, x_hi, y_hi = rect
    cx_lo, cx_hi = cell_span(x_lo, x_hi, cfg)
    cy_lo, cy_hi = cell_span(y_lo, y_hi, cfg)
    return cx_lo, cy_lo, cx_hi, cy_hi


def z_corner_interval(rect: CellRect, cfg: GridConfig) -> tuple[int, int]:
    """Minimum and maximum Z-value over a cell rectangle.

    Interleaving is monotone in each coordinate, so the extremes sit at
    the low and high corners; this is the single search interval used per
    expansion round of the kNN search.
    """
    cx_lo, cy_lo, cx_hi, cy_hi = rect
    if cx_lo > cx_hi or cy_lo > cy_hi:
        raise ValueError(f"empty cell rectangle {rect}")
    return z_encode((cx_lo, cy_lo), cfg), z_encode((cx_hi, cy_hi), cfg)


def z_decompose(rect: CellRect, cfg: GridConfig, min_block_shift: int = 0) -> list[tuple[int, int]]:
    """Decompose a cell rectangle into maximal runs of consecutive Z-values.

    With ``min_block_shift=0`` the result is exact: sorted, pairwise
    disjoint, non-adjacent intervals whose union is precisely the set of
    Z-values of cells in the rectangle.  A positive ``min_block_shift``
    stops subdividing at blocks of ``2^shift`` cells per side and emits
    partially covered blocks whole, yielding fewer, slightly wider
    intervals (a superset of the exact ones); query code uses this to
    bound per-window interval counts.
    """
    cx_lo, cy_lo, cx_hi, cy_hi = rect
    if cx_lo > cx_hi or cy_lo > cy_hi:
        return []
    n = cfg.cells_per_axis
    if not (0 <= cx_lo and cx_hi < n and 0 <= cy_lo and cy_hi < n):
        raise ValueError(f"cell rectangle {rect} outside {n}x{n} grid")

    runs: list[list[int]] = []
    # quadrants as (dx, dy, z rank), last to first: a block's quadrants that
    # meet the rectangle are pushed in this order, so the depth-first walk
    # pops them, and emits runs, in curve order
    if cfg.y_low:
        quads = ((1, 1, 3), (1, 0, 2), (0, 1, 1), (0, 0, 0))
    else:
        quads = ((1, 1, 3), (0, 1, 2), (1, 0, 1), (0, 0, 0))
    stack = [(0, 0, cfg.levels, 0)]
    while stack:
        x0, y0, shift, z0 = stack.pop()
        last = (1 << shift) - 1
        x1, y1 = x0 + last, y0 + last
        if (cx_lo <= x0 and x1 <= cx_hi and cy_lo <= y0 and y1 <= cy_hi) or shift <= min_block_shift:
            z1 = z0 + (1 << (2 * shift)) - 1
            if runs and runs[-1][1] + 1 == z0:
                runs[-1][1] = z1
            else:
                runs.append([z0, z1])
            continue
        shift -= 1
        h = 1 << shift
        quarter = h * h
        for dx, dy, q in quads:
            x = x0 + dx * h
            y = y0 + dy * h
            if x <= cx_hi and y <= cy_hi and x + h > cx_lo and y + h > cy_lo:
                stack.append((x, y, shift, z0 + q * quarter))
    return [(lo, hi) for lo, hi in runs]
