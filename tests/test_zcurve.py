import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from pebtree.zcurve import (
    GridConfig,
    cells_covering,
    z_corner_interval,
    z_decompose,
    z_encode,
)
from test_motion import indexed_cell


def interleave_oracle(cx: int, cy: int, levels: int) -> int:
    """Bit-by-bit interleave, x at even positions."""
    bits = []
    for i in range(levels - 1, -1, -1):
        bits.append((cy >> i) & 1)
        bits.append((cx >> i) & 1)
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


def rect_cells_oracle(rect, cfg):
    cx_lo, cy_lo, cx_hi, cy_hi = rect
    return {
        z_encode((x, y), cfg)
        for x in range(cx_lo, cx_hi + 1)
        for y in range(cy_lo, cy_hi + 1)
    }


def intervals_to_set(intervals):
    out = set()
    for lo, hi in intervals:
        out.update(range(lo, hi + 1))
    return out


@pytest.mark.parametrize("cell,expected", [((0, 0), 0), ((1, 1), 3), ((2, 3), 14)])
def test_encode_examples(cell, expected):
    cfg = GridConfig(L=8, levels=3)
    assert z_encode(cell, cfg) == expected
    assert z_encode(cell, cfg) == interleave_oracle(*cell, cfg.levels)


@pytest.mark.parametrize("levels", [1, 2, 3, 4, 5])
def test_round_trip_exhaustive(levels):
    cfg = GridConfig(L=float(1 << levels), levels=levels)
    seen = set()
    for cx in range(cfg.cells_per_axis):
        for cy in range(cfg.cells_per_axis):
            seen.add(z_encode((cx, cy), cfg))
    # the curve visits every cell exactly once
    assert seen == set(range(4**levels))


def test_encode_range_checks():
    cfg = GridConfig(L=8, levels=3)
    with pytest.raises(ValueError):
        z_encode((8, 0), cfg)
    with pytest.raises(ValueError):
        z_encode((0, -1), cfg)


def loop_encode(cell, cfg):
    """The bit-by-bit interleaving loop that ``z_encode`` replaced."""
    cx, cy = cell
    z = 0
    for i in range(cfg.levels):
        z |= ((cx >> i) & 1) << (2 * i)
        z |= ((cy >> i) & 1) << (2 * i + 1)
    return z


def test_encode_equals_interleaving_loop():
    for levels in range(1, 6):
        cfg = GridConfig(L=1.0, levels=levels)
        for cx in range(cfg.cells_per_axis):
            for cy in range(cfg.cells_per_axis):
                assert z_encode((cx, cy), cfg) == loop_encode((cx, cy), cfg)
    rng = random.Random(17)
    for levels in range(6, 31):
        cfg = GridConfig(L=1.0, levels=levels)
        last = cfg.cells_per_axis - 1
        cells = [(0, last), (last, 0), (last, last)]
        cells += [(rng.randint(0, last), rng.randint(0, last)) for _ in range(200)]
        for cell in cells:
            assert z_encode(cell, cfg) == loop_encode(cell, cfg)
        assert z_encode((last, last), cfg) == (1 << cfg.zv_bits) - 1


def test_decompose_full_grid():
    cfg = GridConfig(L=8, levels=3)
    n = cfg.cells_per_axis
    assert z_decompose((0, 0, n - 1, n - 1), cfg) == [(0, 4**3 - 1)]


def test_decompose_single_cell():
    cfg = GridConfig(L=8, levels=3)
    for cell in [(0, 0), (5, 2), (7, 7)]:
        z = z_encode(cell, cfg)
        assert z_decompose((cell[0], cell[1], cell[0], cell[1]), cfg) == [(z, z)]


def test_decompose_empty_rect():
    cfg = GridConfig(L=8, levels=3)
    assert z_decompose((3, 3, 2, 5), cfg) == []


def test_decompose_reference_example():
    # 8x8 worked example: corners (2,2) and (4,6); the reference
    # illustration puts y on the even bits, so its cell block (x 2..3,
    # y 2..5) is stated transposed here, x 2..5 and y 2..3, and decomposes
    # to [12,15] and [24,27]; the illustration numbers curve positions
    # from 1, displaying [13,16] and [25,28].
    cfg = GridConfig(L=8.0, levels=3)
    cells = (2, 2, 5, 3)
    intervals = z_decompose(cells, cfg)
    assert intervals == [(12, 15), (24, 27)]
    assert [(lo + 1, hi + 1) for lo, hi in intervals] == [(13, 16), (25, 28)]
    # and the union is exactly the rectangle's cells
    assert intervals_to_set(intervals) == rect_cells_oracle(cells, cfg)


@settings(max_examples=200, deadline=None)
@given(
    levels=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_decompose_matches_bruteforce(levels, data):
    cfg = GridConfig(L=float(1 << levels), levels=levels)
    n = cfg.cells_per_axis
    cx_lo = data.draw(st.integers(0, n - 1))
    cx_hi = data.draw(st.integers(cx_lo, n - 1))
    cy_lo = data.draw(st.integers(0, n - 1))
    cy_hi = data.draw(st.integers(cy_lo, n - 1))
    rect = (cx_lo, cy_lo, cx_hi, cy_hi)
    intervals = z_decompose(rect, cfg)
    assert intervals_to_set(intervals) == rect_cells_oracle(rect, cfg)
    # sorted, disjoint, non-adjacent
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        assert lo1 <= hi1
        assert hi1 + 1 < lo2
    # corner interval equals the min/max of the exact decomposition
    assert z_corner_interval(rect, cfg) == (intervals[0][0], intervals[-1][1])


def block_shift(cfg):
    """The block side ``z_decompose`` snaps to, as a shift: at most 64 blocks per side."""
    return max(cfg.levels - 6, 0)


def covers(outer, inner):
    """Whether each run of ``inner`` lies within one run of ``outer``; both sorted and disjoint."""
    starts = [lo for lo, _ in outer]
    for lo, hi in inner:
        i = bisect_right(starts, lo) - 1
        if i < 0 or outer[i][1] < hi:
            return False
    return True


@settings(max_examples=100, deadline=None)
@given(levels=st.integers(min_value=7, max_value=12), data=st.data())
def test_coarse_decompose_is_superset(levels, data):
    # above 64 cells per side the runs are of blocks, and cover the exact runs
    cfg = GridConfig(L=1.0, levels=levels)
    n = cfg.cells_per_axis
    cx_lo = data.draw(st.integers(0, n - 1))
    cx_hi = data.draw(st.integers(cx_lo, n - 1))
    cy_lo = data.draw(st.integers(0, n - 1))
    cy_hi = data.draw(st.integers(cy_lo, n - 1))
    rect = (cx_lo, cy_lo, cx_hi, cy_hi)
    exact = recursive_decompose(rect, cfg)
    coarse = z_decompose(rect, cfg)
    assert covers(coarse, exact)
    assert len(coarse) <= len(exact)


@settings(max_examples=200, deadline=None)
@given(levels=st.integers(min_value=4, max_value=12), data=st.data())
def test_scan_block_decompose_of_a_nested_rectangle_is_covered(levels, data):
    # the baseline kNN search relies on this: its rounds nest, so each
    # round's intervals contain every earlier round's
    cfg = GridConfig(L=float(1 << levels), levels=levels)
    n = cfg.cells_per_axis
    bx_lo = data.draw(st.integers(0, n - 1))
    bx_hi = data.draw(st.integers(bx_lo, n - 1))
    by_lo = data.draw(st.integers(0, n - 1))
    by_hi = data.draw(st.integers(by_lo, n - 1))
    ax_lo = data.draw(st.integers(bx_lo, bx_hi))
    ax_hi = data.draw(st.integers(ax_lo, bx_hi))
    ay_lo = data.draw(st.integers(by_lo, by_hi))
    ay_hi = data.draw(st.integers(ay_lo, by_hi))
    inner = z_decompose((ax_lo, ay_lo, ax_hi, ay_hi), cfg)
    outer = z_decompose((bx_lo, by_lo, bx_hi, by_hi), cfg)
    assert covers(outer, inner)


def recursive_decompose(rect, cfg, min_block_shift=0):
    """The recursive quadtree walk that ``z_decompose`` replaced, stopping at blocks of ``2^min_block_shift`` cells."""
    cx_lo, cy_lo, cx_hi, cy_hi = rect
    if cx_lo > cx_hi or cy_lo > cy_hi:
        return []
    n = cfg.cells_per_axis
    if not (0 <= cx_lo and cx_hi < n and 0 <= cy_lo and cy_hi < n):
        raise ValueError(f"cell rectangle {rect} outside {n}x{n} grid")

    runs: list[list[int]] = []

    def emit(lo: int, hi: int) -> None:
        if runs and runs[-1][1] + 1 == lo:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi])

    def walk(x0: int, y0: int, shift: int, z0: int) -> None:
        last = (1 << shift) - 1
        x1, y1 = x0 + last, y0 + last
        if cx_lo > x1 or cx_hi < x0 or cy_lo > y1 or cy_hi < y0:
            return
        if (cx_lo <= x0 and x1 <= cx_hi and cy_lo <= y0 and y1 <= cy_hi) or shift <= min_block_shift:
            emit(z0, z0 + (1 << (2 * shift)) - 1)
            return
        h = 1 << (shift - 1)
        quarter = 1 << (2 * (shift - 1))
        for q in range(4):
            dx, dy = q & 1, (q >> 1) & 1
            walk(x0 + dx * h, y0 + dy * h, shift - 1, z0 + q * quarter)

    walk(0, 0, cfg.levels, 0)
    return [(lo, hi) for lo, hi in runs]


def test_decompose_equals_recursive_walk():
    # every rectangle of grids up to 8x8, where the runs are exact
    for levels in range(1, 4):
        cfg = GridConfig(L=1.0, levels=levels)
        n = cfg.cells_per_axis
        spans = [(lo, hi) for lo in range(n) for hi in range(lo, n)]
        for x_lo, x_hi in spans:
            for y_lo, y_hi in spans:
                rect = (x_lo, y_lo, x_hi, y_hi)
                assert z_decompose(rect, cfg) == recursive_decompose(rect, cfg)
    # grids of more than 64 cells per side, with rectangle edges on block
    # borders, next to them and on the grid's edges
    rng = random.Random(29)
    for levels in range(7, 13):
        cfg = GridConfig(L=1.0, levels=levels)
        last = cfg.cells_per_axis - 1
        unit = 1 << block_shift(cfg)
        edges = {0, 1, last - 1, last}
        for border in rng.sample(range(unit, last + 1, unit), 8):
            edges.update((border - 1, border, border + unit - 1))
        edges = sorted(edges)
        for _ in range(40):
            x_lo, x_hi = sorted(rng.sample(edges, 2))
            y_lo, y_hi = sorted(rng.sample(edges, 2))
            rect = (x_lo, y_lo, x_hi, y_hi)
            assert z_decompose(rect, cfg) == recursive_decompose(rect, cfg, block_shift(cfg))


def test_decompose_on_the_query_grid_snaps_to_sixteen_cell_blocks():
    # the baseline engine's grid: 1024 cells per side in 64 x 64 blocks of 16 x 16 cells
    cfg = GridConfig()
    assert block_shift(cfg) == 4
    rng = random.Random(37)
    last = cfg.cells_per_axis - 1
    for _ in range(300):
        x_lo, x_hi = sorted(rng.randint(0, last) for _ in range(2))
        y_lo, y_hi = sorted(rng.randint(0, last) for _ in range(2))
        rect = (x_lo, y_lo, x_hi, y_hi)
        assert z_decompose(rect, cfg) == recursive_decompose(rect, cfg, 4)
    assert z_decompose((0, 0, last, last), cfg) == [(0, (1 << cfg.zv_bits) - 1)]


@settings(max_examples=300, deadline=None)
@given(
    levels=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_decompose_equals_recursive_walk_at_the_block_shift(levels, data):
    cfg = GridConfig(L=1.0, levels=levels)
    last = cfg.cells_per_axis - 1
    x_lo = data.draw(st.integers(0, last))
    x_hi = data.draw(st.integers(x_lo, last))
    y_lo = data.draw(st.integers(0, last))
    y_hi = data.draw(st.integers(y_lo, last))
    rect = (x_lo, y_lo, x_hi, y_hi)
    assert z_decompose(rect, cfg) == recursive_decompose(rect, cfg, block_shift(cfg))


def test_decompose_refuses_a_rectangle_outside_the_grid():
    cfg = GridConfig(L=8.0, levels=3)
    for rect in [(0, 0, 8, 3), (-1, 0, 3, 3), (0, 0, 3, 8), (0, -1, 3, 3)]:
        with pytest.raises(ValueError, match="outside 8x8 grid"):
            z_decompose(rect, cfg)
        with pytest.raises(ValueError, match="outside 8x8 grid"):
            z_decompose((0, 0, 7, 7), cfg, rect)


def subtract_intervals(new, covered):
    """Parts of sorted disjoint ``new`` not covered by sorted disjoint ``covered``.

    The baseline's kNN rounds subtracted the last round's runs this way
    before ``z_decompose`` took a rectangle to leave out; kept as the
    reference for ``minus``.
    """
    out = []
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


@settings(max_examples=300, deadline=None)
@given(
    levels=st.integers(min_value=1, max_value=12),
    nested=st.booleans(),
    data=st.data(),
)
def test_decompose_minus_a_rectangle_equals_subtracting_its_runs(levels, nested, data):
    # up to 4 096 cells a side, in blocks of up to 64 cells; a nested
    # rectangle is the baseline kNN search's last round
    cfg = GridConfig(L=1.0, levels=levels)
    last = cfg.cells_per_axis - 1
    x_lo = data.draw(st.integers(0, last))
    x_hi = data.draw(st.integers(x_lo, last))
    y_lo = data.draw(st.integers(0, last))
    y_hi = data.draw(st.integers(y_lo, last))
    rect = (x_lo, y_lo, x_hi, y_hi)
    if nested:
        mx_lo = data.draw(st.integers(x_lo, x_hi))
        mx_hi = data.draw(st.integers(mx_lo, x_hi))
        my_lo = data.draw(st.integers(y_lo, y_hi))
        my_hi = data.draw(st.integers(my_lo, y_hi))
    else:
        mx_lo, mx_hi = sorted(data.draw(st.integers(0, last)) for _ in range(2))
        my_lo, my_hi = sorted(data.draw(st.integers(0, last)) for _ in range(2))
    minus = (mx_lo, my_lo, mx_hi, my_hi)
    shift = block_shift(cfg)
    want = subtract_intervals(recursive_decompose(rect, cfg, shift), recursive_decompose(minus, cfg, shift))
    assert z_decompose(rect, cfg, minus) == want
    # an empty rectangle, or none, leaves out nothing
    whole = z_decompose(rect, cfg)
    assert z_decompose(rect, cfg, (1, 1, 0, 0)) == z_decompose(rect, cfg, None) == whole


def test_decompose_minus_the_last_round_on_the_query_grid():
    # squares doubling about a point, as the baseline kNN search's rounds are,
    # each minus the last, cover the last square's blocks once each
    cfg = GridConfig(L=1000.0, levels=10)
    rng = random.Random(31)
    for _ in range(40):
        qx, qy, radius = rng.uniform(0, 1000), rng.uniform(0, 1000), rng.uniform(1, 40)
        seen, prev = [], None
        while True:
            square = (qx - radius, qy - radius, qx + radius, qy + radius)
            cells = cells_covering(square, cfg)
            runs = z_decompose(cells, cfg, prev)
            assert runs == subtract_intervals(z_decompose(cells, cfg), z_decompose(prev, cfg) if prev else [])
            seen.extend(runs)
            if cells == (0, 0, cfg.cells_per_axis - 1, cfg.cells_per_axis - 1):
                break
            prev = cells
            radius *= 2.0
        # the rounds' runs tile the whole curve, each value once
        seen.sort()
        assert [lo for lo, _ in seen] == [0] + [hi + 1 for _, hi in seen[:-1]]
        assert seen[-1][1] == (1 << cfg.zv_bits) - 1


def test_aligned_blocks_are_contiguous_runs():
    # every aligned 2^k x 2^k block occupies one contiguous run of the curve
    cfg = GridConfig(L=16, levels=4)
    for shift in (1, 2, 3):
        size = 1 << shift
        for bx in range(0, cfg.cells_per_axis, size):
            for by in range(0, cfg.cells_per_axis, size):
                zs = sorted(
                    z_encode((bx + dx, by + dy), cfg)
                    for dx in range(size)
                    for dy in range(size)
                )
                assert zs == list(range(zs[0], zs[0] + size * size))


def test_cell_of_clamps_boundary():
    # a report's cell: coordinates at L and beyond the space clamp to the edge cells
    cfg = GridConfig(L=1000.0, levels=10)
    assert indexed_cell(0.0, 0.0, cfg) == (0, 0)
    last = cfg.cells_per_axis - 1
    assert indexed_cell(1000.0, 1000.0, cfg) == (last, last)
    assert indexed_cell(-5.0, 1005.0, cfg) == (0, last)


@pytest.mark.parametrize(
    "rect",
    [
        (1500.0, 1500.0, 1600.0, 1600.0),
        (-300.0, -300.0, -200.0, -200.0),
        (1000.5, 400.0, 1010.0, 600.0),
        (400.0, -20.0, 600.0, -0.5),
        (600.0, 400.0, 500.0, 600.0),
    ],
)
def test_cells_covering_a_rectangle_that_misses_the_space_is_empty(rect):
    cfg = GridConfig(L=1000.0, levels=10)
    assert z_decompose(cells_covering(rect, cfg), cfg) == []


def test_cells_covering_clamps_ends_beyond_the_space():
    cfg = GridConfig(L=1000.0, levels=10)
    last = cfg.cells_per_axis - 1
    assert cells_covering((-50.0, 990.0, 0.0, 1200.0), cfg) == (0, indexed_cell(0, 990.0, cfg)[1], 0, last)
    assert cells_covering((1000.0, -1.0, 1000.0, 0.0), cfg) == (last, 0, last, 0)


def test_cells_covering_contains_positions():
    cfg = GridConfig(L=1000.0, levels=10)
    rect = (100.0, 250.0, 160.5, 300.25)
    cells = cells_covering(rect, cfg)
    for x, y in [(100.0, 250.0), (160.5, 300.25), (130.0, 275.0)]:
        cx, cy = indexed_cell(x, y, cfg)
        assert cells[0] <= cx <= cells[2]
        assert cells[1] <= cy <= cells[3]
