import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from pebtree.keys import KeyLayout, SequenceValueMap
from pebtree.motion import MovingObject, TimePartitionConfig
from pebtree.store import MovingObjectIndex
from pebtree.zcurve import GridConfig, z_encode
from test_store import partition_of

CFG = TimePartitionConfig(delta_t_mu=120.0, n=2)
GRID = GridConfig(L=256.0, levels=10)  # cells of side 0.25: the examples' positions fall on cell corners


# -- the helper chain that computed keys before key_for's one pass, kept verbatim as its reference --


def position_at(obj: MovingObject, t: float) -> tuple[float, float]:
    """Linear position of ``obj`` at time ``t`` (extrapolates both ways)."""
    dt = t - obj.t_u
    return (obj.x + obj.vx * dt, obj.y + obj.vy * dt)


def label_timestamp(t_u: float, cfg: TimePartitionConfig) -> float:
    """Nearest later label timestamp for an update at ``t_u``.

    Returns the smallest grid multiple that is >= ``t_u + grid_step``; an
    update already on the grid maps to the next label, so the result is
    always strictly in the future of the update.
    """
    if t_u < 0:
        raise ValueError("timestamps are non-negative")
    g = cfg.grid_step
    return g * math.ceil((t_u + g) / g)


def index_partition(t_lab: float, cfg: TimePartitionConfig) -> int:
    """Cyclic partition number of a label timestamp, in ``[0, n]``."""
    g = cfg.grid_step
    steps = t_lab / g
    k = round(steps)
    if abs(steps - k) > 1e-9:
        raise ValueError(f"{t_lab!r} is not on the label grid (step {g})")
    return (k - 1) % cfg.num_partitions


def cell_of(x: float, y: float, cfg: GridConfig) -> tuple[int, int]:
    """Cell containing a point; coordinates at ``L`` clamp to the last cell."""
    last = cfg.cells_per_axis - 1
    size = cfg.cell_size
    return min(max(int(x / size), 0), last), min(max(int(y / size), 0), last)


def reference_key_for(index: MovingObjectIndex, obj: MovingObject, partition=index_partition) -> tuple[int, int, float]:
    """Key, partition, and label timestamp the object indexes under."""
    label = label_timestamp(obj.t_u, index.time_cfg)
    tid = partition(label, index.time_cfg)
    px, py = position_at(obj, label)
    side = index.grid.L
    px = min(max(px, 0.0), side)
    py = min(max(py, 0.0), side)
    zv = z_encode(cell_of(px, py, index.grid), index.grid)
    if index.sv_map is not None:
        key = index.layout.peb_key_q(tid, index.layout.quantize_sv(index.sv_map[obj.uid]), zv)
    else:
        key = index.layout.bx_key(tid, zv)
    return key, tid, label


# -- what key_for files a report under -------------------------------------------


def make_index(kind: str = "bx", time_cfg: TimePartitionConfig = CFG, grid: GridConfig = GRID) -> MovingObjectIndex:
    sv_map = SequenceValueMap({uid: 2.0 + 0.5 * uid for uid in range(8)}, (0,)) if kind == "peb" else None
    layout = KeyLayout.for_index(time_cfg, grid, max_sv=8.0)
    return MovingObjectIndex(time_cfg, grid, layout, sv_map=sv_map)


def indexed_as(obj: MovingObject, time_cfg: TimePartitionConfig = CFG, grid: GridConfig = GRID):
    """Label, partition and cell of the key that a baseline index gives ``obj``."""
    key, tid, label = make_index("bx", time_cfg, grid).key_for(obj)
    assert key >> grid.zv_bits == tid
    zv = key & ((1 << grid.zv_bits) - 1)
    cx = sum(((zv >> 2 * i) & 1) << i for i in range(grid.levels))
    cy = sum(((zv >> 2 * i + 1) & 1) << i for i in range(grid.levels))
    return label, tid, (cx, cy)


def indexed_cell(x: float, y: float, grid: GridConfig) -> tuple[int, int]:
    """The cell of a motionless report at ``(x, y)``."""
    return indexed_as(MovingObject(0, x, y, 0.0, 0.0, 0.0), grid=grid)[2]


def label_grid_oracle(t_u: float, cfg: TimePartitionConfig, horizon: float = 10_000.0) -> float:
    """Scan the label grid for the first label >= t_u + step."""
    g = cfg.grid_step
    label = 0.0
    while label < t_u + g - 1e-12:
        label += g
    assert label <= horizon
    return label


def test_position_zero_velocity():
    obj = MovingObject(1, 4.5, 9.25, 0.0, 0.0, 10.0)
    assert indexed_as(obj)[2] == (18, 37)
    assert indexed_as(replace(obj, t_u=123.0))[2] == (18, 37)


def test_position_direct_arithmetic():
    # the label of a report at 0 is 3, where it sits at (3, 6)
    obj = MovingObject(1, 0.0, 0.0, 1.0, 2.0, 0.0)
    assert indexed_as(obj, TimePartitionConfig(3.0, 1)) == (3.0, 0, (12, 24))


def test_position_objects_reach_range_next_tick():
    # two objects seen at time 5 whose velocity vectors put them inside
    # R = [3,6]x[2,5] at time 6, their label; a third moves away
    cells = (12, 24, 8, 20)  # R in cells of side 0.25
    a = MovingObject(1, 2.0, 3.0, 1.5, 0.0, 5.0)
    b = MovingObject(2, 5.0, 6.0, 0.0, -2.0, 5.0)
    c = MovingObject(3, 7.0, 1.0, 1.0, -1.0, 5.0)
    for obj, expect in ((a, True), (b, True), (c, False)):
        label, _, (cx, cy) = indexed_as(obj, TimePartitionConfig(1.0, 1))
        assert label == 6.0
        assert (cells[0] <= cx <= cells[1] and cells[2] <= cy <= cells[3]) is expect


@pytest.mark.parametrize(
    "t_u,expected",
    [(30.0, 120.0), (0.0, 60.0), (61.0, 180.0), (60.0, 120.0), (119.9, 180.0), (120.0, 180.0)],
)
def test_label_timestamp_examples(t_u, expected):
    label = indexed_as(MovingObject(1, 0.0, 0.0, 0.0, 0.0, t_u))[0]
    assert label == expected == label_grid_oracle(t_u, CFG)


def test_label_timestamp_rejects_negative():
    with pytest.raises(ValueError, match="timestamps are non-negative"):
        make_index().key_for(MovingObject(1, 0.0, 0.0, 0.0, 0.0, -1.0))


@pytest.mark.parametrize("t_lab,expected", [(120.0, 1), (60.0, 0), (180.0, 2), (240.0, 0)])
def test_index_partition_examples(t_lab, expected):
    # a report one step before a label is filed under it
    assert indexed_as(MovingObject(1, 0.0, 0.0, 0.0, 0.0, t_lab - CFG.grid_step))[:2] == (t_lab, expected)


# off the grid in floating point: the old check, steps within 1e-9 of an
# integer, refused these labels although the label step made them
OFF_GRID_LABELS = [
    (TimePartitionConfig(0.1, 1), 4327670.679050534),
    (TimePartitionConfig(100.0, 3), 556454322.6524334),
    (TimePartitionConfig(120.0, 7), 541412472.7934966),
]


@pytest.mark.parametrize("kind", ["bx", "peb"])
@pytest.mark.parametrize("time_cfg,t_u", OFF_GRID_LABELS)
def test_partition_comes_from_the_labels_step_count(kind, time_cfg, t_u):
    g = time_cfg.grid_step
    steps = math.ceil((t_u + g) / g)
    assert abs(g * steps / g - round(g * steps / g)) > 1e-9
    index = make_index(kind, time_cfg, GridConfig())
    obj = MovingObject(3, 500.0, 500.0, 1.0, -1.0, t_u)
    index.insert(obj)
    tid = (steps - 1) % time_cfg.num_partitions
    assert index.live_partitions() == [(tid, g * steps)]
    assert partition_of(index, 3) == tid
    index.update(replace(obj, x=400.0))
    assert index.entry_count == 1


# The label is the first grid point at least one step in the future, so the
# gap is exactly one step on the grid and approaches two steps just past it
# (an update at 30 with step 60 is indexed as of 120).


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_label_gap_bounds(t_u):
    label = indexed_as(MovingObject(1, 0.0, 0.0, 0.0, 0.0, t_u))[0]
    gap = label - t_u
    g = CFG.grid_step
    assert g - 1e-6 <= gap < 2 * g + 1e-6
    if (t_u / g) == int(t_u / g):
        assert gap == pytest.approx(g)


@given(st.floats(min_value=0.0, max_value=1e6), st.integers(min_value=1, max_value=6))
def test_label_gap_bounds_other_configs(t_u, n):
    cfg = TimePartitionConfig(delta_t_mu=60.0 * n, n=n)
    gap = indexed_as(MovingObject(1, 0.0, 0.0, 0.0, 0.0, t_u), cfg)[0] - t_u
    assert cfg.grid_step - 1e-6 <= gap < 2 * cfg.grid_step + 1e-6


def test_partition_cycles_with_period():
    # the partition number repeats every (n+1) grid steps along the label grid
    g = CFG.grid_step
    period = CFG.num_partitions * g

    def partition(label):
        return indexed_as(MovingObject(1, 0.0, 0.0, 0.0, 0.0, label - g))[1]

    for k in range(1, 40):
        label = k * g
        assert partition(label) == partition(label + period)
    seen = {partition(k * g) for k in range(1, 1 + CFG.num_partitions)}
    assert seen == set(range(CFG.num_partitions))


def test_config_validation():
    with pytest.raises(ValueError):
        TimePartitionConfig(delta_t_mu=0.0, n=2)
    with pytest.raises(ValueError):
        TimePartitionConfig(delta_t_mu=10.0, n=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_configs_refuse_a_length_that_is_not_positive_and_finite(bad):
    with pytest.raises(ValueError, match=f"delta_t_mu is {bad!r}, not a positive finite number"):
        TimePartitionConfig(delta_t_mu=bad, n=2)
    with pytest.raises(ValueError, match=f"space side L is {bad!r}, not a positive finite number"):
        GridConfig(L=bad)


# -- key_for against the reference chain --------------------------------------------

TIME_CFGS = [CFG, TimePartitionConfig(0.1, 1), TimePartitionConfig(100.0, 3), TimePartitionConfig(120.0, 7)]
# 20 and 30 levels spread the cell bits above the 15th through a second lookup
GRIDS = [GridConfig(), GRID, GridConfig(L=3.0, levels=20), GridConfig(L=5000.0, levels=30)]


@st.composite
def reports(draw):
    time_cfg = draw(st.sampled_from(TIME_CFGS))
    grid = draw(st.sampled_from(GRIDS))
    g = time_cfg.grid_step
    t_u = draw(st.one_of(st.integers(0, 10**7).map(lambda k: k * g), st.floats(0.0, 1e9)))
    side = grid.L
    coord = st.one_of(st.sampled_from([0.0, side]), st.floats(0.0, side))
    # up to two sides per step: past either wall within the one to two steps before the label
    speed = st.one_of(st.just(0.0), st.floats(-2.0 * side / g, 2.0 * side / g))
    obj = MovingObject(draw(st.integers(0, 7)), draw(coord), draw(coord), draw(speed), draw(speed), t_u)
    return draw(st.sampled_from(["bx", "peb"])), time_cfg, grid, obj


@settings(max_examples=400, deadline=None)
@given(reports())
@example(("bx", CFG, GridConfig(), MovingObject(1, 1000.0, 1000.0, 0.0, 0.0, 0.0)))  # on L
@example(("peb", CFG, GridConfig(), MovingObject(1, 985.0, 15.0, 0.25, -0.25, 0.0)))  # reaches L and 0
@example(("bx", TimePartitionConfig(0.1, 1), GridConfig(), MovingObject(1, 10.0, 10.0, 1.0, 1.0, 4327670.679050534)))
def test_key_for_equals_the_reference_chain(case):
    kind, time_cfg, grid, obj = case
    index = make_index(kind, time_cfg, grid)
    try:
        want = reference_key_for(index, obj)
    except ValueError as exc:  # the old check refused a label off the grid in floating point
        assert "is not on the label grid" in str(exc)
        g = time_cfg.grid_step
        tid = (math.ceil((obj.t_u + g) / g) - 1) % time_cfg.num_partitions
        want = reference_key_for(index, obj, partition=lambda label, cfg: tid)
    assert index.key_for(obj) == want
