"""Experiment driver: builds instances, runs query batches, emits CSV.

A measurement point builds one dataset with its policies, assigns
sequence values, loads a policy-embedded index and a baseline index, and
runs a batch of range and kNN queries through both with cold buffers per
(index, query type) batch.  Every row carries the full configuration, the
mean and 95th-percentile charged I/O, an oracle-equality pass rate, the
analytical cost estimate (range queries), and wall time.

Rows are a pure function of the sweeps and the base configuration, seed
included; any oracle mismatch makes the run report failure so callers can
exit nonzero.
"""

from __future__ import annotations

import csv
import gc
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .costmodel import CostParams, cost_c, cost_c1, fit_cost_params
from .keys import KeyLayout, assign_sequence_values
from .motion import MovingObject, TimePartitionConfig
from .policy import CompatibilityIndex, PolicyStore
from .query import (
    BaselineQueryEngine,
    FriendLists,
    PebQueryEngine,
    PknnRequest,
    PknnResult,
    PrqRequest,
    oracle_knn,
    oracle_range,
)
from .store import MovingObjectIndex
from .workload import WorkloadConfig, gen_queries, gen_policies, make_world
from .zcurve import GridConfig

CSV_COLUMNS = [
    "N",
    "N_p",
    "theta",
    "window",
    "k",
    "max_speed",
    "destinations",
    "index",
    "query_type",
    "seed",
    "round",
    "mean_io",
    "p95_io",
    "oracle_ok",
    "cost_estimate",
    "wall_ms",
]

DESK_USER_SWEEP = (2_000, 5_000, 10_000, 20_000)
THETA_SWEEP = (0.0, 0.25, 0.5, 0.75, 1.0)
FIT_THETA = 0.7  # the grouping factor of validate_cost's two fit points
# each sweep sets one WorkloadConfig field to each of its values;
# ``destinations`` runs on the road network, and ``updates`` reruns the base
# point after each of UPDATE_ROUNDS update rounds
SWEEPS = {
    "users": ("n_users", DESK_USER_SWEEP),
    "policies": ("policies_per_user", (10, 25, 50, 75, 100)),
    "theta": ("theta", THETA_SWEEP),
    "window": ("query_window", (100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0)),
    "k": ("k", (1, 3, 5, 7, 10)),
    "speed": ("max_speed", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)),
    "destinations": ("destinations", (25, 50, 100, 200, 500)),
    "updates": (None, (None,)),
}
UPDATE_ROUNDS = 8
ROUNDS_PER_INTERVAL = 4  # update rounds per maximum update interval
# the range and kNN methods of each index kind's query engine
QUERY_METHODS = {"peb": ("prq", "pknn"), "bx": ("range_query", "knn_query")}
KNN_TOLERANCE = 1e-9  # distance slack when comparing kNN answers
_NO_USERS = "n_users is 0: an instance needs at least one user to issue queries"


@dataclass
class Instance:
    """A fully built measurement point: data, indexes, engines."""

    cfg: WorkloadConfig
    objects: dict[int, MovingObject]
    world: object
    store: PolicyStore
    peb: MovingObjectIndex
    bx: MovingObjectIndex
    peb_engine: PebQueryEngine
    bx_engine: BaselineQueryEngine
    # where the update rounds stand: state, not settings
    now: float = field(default=0.0, init=False)
    update_cursor: int = field(default=0, init=False)


def build_indexes(
    objects: Sequence[MovingObject], store: PolicyStore, kinds: Sequence[str] = ("peb", "bx")
) -> dict[str, tuple[MovingObjectIndex, PebQueryEngine | BaselineQueryEngine]]:
    """Encode the policies and load each named index (``peb``, ``bx``) with its query engine."""
    time_cfg = TimePartitionConfig()
    grid = GridConfig(L=store.space_side)
    compat = CompatibilityIndex.from_store(store)
    sv_map = assign_sequence_values([o.uid for o in objects], compat)
    layout = KeyLayout.for_index(time_cfg, grid, max_sv=sv_map.max_value + 1.0)
    built = {}
    if "peb" in kinds:
        peb = MovingObjectIndex(time_cfg, grid, layout, sv_map=sv_map)
        for obj in objects:
            peb.insert(obj)
        built["peb"] = (peb, PebQueryEngine(peb, store, FriendLists(store, sv_map, layout)))
    if "bx" in kinds:
        bx = MovingObjectIndex(time_cfg, grid, layout)
        for obj in objects:
            bx.insert(obj)
        built["bx"] = (bx, BaselineQueryEngine(bx, store))
    return built


def build_instance(cfg: WorkloadConfig) -> Instance:
    """Generate data and policies, encode them, and load both indexes."""
    if cfg.n_users == 0:
        raise ValueError(_NO_USERS)
    objects, world = make_world(cfg)
    uids = [o.uid for o in objects]
    policies, graph = gen_policies(uids, cfg)
    store = PolicyStore(policies, graph, uids, space_side=cfg.space_side, day=cfg.day)
    built = build_indexes(objects, store)
    (peb, peb_engine), (bx, bx_engine) = built["peb"], built["bx"]
    return Instance(
        cfg=cfg,
        objects={o.uid: o for o in objects},
        world=world,
        store=store,
        peb=peb,
        bx=bx,
        peb_engine=peb_engine,
        bx_engine=bx_engine,
    )


def run_update_round(inst: Instance) -> None:
    """Advance time one :data:`ROUNDS_PER_INTERVAL`'th of the update
    interval and refresh the least recently updated share of the objects."""
    inst.now += inst.peb.time_cfg.delta_t_mu / ROUNDS_PER_INTERVAL
    inst.world.advance(inst.now)
    uids = sorted(inst.objects)
    # ceiling division: every object must re-report within ROUNDS_PER_INTERVAL
    # rounds, one interval, to honor the maximum update interval
    share = -(-len(uids) // ROUNDS_PER_INTERVAL)
    start = inst.update_cursor
    for i in range(start, min(start + share, len(uids))):
        obj = inst.world.report(uids[i])
        inst.peb.update(obj)
        inst.bx.update(obj)
        inst.objects[obj.uid] = obj
    inst.update_cursor = start + share
    if inst.update_cursor >= len(uids):
        inst.update_cursor = 0


def knn_results_match(got: PknnResult, want: PknnResult) -> bool:
    """No user twice, distance multisets equal within ``KNN_TOLERANCE``;
    membership may differ only at the k'th distance."""
    if got.short != want.short or len(got.neighbors) != len(want.neighbors):
        return False
    if len({u for u, _ in got.neighbors}) != len(got.neighbors):
        return False  # a user has one location
    got_d = [d for _, d in got.neighbors]
    want_d = [d for _, d in want.neighbors]
    if any(abs(a - b) > KNN_TOLERANCE for a, b in zip(got_d, want_d)):
        return False
    if not want.neighbors:
        return True
    core = want_d[-1] - KNN_TOLERANCE  # distances strictly inside the k'th
    got_core = {u for u, d in got.neighbors if d < core}
    want_core = {u for u, d in want.neighbors if d < core}
    return got_core == want_core


@dataclass
class BatchStats:
    mean_io: float
    p95_io: float
    mean_leaf_io: float
    oracle_rate: float
    wall_ms: float


def run_queries(
    index: MovingObjectIndex,
    engine: PebQueryEngine | BaselineQueryEngine,
    queries: Iterable[PrqRequest | PknnRequest],
) -> Iterator[tuple[PrqRequest | PknnRequest, set[int] | PknnResult, int, int, float]]:
    """Run queries through one engine from a cold buffer.

    Yields ``(query, answer, misses, leaf misses, engine seconds)`` per
    query; the seconds time the engine call alone, so work the caller does
    between queries is not counted.
    """
    run_range, run_knn = (getattr(engine, name) for name in QUERY_METHODS[index.kind])
    index.reset_io(cold=True)
    for q in queries:
        before = index.buffer.counters()
        t0 = time.perf_counter()
        got = run_range(q) if isinstance(q, PrqRequest) else run_knn(q)
        seconds = time.perf_counter() - t0
        after = index.buffer.counters()
        yield q, got, after.misses - before.misses, after.leaf_misses - before.leaf_misses, seconds


def run_query_batch(
    inst: Instance,
    engine_name: str,
    queries: Sequence[PrqRequest | PknnRequest],
    oracle_every: int = 1,
) -> BatchStats:
    """Run one cold-buffer batch of queries through one engine (``peb`` or ``bx``),
    checking every ``oracle_every``'th query (0: none) against the oracle."""
    if oracle_every < 0:
        raise ValueError(f"oracle_every {oracle_every} is negative")
    index, engine = {"peb": (inst.peb, inst.peb_engine), "bx": (inst.bx, inst.bx_engine)}[engine_name]
    ios: list[int] = []
    leaf_ios: list[int] = []
    checked = failures = 0
    objs = inst.objects.values()
    wall_s = 0.0  # engine calls only; the oracle cross-checks are not timed
    for i, (q, got, io, leaf_io, seconds) in enumerate(run_queries(index, engine, queries)):
        ios.append(io)
        leaf_ios.append(leaf_io)
        wall_s += seconds
        if oracle_every and i % oracle_every == 0:
            checked += 1
            if isinstance(q, PrqRequest):
                ok = got == oracle_range(objs, inst.store, q)
            else:
                ok = knn_results_match(got, oracle_knn(objs, inst.store, q))
            failures += 0 if ok else 1
    n = max(len(queries), 1)
    return BatchStats(
        mean_io=sum(ios) / n,
        p95_io=percentile(ios, 0.95),
        mean_leaf_io=sum(leaf_ios) / n,
        oracle_rate=(checked - failures) / checked if checked else 1.0,
        wall_ms=wall_s * 1000.0,
    )


def percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return float(ordered[pos])


def point_rows(inst: Instance, oracle_every: int = 1, round_no: int = 0) -> list[dict]:
    """The four CSV rows (two indexes x two query types) of one point."""
    cfg = inst.cfg
    horizon = inst.peb.time_cfg.delta_t_mu
    range_queries = gen_queries(cfg, "range", list(inst.objects.values()), now=inst.now, horizon=horizon)
    knn_queries = gen_queries(cfg, "knn", list(inst.objects.values()), now=inst.now, horizon=horizon)
    rows = []
    leaf_count = inst.peb.stats().leaf_count
    for engine_name in ("peb", "bx"):
        for query_type, queries in (("range", range_queries), ("knn", knn_queries)):
            stats = run_query_batch(inst, engine_name, queries, oracle_every)
            estimate = ""
            if engine_name == "peb" and query_type == "range" and cfg.policies_per_user:  # the model needs a policy
                estimate = cost_c1(cfg.policies_per_user, cfg.theta, leaf_count)
            rows.append(
                {
                    "N": cfg.n_users,
                    "N_p": cfg.policies_per_user,
                    "theta": cfg.theta,
                    "window": cfg.query_window,
                    "k": cfg.k,
                    "max_speed": cfg.max_speed,
                    "destinations": cfg.destinations if cfg.distribution == "network" else "uniform",
                    "index": engine_name,
                    "query_type": query_type,
                    "seed": cfg.seed,
                    "round": round_no,
                    "mean_io": stats.mean_io,
                    "p95_io": stats.p95_io,
                    "oracle_ok": stats.oracle_rate,
                    "cost_estimate": estimate,
                    "wall_ms": round(stats.wall_ms, 3),
                }
            )
    return rows


def sweep_configs(sweep: str, base: WorkloadConfig) -> list[WorkloadConfig]:
    """The measurement points of one of the :data:`SWEEPS`."""
    field_name, values = SWEEPS[sweep]
    if field_name is None:
        return [base]
    network = {"distribution": "network"} if sweep == "destinations" else {}
    return [replace(base, **network, **{field_name: value}) for value in values]


def run_experiment(
    base: WorkloadConfig, sweeps: Sequence[str], out_path: str | Path | None, oracle_every: int
) -> tuple[list[dict], bool]:
    """Run every sweep point, writing the rows to ``out_path`` if given, and
    checking every ``oracle_every``'th query (0: none) against the oracle;
    returns (rows, all oracle checks passed)."""
    rows: list[dict] = []
    all_ok = True
    for sweep in sweeps:
        rounds = range(1, UPDATE_ROUNDS + 1) if sweep == "updates" else (0,)
        for cfg in sweep_configs(sweep, base):
            try:
                inst = build_instance(cfg)
            except ValueError as exc:
                rows.append(_error_row(cfg, sweep, str(exc)))
                continue
            for round_no in rounds:
                if round_no:
                    run_update_round(inst)
                batch = point_rows(inst, oracle_every, round_no)
                rows.extend(batch)
                all_ok &= all(r["oracle_ok"] == 1.0 for r in batch)
    if out_path:
        write_csv(rows, out_path)
    return rows, all_ok


def _error_row(cfg: WorkloadConfig, sweep: str, message: str) -> dict:
    row = {c: "" for c in CSV_COLUMNS}
    row.update(
        N=cfg.n_users,
        N_p=cfg.policies_per_user,
        theta=cfg.theta,
        seed=cfg.seed,
        index="error",
        query_type=sweep,
        oracle_ok=message,
    )
    return row


def write_csv(rows: Iterable[dict], path: str | Path, columns: Sequence[str] = CSV_COLUMNS) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# -- preprocessing timing ---------------------------------------------------------


def measure_preprocessing(
    base: WorkloadConfig,
    ns: Sequence[int] = DESK_USER_SWEEP,
    repetitions: int = 2,
) -> list[dict]:
    """Process CPU seconds of policy comparison plus sequence value assignment.

    CPU time rather than wall time, so a host whose speed swings under
    other load moves the figures less.  As :mod:`timeit` does, each
    repetition runs with the cyclic garbage collector off, after a full
    collection, so the figures leave out collector pauses, whose length
    follows the objects the rest of the process holds.  The store is built
    before the timed region, and with it the owners whose policies may
    weigh nothing (:attr:`PolicyStore.weightless_owners`): the pass over
    the policy columns that finds them is not timed.
    """
    rows = []
    for n in ns:
        cfg = replace(base, n_users=n)
        uids = list(range(n))
        policies, graph = gen_policies(uids, cfg)
        store = PolicyStore(policies, graph, uids, space_side=cfg.space_side, day=cfg.day)
        seconds = []
        for _ in range(max(repetitions, 1)):
            gc.collect()
            enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = time.process_time()
                assign_sequence_values(uids, CompatibilityIndex.from_store(store))
                seconds.append(time.process_time() - t0)
            finally:
                if enabled:
                    gc.enable()
        rows.append({"N": n, "seconds": min(seconds), "seed": cfg.seed})
    return rows


# -- cost model validation -----------------------------------------------------------


@dataclass
class CostReport:
    a1: float
    a2: float
    rows: list[dict] = field(default_factory=list, init=False)


def measure_prq_leaf_io(inst: Instance) -> float:
    """Mean charged leaf-page I/O per range query on the policy index.

    This is the measured counterpart of the cost function, which models
    leaf accesses; internal-node and buffer effects are absorbed by the
    fitted parameters.
    """
    horizon = inst.peb.time_cfg.delta_t_mu
    queries = gen_queries(inst.cfg, "range", list(inst.objects.values()), now=inst.now, horizon=horizon)
    stats = run_query_batch(inst, "peb", queries, oracle_every=0)
    return stats.mean_leaf_io


def validate_cost(
    base: WorkloadConfig,
    fit_ns: tuple[int, int] = (5_000, 20_000),
    thetas: Sequence[float] = THETA_SWEEP,
    n_ps: Sequence[int] = (10, 50, 100),
) -> CostReport:
    """Fit (a1, a2) from two sample points and compare the estimate with
    measured range-query I/O across the theta and policy-count sweeps."""
    if base.n_users == 0:  # every sweep point keeps the base's users, so none could be built
        raise ValueError(_NO_USERS)
    samples = []
    for n in fit_ns:
        inst = build_instance(replace(base, n_users=n, theta=FIT_THETA))
        measured = measure_prq_leaf_io(inst)
        samples.append(
            (n, base.space_side, base.policies_per_user, FIT_THETA, inst.peb.stats().leaf_count, measured)
        )
    a1, a2 = fit_cost_params(samples[0], samples[1])
    report = CostReport(a1, a2)

    def add_row(param: str, value, cfg: WorkloadConfig) -> None:
        try:
            inst = build_instance(cfg)
        except ValueError as exc:
            # infeasible sweep point: report it and keep going
            report.rows.append(
                {"param": param, "value": value, "measured": "", "estimated": "", "ratio": str(exc)}
            )
            return
        measured = measure_prq_leaf_io(inst)
        estimated = cost_c(
            CostParams(
                a1,
                a2,
                inst.cfg.n_users,
                inst.cfg.policies_per_user,
                inst.cfg.theta,
                inst.cfg.space_side,
                inst.peb.stats().leaf_count,
            )
        )
        ratio = estimated / measured if measured > 0 else float("inf")
        report.rows.append(
            {"param": param, "value": value, "measured": measured, "estimated": estimated, "ratio": ratio}
        )

    for theta in thetas:
        add_row("theta", theta, replace(base, theta=theta))
    for n_p in n_ps:
        add_row("n_p", n_p, replace(base, policies_per_user=n_p))
    return report


# -- key=value config files ----------------------------------------------------------

def _config_parsers() -> dict[str, type]:
    """The fields a config file holds, the scalar ``WorkloadConfig`` fields, with their parsers."""
    types = {"int": int, "float": float, "str": str}
    return {f.name: types[f.type] for f in fields(WorkloadConfig) if f.type in types}


def load_config(path: str | Path) -> WorkloadConfig:
    """Read a workload config from ``key=value`` lines (# comments allowed).

    A fault raises ``ValueError`` naming the file, and the line number when
    one line is at fault.
    """
    parsers = _config_parsers()
    overrides = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise ValueError(f"bad config line {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in parsers:
                raise ValueError(f"unknown config key {key!r}")
            overrides[key] = parsers[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
    try:
        return WorkloadConfig(**overrides)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_config(cfg: WorkloadConfig, path: str | Path) -> None:
    """Write every field :func:`load_config` reads, one ``key=value`` line each."""
    Path(path).write_text("".join(f"{name}={getattr(cfg, name)}\n" for name in _config_parsers()))
