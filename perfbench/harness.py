"""One benchmark run: generate inputs, set up, run rounds, check, report.

The run builds both indexes through the public API the same way
``pebtree.bench.build_instance`` does.  Each round advances the world by a
quarter of the maximum update interval, applies the reports of the least
recently updated quarter of the objects to both indexes, checks both
indexes against the current reports, and runs one cold-buffer batch per
(engine, query kind).  Only the engine call of each query and the
``MovingObjectIndex.update`` calls are timed; world simulation, query
generation and every check run outside the timed regions.
"""

from __future__ import annotations

import gc
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field

from pebtree import keys, policy, query, store
from pebtree import workload as wl
from pebtree.motion import TimePartitionConfig
from pebtree.zcurve import GridConfig

from checker import ReferenceChecker, knn_ok, range_ok
from speed import Clock, Region
from tracing import Tracer
from workloads import ROUNDS_PER_CYCLE, Workload

SETUP_REPEATS = 3
# generation is timed again, up to GEN_REPEATS times, while the runs so far
# took under GEN_REPEAT_S seconds: one short measurement is mostly noise
GEN_REPEATS = 5
GEN_REPEAT_S = 1.0
BATCHES = ("peb_range", "bx_range", "peb_knn", "bx_knn")


def no_span(name: str):
    return nullcontext()


@dataclass
class Inputs:
    cfg: wl.WorkloadConfig
    objects: list
    world: object
    uids: list[int]
    policies: list
    graph: policy.RelationshipGraph
    gen: Region


@dataclass
class System:
    compat: policy.CompatibilityIndex
    sv_map: keys.SequenceValueMap
    layout: keys.KeyLayout
    peb: store.MovingObjectIndex
    bx: store.MovingObjectIndex
    peb_engine: query.PebQueryEngine
    bx_engine: query.BaselineQueryEngine


@dataclass
class Samples:
    latency: dict[str, list[Region]] = field(default_factory=lambda: {b: [] for b in BATCHES})
    misses: dict[str, list[int]] = field(default_factory=lambda: {b: [] for b in BATCHES})
    reads: int = 0
    leaf_reads: int = 0
    leaf_misses: int = 0
    results: int = 0
    nonempty_ranges: int = 0
    short_knn: int = 0
    reports: int = 0
    updates: list[Region] = field(default_factory=list)
    update_misses: int = 0
    gen_queries: list[Region] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    def timed(self) -> list[Region]:
        return self.updates + [r for v in self.latency.values() for r in v]


def generate(cfg: wl.WorkloadConfig, clock: Clock, span=no_span) -> Inputs:
    start = clock.begin()
    with span("workload.make_world"):
        objects, world = wl.make_world(cfg)
    uids = [o.uid for o in objects]
    with span("workload.gen_policies"):
        policies, graph = wl.gen_policies(uids, cfg)
    return Inputs(cfg, objects, world, uids, policies, graph, clock.end(start))


def setup(inputs: Inputs, span=no_span, traversal=query.antidiagonal_order) -> System:
    """Generated inputs to ready engines, as ``pebtree.bench.build_instance``."""
    cfg = inputs.cfg
    time_cfg = TimePartitionConfig()
    grid = GridConfig(L=cfg.space_side)
    with span("policy.store"):
        pstore = policy.PolicyStore(inputs.policies, inputs.graph, inputs.uids, space_side=cfg.space_side, day=cfg.day)
    with span("policy.compat"):
        compat = policy.CompatibilityIndex.from_store(pstore)
    with span("keys.assign_sv"):
        sv_map = keys.assign_sequence_values(inputs.uids, compat)
    layout = keys.KeyLayout.for_index(time_cfg, grid, max_sv=sv_map.max_value + 1.0)
    peb = store.MovingObjectIndex(time_cfg, grid, layout, sv_map=sv_map)
    bx = store.MovingObjectIndex(time_cfg, grid, layout)
    with span("store.peb_insert"):
        for obj in inputs.objects:
            peb.insert(obj)
    with span("store.bx_insert"):
        for obj in inputs.objects:
            bx.insert(obj)
    friends = query.FriendLists(pstore, sv_map, layout)
    return System(
        compat,
        sv_map,
        layout,
        peb,
        bx,
        query.PebQueryEngine(peb, pstore, friends, traversal=traversal),
        query.BaselineQueryEngine(bx, pstore),
    )


def index_faults(index: store.MovingObjectIndex, current: dict) -> set[int]:
    """Uids whose entry is missing, duplicated or not the last report.

    Every uid counts as faulty when the tree fails its audit or its entry
    count.  Pages are read directly, so the buffer and its counters are
    left alone.
    """
    try:
        index.tree.audit()
    except AssertionError:
        return set(current)
    if index.entry_count != len(current):
        return set(current)
    bad: set[int] = set()
    seen: set[int] = set()
    for node in index.tree.pages.values():
        if not node.leaf:
            continue
        for e in node.entries:
            obj = current.get(e.uid)
            if obj is None or e.uid in seen or (e.x, e.y, e.vx, e.vy, e.t) != (obj.x, obj.y, obj.vx, obj.vy, obj.t_u):
                bad.add(e.uid)
            seen.add(e.uid)
    bad.update(uid for uid in current if uid not in seen or not index.contains(uid))
    return bad


def run_rounds(
    inputs: Inputs,
    system: System,
    rounds: int,
    per_batch: int,
    clock: Clock,
    span=no_span,
    tracer: Tracer | None = None,
) -> Samples:
    cfg = inputs.cfg
    peb, bx = system.peb, system.bx
    horizon = peb.time_cfg.delta_t_mu
    step = horizon / ROUNDS_PER_CYCLE
    checker = ReferenceChecker(inputs.policies, inputs.graph.records(), cfg.day)
    current = {o.uid: o for o in inputs.objects}
    uids = sorted(current)
    quarter = -(-len(uids) // ROUNDS_PER_CYCLE)
    s = Samples()
    if index_faults(peb, current) or index_faults(bx, current):
        raise RuntimeError("indexes disagree with the generated objects after set-up")
    now = 0.0
    qid = 0
    for r in range(rounds):
        now += step
        inputs.world.advance(now)
        part = r % ROUNDS_PER_CYCLE
        batch = uids[part * quarter : (part + 1) * quarter]
        peb.reset_io(cold=True)
        bx.reset_io(cold=True)
        reports = [inputs.world.report(uid) for uid in batch]
        raised: set[int] = set()
        start = clock.begin()
        for obj in reports:
            try:
                peb.update(obj)
                bx.update(obj)
            except (KeyError, ValueError):
                raised.add(obj.uid)
        s.updates.append(clock.end(start))
        current.update((obj.uid, obj) for obj in reports)
        s.update_misses += peb.buffer.misses + bx.buffer.misses
        s.reports += len(batch)
        s.attempted += len(batch)
        faults = index_faults(peb, current) | index_faults(bx, current)
        s.failed += len(batch) if faults - set(batch) else len(raised | faults)

        objs = list(current.values())
        start = clock.begin()
        with span("workload.gen_queries"):
            range_qs = wl.gen_queries(cfg, "range", objs, now=now, horizon=horizon, count=per_batch)
            knn_qs = wl.gen_queries(cfg, "knn", objs, now=now, horizon=horizon, count=per_batch)
        s.gen_queries.append(clock.end(start))

        answers: dict[str, list] = {}
        for name, index, call, qs in (
            ("peb_range", peb, system.peb_engine.prq, range_qs),
            ("bx_range", bx, system.bx_engine.range_query, range_qs),
            ("peb_knn", peb, system.peb_engine.pknn, knn_qs),
            ("bx_knn", bx, system.bx_engine.knn_query, knn_qs),
        ):
            index.reset_io(cold=True)
            buf = index.buffer
            got = answers[name] = []
            lat, misses = s.latency[name], s.misses[name]
            for q in qs:
                qid += 1
                if tracer is not None:
                    tracer.qid = qid
                m0, lm0 = buf.misses, buf.leaf_misses
                start = clock.begin()
                res = call(q)
                lat.append(clock.end(start))
                misses.append(buf.misses - m0)
                s.leaf_misses += buf.leaf_misses - lm0
                got.append(res)
            if tracer is not None:
                tracer.qid = -1
            s.reads += buf.reads
            s.leaf_reads += buf.leaf_reads

        for i, q in enumerate(range_qs):
            want = checker.range_answer(current, q)
            s.nonempty_ranges += bool(want)
            for name in ("peb_range", "bx_range"):
                got = answers[name][i]
                s.results += len(got)
                s.attempted += 1
                if not range_ok(got, want):
                    s.failed += 1
                    s.wrong += 1
        for i, q in enumerate(knn_qs):
            visible = checker.visible_distances(current, q)
            for name in ("peb_knn", "bx_knn"):
                got = answers[name][i]
                s.results += len(got.neighbors)
                s.short_knn += got.short and name == "peb_knn"
                s.attempted += 1
                if not knn_ok(got.neighbors, got.short, q.k, visible):
                    s.failed += 1
                    s.wrong += 1
    return s


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[-1]


def mean(values: list) -> float:
    return sum(values) / len(values)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def raw_s(regions: list[Region]) -> float:
    return sum(raw for _, _, raw in regions)


def time_metrics(
    setup_s: float, gen_s: float, ms: dict[str, list[float]], update_s: float, reports: int
) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        "gen_s": (gen_s, "s"),
        "peb_range_ms_p50": (statistics.median(ms["peb_range"]), "ms"),
        "peb_range_ms_p95": (p95(ms["peb_range"]), "ms"),
        "peb_knn_ms_p50": (statistics.median(ms["peb_knn"]), "ms"),
        "peb_knn_ms_p95": (p95(ms["peb_knn"]), "ms"),
        "bx_range_ms_p50": (statistics.median(ms["bx_range"]), "ms"),
        "bx_knn_ms_p50": (statistics.median(ms["bx_knn"]), "ms"),
        "update_per_s": (reports / update_s, "reports/s"),
    }


def end_to_end(
    clock: Clock, gens: list[Region], setups: list[Region], system: System, s: Samples
) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """The end-to-end metrics, with times at the reference speed, and the same times raw."""
    scaled = clock.scaled
    raw = time_metrics(
        statistics.median(r[2] for r in setups),
        statistics.median(r[2] for r in gens) + raw_s(s.gen_queries),
        {b: [1000.0 * r[2] for r in s.latency[b]] for b in BATCHES},
        raw_s(s.updates),
        s.reports,
    )
    metrics = {
        **time_metrics(
            statistics.median(scaled(r) for r in setups),
            statistics.median(scaled(r) for r in gens) + sum(scaled(r) for r in s.gen_queries),
            {b: [1000.0 * scaled(r) for r in s.latency[b]] for b in BATCHES},
            sum(scaled(r) for r in s.updates),
            s.reports,
        ),
        "peb_range_io": (mean(s.misses["peb_range"]), "pages/query"),
        "peb_knn_io": (mean(s.misses["peb_knn"]), "pages/query"),
        "bx_range_io": (mean(s.misses["bx_range"]), "pages/query"),
        "bx_knn_io": (mean(s.misses["bx_knn"]), "pages/query"),
        "update_io": (s.update_misses / s.reports, "pages/report"),
        "peb_pages": (system.peb.stats().page_count, "pages"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {name: value for name, (value, _) in raw.items()}


def install_tracing(tracer: Tracer) -> None:
    """Wrap the program's functions where the engines and the harness look them up."""
    tracer.wrap(query, "z_decompose", "zcurve.decompose", count=len)
    tracer.wrap(query, "z_corner_interval", "zcurve.corner_interval", span=False)
    tracer.wrap(query.FriendLists, "rows", "query.friend_rows", count=len)
    tracer.wrap(query.PebQueryEngine, "prq", "query.prq")
    tracer.wrap(query.PebQueryEngine, "pknn", "query.pknn")
    tracer.wrap(query.BaselineQueryEngine, "range_query", "query.bx_range")
    tracer.wrap(query.BaselineQueryEngine, "knn_query", "query.bx_knn")
    tracer.wrap(store.BPlusTree, "descend", "store.descend")
    tracer.wrap(store.BPlusTree, "touch_page", "store.touch_page", span=False)
    tracer.wrap(store.BPlusTree, "scan_intervals", "store.scan_intervals")
    tracer.wrap(store.MovingObjectIndex, "update", "store.update")


def per_layer(tracer: Tracer, inputs: Inputs, system: System, s: Samples, overhead_pct: float) -> dict[str, tuple[float, str]]:
    total, self_s = tracer.totals()
    c = tracer.counts
    n_each = len(s.latency["peb_range"])  # queries per engine and kind
    n_all, n_peb = 4 * n_each, 2 * n_each
    stats = system.peb.stats()
    sv_rows = len({system.layout.quantize_sv(v) for v in system.sv_map.values.values()})
    pairs = sum(len(system.compat.related(u)) for u in inputs.uids) // 2
    misses = sum(sum(v) for v in s.misses.values())
    return {
        "workload.make_world_s": (total["workload.make_world"], "s"),
        "workload.gen_policies_s": (total["workload.gen_policies"], "s"),
        "workload.gen_queries_s": (total["workload.gen_queries"], "s"),
        "policy.store_s": (total["policy.store"], "s"),
        "policy.compat_s": (total["policy.compat"], "s"),
        "policy.compat_pairs": (pairs, "count"),
        "keys.assign_sv_s": (total["keys.assign_sv"], "s"),
        "keys.sv_rows": (sv_rows, "count"),
        "store.peb_insert_s": (total["store.peb_insert"], "s"),
        "store.bx_insert_s": (total["store.bx_insert"], "s"),
        "query.friend_rows_per_query": (ratio(c["query.friend_rows.items"], c["query.friend_rows.calls"]), "rows/query"),
        "query.friend_rows_s": (total["query.friend_rows"], "s"),
        "zcurve.decompose_s": (total["zcurve.decompose"], "s"),
        "zcurve.decompose_calls_per_query": (ratio(c["zcurve.decompose.calls"], n_all), "calls/query"),
        "zcurve.intervals_per_window": (ratio(c["zcurve.decompose.items"], c["zcurve.decompose.calls"]), "intervals/call"),
        "zcurve.corner_interval_calls_per_query": (ratio(c["zcurve.corner_interval.calls"], n_each), "calls/query"),
        "store.descend_calls_per_query": (ratio(c["store.descend.calls"], n_peb), "calls/query"),
        "store.touch_page_calls_per_query": (ratio(c["store.touch_page.calls"], n_peb), "calls/query"),
        "store.descend_s": (total["store.descend"], "s"),
        "store.scan_intervals_s": (total["store.scan_intervals"], "s"),
        "store.page_reads_per_query": (ratio(s.reads, n_all), "pages/query"),
        "store.leaf_misses_per_query": (ratio(s.leaf_misses, n_all), "pages/query"),
        "store.buffer_hit_ratio": (1.0 - ratio(misses, s.reads), "ratio"),
        "store.update_s": (total["store.update"], "s"),
        "store.update_misses": (s.update_misses, "pages"),
        "store.leaf_count": (stats.leaf_count, "pages"),
        "store.height": (stats.height, "levels"),
        "query.knn_cells_per_query": (ratio(c["query.knn_cells"], n_each), "cells/query"),
        "query.knn_short_share": (ratio(s.short_knn, n_each), "ratio"),
        "query.range_nonempty_share": (ratio(s.nonempty_ranges, n_each), "ratio"),
        "query.prq_self_s": (self_s["query.prq"], "s"),
        "query.pknn_self_s": (self_s["query.pknn"], "s"),
        "query.bx_range_self_s": (self_s["query.bx_range"], "s"),
        "query.bx_knn_self_s": (self_s["query.bx_knn"], "s"),
        "query.results_per_query": (ratio(s.results, n_all), "results/query"),
        "query.results_per_leaf_read": (ratio(s.results, s.leaf_reads), "results/page"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    raw_times: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> RunResult:
    """One run; with ``trace`` the metrics are the per-layer ones."""
    cfg = workload.with_seed(seed)
    rounds = workload.cycles(seconds) * ROUNDS_PER_CYCLE
    clock = Clock()
    clock.start()
    try:
        inputs = generate(cfg, clock)
        gens = [inputs.gen]
        while len(gens) < GEN_REPEATS and raw_s(gens) < GEN_REPEAT_S:
            inputs = None  # free each copy before the next, so memory holds one
            inputs = generate(cfg, clock)
            gens.append(inputs.gen)
        setups: list[Region] = []
        system = None
        for _ in range(1 if trace else SETUP_REPEATS):
            system = None
            gc.collect()
            start = clock.begin()
            system = setup(inputs)
            setups.append(clock.end(start))
        s = run_rounds(inputs, system, rounds, workload.queries_per_batch, clock)
        if trace:
            untraced = [inputs.gen, setups[0], *s.gen_queries, *s.timed()]
            inputs = system = None
            gc.collect()
            tracer = Tracer()
            install_tracing(tracer)
            try:
                t_inputs = generate(cfg, clock, tracer.span)
                start = clock.begin()
                traversal = tracer.counting_generator("query.knn_cells", query.antidiagonal_order)
                t_system = setup(t_inputs, tracer.span, traversal)
                t_setup = clock.end(start)
                t = run_rounds(t_inputs, t_system, rounds, workload.queries_per_batch, clock, tracer.span, tracer)
            finally:
                tracer.uninstall()
    finally:
        clock.stop()
    if not trace:
        metrics, raw = end_to_end(clock, gens, setups, system, s)
        return RunResult(s.wrong == 0, s.attempted, s.failed, metrics, raw)
    traced = [t_inputs.gen, t_setup, *t.gen_queries, *t.timed()]
    overhead_pct = 100.0 * (sum(map(clock.scaled, traced)) / sum(map(clock.scaled, untraced)) - 1.0)
    return RunResult(
        s.wrong == 0 and t.wrong == 0,
        s.attempted + t.attempted,
        s.failed + t.failed,
        per_layer(tracer, t_inputs, t_system, t, overhead_pct),
        tracer=tracer,
    )
