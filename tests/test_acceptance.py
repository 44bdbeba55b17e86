"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines as
they appear; the trend criteria build multi-thousand-user instances and
take a few minutes altogether.  Each test prints its measurements before
asserting, so a failing criterion leaves its evidence in the output.
"""

import random
import statistics
import time
from dataclasses import replace

import pytest

from pebtree.bench import (
    build_instance,
    knn_results_match,
    measure_preprocessing,
    run_query_batch,
    run_update_round,
)
from pebtree.costmodel import CostParams, cost_c, fit_cost_params
from pebtree.keys import KeyLayout, assign_sequence_values
from pebtree.query import PknnRequest, oracle_knn, oracle_range
from pebtree.store import BPlusTree
from pebtree.workload import WorkloadConfig, gen_queries
from pebtree.zcurve import GridConfig, z_decompose, z_encode
from test_keys import ValuesCompatibility


def report(criterion: int, passed: bool, detail: str) -> bool:
    print(f"\n[criterion {criterion:02d}] {'PASS' if passed else 'FAIL'} {detail}", flush=True)
    return passed


# -- shared instances -------------------------------------------------------------

EQUIV_THETAS = (0.0, 0.5, 1.0)


@pytest.fixture(scope="session")
def equivalence_instances():
    """Twenty random 1,000-user instances cycling theta over {0, 0.5, 1}."""
    t0 = time.perf_counter()
    instances = []
    for i in range(20):
        cfg = WorkloadConfig(
            n_users=1_000,
            policies_per_user=50,
            theta=EQUIV_THETAS[i % 3],
            group_size=100,
            seed=100 + i,
        )
        instances.append(build_instance(cfg))
    return instances, time.perf_counter() - t0


@pytest.fixture(scope="session")
def n_sweep_results():
    """Default-config measurements over the desk-scale user sweep."""
    out = {}
    for n in (2_000, 5_000, 10_000, 20_000):
        cfg = WorkloadConfig(n_users=n, seed=11)
        inst = build_instance(cfg)
        point = {"leaf_count": inst.peb.stats().leaf_count}
        for kind in ("range", "knn"):
            queries = gen_queries(cfg, kind, list(inst.objects.values()), horizon=120.0)
            for engine in ("peb", "bx"):
                stats = run_query_batch(inst, engine, queries, oracle_every=5)
                assert stats.oracle_rate == 1.0, f"oracle mismatch at N={n} {engine}/{kind}"
                point[f"{engine}_{kind}"] = stats.mean_io
                if engine == "peb" and kind == "range":
                    point["peb_range_leaf"] = stats.mean_leaf_io
        out[n] = point
        del inst
    return out


@pytest.fixture(scope="session")
def theta_sweep_results():
    """Default 10K-user point measured across the grouping factor grid."""
    out = {}
    for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
        cfg = WorkloadConfig(n_users=10_000, theta=theta, seed=11)
        inst = build_instance(cfg)
        queries = gen_queries(cfg, "range", list(inst.objects.values()), horizon=120.0)
        peb = run_query_batch(inst, "peb", queries, oracle_every=10)
        bx = run_query_batch(inst, "bx", queries, oracle_every=10)
        assert peb.oracle_rate == 1.0 and bx.oracle_rate == 1.0
        out[theta] = {
            "peb_range": peb.mean_io,
            "peb_range_leaf": peb.mean_leaf_io,
            "bx_range": bx.mean_io,
            "leaf_count": inst.peb.stats().leaf_count,
        }
        del inst
    return out


# -- criteria -------------------------------------------------------------------


def test_c01_golden_sequence_assignment():
    t0 = time.perf_counter()
    values = {(2, 1): 0.4, (4, 1): 0.9, (4, 3): 0.8, (5, 3): 0.2, (6, 3): 0.6}
    index = ValuesCompatibility(values)
    svm = assign_sequence_values([1, 2, 3, 4, 5, 6], index)
    got = {u: svm[u] for u in (3, 4, 5, 6, 1, 2)}
    expected = {3: 2.0, 4: 2.2, 5: 2.8, 6: 2.4, 1: 4.0, 2: 4.6}
    elapsed = time.perf_counter() - t0
    ok = got == expected and elapsed < 1.0
    assert report(1, ok, f"six-user assignment {got} in {elapsed:.3f}s")
    assert got == expected
    assert elapsed < 1.0


def test_c02_golden_z_decomposition():
    t0 = time.perf_counter()
    cfg = GridConfig(L=8.0, levels=3)
    # the paper's rectangle, x 2..3 and y 2..5 with y on the even bits, transposed
    intervals = z_decompose((2, 2, 5, 3), cfg)
    shown = [(lo + 1, hi + 1) for lo, hi in intervals]  # 1-based curve positions
    elapsed = time.perf_counter() - t0
    ok = shown == [(13, 16), (25, 28)] and elapsed < 1.0
    assert report(2, ok, f"8x8 example -> {shown} in {elapsed:.3f}s")
    assert shown == [(13, 16), (25, 28)]
    assert elapsed < 1.0


def test_c03_oracle_equivalence_range(equivalence_instances):
    instances, build_seconds = equivalence_instances
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for inst in instances:
        queries = gen_queries(inst.cfg, "range", list(inst.objects.values()), count=100)
        objs = inst.objects.values()
        for req in queries:
            expected = oracle_range(objs, inst.store, req)
            checked += 1
            if inst.peb_engine.prq(req) != expected or inst.bx_engine.range_query(req) != expected:
                mismatches += 1
    elapsed = time.perf_counter() - t0 + build_seconds
    ok = mismatches == 0 and elapsed < 60.0
    assert report(
        3, ok, f"{checked} range queries across 20 instances, {mismatches} mismatches, {elapsed:.1f}s"
    )
    assert mismatches == 0
    assert elapsed < 60.0


def test_c04_oracle_equivalence_knn(equivalence_instances):
    instances, _ = equivalence_instances
    t0 = time.perf_counter()
    mismatches = 0
    kth_errors = []
    checked = 0
    for inst in instances:
        objs = inst.objects.values()
        for k in (1, 5, 10):
            base = gen_queries(inst.cfg, "knn", list(inst.objects.values()), count=100)
            for q in base:
                req = PknnRequest(q.qid, q.qloc, k, q.t_q)
                want = oracle_knn(objs, inst.store, req)
                checked += 1
                for got in (inst.peb_engine.pknn(req), inst.bx_engine.knn_query(req)):
                    if not knn_results_match(got, want):
                        mismatches += 1
                    if want.neighbors and got.neighbors:
                        kth_errors.append(abs(got.neighbors[-1][1] - want.neighbors[-1][1]))
    elapsed = time.perf_counter() - t0
    worst = max(kth_errors, default=0.0)
    ok = mismatches == 0 and worst <= 1e-9 and elapsed < 120.0
    assert report(
        4,
        ok,
        f"{checked} kNN queries (k in 1/5/10), {mismatches} mismatches, worst kth-distance error {worst:.2e}, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert worst <= 1e-9
    assert elapsed < 120.0


def test_c05_user_sweep_trend(n_sweep_results):
    ns = sorted(n_sweep_results)
    lines = []
    strict_ok = True
    for n in ns:
        p = n_sweep_results[n]
        lines.append(
            f"N={n}: range {p['peb_range']:.2f}/{p['bx_range']:.2f} knn {p['peb_knn']:.2f}/{p['bx_knn']:.2f}"
        )
        strict_ok &= p["peb_range"] < p["bx_range"] and p["peb_knn"] < p["bx_knn"]
    ratio_ok = True
    for kind in ("range", "knn"):
        ratios = [n_sweep_results[n][f"peb_{kind}"] / n_sweep_results[n][f"bx_{kind}"] for n in ns]
        ratio_ok &= all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))
        lines.append(f"{kind} ratios: " + ", ".join(f"{r:.3f}" for r in ratios))
    ok = strict_ok and ratio_ok
    report(5, ok, "user sweep (policy-index I/O / baseline I/O)\n  " + "\n  ".join(lines))
    assert strict_ok, "policy index must beat the baseline at every sweep point"
    assert ratio_ok, "the I/O ratio must be non-increasing in the user count"


def test_c06_grouping_factor_trend(theta_sweep_results):
    res = theta_sweep_results
    peb_low = res[1.0]["peb_range"]
    peb_high = res[0.0]["peb_range"]
    bx_values = [res[t]["bx_range"] for t in sorted(res)]
    spread = (max(bx_values) - min(bx_values)) / max(bx_values)
    ok = peb_low < peb_high and spread < 0.10
    report(
        6,
        ok,
        f"policy index range I/O theta=1 {peb_low:.2f} vs theta=0 {peb_high:.2f}; baseline spread {spread:.1%}",
    )
    assert peb_low < peb_high
    assert spread < 0.10


def test_c07_window_trend():
    cfg = WorkloadConfig(n_users=10_000, seed=11)
    inst = build_instance(cfg)
    windows = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0]
    peb_means = []
    bx_means = []
    for w in windows:
        wcfg = replace(cfg, query_window=w)
        queries = gen_queries(wcfg, "range", list(inst.objects.values()), horizon=120.0)
        peb_means.append(run_query_batch(inst, "peb", queries, oracle_every=0).mean_io)
        bx_means.append(run_query_batch(inst, "bx", queries, oracle_every=0).mean_io)
    cv = statistics.pstdev(peb_means) / statistics.fmean(peb_means)
    increasing = all(a < b for a, b in zip(bx_means, bx_means[1:]))
    ok = cv < 0.25 and increasing
    report(
        7,
        ok,
        f"policy index CV {cv:.3f}; baseline {['%.1f' % m for m in bx_means]} strictly increasing: {increasing}",
    )
    assert cv < 0.25
    assert increasing


def test_c08_cost_model_validation(n_sweep_results, theta_sweep_results):
    # fit from the smallest point whose tree exceeds the buffer (at 2K the
    # whole tree is buffered, which poisons the fit) and the largest point
    fit_points = []
    for n in (5_000, 20_000):
        p = n_sweep_results[n]
        fit_points.append((n, 1000.0, 50, 0.7, p["leaf_count"], p["peb_range_leaf"]))
    a1, a2 = fit_cost_params(fit_points[0], fit_points[1])
    lines = [f"fit a1={a1:.4g} a2={a2:.4g}"]
    ratios_ok = True
    estimates = []
    for theta in sorted(theta_sweep_results):
        p = theta_sweep_results[theta]
        est = cost_c(CostParams(a1, a2, 10_000, 50, theta, 1000.0, p["leaf_count"]))
        measured = p["peb_range_leaf"]
        factor = max(est / measured, measured / est) if measured > 0 else float("inf")
        ratios_ok &= factor <= 2.0
        estimates.append(est)
        lines.append(f"theta={theta}: est {est:.2f} vs measured {measured:.2f} (factor {factor:.2f})")
    monotone = all(b <= a + 1e-9 for a, b in zip(estimates, estimates[1:]))
    for n_p in (10, 50, 100):
        if n_p == 50:
            p = n_sweep_results[10_000]
            leaf_count, measured = p["leaf_count"], p["peb_range_leaf"]
        else:
            cfg = WorkloadConfig(n_users=10_000, policies_per_user=n_p, seed=11)
            inst = build_instance(cfg)
            queries = gen_queries(cfg, "range", list(inst.objects.values()), horizon=120.0)
            stats = run_query_batch(inst, "peb", queries, oracle_every=0)
            leaf_count, measured = inst.peb.stats().leaf_count, stats.mean_leaf_io
            del inst
        est = cost_c(CostParams(a1, a2, 10_000, n_p, 0.7, 1000.0, leaf_count))
        factor = max(est / measured, measured / est) if measured > 0 else float("inf")
        ratios_ok &= factor <= 2.0
        lines.append(f"n_p={n_p}: est {est:.2f} vs measured {measured:.2f} (factor {factor:.2f})")
    ok = ratios_ok and monotone
    report(8, ok, "cost model\n  " + "\n  ".join(lines))
    assert ratios_ok, "estimate within a factor of 2 at every sweep point"
    assert monotone, "estimate non-increasing in theta"


def test_c09_update_churn_stability():
    cfg = WorkloadConfig(n_users=10_000, seed=11)
    inst = build_instance(cfg)
    series: dict[str, list[float]] = {}
    for _ in range(8):
        run_update_round(inst)
        objs = list(inst.objects.values())
        for kind in ("range", "knn"):
            queries = gen_queries(cfg, kind, objs, now=inst.now, horizon=120.0)
            for engine in ("peb", "bx"):
                stats = run_query_batch(inst, engine, queries, oracle_every=20)
                assert stats.oracle_rate == 1.0
                series.setdefault(f"{engine}_{kind}", []).append(stats.mean_io)
    lines = []
    ok = True
    for name, values in series.items():
        base = values[0]
        worst = max(abs(v - base) / base for v in values)
        ok &= worst <= 0.20
        lines.append(f"{name}: round means {['%.1f' % v for v in values]} (max deviation {worst:.1%})")
    report(9, ok, "eight 25% update rounds\n  " + "\n  ".join(lines))
    assert ok, "per-round mean I/O must stay within 20% of the round-1 value"


def test_c10_preprocessing_linearity():
    rows = measure_preprocessing(WorkloadConfig(seed=11), ns=(2_000, 5_000, 10_000, 20_000), repetitions=5)
    xs = [float(r["N"]) for r in rows]
    ys = [r["seconds"] for r in rows]
    r2 = statistics.correlation(xs, ys) ** 2
    ok = r2 > 0.95
    report(10, ok, f"encoding seconds {['%.3f' % y for y in ys]} over N {xs}; linear fit R^2 {r2:.4f}")
    assert r2 > 0.95


def test_c11_property_suites(equivalence_instances):
    # B+-tree shadow-set audit over 1e5 random operations
    rng = random.Random(2024)
    tree = BPlusTree(page_size=512)
    members: list[tuple[int, int]] = []
    member_set: set[tuple[int, int]] = set()
    for step in range(100_000):
        if rng.random() < 0.55 or not members:
            key = rng.randrange(30_000)
            uid = rng.randrange(4)
            if (key, uid) in member_set:
                continue
            tree.insert(key, uid, (0.0, 0.0, 0.0, 0.0, 0.0))
            member_set.add((key, uid))
            members.append((key, uid))
        else:
            i = rng.randrange(len(members))
            key, uid = members[i]
            members[i] = members[-1]
            members.pop()
            member_set.remove((key, uid))
            tree.delete(key, uid)
        if step % 20_000 == 19_999:
            tree.audit()
    tree.audit()
    got = []
    tree.scan_intervals([(0, 30_000)], lambda leaf, i, j: got.extend(zip(leaf.keys[i:j], leaf.uids[i:j])))
    shadow_ok = got == sorted(member_set)

    # z-curve bijection between cells and z-values, exhaustive for levels <= 5
    z_ok = True
    for levels in range(1, 6):
        cfg = GridConfig(L=float(1 << levels), levels=levels)
        cells = [(cx, cy) for cx in range(cfg.cells_per_axis) for cy in range(cfg.cells_per_axis)]
        if {z_encode(cell, cfg) for cell in cells} != set(range(4**levels)):
            z_ok = False

    # lexicographic key order over 1e5 random field tuples
    layout = KeyLayout(tid_bits=2, sv_bits=20, zv_bits=20)
    key_ok = True
    for _ in range(100_000):
        a = (rng.randrange(4), rng.randrange(1 << 20), rng.randrange(1 << 20))
        b = (rng.randrange(4), rng.randrange(1 << 20), rng.randrange(1 << 20))
        if (layout.peb_key_q(*a) < layout.peb_key_q(*b)) != (a < b):
            key_ok = False

    # range queries over every equivalence instance match the oracle (500 queries)
    instances, _ = equivalence_instances
    range_ok = True
    for inst in instances:
        objs = list(inst.objects.values())
        for req in gen_queries(inst.cfg, "range", objs, count=25):
            if inst.peb_engine.prq(req) != oracle_range(objs, inst.store, req):
                range_ok = False
    ok = shadow_ok and z_ok and key_ok and range_ok
    report(
        11,
        ok,
        f"shadow audit ok={shadow_ok}, z bijection ok={z_ok}, key order ok={key_ok}, range oracle ok={range_ok}",
    )
    assert shadow_ok and z_ok and key_ok and range_ok
