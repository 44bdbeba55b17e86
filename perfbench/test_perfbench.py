"""Self-test of the benchmark: tiny instances end to end, and the checker.

Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402
from checker import ReferenceChecker, knn_ok, range_ok  # noqa: E402
from pebtree import query, zcurve  # noqa: E402
from speed import REFERENCE_PROBE_S, Clock  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> Workload:
    w = WORKLOADS[name]
    cfg = replace(w.config, n_users=300, policies_per_user=10)
    return replace(w, config=cfg, queries_per_batch=6, cycle_seconds=1.0)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_end_to_end(name):
    result = harness.run(tiny(name), seed=3, seconds=2.0, trace=False)
    assert result.correct and result.failed == 0
    # two cycles of four rounds: 75 reports and 4 x 6 queries per round
    assert result.attempted == 8 * (75 + 24)
    assert list(result.metrics) == [m["name"] for m in SPEC["end_to_end"]]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(unit == units[n] and value > 0 for n, (value, unit) in result.metrics.items())


def test_a_wrong_engine_answer_counts_as_a_failed_operation(monkeypatch):
    prq = query.PebQueryEngine.prq
    monkeypatch.setattr(query.PebQueryEngine, "prq", lambda self, req: prq(self, req) | {-1})
    result = harness.run(tiny("visible-knn"), seed=3, seconds=1.0, trace=False)
    assert not result.correct
    assert result.failed == 4 * 6  # every peb range answer of one cycle


def test_tiny_traced_run_reports_every_layer_metric():
    result = harness.run(tiny("visible-knn"), seed=3, seconds=1.0, trace=True)
    assert result.correct and result.failed == 0
    assert list(result.metrics) == [m["name"] for m in SPEC["per_layer"]]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(unit == units[n] for n, (_, unit) in result.metrics.items())
    assert result.metrics["store.descend_calls_per_query"][0] > 0
    assert result.metrics["query.knn_cells_per_query"][0] > 0
    # the wrappers are gone once the run ends
    assert query.z_decompose is zcurve.z_decompose
    assert vars(harness.store.BPlusTree)["descend"].__qualname__ == "BPlusTree.descend"


def test_clock_scales_regions_by_the_probe_speed_around_them():
    clock = Clock()
    clock.times = [0.0, 1.0, 2.0, 3.0]
    clock.probes = [REFERENCE_PROBE_S, REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S]
    assert clock.scaled((2.5, 3.5, 1.0)) == pytest.approx(0.5)  # half speed inside
    assert clock.scaled((0.1, 0.2, 0.1)) == pytest.approx(0.1)  # nearest probe at full speed
    assert clock.scaled((1.9, 1.95, 0.1)) == pytest.approx(0.05)  # nearest probe at half speed
    assert clock.scaled((0.5, 3.5, 2.0)) == pytest.approx(2.0 * (1.0 + 0.5 + 0.5) / 3)


@pytest.fixture(scope="module")
def instance():
    cfg = replace(tiny("visible-knn").config, seed=5)
    inputs = harness.generate(cfg, Clock())
    system = harness.setup(inputs)
    checker = ReferenceChecker(inputs.policies, inputs.graph.records(), cfg.day)
    current = {o.uid: o for o in inputs.objects}
    return inputs, system, checker, current


def test_checker_rejects_a_range_answer_missing_one_user(instance):
    inputs, system, checker, current = instance
    queries = harness.wl.gen_queries(inputs.cfg, "range", inputs.objects, count=200)
    q = next(q for q in queries if len(checker.range_answer(current, q)) >= 2)
    want = checker.range_answer(current, q)
    got = system.peb_engine.prq(q)
    assert range_ok(got, want)
    assert not range_ok(got - {min(got)}, want)


def test_checker_rejects_a_knn_answer_with_a_shifted_distance(instance):
    inputs, system, checker, current = instance
    queries = harness.wl.gen_queries(inputs.cfg, "knn", inputs.objects, count=50)
    q = next(q for q in queries if checker.visible_distances(current, q))
    visible = checker.visible_distances(current, q)
    got = system.peb_engine.pknn(q)
    assert knn_ok(got.neighbors, got.short, q.k, visible)
    (uid, d), *rest = got.neighbors
    assert not knn_ok(((uid, d + 1e-6), *rest), got.short, q.k, visible)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", "paper-default", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
