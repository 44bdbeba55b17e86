import csv
import re
import subprocess
import sys
import time
import argparse
from dataclasses import fields, replace
from pathlib import Path

import pytest

from pebtree import bench
from pebtree.bench import (
    CSV_COLUMNS,
    UPDATE_ROUNDS,
    build_indexes,
    build_instance,
    knn_results_match,
    load_config,
    measure_preprocessing,
    point_rows,
    run_experiment,
    run_queries,
    run_query_batch,
    run_update_round,
    save_config,
    sweep_configs,
    validate_cost,
    write_csv,
)
from pebtree.cli import _add_workload_flags, _load_data_dir
from pebtree.cli import main as cli_main
from pebtree.policy import PolicyStore, PolicyTable, RelationshipGraph
from pebtree.query import PknnResult, PrqRequest, oracle_knn, oracle_range
from pebtree.workload import WorkloadConfig, gen_queries, load_queries

SMALL = WorkloadConfig(n_users=150, policies_per_user=8, theta=0.5, group_size=30, seed=17, queries_per_point=12)


@pytest.fixture(scope="module")
def small_instance():
    return build_instance(SMALL)


def test_build_instance_loads_both_indexes(small_instance):
    inst = small_instance
    assert inst.peb.entry_count == SMALL.n_users
    assert inst.bx.entry_count == SMALL.n_users
    assert inst.peb.kind == "peb" and inst.bx.kind == "bx"
    inst.peb.tree.audit()
    inst.bx.tree.audit()


def test_a_space_whose_area_underflows_is_refused_by_name():
    # the scores divide by the space's area: at 1e-300 it underflowed to 0,
    # and the build raised ZeroDivisionError in CompatibilityIndex.from_store
    tiny = {"n_users": 50, "policies_per_user": 3, "group_size": 10, "seed": 1}
    with pytest.raises(ValueError, match="space_side"):
        WorkloadConfig(**tiny, space_side=1e-300, policy_side=(0.0, 1e-300))
    with pytest.raises(ValueError, match="space_side"):
        PolicyStore(PolicyTable(), RelationshipGraph(), range(50), space_side=1e-300)
    # the least sides whose area is positive build and answer as the oracles do
    for side in (1e-150, 2e-162):
        inst = build_instance(WorkloadConfig(**tiny, space_side=side, policy_side=(0.0, side)))
        objects = list(inst.objects.values())
        for req in gen_queries(inst.cfg, "range", objects, count=10):
            assert inst.peb_engine.prq(req) == inst.bx_engine.range_query(req) == oracle_range(objects, inst.store, req)
        for req in gen_queries(inst.cfg, "knn", objects, count=10):
            want = oracle_knn(objects, inst.store, req)
            assert inst.peb_engine.pknn(req) == inst.bx_engine.knn_query(req) == want


def test_point_rows_schema_and_oracle(small_instance):
    rows = point_rows(small_instance, oracle_every=1)
    assert len(rows) == 4
    combos = {(r["index"], r["query_type"]) for r in rows}
    assert combos == {("peb", "range"), ("peb", "knn"), ("bx", "range"), ("bx", "knn")}
    for row in rows:
        assert set(CSV_COLUMNS) == set(row)
        assert row["oracle_ok"] == 1.0
        assert row["mean_io"] >= 0
    # cost estimate present exactly on the policy-index range row
    est = [r["cost_estimate"] for r in rows if r["index"] == "peb" and r["query_type"] == "range"]
    assert est[0] != ""


def test_query_batch_io_deterministic(small_instance):
    queries = gen_queries(SMALL, "range", list(small_instance.objects.values()))
    a = run_query_batch(small_instance, "peb", queries, oracle_every=0)
    b = run_query_batch(small_instance, "peb", queries, oracle_every=0)
    assert a.mean_io == b.mean_io
    assert a.p95_io == b.p95_io


def test_query_batch_refuses_a_negative_oracle_period(small_instance):
    queries = gen_queries(SMALL, "range", list(small_instance.objects.values()))
    # i % -3 would check every third query, as 3 does
    with pytest.raises(ValueError, match="oracle_every -3 is negative"):
        run_query_batch(small_instance, "peb", queries, oracle_every=-3)


def test_query_batch_wall_time_excludes_oracle(small_instance, monkeypatch):
    delay_s = 0.02
    oracle = bench.oracle_range
    calls = []

    def slow_oracle(*args):
        calls.append(args)
        time.sleep(delay_s)
        return oracle(*args)

    monkeypatch.setattr(bench, "oracle_range", slow_oracle)
    queries = gen_queries(SMALL, "range", list(small_instance.objects.values()))
    stats = run_query_batch(small_instance, "peb", queries, oracle_every=1)
    assert len(calls) == len(queries) and stats.oracle_rate == 1.0
    assert stats.wall_ms < 0.25 * len(queries) * delay_s * 1000.0


def test_zero_query_spec_writes_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    write_csv([], out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].split(",") == CSV_COLUMNS


def strip_wall(rows):
    # wall_ms is the one measured-time column; everything else is a pure
    # function of (spec, seed)
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]


def test_run_experiment_rows_deterministic(tmp_path):
    cfg = replace(SMALL, queries_per_point=8)
    rows_a, ok_a = run_experiment(cfg, ("theta",), tmp_path / "a.csv", 4)
    rows_b, ok_b = run_experiment(cfg, ("theta",), tmp_path / "b.csv", 4)
    assert ok_a and ok_b
    assert strip_wall(rows_a) == strip_wall(rows_b)


def test_run_experiment_reports_infeasible_point():
    # theta=1 with group_size <= policies_per_user cannot host the in-group
    # policies; the run keeps going and reports the point as an error row
    cfg = replace(SMALL, group_size=8, policies_per_user=8, queries_per_point=4)
    rows, ok = run_experiment(cfg, ("theta",), None, 0)
    errors = [r for r in rows if r["index"] == "error"]
    assert errors
    normal = [r for r in rows if r["index"] != "error"]
    assert normal  # the feasible points still ran


def test_update_rounds_preserve_correctness(small_instance):
    inst = build_instance(replace(SMALL, seed=23))
    for _ in range(5):
        run_update_round(inst)
        inst.peb.tree.audit()
        inst.bx.tree.audit()
    rows = point_rows(inst, oracle_every=3)
    assert all(r["oracle_ok"] == 1.0 for r in rows)
    assert inst.peb.entry_count == SMALL.n_users


def test_sweep_configs_cover_grid():
    base = WorkloadConfig(seed=1)
    assert [c.n_users for c in sweep_configs("users", base)] == [2_000, 5_000, 10_000, 20_000]
    assert [c.theta for c in sweep_configs("theta", base)] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert [c.query_window for c in sweep_configs("window", base)][0] == 100.0
    assert all(c.distribution == "network" for c in sweep_configs("destinations", base))
    assert sweep_configs("updates", base) == [base]
    with pytest.raises(KeyError):
        sweep_configs("nope", base)


def test_knn_results_match_rules():
    a = PknnResult(((1, 1.0), (2, 2.0)), short=False)
    assert knn_results_match(a, PknnResult(((1, 1.0), (2, 2.0)), short=False))
    # tie at the k'th distance: membership may differ
    assert knn_results_match(
        PknnResult(((1, 1.0), (3, 2.0)), short=False),
        PknnResult(((1, 1.0), (2, 2.0)), short=False),
    )
    # non-tied member differs: mismatch
    assert not knn_results_match(
        PknnResult(((9, 1.0), (2, 2.0)), short=False),
        PknnResult(((1, 1.0), (2, 2.0)), short=False),
    )
    assert not knn_results_match(a, PknnResult(((1, 1.0), (2, 2.5)), short=False))
    # a user has one location: a repeated user is no answer
    assert not knn_results_match(
        PknnResult(((3, 0.5), (3, 1.0)), short=False),
        PknnResult(((3, 0.5), (7, 1.0)), short=False),
    )
    assert not knn_results_match(a, PknnResult(((1, 1.0),), short=True))


def test_measure_preprocessing_reports_positive_times():
    rows = measure_preprocessing(replace(SMALL, seed=29), ns=(100, 200), repetitions=1)
    assert [r["N"] for r in rows] == [100, 200]
    assert all(r["seconds"] > 0 for r in rows)


def test_measure_preprocessing_empty_dataset_is_near_zero():
    rows = measure_preprocessing(replace(SMALL, seed=29), ns=(0,), repetitions=1)
    assert rows[0]["seconds"] < 0.01


def test_validate_cost_reports_infeasible_points():
    base = replace(SMALL, queries_per_point=6)
    report = validate_cost(base, fit_ns=(100, 150), thetas=(0.5,), n_ps=(8, 200))
    by_value = {r["value"]: r for r in report.rows if r["param"] == "n_p"}
    assert isinstance(by_value[8]["ratio"], float)
    assert "below the user count" in by_value[200]["ratio"]  # infeasible, reported


def test_load_config_key_value(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("n_users = 400\ntheta=0.25  # sparse groups\n\nquery_window=150\n")
    cfg = load_config(path)
    assert cfg.n_users == 400
    assert cfg.theta == 0.25
    assert cfg.query_window == 150.0
    bad = tmp_path / "bad.cfg"
    bad.write_text("nope=1\n")
    with pytest.raises(ValueError):
        load_config(bad)
    bad.write_text("theta=1.5\n")
    with pytest.raises(ValueError, match="theta"):
        load_config(bad)


@pytest.mark.parametrize(
    "text, fault",
    [
        ("n_users=40\nseed=1.5\n", r", line 2: invalid literal for int\(\) with base 10: '1.5'"),
        ("# comment\n\nseed 3\n", r", line 3: bad config line 'seed 3'"),
        ("n_users=40\ny_low=1\n", r", line 2: unknown config key 'y_low'"),
        ("group_size=0\n", r"exp.cfg: group_size 0 is below 1"),
    ],
    ids=["not an int", "no equals sign", "unknown key", "refused value"],
)
def test_load_config_names_the_file_and_the_line(tmp_path, text, fault):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=fault) as raised:
        load_config(path)
    assert str(raised.value).startswith(str(path))


def test_save_config_round_trips_every_field(tmp_path):
    changed = {}
    for f in fields(WorkloadConfig):
        value = f.default
        if not isinstance(value, (int, float, str)):  # the tuple fields stay out of config files
            continue
        # three quarters keep theta in [0, 1] and the default durations within the day
        changed[f.name] = "network" if f.name == "distribution" else (value + 3 if isinstance(value, int) else value * 0.75)
    cfg = replace(WorkloadConfig(), **changed)
    assert all(getattr(cfg, name) != getattr(WorkloadConfig(), name) for name in changed)
    path = tmp_path / "config.txt"
    save_config(cfg, path)
    assert load_config(path) == cfg
    assert len(path.read_text().splitlines()) == len(changed) == 13


# -- CLI ------------------------------------------------------------------------


def test_every_workload_flag_sets_a_config_field():
    parser = argparse.ArgumentParser()
    _add_workload_flags(parser)
    names = {f.name for f in fields(WorkloadConfig)}
    dests = [a.dest for a in parser._actions if a.dest not in ("help", "config")]
    assert len(dests) == 10
    assert set(dests) <= names
    # an unset flag leaves the field to the config file or the default
    assert all(parser.get_default(dest) is None for dest in dests)


def test_cli_flag_set_to_its_default_overrides_the_config(tmp_path):
    config = tmp_path / "c.txt"
    config.write_text("n_users=120\npolicies_per_user=10\ngroup_size=60\nqueries_per_point=3\nseed=9\n")
    data = tmp_path / "data"
    assert cli_main(["gen", "--out-dir", str(data), "--config", str(config), "--policies", "50"]) == 0
    written = load_config(data / "config.txt")
    assert (written.n_users, written.policies_per_user, written.seed) == (120, 50, 9)
    owners = [line.split(",")[0] for line in (data / "policies.csv").read_text().splitlines()]
    assert len(owners) == 120 * 50
    assert all(owners.count(owner) == 50 for owner in set(owners))


def test_cli_gen_build_query_round_trip(tmp_path):
    data = tmp_path / "data"
    rc = cli_main(
        [
            "gen",
            "--out-dir",
            str(data),
            "-N",
            "120",
            "--policies",
            "6",
            "--theta",
            "0.5",
            "--group-size",
            "30",
            "--queries",
            "5",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    for name in ("objects.csv", "policies.csv", "relationships.csv", "queries.csv", "config.txt"):
        assert (data / name).exists()
    assert cli_main(["build", "--data-dir", str(data), "--index", "peb"]) == 0
    assert cli_main(["query", "--data-dir", str(data), "--engine", "peb", "--limit", "4"]) == 0
    assert cli_main(["query", "--data-dir", str(data), "--engine", "oracle", "--limit", "4"]) == 0


def test_cli_query_refuses_a_negative_limit(tmp_path, capsys):
    data = tmp_path / "data"
    argv = ["gen", "--out-dir", str(data), "-N", "120", "--policies", "6", "--group-size", "30", "--seed", "3"]
    assert cli_main(argv + ["--queries", "5"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli_main(["query", "--data-dir", str(data), "--engine", "oracle", "--limit", "-1"])
    assert exc.value.code == 2
    assert "argument --limit: -1 is negative" in capsys.readouterr().err
    assert cli_main(["query", "--data-dir", str(data), "--engine", "oracle", "--limit", "0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(load_queries(data / "queries.csv"))


@pytest.mark.parametrize(
    "command, flag",
    [("gen", "-N"), ("gen", "--policies"), ("gen", "--queries"), ("bench", "--oracle-every"), ("preproc", "--sizes")],
)
def test_cli_count_flags_refuse_a_negative_value(tmp_path, capsys, command, flag):
    small = ["-N", "40", "--policies", "2", "--group-size", "10", "--queries", "2"]
    own = {
        "gen": ["--out-dir", str(tmp_path / "data")],
        "bench": ["--seed", "1", "--sweep", "k", "--out", str(tmp_path / "bench.csv")],
        "preproc": ["--out", str(tmp_path / "preproc.csv")],
    }[command]
    with pytest.raises(SystemExit) as exc:
        cli_main([command, *small, *own, flag, "-1"])
    assert exc.value.code == 2
    assert "-1 is negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, config, message",
    [
        (["--group-size", "0"], None, "group_size 0 is below 1"),
        (["--theta", "2"], None, r"theta 2.0 is not within \[0, 1\]"),
        (["--k", "0"], None, "k 0 is below 1"),
        (["--window", "-5"], None, "query_window -5.0 is not a non-negative finite number"),
        (["--config", "c.txt"], "seed=1.5\n", r"c.txt, line 1: invalid literal for int\(\)"),
        (["--config", "c.txt"], None, "No such file or directory"),
    ],
    ids=["group-size-0", "theta-2", "k-0", "window-negative", "config-seed-1.5", "config-missing"],
)
def test_cli_workload_refusals_are_usage_errors(tmp_path, monkeypatch, capsys, flags, config, message):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        Path("c.txt").write_text(config)
    with pytest.raises(SystemExit) as exc:
        cli_main(["gen", "--out-dir", "data", "-N", "20", "--policies", "2", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert re.search(f"pebtree gen: error: .*{message}", err)
    assert "Traceback" not in err
    assert not Path("data").exists()


def test_cli_gen_refuses_a_nan_speed_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # a NaN speed used to write objects.csv with NaN velocities, then die in gen_queries
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli_main(["gen", "--out-dir", "data", "-N", "20", "--policies", "2", "--max-speed", "nan"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert re.search("pebtree gen: error: max_speed nan is not a non-negative finite number", err)
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_cli_gen_refuses_an_empty_dataset_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # objects, policies and relationships used to be written before gen_queries refused
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli_main(["gen", "--out-dir", "data", "-N", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "pebtree gen: error: cannot generate queries for an empty dataset" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_cli_preproc_names_a_size_the_generator_refuses(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["preproc", "--sizes", "1", "--out", str(tmp_path / "preproc.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "pebtree preproc: error: size 1: policies per user must be below the user count" in err
    assert "Traceback" not in err


def test_cli_bench_without_policies_leaves_the_estimate_blank(tmp_path):
    # the cost model needs a policy per user; the sweep finishes without an estimate
    out = tmp_path / "bench.csv"
    argv = ["bench", "--seed", "1", "--sweep", "updates", "-N", "50", "--policies", "0", "--queries", "3"]
    assert cli_main([*argv, "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * UPDATE_ROUNDS
    assert {r["cost_estimate"] for r in rows} == {""}
    assert {r["oracle_ok"] for r in rows} == {"1.0"}


def test_cli_data_dir_keeps_the_generated_space_side(tmp_path):
    config = tmp_path / "side.txt"
    config.write_text("space_side=2000\n")
    data = tmp_path / "data"
    argv = ["gen", "--out-dir", str(data), "--config", str(config), "-N", "150", "--policies", "6", "--seed", "4"]
    assert cli_main(argv + ["--group-size", "30", "--queries", "5"]) == 0
    objects, store = _load_data_dir(data)
    assert store.space_side == 2000.0
    assert max(max(o.x, o.y) for o in objects) > 1000.0
    built = build_indexes(objects, store)
    queries = load_queries(data / "queries.csv")
    for index, engine in built.values():
        assert index.grid.L == 2000.0
        for q, got, *_ in run_queries(index, engine, queries):
            if isinstance(q, PrqRequest):
                assert got == oracle_range(objects, store, q)
            else:
                assert got == oracle_knn(objects, store, q)


def test_cli_data_dir_refuses_a_region_beyond_the_space(tmp_path):
    data = tmp_path / "data"
    argv = ["gen", "--out-dir", str(data), "-N", "120", "--policies", "6", "--group-size", "30", "--seed", "4"]
    assert cli_main(argv + ["--queries", "5"]) == 0
    policies = data / "policies.csv"
    lines = policies.read_text().splitlines()
    fields = lines[0].split(",")
    fields[4] = "1500.0"  # x_hi
    policies.write_text("\n".join([",".join(fields), *lines[1:]]) + "\n")
    with pytest.raises(ValueError, match=r"reaches beyond the space \[0, 1000.0\]"):
        _load_data_dir(data)


def test_cli_data_dir_refuses_a_role_that_names_its_owner(tmp_path, capsys):
    data = tmp_path / "data"
    argv = ["gen", "--out-dir", str(data), "-N", "120", "--policies", "6", "--group-size", "30", "--seed", "4"]
    assert cli_main(argv + ["--queries", "5"]) == 0
    relationships = data / "relationships.csv"
    owner, role, _ = relationships.read_text().splitlines()[0].split(",")
    with relationships.open("a") as fh:
        fh.write(f"{owner},{role},{owner}\n")
    message = f"policy role '{role}' of user {owner} names its own owner"
    with pytest.raises(ValueError, match=message):
        _load_data_dir(data)
    capsys.readouterr()
    for command in (["build", "--index", "peb"], ["query", "--engine", "oracle"]):
        with pytest.raises(SystemExit) as exc:
            cli_main([*command, "--data-dir", str(data)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"pebtree {command[0]}: error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "uid, fault",
    [(-5, "is outside [0, 2**63)"), (2**63, "is outside [0, 2**63)"), (0, "appears twice")],
    ids=["-5", str(2**63), "repeated-0"],  # uid 0 is the first generated object's
)
def test_cli_data_dir_refuses_a_uid_outside_the_index_range(tmp_path, capsys, uid, fault):
    data = tmp_path / "data"
    argv = ["gen", "--out-dir", str(data), "-N", "120", "--policies", "6", "--group-size", "30", "--seed", "4"]
    assert cli_main(argv + ["--queries", "5"]) == 0
    objects = data / "objects.csv"
    with objects.open("a") as fh:
        fh.write(f"{uid},1.0,2.0,0.5,0.5,0.0\n")
    message = f"objects.csv, line 121: uid {uid} {fault}"
    with pytest.raises(ValueError, match=re.escape(message)):
        _load_data_dir(data)
    capsys.readouterr()
    for command in (["build", "--index", "bx"], ["query", "--engine", "peb"]):
        with pytest.raises(SystemExit) as exc:
            cli_main([*command, "--data-dir", str(data)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "line, message",
    [
        (None, "No such file or directory"),
        ("range,1,abc,0.0,0.0,10.0,10.0", "queries.csv, line 7: could not convert string to float: 'abc'"),
        ("knn,1,1.0,5,5,0", "queries.csv, line 7: k must be at least 1"),
        ("range,99999,1.0,0.0,0.0,10.0,10.0", "queries.csv: issuer 99999 is not a user in objects.csv"),
    ],
    ids=["missing", "malformed", "k-0", "unknown-issuer"],
)
def test_cli_query_refuses_a_bad_query_file(tmp_path, capsys, line, message):
    data = tmp_path / "data"
    argv = ["gen", "--out-dir", str(data), "-N", "120", "--policies", "6", "--group-size", "30", "--seed", "4"]
    assert cli_main(argv + ["--queries", "3"]) == 0  # six queries, so an appended one is line 7
    queries = data / "queries.csv"
    if line is None:
        queries.unlink()
    else:
        with queries.open("a") as fh:
            fh.write(line + "\n")
    capsys.readouterr()
    for engine in ("peb", "bx", "oracle"):
        with pytest.raises(SystemExit) as exc:
            cli_main(["query", "--data-dir", str(data), "--engine", engine])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "pebtree query: error: " in err and message in err and "Traceback" not in err


def test_cli_bench_writes_csv_and_exits_zero(tmp_path):
    out = tmp_path / "bench.csv"
    rc = cli_main(
        [
            "bench",
            "--seed",
            "5",
            "-N",
            "150",
            "--policies",
            "8",
            "--group-size",
            "30",
            "--queries",
            "6",
            "--sweep",
            "k",
            "--out",
            str(out),
            "--oracle-every",
            "3",
        ]
    )
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 5  # five k values, four rows each
    assert set(rows[0]) == set(CSV_COLUMNS)


def test_cli_bench_requires_seed():
    with pytest.raises(SystemExit):
        cli_main(["bench", "--out", "x.csv"])


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from pebtree import *", namespace)
    import pebtree

    assert pebtree.__all__
    assert all(name in namespace for name in pebtree.__all__)


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "pebtree.cli", "gen", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "--out-dir" in proc.stdout
