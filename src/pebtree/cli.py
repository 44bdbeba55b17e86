"""Command-line driver: generate workloads, build indexes, run queries,
and reproduce the benchmark grid.

Subcommands:

* ``gen``      write a dataset, its policies/relationships, and a query file
* ``build``    build an index from generated files, optionally snapshot it
* ``query``    run a query file through an engine (or the oracle)
* ``bench``    run parameter sweeps and write the results CSV
* ``cost``     fit the cost model and write estimate-vs-measured rows
* ``preproc``  time policy encoding across dataset sizes

``pebtree bench --seed`` is mandatory: rows are a pure function of the
flags and seed, and a nonzero exit reports any oracle mismatch.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from .bench import (
    DESK_USER_SWEEP,
    SWEEPS,
    build_indexes,
    load_config,
    measure_preprocessing,
    run_experiment,
    run_queries,
    save_config,
    validate_cost,
    write_csv,
)
from .policy import (
    PolicyStore,
    load_policies,
    load_relationships,
    save_policies,
    save_relationships,
)
from .query import PknnResult, PrqRequest, oracle_knn, oracle_range
from .workload import (
    DISTRIBUTIONS,
    WorkloadConfig,
    gen_policies,
    gen_queries,
    load_objects,
    load_queries,
    make_world,
    save_objects,
    save_queries,
)


def count(text: str) -> int:
    """A whole number that is not negative, for flags that count."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _add_workload_flags(p: argparse.ArgumentParser) -> None:
    # each flag's dest is a WorkloadConfig field; an unset flag (None) keeps
    # the config file's value, or the field's default
    p.add_argument("--users", "-N", dest="n_users", type=count, help="number of users")
    p.add_argument("--policies", dest="policies_per_user", type=count, help="policies per user")
    p.add_argument("--theta", type=float, help="grouping factor in [0, 1]")
    p.add_argument("--group-size", type=count)
    p.add_argument("--max-speed", type=float)
    p.add_argument("--distribution", choices=DISTRIBUTIONS)
    p.add_argument("--destinations", type=count)
    p.add_argument("--window", dest="query_window", type=float, help="range query window side")
    p.add_argument("--k", type=count, help="kNN neighbor count")
    p.add_argument("--queries", dest="queries_per_point", type=count, help="queries per type per point")
    p.add_argument("--config", type=Path, help="key=value config file (overridden by flags set explicitly)")
    p.set_defaults(parser=p)


def _workload_from_args(args: argparse.Namespace) -> WorkloadConfig:
    # a config file or flag value that WorkloadConfig refuses is a usage error
    try:
        base = load_config(args.config) if args.config else WorkloadConfig()
        names = {f.name for f in fields(WorkloadConfig)}
        return replace(base, **{name: v for name, v in vars(args).items() if name in names and v is not None})
    except (OSError, ValueError) as exc:
        args.parser.error(str(exc))


def _load_data_dir(data_dir: Path):
    config = data_dir / "config.txt"
    cfg = load_config(config) if config.exists() else WorkloadConfig()
    objects = load_objects(data_dir / "objects.csv")
    graph = load_relationships(data_dir / "relationships.csv")
    policies = load_policies(data_dir / "policies.csv", cfg.day)
    store = PolicyStore(policies, graph, [o.uid for o in objects], space_side=cfg.space_side, day=cfg.day)
    return objects, store


def _data_from_args(args: argparse.Namespace):
    # a data directory that the loaders or the store refuse is a usage error
    try:
        return _load_data_dir(Path(args.data_dir))
    except (OSError, ValueError) as exc:
        args.parser.error(str(exc))


def cmd_gen(args) -> int:
    cfg = _workload_from_args(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    objects, _ = make_world(cfg)
    policies, graph = gen_policies([o.uid for o in objects], cfg)
    save_objects(objects, out / "objects.csv")
    save_policies(policies, out / "policies.csv")
    save_relationships(graph, out / "relationships.csv")
    queries = list(gen_queries(cfg, "range", objects)) + list(gen_queries(cfg, "knn", objects))
    save_queries(queries, out / "queries.csv")
    save_config(cfg, out / "config.txt")
    print(f"wrote {len(objects)} objects, {len(policies)} policies, {len(queries)} queries to {out}")
    return 0


def cmd_build(args) -> int:
    objects, store = _data_from_args(args)
    built = build_indexes(objects, store, kinds=(args.index,))
    index, _engine = built[args.index]
    stats = index.stats()
    print(
        f"index={args.index} entries={stats.entry_count} height={stats.height} "
        f"leaves={stats.leaf_count} pages={stats.page_count}"
    )
    if args.snapshot:
        index.save(args.snapshot)
        print(f"snapshot written to {args.snapshot}")
    return 0


def _shown(answer: set[int] | PknnResult) -> list:
    if isinstance(answer, PknnResult):
        return [(u, round(d, 3)) for u, d in answer.neighbors]
    return sorted(answer)


def cmd_query(args) -> int:
    data_dir = Path(args.data_dir)
    objects, store = _data_from_args(args)
    queries = load_queries(data_dir / "queries.csv")
    if args.limit:
        queries = queries[: args.limit]
    if args.engine == "oracle":
        for q in queries:
            if isinstance(q, PrqRequest):
                print(f"range qid={q.qid} t={q.t_q:.2f} -> {_shown(oracle_range(objects, store, q))}")
            else:
                print(f"knn qid={q.qid} k={q.k} -> {_shown(oracle_knn(objects, store, q))}")
        return 0
    index, engine = build_indexes(objects, store, kinds=(args.engine,))[args.engine]
    total_io = 0
    for q, answer, io, _leaf_io, _seconds in run_queries(index, engine, queries):
        total_io += io
        label = "range" if isinstance(q, PrqRequest) else "knn"
        print(f"{label} qid={q.qid} io={io} -> {_shown(answer)}")
    if queries:
        print(f"mean charged I/O: {total_io / len(queries):.2f} over {len(queries)} queries")
    return 0


def cmd_bench(args) -> int:
    base = _workload_from_args(args)
    started = time.perf_counter()
    rows, ok = run_experiment(base, args.sweep or ("users",), args.out, args.oracle_every)
    elapsed = time.perf_counter() - started
    print(f"{len(rows)} rows -> {args.out} in {elapsed:.1f}s; oracle {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def cmd_cost(args) -> int:
    base = _workload_from_args(args)
    try:
        report = validate_cost(base)
    except ValueError as exc:
        print(f"cost model fit failed: {exc}")
        return 1
    write_csv(report.rows, args.out, ["param", "value", "measured", "estimated", "ratio"])
    print(f"fitted a1={report.a1:.4g} a2={report.a2:.4g}; {len(report.rows)} rows -> {args.out}")
    return 0


def cmd_preproc(args) -> int:
    base = _workload_from_args(args)
    rows = measure_preprocessing(base, ns=tuple(args.sizes) if args.sizes else DESK_USER_SWEEP)
    write_csv(rows, args.out, ["N", "seconds", "seed"])
    for row in rows:
        print(f"N={row['N']}: {row['seconds']:.3f}s")
    print(f"{len(rows)} rows -> {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pebtree", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a dataset, policies, and queries")
    _add_workload_flags(p_gen)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out-dir", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_build = sub.add_parser("build", help="build an index from generated files")
    p_build.add_argument("--data-dir", required=True)
    p_build.add_argument("--index", choices=("peb", "bx"), default="peb")
    p_build.add_argument("--snapshot", help="write an index snapshot file")
    p_build.set_defaults(func=cmd_build, parser=p_build)

    p_query = sub.add_parser("query", help="run the generated query file")
    p_query.add_argument("--data-dir", required=True)
    p_query.add_argument("--engine", choices=("peb", "bx", "oracle"), default="peb")
    p_query.add_argument("--limit", type=count, default=0, help="run only the first N queries (0 runs all)")
    p_query.set_defaults(func=cmd_query, parser=p_query)

    p_bench = sub.add_parser("bench", help="run benchmark sweeps, write CSV")
    _add_workload_flags(p_bench)
    p_bench.add_argument("--seed", type=int, required=True, help="mandatory for reproducible rows")
    p_bench.add_argument("--sweep", action="append", choices=SWEEPS, help="repeatable; default users")
    p_bench.add_argument("--out", default="bench.csv")
    p_bench.add_argument("--oracle-every", type=count, default=1, help="oracle-check every i'th query (0 disables)")
    p_bench.set_defaults(func=cmd_bench)

    p_cost = sub.add_parser("cost", help="fit and validate the cost model")
    _add_workload_flags(p_cost)
    p_cost.add_argument("--seed", type=int)
    p_cost.add_argument("--out", default="cost.csv")
    p_cost.set_defaults(func=cmd_cost)

    p_pre = sub.add_parser("preproc", help="time policy encoding across dataset sizes")
    _add_workload_flags(p_pre)
    p_pre.add_argument("--seed", type=int)
    p_pre.add_argument("--sizes", type=count, nargs="*", help="dataset sizes to time")
    p_pre.add_argument("--out", default="preproc.csv")
    p_pre.set_defaults(func=cmd_preproc)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
