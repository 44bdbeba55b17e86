"""Compare two versions of the program with alternating benchmark runs.

Usage, from the root of a checkout:

    python3 tools/ab.py --base HEAD~1 --change . --workload paper-default --seed 7 --pairs 10

``--base`` and ``--change`` each name a directory that holds a checkout,
whose files are run as they are, or a git revision of this repository,
which is exported with ``git archive`` into a temporary directory.  Each
run is ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
in that side's own tree, with the Python running this script; its last
line of output is the run's JSON result.  The two sides run alternately:
the base first in odd pairs, the change first in even pairs.

For each metric it prints both sides' medians and quartiles, the change
of the medians, the pairs the change won (ties count for neither) and a
verdict from ``BENCHMARK.json``: ``gain`` when the change won at least
nine tenths of the pairs and its median beats the base's by more than the
distance between the base's quartiles, ``worse`` when its median is
worse than the base's by more than the metric's bound, and else
``unresolved`` when the wider of the two sides' interquartile ranges,
over the base median, exceeds the bound, unless every change run beats
every base run: the runs then spread too widely to tell a move within
the bound from noise.

The exit status is 1 when a run is not correct or failed an operation, or
when an I/O metric (every ``*_io`` metric and ``peb_pages``) takes more than
one value over all runs and is not named after ``--io-may-move``; it is 0
otherwise.  So a change that means to move ``update_io`` alone shows that
every other I/O value held with

    python3 tools/ab.py --base HEAD~1 --change . --workload paper-default --seed 7 --pairs 10 --io-may-move update_io
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    """The benchmark's declaration: its metrics, their directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def side_tree(spec: str, stack: ExitStack) -> Path:
    """The tree to run for ``spec``: a directory as it is, or a revision exported into a temporary one."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    rev = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", f"{spec}^{{commit}}"],
        capture_output=True,
        text=True,
    )
    if rev.returncode != 0:
        raise SystemExit(f"ab: {spec!r} is neither a directory nor a revision of {ROOT}")
    tree = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="ab-")))
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev.stdout.strip()], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
    return tree


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its JSON result."""
    # the run imports the program from its own tree only
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run([*argv, "--trace", "0"], cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"ab: the run in {tree} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def is_io(name: str) -> bool:
    """Whether a metric counts pages, which must not move unless the change means to move it."""
    return name.endswith("_io") or name == "peb_pages"


def fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def compare(base: list[dict], change: list[dict], spec: dict) -> tuple[list[str], bool, list[str]]:
    """The report lines for runs paired by position, whether every run is correct, and the I/O metrics that moved."""
    known = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"{'metric':<18} {'base median (q1-q3)':>28} {'change median (q1-q3)':>28} {'delta':>8}  won  verdict"]
    moved = []
    for name, metric in base[0]["metrics"].items():
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        lower = known.get(name, {}).get("better", "lower") == "lower"
        won = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        (bq1, bm, bq3), (cq1, cm, cq3) = quartiles(b), quartiles(c)
        gain = (bm - cm) if lower else (cm - bm)
        delta = (cm - bm) / bm if bm else 0.0
        verdict = ""
        if won >= 0.9 * len(b) and gain > bq3 - bq1:
            verdict = "gain"
        elif "bound" in known.get(name, {}) and bm:
            bound = known[name]["bound"]
            beats_all = max(c) < min(b) if lower else min(c) > max(b)
            if -gain / bm > bound:
                verdict = "worse"
            elif max(bq3 - bq1, cq3 - cq1) / bm > bound and not beats_all:
                verdict = "unresolved"
        if is_io(name) and len(set(b + c)) > 1:
            moved.append(name)
            verdict = "I/O MOVED"
        cells = f"{fmt(bm)} ({fmt(bq1)}-{fmt(bq3)})", f"{fmt(cm)} ({fmt(cq1)}-{fmt(cq3)})"
        lines.append(f"{name:<18} {cells[0]:>28} {cells[1]:>28} {delta:>+8.1%}  {won:>3}  {verdict}  [{metric['unit']}]")
    runs = base + change
    correct = all(r["correct"] and r["failed"] == 0 for r in runs)
    lines.append(
        f"{len(base)} pairs; every run correct with 0 failed operations: {correct}; "
        f"every I/O value and peb_pages one value on both sides: {not moved}"
    )
    return lines, correct, moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="a checkout directory or a git revision")
    parser.add_argument("--change", required=True, help="a checkout directory or a git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument(
        "--io-may-move", nargs="+", default=[], metavar="METRIC", help="I/O metrics the change may move, e.g. update_io"
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs {args.pairs} is below 1")
    spec = load_spec()
    io_names = [m["name"] for m in spec["end_to_end"] if is_io(m["name"])]
    for name in args.io_may_move:
        if name not in io_names:
            parser.error(f"--io-may-move {name}: not one of the I/O metrics {', '.join(io_names)}")
    with ExitStack() as stack:
        trees = {"base": side_tree(args.base, stack), "change": side_tree(args.change, stack)}
        results: dict[str, list[dict]] = {"base": [], "change": []}
        for pair in range(1, args.pairs + 1):
            for side in ("base", "change") if pair % 2 else ("change", "base"):
                results[side].append(run_once(trees[side], args.workload, args.seed, args.seconds))
            print(f"pair {pair} of {args.pairs} done", file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}, --seconds {args.seconds:g}: base {args.base}, change {args.change}")
    lines, correct, moved = compare(results["base"], results["change"], spec)
    print("\n".join(lines))
    unexpected = [name for name in moved if name not in args.io_may_move]
    if unexpected:
        print(f"I/O moved outside --io-may-move: {', '.join(unexpected)}")
    return 0 if correct and not unexpected else 1


if __name__ == "__main__":
    sys.exit(main())
