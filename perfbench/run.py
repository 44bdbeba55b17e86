"""Benchmark of the pebtree engines: latency and charged I/O per query,
set-up, generation and update cost.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-default --seed 7 --seconds 10 --trace 0

It imports the program from ``src/`` of the checkout it sits in and from
nowhere else, and exits with code 2 when that source tree is missing.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The same object, with the run's settings, is written under
``perfbench/out/``; a ``--trace 1`` run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pebtree" / "__init__.py").is_file():
        print(f"perfbench: no pebtree source tree at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace))

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()}
    line = {"correct": result.correct, "attempted": result.attempted, "failed": result.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "cycles": workload.cycles(args.seconds),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **line,
        "raw_times": result.raw_times,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result.tracer is not None:
        result.tracer.write_spans(OUT / f"{stem}-spans.jsonl")

    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"{'attempted':<{width}}  {result.attempted} operations, {result.failed} failed, correct={result.correct}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
