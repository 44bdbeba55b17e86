"""The benchmark's workloads: a generator configuration plus a round schedule.

A workload fixes everything but the seed.  Each run generates its inputs
from ``--seed`` with the program's own generators and then runs whole
refresh cycles; one cycle is four update rounds, after which every object
has re-reported once.  ``--seconds`` sets how many cycles a run measures:
``cycle_seconds`` is the wall time of one cycle, checks included, on the
reference machine (see README.md), so the schedule, and with it every
charged-I/O count, is a pure function of (workload, seed, seconds).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from pebtree.policy import DAY
from pebtree.workload import WorkloadConfig

ROUNDS_PER_CYCLE = 4  # each round refreshes a quarter of the objects


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    config: WorkloadConfig
    queries_per_batch: int  # per engine and query kind, in every round
    cycle_seconds: float

    def cycles(self, seconds: float) -> int:
        return max(1, round(seconds / self.cycle_seconds))

    def with_seed(self, seed: int) -> WorkloadConfig:
        return replace(self.config, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-default",
            WorkloadConfig(n_users=10_000, policies_per_user=50, theta=0.7, query_window=200.0, k=5),
            queries_per_batch=50,
            cycle_seconds=16.0,
        ),
        Workload(
            "visible-knn",
            WorkloadConfig(
                n_users=10_000,
                policies_per_user=50,
                theta=0.7,
                query_window=200.0,
                k=5,
                policy_side=(400.0, 1000.0),
                policy_duration=(DAY / 2, DAY),
            ),
            queries_per_batch=50,
            cycle_seconds=18.0,
        ),
        Workload(
            "network-churn",
            WorkloadConfig(n_users=2_000, distribution="network", policies_per_user=10, theta=0.7),
            queries_per_batch=4,
            cycle_seconds=0.75,
        ),
    )
}
