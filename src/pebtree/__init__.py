"""Policy-embedded moving-object indexing and privacy-aware queries."""

from .costmodel import CostParams, cost_c, cost_c1, fit_cost_params
from .keys import KeyLayout, SequenceValueMap, assign_sequence_values
from .motion import MovingObject, TimePartitionConfig, index_partition, label_timestamp, position_at
from .policy import (
    CompatibilityIndex,
    CompatibilityScore,
    LocationPrivacyPolicy,
    PolicyStore,
    RelationshipGraph,
    alpha,
    compatibility,
)
from .query import (
    BaselineQueryEngine,
    FriendLists,
    PebQueryEngine,
    PknnRequest,
    PknnResult,
    PrqRequest,
    enlarge,
    estimate_dk,
    oracle_knn,
    oracle_range,
)
from .store import BPlusTree, LeafEntry, MovingObjectIndex, PageBuffer
from .workload import WorkloadConfig, gen_network, gen_policies, gen_queries, gen_uniform
from .zcurve import GridConfig, z_decode, z_decompose, z_encode

__all__ = [
    "BPlusTree",
    "BaselineQueryEngine",
    "CompatibilityIndex",
    "CompatibilityScore",
    "CostParams",
    "FriendLists",
    "GridConfig",
    "KeyLayout",
    "LeafEntry",
    "LocationPrivacyPolicy",
    "MovingObject",
    "MovingObjectIndex",
    "PageBuffer",
    "PebQueryEngine",
    "PknnRequest",
    "PknnResult",
    "PolicyStore",
    "PrqRequest",
    "RelationshipGraph",
    "SequenceValueMap",
    "TimePartitionConfig",
    "WorkloadConfig",
    "alpha",
    "assign_sequence_values",
    "compatibility",
    "cost_c",
    "cost_c1",
    "enlarge",
    "estimate_dk",
    "fit_cost_params",
    "gen_network",
    "gen_policies",
    "gen_queries",
    "gen_uniform",
    "index_partition",
    "label_timestamp",
    "oracle_knn",
    "oracle_range",
    "position_at",
    "z_decode",
    "z_decompose",
    "z_encode",
]
