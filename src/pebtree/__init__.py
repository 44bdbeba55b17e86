"""Policy-embedded moving-object indexing and privacy-aware queries."""

from .costmodel import CostParams, cost_c, cost_c1, fit_cost_params
from .keys import KeyLayout, SequenceValueMap, assign_sequence_values
from .motion import MovingObject, TimePartitionConfig
from .policy import (
    CompatibilityIndex,
    LocationPrivacyPolicy,
    PolicyStore,
    PolicyTable,
    RelationshipGraph,
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
from .zcurve import GridConfig, z_decompose, z_encode

__all__ = [
    "BPlusTree",
    "BaselineQueryEngine",
    "CompatibilityIndex",
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
    "PolicyTable",
    "PrqRequest",
    "RelationshipGraph",
    "SequenceValueMap",
    "TimePartitionConfig",
    "WorkloadConfig",
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
    "oracle_knn",
    "oracle_range",
    "z_decompose",
    "z_encode",
]
