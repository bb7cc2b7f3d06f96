"""Fully dynamic graph matching with rank-layered augmentation.

Public surface: the core instance (graph storage and random tapes), the
dynamically maintained greedy matching, the layered pipeline, the final
matcher over the union, the exact and static oracles, and the stream
generators.  The harness is imported from its own modules:
`dynmatch.replay`, `dynmatch.suites` (which loads numpy through
`dynmatch.validators`) and `dynmatch.cli`.
"""

from .core import (
    EdgeKey,
    EdgeRecord,
    Instance,
    InstanceConfig,
    Rank,
    UNMATCHED_RANK,
    ZERO_RANK,
    edge_key,
    level_of_rank,
    make_rank,
    thresholds_for,
)
from .exact import ExactMatchingResult, IncrementalMatching, max_matching_exact
from .finalmatch import UnionMatcher
from .pipeline import Pipeline, Role, UpdateReport
from .reference import static_reference
from .rgmm import DeltaList, MatchingState
from .streams import StreamSpec, UpdateEvent, generate_stream, read_stream, write_stream

__all__ = [
    "EdgeKey",
    "EdgeRecord",
    "Instance",
    "InstanceConfig",
    "Rank",
    "UNMATCHED_RANK",
    "ZERO_RANK",
    "edge_key",
    "level_of_rank",
    "make_rank",
    "thresholds_for",
    "ExactMatchingResult",
    "IncrementalMatching",
    "max_matching_exact",
    "UnionMatcher",
    "Pipeline",
    "Role",
    "UpdateReport",
    "static_reference",
    "DeltaList",
    "MatchingState",
    "StreamSpec",
    "UpdateEvent",
    "generate_stream",
    "read_stream",
    "write_stream",
]
