"""Fully dynamic graph matching with rank-layered augmentation.

Public surface: the core instance (graph storage and random tapes), the
dynamically maintained greedy matching, the layered pipeline, the final
matcher over the union, exact and statistical oracles, and the stream /
replay harness.
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
from .replay import replay
from .rgmm import DeltaList, MatchingState, build_static
from .streams import StreamSpec, UpdateEvent, generate_stream, read_stream, write_stream
from .suites import run_validation

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
    "replay",
    "DeltaList",
    "MatchingState",
    "build_static",
    "StreamSpec",
    "UpdateEvent",
    "generate_stream",
    "read_stream",
    "write_stream",
    "run_validation",
]
