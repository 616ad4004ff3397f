"""Loose-integration gateway between the database and the text system.

Provides the metered :class:`TextClient` (every search/retrieve is priced
with the paper's calibrated cost constants into a :class:`CostLedger`),
sampling-based predicate statistics, and the *g*-correlated joint
selectivity/fanout models of Section 4.2.
"""

from repro.gateway.cache import (
    CacheStats,
    GatewayCache,
    LruCache,
    RetrieveCache,
    SearchCache,
)
from repro.gateway.client import TextClient
from repro.gateway.inflight import InflightSearchTable, SharingStats
from repro.gateway.costs import (
    PAPER_CONSTANTS,
    VECTOR_CONSTANTS,
    CostConstants,
    CostLedger,
)
from repro.gateway.registry import BackendBinding, BackendRegistry
from repro.gateway.tracing import CallSpan, CallTracer, format_trace
from repro.gateway.sampling import (
    exact_predicate_statistics,
    sample_predicate_statistics,
)
from repro.gateway.statistics import (
    CorrelationModel,
    PredicateStatistics,
    TextStatisticsRegistry,
    joint_fanout,
    joint_selectivity,
)

__all__ = [
    "TextClient",
    "CostConstants",
    "CostLedger",
    "PAPER_CONSTANTS",
    "VECTOR_CONSTANTS",
    "BackendBinding",
    "BackendRegistry",
    "GatewayCache",
    "SearchCache",
    "RetrieveCache",
    "LruCache",
    "CacheStats",
    "InflightSearchTable",
    "SharingStats",
    "CallSpan",
    "CallTracer",
    "format_trace",
    "PredicateStatistics",
    "CorrelationModel",
    "TextStatisticsRegistry",
    "joint_selectivity",
    "joint_fanout",
    "sample_predicate_statistics",
    "exact_predicate_statistics",
]
