"""PPerfGrid core: the Semantic and Virtualization layers.

Semantic layer (thesis §4.4/§5.3)
    :class:`ApplicationService` and :class:`ExecutionService` — the
    Application/Execution semantic objects deployed as Grid services —
    plus the :class:`ManagerService` (Execution-GSH caching and replica
    distribution) and the Performance-Result cache.

Virtualization layer (thesis §4.6/§5.5)
    :class:`PPerfGridClient` and the virtual objects / query panels the
    Swing GUI exposes in Figures 8-11, as library APIs.

Deployment helper
    :class:`PPerfGridSite` wires one published dataset: container,
    wrappers, factories, Manager, UDDI entry.
"""

from repro.core.semantic import (
    APPLICATION_PORTTYPE,
    EXECUTION_PORTTYPE,
    MANAGER_PORTTYPE,
    PPERFGRID_NS,
    UNDEFINED_TYPE,
    AggregateRecord,
    PerformanceResult,
    application_porttype_table,
    execution_porttype_table,
    pr_agg_cache_key,
    pr_cache_key,
)
from repro.simnet.lru import CacheStats
from repro.core.prcache import NullCache, PrCache, UnboundedCache
from repro.core.application import ApplicationService
from repro.core.execution import ExecutionService
from repro.core.manager import ManagerService
from repro.core.client import (
    ApplicationBinding,
    ApplicationQuery,
    ApplicationQueryPanel,
    AsyncQueryCollector,
    ExecutionBinding,
    ExecutionQuery,
    ExecutionQueryPanel,
    PPerfGridClient,
)
from repro.core.compare import (
    ExecutionComparison,
    MetricTable,
    ScalingStudy,
    aggregate_by_focus,
    collect_metric,
    compare_executions,
    scaling_study,
)
from repro.core.session import PPerfGridSite, SiteConfig
from repro.core.visualize import render_metric_chart

__all__ = [
    "APPLICATION_PORTTYPE",
    "AggregateRecord",
    "ApplicationBinding",
    "ApplicationQuery",
    "ApplicationQueryPanel",
    "ApplicationService",
    "AsyncQueryCollector",
    "CacheStats",
    "EXECUTION_PORTTYPE",
    "ExecutionBinding",
    "ExecutionComparison",
    "ExecutionQuery",
    "ExecutionQueryPanel",
    "ExecutionService",
    "MetricTable",
    "ScalingStudy",
    "aggregate_by_focus",
    "collect_metric",
    "compare_executions",
    "scaling_study",
    "MANAGER_PORTTYPE",
    "ManagerService",
    "NullCache",
    "PPERFGRID_NS",
    "PPerfGridClient",
    "PPerfGridSite",
    "PerformanceResult",
    "PrCache",
    "SiteConfig",
    "UNDEFINED_TYPE",
    "UnboundedCache",
    "application_porttype_table",
    "execution_porttype_table",
    "pr_agg_cache_key",
    "pr_cache_key",
    "render_metric_chart",
]
