"""repro.fedquery — federated query planner/executor for PPerfGrid.

A declarative query language over the whole federation of published
Applications, compiled into per-store sub-queries with push-down
(``getExecsOp`` selection, focused ``getPR`` parameters, server-side
``getPRAgg`` aggregation with real SQL in the RDBMS wrappers), executed
with a replica-aware parallel fan-out, merged streamingly, and memoized
per canonical query fingerprint.  A raw query reads each execution
through one reader: bulk drains the readers on the fan-out pool, and
``execute(stream=True)`` pulls the same readers' runs in order, one
member chunk at a time through chunked ResultCursors — one cursor open
at a time — for the bulk path's exact row order in bounded memory.  Either way the answer is one
:class:`QueryResult`: chunks of ``col=value`` wire tokens from the merge
to the wire, iterated as rows through the client's own decoder, and
stored as they are in the plan cache.

Entry points:

* :func:`parse_query` — text -> validated :class:`Query`;
* :func:`plan_query` — :class:`Query` + member catalog (+ optional
  member :class:`StoreStats` for cost-based selection) -> :class:`Plan`;
* :class:`CostModel` — per-member raw/aggregate/skip selection and
  cardinality/byte estimation from ``getStats`` statistics;
* :class:`FederationEngine` — plan + execute against live members;
* :class:`FederatedQueryService` — the OGSI PortType wrapping an engine;
* :class:`ViewMaintainer` / :class:`ViewRegistryService` — standing
  queries maintained incrementally as materialized views, with pushed
  versioned deltas (``createView``/``subscribeView``);
* :func:`naive_query` — the push-down-free reference implementation.
"""

from repro.fedquery.ast import (
    AGG_FUNCS,
    RESERVED_FIELDS,
    Predicate,
    Query,
    QueryError,
    SelectItem,
)
from repro.fedquery.cost import (
    AGG_RECORD_BYTES,
    RAW_RECORD_BYTES,
    CostModel,
    MemberCost,
    unsatisfiable_over,
    vacuous_over,
    value_fraction,
)
from repro.fedquery.executor import FederationEngine, QueryResult, choose_fanout
from repro.fedquery.merge import Accumulator, ResultRow, StreamingMerger, TaskContext
from repro.fedquery.naive import naive_query, order_rows
from repro.fedquery.parser import parse_query
from repro.fedquery.planner import (
    ExecSelector,
    MemberPlan,
    Plan,
    PrunedMember,
    SubQuery,
    ViewShape,
    plan_query,
    view_shape,
)
from repro.fedquery.pushdown import (
    PredicateSplit,
    ValueBounds,
    derive_value_bounds,
    derive_window,
    split_predicates,
)
from repro.fedquery.service import FEDERATED_QUERY_PORTTYPE, FederatedQueryService
from repro.fedquery.views import MaterializedView, ViewDelta, ViewMaintainer
from repro.fedquery.viewservice import VIEW_REGISTRY_PORTTYPE, ViewRegistryService

__all__ = [
    "AGG_FUNCS",
    "AGG_RECORD_BYTES",
    "Accumulator",
    "CostModel",
    "ExecSelector",
    "FEDERATED_QUERY_PORTTYPE",
    "FederatedQueryService",
    "FederationEngine",
    "MaterializedView",
    "MemberCost",
    "MemberPlan",
    "Plan",
    "Predicate",
    "PredicateSplit",
    "PrunedMember",
    "Query",
    "QueryError",
    "QueryResult",
    "RAW_RECORD_BYTES",
    "RESERVED_FIELDS",
    "ResultRow",
    "SelectItem",
    "StreamingMerger",
    "SubQuery",
    "TaskContext",
    "VIEW_REGISTRY_PORTTYPE",
    "ValueBounds",
    "ViewDelta",
    "ViewMaintainer",
    "ViewRegistryService",
    "ViewShape",
    "choose_fanout",
    "derive_value_bounds",
    "derive_window",
    "naive_query",
    "order_rows",
    "parse_query",
    "plan_query",
    "split_predicates",
    "view_shape",
    "unsatisfiable_over",
    "vacuous_over",
    "value_fraction",
]
