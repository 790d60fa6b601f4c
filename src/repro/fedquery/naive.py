"""Naive federated query evaluation — the correctness oracle.

This walks the federation the way a hand-written client would: bind
every member, fetch **every** execution, pull info/metrics/foci for each
one, run plain ``getPR`` for each metric, and do all filtering and
aggregation client-side with its own arithmetic.  No push-down, no
``getPRAgg``, no caching, no concurrency.

It exists for two reasons: the property tests compare the planner
pipeline against it on randomized queries, and the end-to-end benchmark
checks its workloads' rows against it.  Keep it boring and
obviously correct — any cleverness belongs in the planner, not here.
"""

from __future__ import annotations

from repro.core.semantic import UNDEFINED_TYPE, ordering_key
from repro.fedquery.ast import Query, QueryError
from repro.fedquery.merge import RAW_COLUMNS, ResultRow
from repro.fedquery.parser import parse_query
from repro.fedquery.pushdown import (
    app_matches,
    attrs_match,
    derive_window,
    exec_matches,
    filter_foci,
    focus_allowlist,
    matches_value,
    split_predicates,
)


def naive_query(query: str | Query, members: dict[str, object]) -> list[ResultRow]:
    """Evaluate *query* over *members* (name -> Application binding).

    Implements the same language semantics as the planned pipeline —
    attribute predicates and GROUP BY keys refer to published query
    params; a group must have matching results for every selected
    metric — but shares none of its execution machinery.
    """
    if isinstance(query, str):
        query = parse_query(query)
    else:
        query = query.validate()
    unknown = [name for name in query.sources if name not in members]
    if unknown:
        raise QueryError(
            f"unknown application(s) {unknown} (published: {', '.join(members)})"
        )
    split = split_predicates(query)
    start, end = derive_window(split.time)
    allowlist = focus_allowlist(split.focus)
    result_type = str(split.type.value) if split.type is not None else UNDEFINED_TYPE
    group_attrs = query.group_attributes()

    #: group key tuple -> metric -> list of matching values
    groups: dict[tuple[str, ...], dict[str, list[float]]] = {}
    raw_rows: list[ResultRow] = []

    for app in sorted(members):
        if query.sources and app not in query.sources:
            continue
        if not app_matches(app, split.app):
            continue
        binding = members[app]
        params = binding.exec_query_params()
        if any(pred.field not in params for pred in split.attrs):
            continue
        if any(attr not in params for attr in group_attrs):
            continue
        for execution in binding.all_executions():
            exec_id = _execution_id(execution)
            if not exec_matches(exec_id, split.exec_ids):
                continue
            info = dict(execution.info())
            if not attrs_match(info, split.attrs):
                continue
            foci = filter_foci(execution.foci(), allowlist)
            if not foci:
                continue
            available = execution.metrics()
            for metric in query.metrics:
                if metric not in available:
                    continue
                for result in execution.get_pr(metric, foci, start, end, result_type):
                    if not matches_value(result.value, split.value):
                        continue
                    if query.is_aggregate:
                        key = _group_key(query, app, exec_id, info, result.focus)
                        if key is None:
                            continue
                        groups.setdefault(key, {}).setdefault(metric, []).append(
                            result.value
                        )
                    else:
                        raw_rows.append(
                            ResultRow(
                                RAW_COLUMNS,
                                (
                                    app,
                                    exec_id,
                                    result.metric,
                                    result.focus,
                                    result.result_type,
                                    result.start,
                                    result.end,
                                    result.value,
                                ),
                            )
                        )

    if not query.is_aggregate:
        return order_rows(raw_rows, query)

    columns = query.output_columns
    rows: list[ResultRow] = []
    for key, metrics in groups.items():
        values: list[object] = list(key)
        complete = True
        for item in query.aggregates:
            matched = metrics.get(item.metric)
            if not matched:
                complete = False
                break
            values.append(_aggregate(item.func, matched))
        if complete:
            rows.append(ResultRow(columns, tuple(values)))
    return order_rows(rows, query)


def row_sort_key(row: ResultRow) -> tuple:
    """Whole-row canonical sort key: each cell's
    :func:`~repro.core.semantic.ordering_key`, compared row by row — the
    order the engine's :func:`~repro.fedquery.merge.answer_order` gives
    column by column, implemented here on its own."""
    return tuple(map(ordering_key, row.values))


def order_rows(rows: list[ResultRow], query: Query) -> list[ResultRow]:
    """Deterministic ordering + LIMIT of a row list, the oracle's.

    Rows are first sorted by every column (numeric-aware) so output is
    reproducible without an ORDER BY; an explicit ORDER BY then applies
    as the primary, stable key.
    """
    ordered = sorted(rows, key=row_sort_key)
    if query.order_by is not None:
        column = query.order_by
        ordered.sort(
            key=lambda r: ordering_key(r[column]), reverse=query.order_desc
        )
    if query.limit is not None:
        ordered = ordered[: query.limit]
    return ordered


def _execution_id(execution) -> str:
    if execution.is_local:
        return execution.exec_id
    from repro.fedquery.executor import _sde_values

    values = _sde_values(execution.find_service_data("name:execId"))
    if not values:
        raise QueryError(f"execution {execution.gsh} publishes no execId")
    return values[0]


def _group_key(
    query: Query, app: str, exec_id: str, info: dict[str, str], focus: str
) -> tuple[str, ...] | None:
    key: list[str] = []
    for name in query.group_by:
        if name == "app":
            key.append(app)
        elif name == "exec":
            key.append(exec_id)
        elif name == "focus":
            key.append(focus)
        else:
            stored = info.get(name)
            if stored is None:
                return None
            key.append(stored)
    return tuple(key)


def _aggregate(func: str, values: list[float]) -> object:
    if func == "count":
        return len(values)
    if func == "sum":
        return sum(values)
    if func == "mean":
        return sum(values) / len(values)
    if func == "min":
        return min(values)
    if func == "max":
        return max(values)
    raise QueryError(f"unknown aggregate function {func!r}")
