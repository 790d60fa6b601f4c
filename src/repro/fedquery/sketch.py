"""Tier-0 answers: what a member's metric summaries prove about a query.

The summary type itself (:class:`~repro.core.semantic.MetricSketch`)
belongs to the store's own statistics and lives beside
:class:`~repro.core.semantic.StoreStats`.  This module only reads it.

A metric summary is exact — count, total, minimum and maximum of the
metric's full row set — so :func:`estimate_window` decides a metric from
those four scalars alone.  When every value predicate is vacuous over
``[minimum, maximum]`` the summary is the answer; when one is
unsatisfiable over it the answer is empty; otherwise the summary does
not tell which rows match, but a global extremum that matches is the
filtered extremum.  Tier 0 answers a member only when that pins every
selected aggregate to one exact value (tier0-stats).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.semantic import AggregateRecord, MetricSketch
from repro.fedquery.ast import Predicate
from repro.fedquery.cost import unsatisfiable_over, vacuous_over
from repro.fedquery.pushdown import WINDOW_END, WINDOW_START, matches_value

#: the tier label explainPlan shows for a member answered from metadata
TIER0_STATS = "tier0-stats"

#: every aggregate function an exact whole answer pins
ALL_FUNCS = frozenset({"count", "sum", "mean", "min", "max"})


@dataclass(frozen=True)
class WindowEstimate:
    """What one metric's summary proves about the rows matching the
    query's value predicates.

    ``record`` is the member's global ``getPRAgg`` bucket for the metric
    (count 0 when no row matches); ``answers`` names the aggregate
    functions whose value it carries exactly: all five when every row
    matches or none does, at most ``min``/``max`` otherwise.
    """

    record: AggregateRecord
    answers: frozenset[str]


EMPTY_ESTIMATE = WindowEstimate(AggregateRecord("", 0, 0.0, 0.0, 0.0), ALL_FUNCS)


def estimate_window(
    sketch: MetricSketch, preds: tuple[Predicate, ...]
) -> WindowEstimate:
    """Decide the rows matching *preds* from *sketch*'s four scalars."""
    low, high = sketch.minimum, sketch.maximum
    if sketch.count <= 0 or any(unsatisfiable_over(pred, low, high) for pred in preds):
        return EMPTY_ESTIMATE
    if all(vacuous_over(pred, low, high) for pred in preds):
        return WindowEstimate(sketch.record(), ALL_FUNCS)
    # which rows match is unknown, but a matching global extremum is
    # the filtered one
    answers = {"min"} if matches_value(low, preds) else set()
    if matches_value(high, preds):
        answers.add("max")
    return WindowEstimate(sketch.record(), frozenset(answers))


# ------------------------------------------------------------ tier-0 answers


def tier0_query_eligible(query, split, window, allowlist) -> bool:
    """Can this query *shape* be answered from member metadata alone?

    Summaries cover a metric's full row set per member, so the query
    must not slice below the member level: aggregate-only select, group
    keys at most ``app``, no execution/attribute/focus/type predicates,
    and the full time window (stats are never window proofs).
    """
    return (
        query.is_aggregate
        and set(query.group_by) <= {"app"}
        and not split.exec_ids
        and not split.attrs
        and allowlist is None
        and split.type is None
        and window == (WINDOW_START, WINDOW_END)
    )


def tier0_member_answer(
    query, value_preds: tuple[Predicate, ...], stats
) -> tuple[tuple[str, AggregateRecord], ...] | None:
    """One member's tier-0 answer: each metric's global ``getPRAgg``
    bucket, exact in every field a selected aggregate reads.

    ``None`` means the stats do not prove the answer exactly (missing
    or incomplete stats, a metric without a summary, or an aggregate the
    summary leaves unknown) — the executor then falls back to
    push-down/raw for this member only.  Metrics the stats prove empty
    (absent, or an exact zero row count) contribute
    :data:`EMPTY_ESTIMATE`'s zero-row bucket.
    """
    if stats is None or not stats.complete:
        return None
    partials: list[tuple[str, AggregateRecord]] = []
    for metric in query.metrics:
        metric_stats = stats.metric(metric)
        if metric_stats is None or metric_stats.rows == 0:
            partials.append((metric, EMPTY_ESTIMATE.record))
            continue
        sketch = stats.sketch(metric)
        if sketch is None:
            return None
        est = estimate_window(sketch, value_preds)
        if any(
            item.func not in est.answers
            for item in query.aggregates
            if item.metric == metric
        ):
            return None
        partials.append((metric, est.record))
    return tuple(partials)
