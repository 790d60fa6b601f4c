"""Tier-0 estimation: what a member's sketches prove about a query.

The sketch types themselves (:class:`~repro.core.semantic.MetricSketch`,
:class:`~repro.core.semantic.DistinctSketch`) belong to the store's own
statistics and live beside :class:`~repro.core.semantic.StoreStats`.
This module only reads them.

A rebinning merge widens each bucket by the sketch's ``fuzz``, and
:func:`estimate_window` classifies buckets against predicates over their
*widened* ranges.  Mass in a bucket whose widened range provably
satisfies (or provably violates) every predicate is exactly countable;
that yields sound interval bounds on the filtered count and sum, and
tier 0 answers a member only when those bounds (or a proven extremum)
pin every selected aggregate to one exact value (tier0-stats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.semantic import MetricSketch
from repro.fedquery.ast import Predicate
from repro.fedquery.cost import unsatisfiable_over, vacuous_over
from repro.fedquery.pushdown import WINDOW_END, WINDOW_START, matches_value

#: the tier label explainPlan shows for a member answered from metadata
TIER0_STATS = "tier0-stats"


@dataclass(frozen=True)
class WindowEstimate:
    """Sound bounds for one metric under the query's value predicates,
    derived purely from its sketch.

    The invariants tier 0 relies on to prove an answer exact:

    * the true matching-row count lies in ``[count_lo, count_hi]``;
    * the true matching-value sum lies in ``[sum_lo, sum_hi]``;
    * every matching value lies in ``[value_lo, value_hi]``;
    * ``min_exact``/``max_exact`` are the *exact* filtered extrema when
      provable (the global extremum itself satisfies the predicates),
      ``None`` otherwise;
    * zero-width count and sum bounds are exact answers.
    """

    count_lo: float
    count_hi: float
    sum_lo: float
    sum_hi: float
    min_exact: float | None
    max_exact: float | None
    value_lo: float
    value_hi: float

    @property
    def empty(self) -> bool:
        return self.count_hi <= 0.0

    @property
    def exact(self) -> bool:
        return self.count_lo == self.count_hi and self.sum_lo == self.sum_hi


EMPTY_ESTIMATE = WindowEstimate(0.0, 0.0, 0.0, 0.0, None, None, 0.0, 0.0)


def _allowed_hull(preds: tuple[Predicate, ...]) -> tuple[float, float]:
    """Interval hull of values any satisfying row may take (``!=`` and
    the hull's open/closed distinction are conservatively ignored)."""
    low, high = -math.inf, math.inf
    for pred in preds:
        bound = float(str(pred.value))
        if pred.op == "=":
            low, high = max(low, bound), min(high, bound)
        elif pred.op in ("<", "<="):
            high = min(high, bound)
        elif pred.op in (">", ">="):
            low = max(low, bound)
    return low, high


def _exact_estimate(sketch: MetricSketch, preds: tuple[Predicate, ...]) -> WindowEstimate:
    """Every row matches: the sketch scalars are the exact answer."""
    count = float(sketch.count)
    return WindowEstimate(
        count_lo=count, count_hi=count,
        sum_lo=sketch.total, sum_hi=sketch.total,
        min_exact=sketch.minimum, max_exact=sketch.maximum,
        value_lo=sketch.minimum, value_hi=sketch.maximum,
    )


def estimate_window(
    sketch: MetricSketch, preds: tuple[Predicate, ...]
) -> WindowEstimate:
    """Sound count/sum bounds for the rows matching *preds*.

    Each bucket's range is widened by the sketch ``fuzz`` (clipped to
    the exact global range) and classified: *inside* when every widened
    value satisfies all predicates, *outside* when some predicate is
    unsatisfiable over it, *partial* otherwise.  Inside mass bounds the
    count from below, ``count - outside mass`` from above; sum bounds
    combine the direct per-bucket envelopes with the complement route
    ``exact total - excluded`` — whichever is tighter — so full coverage
    degenerates to the exact answer regardless of merge history.
    """
    if sketch.count <= 0:
        return EMPTY_ESTIMATE
    if not preds:
        return _exact_estimate(sketch, preds)
    gmin, gmax = sketch.minimum, sketch.maximum
    if any(unsatisfiable_over(pred, gmin, gmax) for pred in preds):
        return EMPTY_ESTIMATE
    buckets = sketch.buckets()
    fuzz = sketch.fuzz
    trust_totals = sketch.exact_buckets
    hull_lo, hull_hi = _allowed_hull(preds)
    value_lo = max(gmin, hull_lo)
    value_hi = min(gmax, hull_hi)

    count_in = 0.0
    count_out = 0.0
    direct_lo = direct_hi = 0.0  # sum over selected rows, direct route
    excl_lo = excl_hi = 0.0  # sum over excluded rows, complement route
    all_inside = True
    for mass, tot, low, high in buckets:
        if mass <= 0.0:
            continue
        w_low = max(gmin, low - fuzz)
        w_high = min(gmax, high + fuzz)
        if all(vacuous_over(pred, w_low, w_high) for pred in preds):
            count_in += mass
            if trust_totals:
                direct_lo += tot
                direct_hi += tot
            else:
                direct_lo += mass * w_low
                direct_hi += mass * w_high
            continue
        all_inside = False
        if any(unsatisfiable_over(pred, w_low, w_high) for pred in preds):
            count_out += mass
            if trust_totals:
                excl_lo += tot
                excl_hi += tot
            else:
                excl_lo += mass * w_low
                excl_hi += mass * w_high
            continue
        # partial bucket: between 0 and all of its mass is selected
        env_lo = max(w_low, hull_lo)
        env_hi = min(w_high, hull_hi)
        direct_lo += min(0.0, mass * env_lo)
        direct_hi += max(0.0, mass * env_hi)
        excl_lo += min(0.0, mass * w_low)
        excl_hi += max(0.0, mass * w_high)
    if all_inside:
        # full coverage: exact regardless of any float drift in the
        # (possibly rebinned) per-bucket masses
        return _exact_estimate(sketch, preds)
    count_lo = count_in
    count_hi = float(sketch.count) - count_out
    min_exact = sketch.minimum if matches_value(sketch.minimum, preds) else None
    max_exact = sketch.maximum if matches_value(sketch.maximum, preds) else None
    if min_exact is not None or max_exact is not None:
        # the surviving extremum is itself a matching row
        count_lo = max(count_lo, 1.0)
    count_lo = max(0.0, min(count_lo, count_hi))
    sum_lo = max(direct_lo, sketch.total - excl_hi)
    sum_hi = min(direct_hi, sketch.total - excl_lo)
    if sum_lo > sum_hi:  # float-drift guard; the routes agree in theory
        sum_lo, sum_hi = min(direct_lo, sum_lo), max(direct_hi, sum_hi)
    # partial-coverage sum bounds come from bucket totals summed in scan
    # order; the exact pipeline sums the same rows in merge order, so the
    # true value can sit one ulp outside — pad by a relative epsilon
    # (counts are integer sums, exact in floats, and need no pad)
    pad = 1e-9 * max(1.0, abs(sum_lo), abs(sum_hi))
    sum_lo -= pad
    sum_hi += pad
    return WindowEstimate(
        count_lo=count_lo, count_hi=count_hi,
        sum_lo=sum_lo, sum_hi=sum_hi,
        min_exact=min_exact, max_exact=max_exact,
        value_lo=value_lo, value_hi=value_hi,
    )


# ------------------------------------------------------------ tier-0 answers


def tier0_query_eligible(query, split, window, allowlist) -> bool:
    """Can this query *shape* be answered from member metadata alone?

    Sketches summarize a metric's full row set per member, so the query
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


def _item_answerable(func: str, est: WindowEstimate) -> bool:
    """Do the member's bounds pin this aggregate to one exact value?"""
    if est.empty:
        return True  # contributes nothing; the group simply won't emit
    if func == "count":
        return est.count_lo == est.count_hi
    if func == "sum":
        return est.sum_lo == est.sum_hi
    if func == "mean":
        return est.exact
    if func == "min":
        return est.min_exact is not None
    if func == "max":
        return est.max_exact is not None
    return False


def tier0_member_answer(
    query, value_preds: tuple[Predicate, ...], stats
) -> tuple[tuple[str, WindowEstimate], ...] | None:
    """One member's tier-0 answer: its per-metric partials.

    ``None`` means the stats do not prove the answer exactly (missing
    or incomplete stats, a metric without a sketch, or an aggregate the
    bounds leave inexact) — the executor then falls back to
    push-down/raw for this member only.  Metrics the stats prove empty
    (absent, or an exact zero row count) contribute
    :data:`EMPTY_ESTIMATE` — the exact zero-row answer.
    """
    if stats is None or not stats.complete:
        return None
    partials: list[tuple[str, WindowEstimate]] = []
    for metric in query.metrics:
        metric_stats = stats.metric(metric)
        if metric_stats is None or metric_stats.rows == 0:
            partials.append((metric, EMPTY_ESTIMATE))
            continue
        sketch = stats.sketch(metric)
        if sketch is None:
            return None
        est = estimate_window(sketch, value_preds)
        if not all(
            _item_answerable(item.func, est)
            for item in query.aggregates
            if item.metric == metric
        ):
            return None
        partials.append((metric, est))
    return tuple(partials)
