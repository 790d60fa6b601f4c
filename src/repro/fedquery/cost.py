"""Cost-based per-member plan selection.

The global planner picks one mode for the whole federation: aggregate
push-down when the query allows it, raw rows otherwise.  With member
statistics (``getStats``) the planner can do better *per member*:

* **skip** a member whose stats *prove* it cannot contribute — a query
  metric it does not record, a metric with an exact zero row count,
  value predicates unsatisfiable over the published ``[min, max]``, a
  focus allowlist disjoint from its foci, or a type it never produces;
* upgrade a metric to **aggregate without bounds** when every value
  predicate is *vacuous* over ``[min, max]`` (all possible values
  satisfy it), even when a strict ``<``/``>``/``!=`` makes the bounds
  non-pushable globally;
* otherwise fall back to the global choice per metric, yielding
  **mixed** members and mixed plans.

Every proof requires ``stats.complete`` (the soundness contract in
:class:`repro.core.semantic.StoreStats`); time-window coverage is never
a proof because some stores ignore the window.  Missing or failed stats
degrade gracefully: the member keeps the pre-cost-model global mode and
is *never* skipped.

Alongside the mode decision the model estimates result cardinality and
transfer bytes from ``rows × window_fraction × focus_fraction ×
value_fraction`` — estimates feed ``explainPlan``, the result's
``estimatedBytes`` counter and the bulk-vs-cursor choice, never
correctness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.semantic import StoreStats
from repro.fedquery.ast import Predicate, Query
from repro.fedquery.pushdown import (
    PredicateSplit,
    ValueBounds,
    filter_foci,
    matches_value,
)

#: estimated packed (per-row XML) bytes per transferred record, what an XML
#: read's ``payloadBytes`` counts: ``metric|focus|type|span|value`` averages
#: ≈ 72 and ``group|count|total|min|max`` ≈ 44 characters on the reference stores
RAW_RECORD_BYTES = 72
AGG_RECORD_BYTES = 44

#: selectivity guess for an equality predicate when the range cannot
#: decide it (classic System-R style magic number)
EQ_SELECTIVITY = 0.05


def unsatisfiable_over(pred: Predicate, lo: float, hi: float) -> bool:
    """True iff *no* value in the superset ``[lo, hi]`` satisfies *pred*.

    ``[lo, hi]`` is a superset of the store's possible values, so this
    is a proof the predicate filters out every row the store could
    return.  Conservative: unknown operators prove nothing.
    """
    bound = float(str(pred.value))
    if pred.op == "=":
        return bound < lo or bound > hi
    if pred.op == "!=":
        return lo == hi == bound
    if pred.op == "<":
        return lo >= bound
    if pred.op == "<=":
        return lo > bound
    if pred.op == ">":
        return hi <= bound
    if pred.op == ">=":
        return hi < bound
    return False


def vacuous_over(pred: Predicate, lo: float, hi: float) -> bool:
    """True iff *every* value in ``[lo, hi]`` satisfies *pred*.

    Because ``[lo, hi]`` is a superset of the store's values, a vacuous
    predicate filters nothing — the executor may then aggregate at the
    store with no value bounds even when the predicate itself is not
    expressible as inclusive bounds.
    """
    bound = float(str(pred.value))
    if pred.op == "=":
        return lo == hi == bound
    if pred.op == "!=":
        return bound < lo or bound > hi
    if pred.op == "<":
        return hi < bound
    if pred.op == "<=":
        return hi <= bound
    if pred.op == ">":
        return lo > bound
    if pred.op == ">=":
        return lo >= bound
    return False


def _clamp01(fraction: float) -> float:
    return min(1.0, max(0.0, fraction))


def value_fraction(preds: tuple[Predicate, ...], lo: float, hi: float) -> float:
    """Estimated fraction of rows surviving the value predicates.

    Assumes values spread uniformly over ``[lo, hi]``; predicates
    multiply (independence assumption).  A zero-width range is decided
    exactly via :func:`matches_value`.
    """
    fraction = 1.0
    width = hi - lo
    for pred in preds:
        if width <= 0.0:
            fraction *= 1.0 if matches_value(lo, (pred,)) else 0.0
            continue
        bound = float(str(pred.value))
        if pred.op == "=":
            part = EQ_SELECTIVITY
        elif pred.op == "!=":
            part = 1.0
        elif pred.op in ("<", "<="):
            part = _clamp01((bound - lo) / width)
        else:  # ">", ">="
            part = _clamp01((hi - bound) / width)
        fraction *= part
    return fraction


@dataclass(frozen=True)
class MemberCost:
    """The cost model's verdict for one federation member.

    ``mode`` summarizes the per-metric decisions: ``skip`` (every metric
    provably empty), ``raw``/``aggregate`` (uniform), or ``mixed``.
    ``est_rows``/``est_bytes`` are ``None`` when stats were unavailable
    (``stats_missing=True`` — the member runs in the global mode and the
    degraded plan's result must not be memoized).
    """

    mode: str  # "raw" | "aggregate" | "mixed" | "skip"
    est_rows: int | None
    est_bytes: int | None
    reason: str
    stats_missing: bool = False
    #: (metric, mode) for every selected metric, in SELECT order
    metric_modes: tuple[tuple[str, str], ...] = ()
    vacuous: frozenset[str] = frozenset()
    #: estimated member round-trips (exec selection + per-metric fetches
    #: per touched execution); None when stats were unavailable, 0 for
    #: provable skips — and for tier-0 answers, which never call out
    est_calls: int | None = None

    def describe(self) -> str:
        if self.stats_missing:
            return f"cost: mode={self.mode} (stats unavailable — global mode)"
        rows = "?" if self.est_rows is None else str(self.est_rows)
        size = "?" if self.est_bytes is None else str(self.est_bytes)
        text = f"cost: mode={self.mode} est_records={rows} est_bytes={size}"
        if self.reason:
            text += f" ({self.reason})"
        return text


class CostModel:
    """Per-member mode selection and cardinality estimation.

    Built once per plan from the query's push-down analysis; *member*
    is then called with each member's :class:`StoreStats` (or ``None``
    when stats could not be fetched).
    """

    def __init__(
        self,
        query: Query,
        split: PredicateSplit,
        window: tuple[float, float],
        bounds: ValueBounds,
        allowlist: frozenset[str] | None,
        global_mode: str,
    ) -> None:
        self.query = query
        self.split = split
        self.window = window
        self.bounds = bounds
        self.allowlist = allowlist
        self.global_mode = global_mode
        self.group_by_focus = "focus" in query.group_by

    # -------------------------------------------------------------- verdict
    def member(self, stats: StoreStats | None) -> MemberCost:
        if stats is None:
            return MemberCost(
                mode=self.global_mode,
                est_rows=None,
                est_bytes=None,
                reason="stats unavailable",
                stats_missing=True,
                metric_modes=tuple(
                    (metric, self.global_mode) for metric in self.query.metrics
                ),
            )
        provable = stats.complete
        skip_all = self._member_skip_reason(stats) if provable else None
        if skip_all is not None:
            return MemberCost(
                mode="skip",
                est_rows=0,
                est_bytes=0,
                reason=skip_all,
                metric_modes=tuple(
                    (metric, "skip") for metric in self.query.metrics
                ),
                est_calls=0,
            )
        metric_modes: list[tuple[str, str]] = []
        vacuous: list[str] = []
        reasons: list[str] = []
        est_rows = 0
        est_bytes = 0
        for metric in self.query.metrics:
            mode, why = self._metric_mode(metric, stats, provable, vacuous)
            metric_modes.append((metric, mode))
            if why:
                reasons.append(why)
            rows, size = self._metric_estimate(metric, mode, stats)
            est_rows += rows
            est_bytes += size
        modes = {mode for _, mode in metric_modes}
        if modes == {"skip"}:
            member_mode = "skip"
        elif len(modes) == 1:
            member_mode = next(iter(modes))
        else:
            member_mode = "mixed"
        if not provable:
            reasons.append("stats incomplete: estimates only, no proofs")
        live_metrics = sum(1 for _, mode in metric_modes if mode != "skip")
        if member_mode == "skip":
            est_calls = 0
        else:
            # one exec-selection exchange plus one data fetch per live
            # metric per touched execution
            est_calls = 1 + live_metrics * max(1, stats.executions)
        return MemberCost(
            mode=member_mode,
            est_rows=est_rows,
            est_bytes=est_bytes,
            reason="; ".join(reasons),
            metric_modes=tuple(metric_modes),
            vacuous=frozenset(vacuous),
            est_calls=est_calls,
        )

    def _member_skip_reason(self, stats: StoreStats) -> str | None:
        """A proof that *no* metric of this member can contribute."""
        if self.allowlist is not None and not filter_foci(
            list(stats.foci), self.allowlist
        ):
            return "focus allowlist disjoint from store foci"
        type_pred = self.split.type
        if type_pred is not None and str(type_pred.value) not in stats.types:
            return f"store never produces type {type_pred.value!r}"
        return None

    def _metric_mode(
        self,
        metric: str,
        stats: StoreStats,
        provable: bool,
        vacuous: list[str],
    ) -> tuple[str, str]:
        """(mode, reason) for one metric; appends to *vacuous* in place."""
        metric_stats = stats.metric(metric)
        value_preds = self.split.value
        if provable:
            if metric_stats is None:
                return "skip", f"{metric}: not recorded"
            if metric_stats.rows == 0:
                return "skip", f"{metric}: 0 rows"
            if value_preds and any(
                unsatisfiable_over(p, metric_stats.minimum, metric_stats.maximum)
                for p in value_preds
            ):
                return "skip", f"{metric}: value predicates unsatisfiable"
        if not self.query.is_aggregate:
            return "raw", ""
        if (
            provable
            and metric_stats is not None
            and value_preds
            and all(
                vacuous_over(p, metric_stats.minimum, metric_stats.maximum)
                for p in value_preds
            )
        ):
            # every possible value passes: aggregate with no bounds even
            # when the predicates are not pushable as inclusive bounds
            vacuous.append(metric)
            return "aggregate", f"{metric}: value predicates vacuous"
        if self.bounds.pushable:
            return "aggregate", ""
        return "raw", ""

    # ------------------------------------------------------------ estimates
    def _metric_estimate(
        self, metric: str, mode: str, stats: StoreStats
    ) -> tuple[int, int]:
        """(records, bytes) estimated to cross the wire for one metric."""
        if mode == "skip":
            return 0, 0
        if mode == "aggregate":
            buckets = max(1, stats.executions)
            if self.group_by_focus:
                buckets *= max(1, len(filter_foci(list(stats.foci), self.allowlist)))
            return buckets, buckets * AGG_RECORD_BYTES
        metric_stats = stats.metric(metric)
        if metric_stats is None:
            return 0, 0
        rows = metric_stats.rows
        rows *= self._window_fraction(stats)
        rows *= self._focus_fraction(stats)
        rows *= value_fraction(
            self.split.value, metric_stats.minimum, metric_stats.maximum
        )
        estimate = int(rows + 0.5)
        if metric_stats.rows and rows > 0.0:
            estimate = max(1, estimate)
        return estimate, estimate * RAW_RECORD_BYTES

    def _window_fraction(self, stats: StoreStats) -> float:
        span = stats.end - stats.start
        if span <= 0.0:
            return 1.0
        overlap = min(stats.end, self.window[1]) - max(stats.start, self.window[0])
        return _clamp01(overlap / span)

    def _focus_fraction(self, stats: StoreStats) -> float:
        if self.allowlist is None or not stats.foci:
            return 1.0
        allowed = filter_foci(list(stats.foci), self.allowlist)
        return _clamp01(len(allowed) / len(stats.foci))
