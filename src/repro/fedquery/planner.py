"""Query planner: one federated query -> per-member sub-queries.

The planner is pure analysis — it sees the query AST plus each member's
published metadata (``getExecQueryParams``) and decides:

* which members can contribute at all (``app`` predicates, attribute
  vocabulary, GROUP BY attributes it must be able to resolve);
* how each member selects executions (``getExecsOp`` push-down terms,
  ANDed by intersecting the returned handle sets; ``IN`` decomposes
  into a union of equality calls);
* one :class:`SubQuery` per metric, carrying the time window, tool
  type, focus allowlist, and — in aggregate mode — inclusive value
  bounds and the focus grouping flag for ``getPRAgg``.

**Aggregate mode** is chosen when the SELECT list is all aggregates and
every value predicate is expressible as inclusive bounds; the stores
then return combinable count/total/min/max buckets (RDBMS members via
real SQL).  Otherwise the plan runs in **raw mode**: ``getPR`` rows come
back and the executor filters/reduces client-side.

From the member statistics (the ``stats`` argument, fed by
``getStats``) the mode is chosen *per member and per metric* by the
:mod:`repro.fedquery.cost` model: members whose stats prove they cannot
contribute are skipped outright (``Plan.skipped``), vacuous value
predicates upgrade metrics to bound-free aggregation, and the remainder
— including every member whose stats are unknown — take the global
choice, so one plan can mix raw and aggregate members.  ``Plan.mode``
always records the global (stats-free) choice; ``Plan.effective_mode``
summarizes what the cost model actually picked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.semantic import UNDEFINED_TYPE, StoreStats
from repro.fedquery.ast import Query
from repro.fedquery.cost import CostModel, MemberCost
from repro.fedquery.pushdown import (
    PredicateSplit,
    ValueBounds,
    app_matches,
    derive_value_bounds,
    derive_window,
    focus_allowlist,
    split_predicates,
)
from repro.fedquery.sketch import TIER0_STATS, tier0_member_answer, tier0_query_eligible

#: the attribute name every store answers for unique-execution-id queries
EXEC_ID_ATTRIBUTE = "execid"


@dataclass(frozen=True)
class SubQuery:
    """One store-side call shape for one metric."""

    metric: str
    mode: str  # "aggregate" -> getPRAgg, "raw" -> getPR
    start: float
    end: float
    result_type: str
    min_value: float | None = None
    max_value: float | None = None
    group_by_focus: bool = False

    def describe(self) -> str:
        op = "getPRAgg" if self.mode == "aggregate" else "getPR"
        extras = []
        if self.min_value is not None:
            extras.append(f"value>={self.min_value!r}")
        if self.max_value is not None:
            extras.append(f"value<={self.max_value!r}")
        if self.group_by_focus:
            extras.append("group-by-focus")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        return f"{op}({self.metric}, type={self.result_type}){suffix}"


@dataclass(frozen=True)
class ExecSelector:
    """Execution selection pushed to the store via ``getExecsOp``.

    ``conjuncts`` is an AND of OR-terms: each inner tuple holds
    ``(attribute, value, operator)`` alternatives whose result sets
    union (an ``IN`` predicate), and the outer sets intersect.
    """

    conjuncts: tuple[tuple[tuple[str, str, str], ...], ...]

    def describe(self) -> str:
        ands = []
        for alternatives in self.conjuncts:
            ors = " ∪ ".join(f"getExecsOp({a}, {v!r}, {op})" for a, v, op in alternatives)
            ands.append(f"({ors})" if len(alternatives) > 1 else ors)
        return " ∩ ".join(ands)


@dataclass(frozen=True)
class MemberPlan:
    """Everything the executor needs for one federation member."""

    app: str
    selector: ExecSelector | None  # None -> getAllExecs
    subqueries: tuple[SubQuery, ...]
    foci: frozenset[str] | None  # None -> all of each execution's foci
    group_attrs: tuple[str, ...]
    needs_info: bool
    cost: MemberCost
    #: answer tier: "tier0-stats" (exact from metadata), "pushdown"
    #: (getPRAgg), or "raw" (getPR rows reduced client-side)
    tier: str = "pushdown"
    #: tier-0 payload: ((metric, AggregateRecord), ...) — each metric's
    #: global getPRAgg bucket, read at plan time off the member's cached
    #: exact summaries, zero round-trips
    tier0: tuple = ()

    @property
    def is_tier0(self) -> bool:
        return self.tier == TIER0_STATS

    @property
    def est_round_trips(self) -> int | None:
        """Estimated member calls (0 for tier-0; None without stats)."""
        return 0 if self.is_tier0 else self.cost.est_calls

    def est_rows_per_execution(self, executions: int) -> int | None:
        """The row estimate spread evenly over the member's *executions*
        selected executions (None without stats): what picks bulk
        ``getPR`` or a chunked cursor for each of them."""
        if self.cost.est_rows is None:
            return None
        return max(1, self.cost.est_rows // max(1, executions))

    def describe(self) -> list[str]:
        lines = [f"member {self.app}: tier={self.tier}"]
        if self.is_tier0:
            lines.append("  answered from cached stats/sketches (0 round-trips)")
            lines.append(f"  {self.cost.describe()}")
            return lines
        lines.append(
            "  execs: "
            + (self.selector.describe() if self.selector else "getAllExecs()")
        )
        if self.foci is not None:
            lines.append(f"  foci ∩ {{{', '.join(sorted(self.foci))}}}")
        for sub in self.subqueries:
            lines.append(f"  {sub.describe()}")
        if self.needs_info:
            lines.append(f"  getInfo() for group keys {self.group_attrs}")
        lines.append(f"  {self.cost.describe()}")
        if self.est_round_trips is not None:
            lines.append(f"  est round-trips: {self.est_round_trips}")
        return lines


@dataclass(frozen=True)
class PrunedMember:
    app: str
    reason: str


@dataclass(frozen=True)
class Plan:
    """The compiled federated query."""

    query: Query
    split: PredicateSplit
    window: tuple[float, float]
    bounds: ValueBounds
    mode: str  # the global (stats-free) choice: "aggregate" | "raw"
    members: tuple[MemberPlan, ...]
    pruned: tuple[PrunedMember, ...]
    #: members the cost model proved cannot contribute (stats-based)
    skipped: tuple[PrunedMember, ...] = ()
    #: the query *shape* admits tier-0 answers (individual members may
    #: still fall back when their stats do not prove the answer exactly)
    tier0_capable: bool = False

    @property
    def fingerprint(self) -> str:
        """Plan-cache key: the query fingerprint plus the answer-tier
        assignment, so a tier-0 plan and a push-down plan for the same
        text never collide."""
        base = self.query.fingerprint()
        tier0 = ",".join(
            f"{member.app}={member.tier}"
            for member in self.members
            if member.is_tier0
        )
        if tier0:
            base += f";tier0[{tier0}]"
        return base

    @property
    def effective_mode(self) -> str:
        """What the cost model actually picked across the federation:
        ``raw`` / ``aggregate`` when uniform, ``tier0`` when every
        member answers from metadata, ``mixed`` when members (or
        metrics within one member) diverge, ``skip`` when statistics
        proved no member can contribute."""
        modes = {
            "tier0" if member.is_tier0 else member.cost.mode
            for member in self.members
        }
        if self.skipped:
            modes.add("skip")
        if not modes:
            return self.mode
        if len(modes) == 1:
            return next(iter(modes))
        if modes == {"tier0", "skip"}:
            return "tier0"
        return "mixed"

    @property
    def estimated_round_trips(self) -> int:
        """Estimated member calls across the plan (tier-0 members count
        zero; members planned without stats estimate one per subquery)."""
        total = 0
        for member in self.members:
            est = member.est_round_trips
            if est is None:
                est = 1 + len(member.subqueries)
            total += est
        return total

    @property
    def estimated_bytes(self) -> int:
        """Cost-model estimate of total transfer bytes (known members)."""
        return sum(
            member.cost.est_bytes
            for member in self.members
            if member.cost.est_bytes is not None
        )

    @property
    def stats_degraded(self) -> bool:
        """True when any member was planned without statistics (fetch
        failed); such plans' results must not be memoized, so recovery
        re-plans with fresh stats."""
        return any(member.cost.stats_missing for member in self.members)

    def explain(self) -> str:
        """The cost-annotated plan as text: per-member push-down terms,
        tiers and estimates, skipped and pruned members, and the
        federation-wide effective mode and estimated transfer."""
        lines = [f"plan: {self.fingerprint}"]
        if self.mode == "aggregate":
            lines.append("mode: aggregate (stores return count/total/min/max buckets)")
        else:
            lines.append("mode: raw (getPR rows reduced client-side)")
        if self.tier0_capable:
            lines.append("tier0: query shape answerable from cached stats/sketches")
        lines.append(f"window: [{self.window[0]!r}, {self.window[1]!r}]")
        if self.split.value and not self.bounds.pushable:
            lines.append("value predicates: strict comparison, filtered client-side")
        for member in self.members:
            lines.extend(member.describe())
        for skipped in self.skipped:
            lines.append(f"skipped {skipped.app}: stats prove {skipped.reason}")
        for pruned in self.pruned:
            lines.append(f"pruned {pruned.app}: {pruned.reason}")
        lines.append(f"estimated round-trips: {self.estimated_round_trips}")
        lines.append(f"effective mode: {self.effective_mode}")
        lines.append(f"estimated transfer: {self.estimated_bytes} bytes")
        return "\n".join(lines)


@dataclass(frozen=True)
class ViewShape:
    """How a materialized view of this query can be maintained.

    ``aggregate-merge``: per-partition accumulator snapshots re-merge
    into the output (every aggregate the grammar admits combines:
    count/sum/min/max directly, mean as the (total, count) pair).
    ``raw-splice``: raw partitions concatenate under the canonical order.
    ``topk-bounded``: raw with LIMIT — each partition keeps only its own
    top-N candidate set (the global top-N is always a subset of the
    union of per-partition top-Ns under a total order).
    """

    kind: str
    detail: str


def view_shape(query: Query) -> ViewShape:
    """Combinability analysis for incremental view maintenance."""
    if query.is_aggregate:
        detail = "count/total/min/max accumulators merge per partition"
        if any(item.func == "mean" for item in query.aggregates):
            detail += "; mean folds as sum+count"
        return ViewShape("aggregate-merge", detail)
    if query.limit is not None:
        return ViewShape(
            "topk-bounded",
            f"per-partition candidate sets bounded to LIMIT {query.limit}",
        )
    return ViewShape("raw-splice", "raw partitions splice under the canonical order")


def _build_selector(split: PredicateSplit, params: dict[str, list[str]]) -> ExecSelector | None:
    conjuncts: list[tuple[tuple[str, str, str], ...]] = []
    for pred in split.exec_ids:
        if pred.op == "in":
            conjuncts.append(
                tuple((EXEC_ID_ATTRIBUTE, v, "=") for v in pred.values())
            )
        else:
            conjuncts.append(((EXEC_ID_ATTRIBUTE, str(pred.value), pred.op),))
    for pred in split.attrs:
        if pred.op == "in":
            conjuncts.append(tuple((pred.field, v, "=") for v in pred.values()))
        else:
            conjuncts.append(((pred.field, str(pred.value), pred.op),))
    if not conjuncts:
        return None
    return ExecSelector(conjuncts=tuple(conjuncts))


def _member_subqueries(
    window: tuple[float, float],
    bounds: ValueBounds,
    result_type: str,
    group_by_focus: bool,
    cost: MemberCost,
) -> tuple[SubQuery, ...]:
    """One SubQuery per surviving metric, honoring per-metric modes.

    The cost verdict names a mode for every selected metric, in SELECT
    order (the global one when the member's stats are unknown).
    Provably-empty metrics are omitted (an aggregate group missing any
    selected metric is dropped by the merger — exactly what an executed
    empty sub-query would do), and vacuous metrics aggregate with no
    value bounds.
    """
    subqueries: list[SubQuery] = []
    for metric, metric_mode in cost.metric_modes:
        if metric_mode == "skip":
            continue
        aggregate = metric_mode == "aggregate"
        bounded = aggregate and metric not in cost.vacuous
        subqueries.append(
            SubQuery(
                metric=metric,
                mode=metric_mode,
                start=window[0],
                end=window[1],
                result_type=result_type,
                min_value=bounds.minimum if bounded else None,
                max_value=bounds.maximum if bounded else None,
                group_by_focus=aggregate and group_by_focus,
            )
        )
    return tuple(subqueries)


def plan_query(
    query: Query,
    catalog: dict[str, dict[str, list[str]]],
    stats: dict[str, StoreStats | None],
    tier0: bool = True,
) -> Plan:
    """Compile *query* against *catalog* (member name -> query params).

    Semantics note: execution-attribute predicates and GROUP BY keys
    refer to the member's *published* query parameters — a member that
    does not publish a referenced attribute contributes no rows, exactly
    as its own ``getExecs`` would reject the attribute.

    *stats* (member name -> :class:`StoreStats`) drives cost-based
    per-member plan selection; a member mapped to ``None`` or absent
    from it (stats could not be fetched — ``{}`` means nothing is known
    about anyone) runs in the global mode, is never skipped, and marks
    the plan ``stats_degraded``.

    With *tier0*, members whose cached stats/sketches prove the exact
    answer to an eligible aggregate query are planned at tier 0: no
    selector, no subqueries, zero round-trips — the executor folds the
    plan-time ``getPRAgg`` buckets straight into the merge.  A member whose summaries leave an
    aggregate unknown fans out like any other.
    """
    split = split_predicates(query)
    window = derive_window(split.time)
    bounds = derive_value_bounds(split.value)
    allowlist = focus_allowlist(split.focus)
    result_type = str(split.type.value) if split.type is not None else UNDEFINED_TYPE
    aggregate = query.is_aggregate and bounds.pushable
    mode = "aggregate" if aggregate else "raw"
    group_attrs = query.group_attributes()
    group_by_focus = "focus" in query.group_by
    cost_model = CostModel(query, split, window, bounds, allowlist, mode)
    tier0_capable = tier0 and tier0_query_eligible(query, split, window, allowlist)

    members: list[MemberPlan] = []
    pruned: list[PrunedMember] = []
    skipped: list[PrunedMember] = []
    for app in sorted(catalog):
        if query.sources and app not in query.sources:
            pruned.append(PrunedMember(app, "not in FROM clause"))
            continue
        if not app_matches(app, split.app):
            pruned.append(PrunedMember(app, "app predicate excludes it"))
            continue
        params = catalog[app]
        missing = [
            p.field for p in split.attrs if p.field not in params
        ] + [k for k in group_attrs if k not in params]
        if missing:
            pruned.append(
                PrunedMember(app, f"does not publish attribute(s) {sorted(set(missing))}")
            )
            continue
        cost = cost_model.member(stats.get(app))
        if cost.mode == "skip":
            skipped.append(PrunedMember(app, cost.reason))
            continue
        partials = (
            tier0_member_answer(query, split.value, stats.get(app))
            if tier0_capable
            else None
        )
        if partials is not None:
            members.append(
                MemberPlan(
                    app=app,
                    selector=None,
                    subqueries=(),
                    foci=None,
                    group_attrs=(),
                    needs_info=False,
                    cost=replace(cost, est_rows=0, est_bytes=0, est_calls=0),
                    tier=TIER0_STATS,
                    tier0=partials,
                )
            )
            continue
        subqueries = _member_subqueries(
            window, bounds, result_type, group_by_focus, cost
        )
        members.append(
            MemberPlan(
                app=app,
                selector=_build_selector(split, params),
                subqueries=subqueries,
                foci=allowlist,
                group_attrs=group_attrs,
                needs_info=bool(group_attrs),
                cost=cost,
                tier="pushdown"
                if any(sub.mode == "aggregate" for sub in subqueries)
                else "raw",
            )
        )
    return Plan(
        query=query,
        split=split,
        window=window,
        bounds=bounds,
        mode=mode,
        members=tuple(members),
        pruned=tuple(pruned),
        skipped=tuple(skipped),
        tier0_capable=tier0_capable,
    )
