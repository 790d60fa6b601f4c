"""Federated query execution: discovery, fan-out, merge, plan cache.

:class:`FederationEngine` is the run-time half of the planner:

1. **Catalog** — members are discovered once through the UDDI registry
   (every published Application) and bound lazily; their query-param
   vocabularies feed the planner.
2. **Fan-out** — each selected execution becomes one task; tasks run on
   the engine-lifetime :class:`~repro.fedquery.scheduler.FanoutScheduler`,
   whose width follows the Managers' replica topology.  Container
   dispatch serializes *per service* (not per container), so several
   tasks per replica container make real progress at once;
   ``SLOTS_PER_REPLICA`` sizes the pool accordingly.  The merge itself
   happens on the calling thread as futures complete.  Per-task
   failures degrade the result (surviving members' rows are returned,
   the failures are counted) instead of aborting the whole query.
3. **Plan cache** — whole query results are memoized on the query's
   canonical fingerprint (an LRU of packed rows), so repeated dashboards
   cost one cache probe instead of a federation sweep.
4. **Cache coherence** — every cached fingerprint records the
   ``(app, exec_id)`` set it read.  :meth:`FederationEngine.enable_coherence`
   deploys a NotificationSink next to the engine and subscribes it to
   each member Execution's ``data-update`` topic; a delivery drops only
   the plans whose dependency set includes the updated execution.  A
   per-member generation counter closes the insert-after-invalidate
   race: results computed against a superseded generation are discarded
   instead of being cached.
5. **Cost-based planning** — member statistics (``getStats``) are
   fetched once per member and cached; the planner uses them to pick
   raw/aggregate/skip per member (see :mod:`repro.fedquery.cost`).
   Coherence extends to the stats: a data-update drops the member's
   cached stats exactly as it drops dependent plans, and a plan that
   *skipped* a member on a stats proof records a wildcard dependency
   ``(app, "*")`` on it — the skip is re-evaluated after any update to
   that member, even though the plan read none of its executions.
   Failed stats fetches degrade gracefully (the member keeps the global
   mode, is never skipped, and the degraded result is not memoized).
   A data-update normally refreshes only the *updated execution's*
   contribution to the member's cached stats (a per-execution baseline
   is kept and re-merged) instead of refetching the whole member; any
   trouble falls back to the whole-member drop.
6. **Streaming execution** — ``execute(query, stream=True)`` returns a
   :class:`~repro.fedquery.stream.StreamedResult` instead of a
   materialized row list.  Raw queries without ORDER BY take the true
   streaming path: each member execution's rows arrive pre-sorted
   (server-side ``ordered`` cursors, or a client-side sort for provably
   small members where bulk ``getPR`` is cheaper) and a k-way heap
   merge yields them in exactly the bulk path's canonical order, with
   at most ``stream_chunk_depth`` chunks in flight per member.
   Aggregates and ORDER BY need every row before the first output row,
   so they run the bulk pipeline internally and stream its finished
   rows.  Fully drained streams memoize like bulk results (up to
   ``stream_memoize_max_bytes``); partial drains and degraded runs
   never do.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from repro.core.prcache import ByteBudgetLruCache, PrCache
from repro.core.semantic import AggregateRecord, StoreStats, ordering_key, pr_sort_key
from repro.fedquery.ast import Query, QueryError
from repro.fedquery.merge import (
    RAW_COLUMNS,
    BoundsTracker,
    ResultRow,
    StreamingMerger,
    TaskContext,
    order_rows,
    pack_bounds,
    split_bounds,
)
from repro.fedquery.parser import parse_query
from repro.fedquery.planner import MemberPlan, Plan, SubQuery, plan_query
from repro.fedquery.pushdown import filter_foci, matches_value
from repro.fedquery.scheduler import (
    DEFAULT_TENANT,
    FanoutScheduler,
    empty_scheduler_stats,
)
from repro.fedquery.stream import (
    DEFAULT_CHUNK_DEPTH,
    DEFAULT_CHUNK_ROWS,
    DEFAULT_MEMOIZE_MAX_BYTES,
    DEFAULT_STREAM_THRESHOLD_ROWS,
    MemberStream,
    StreamedResult,
    merge_streams,
)
from repro.xmlkit import parse as parse_xml

#: fan-out defaults: *default* when no Manager topology is known, *cap*
#: so a large federation cannot spawn an unbounded thread pool
DEFAULT_FANOUT = 8
FANOUT_CAP = 32

#: fan-out slots per replica container (dispatch serializes per service,
#: so one container progresses several execution instances at once)
SLOTS_PER_REPLICA = 4

#: default byte budget for the plan cache — streamed queries can memoize
#: large row sets, so the default cache is bounded by bytes, not entries
DEFAULT_PLAN_CACHE_BYTES = 4 * 1024 * 1024
DEFAULT_PLAN_CACHE_ENTRIES = 256


def choose_fanout(
    manager_stats: list[dict[str, object]],
    default: int = DEFAULT_FANOUT,
    cap: int = FANOUT_CAP,
) -> int:
    """Pool width from the Managers' replica topology (*default* when
    none is known): ``SLOTS_PER_REPLICA`` per replica, at most *cap*."""
    replicas = sum(int(stats.get("replicas", 0)) for stats in manager_stats)
    if replicas <= 0:
        return default
    return min(cap, SLOTS_PER_REPLICA * replicas)


def fetch_aggregates(execution, sub: SubQuery, foci: list[str]) -> list:
    """One push-down ``getPRAgg`` call for *sub* over *foci*."""
    return execution.get_pr_agg(
        sub.metric,
        foci,
        sub.start,
        sub.end,
        sub.result_type,
        min_value=sub.min_value,
        max_value=sub.max_value,
        group_by="focus" if sub.group_by_focus else "",
    )


def _sde_values(xml: str) -> list[str]:
    """Extract ``<value>`` texts from a FindServiceData result document."""
    root = parse_xml(xml).root
    return [el.text() for el in root.iter_all() if el.tag.local == "value"]


@dataclass
class QueryResult:
    """One answered federated query.

    ``errors`` carries one message per failed member task (degraded
    result); such results are never memoized in the plan cache.

    ``approx`` marks a bounded-estimate answer (``execute(...,
    approx=True)``); ``error_bounds`` then holds one dict per row
    mapping aggregate column label to its sound ``(lo, hi)`` interval —
    an empty dict means every cell in that row is exact.  Both default
    empty so exact-mode callers are unchanged.
    """

    rows: list[ResultRow]
    columns: tuple[str, ...]
    cached: bool
    plan: Plan | None
    stats: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    approx: bool = False
    error_bounds: list = field(default_factory=list)


class _Snapshot(NamedTuple):
    """Coherence state read *before* planning: member stats read while
    planning, and member data read during the fan-out, are superseded by
    any data-update delivered later — ``_finish_uncached`` compares this
    against the live state and discards instead of caching."""

    generations: dict[tuple[str, str], int]
    app_generations: dict[str, int]
    epoch: int


class FederationEngine:
    """Plans and executes federated queries over published Applications.

    ``client`` is a :class:`repro.core.client.PPerfGridClient` (or any
    object with ``discover_organizations``/``bind``); ``managers`` maps
    member name to its site's :class:`ManagerService` for fan-out sizing
    (optional — remote deployments fall back to the default width).
    """

    def __init__(
        self,
        client,
        managers: dict[str, object] | None = None,
        plan_cache: PrCache | None = None,
        max_workers: int | None = None,
        cost_based: bool = True,
        stream_chunk_rows: int = DEFAULT_CHUNK_ROWS,
        stream_chunk_depth: int = DEFAULT_CHUNK_DEPTH,
        stream_threshold_rows: int = DEFAULT_STREAM_THRESHOLD_ROWS,
        stream_memoize_max_bytes: int = DEFAULT_MEMOIZE_MAX_BYTES,
        accept_encodings: tuple[str, ...] | None = None,
        tier0: bool = True,
        scheduler: FanoutScheduler | None = None,
    ) -> None:
        self.client = client
        self.managers = dict(managers or {})
        self.plan_cache = (
            plan_cache
            if plan_cache is not None
            else ByteBudgetLruCache(
                max_bytes=DEFAULT_PLAN_CACHE_BYTES,
                capacity=DEFAULT_PLAN_CACHE_ENTRIES,
            )
        )
        self.max_workers = max_workers
        #: False reverts to the pre-cost-model global planner (the
        #: benchmark's baseline arm); no getStats calls are made
        self.cost_based = cost_based
        #: streaming knobs: rows per chunk, chunks in flight per member,
        #: bulk-vs-cursor estimated-row threshold, memoization byte cap
        self.stream_chunk_rows = stream_chunk_rows
        self.stream_chunk_depth = stream_chunk_depth
        self.stream_threshold_rows = stream_threshold_rows
        self.stream_memoize_max_bytes = stream_memoize_max_bytes
        #: wire encodings advertised when draining member cursors; None
        #: leaves the client default (PPG_ACCEPT_ENCODINGS-aware), and
        #: ``("xml",)`` pins the fan-out to per-row transfers
        self.accept_encodings = accept_encodings
        #: False disables the tier-0 metadata answer path entirely (the
        #: benchmark's baseline arm); queries then always fan out
        self.tier0 = tier0
        self._bindings: dict[str, object] | None = None
        self._params: dict[str, dict[str, list[str]]] = {}
        self._metrics: dict[str, list[str]] = {}
        self._exec_ids: dict[str, str] = {}
        #: member name -> StoreStats; failed fetches are *not* cached,
        #: so the next query retries and recovers
        self._member_stats: dict[str, StoreStats] = {}
        #: member name -> {exec_id -> StoreStats}: the per-execution
        #: baseline behind delta refreshes (merged stats aren't
        #: invertible, so updates re-merge from this instead)
        self._exec_stats: dict[str, dict[str, StoreStats]] = {}
        #: member name -> exec ids whose stats are stale (data-updated
        #: since the member's stats were merged)
        self._stats_dirty: dict[str, set[str]] = {}
        #: how each executed (uncached) plan's effective mode broke down
        self.plan_modes = {"raw": 0, "aggregate": 0, "mixed": 0, "skip": 0, "tier0": 0}
        # ---- coherence state (guarded by _coherence_lock) ----
        #: fingerprint -> {(app, exec_id)} read when the entry was cached
        self._plan_deps: dict[str, frozenset[tuple[str, str]]] = {}
        #: engine-local data generation per (app, exec_id); bumped on
        #: every data-update delivery, snapshotted around each execute
        self._generations: dict[tuple[str, str], int] = {}
        #: per-app data generation, for wildcard ``(app, "*")`` deps —
        #: plans that skipped a member on a stats proof depend on the
        #: *whole* member, not on any execution they read
        self._app_generations: dict[str, int] = {}
        #: global epoch: bumped on full-cache clears so in-flight queries
        #: that started before the clear cannot re-insert stale rows
        self._epoch = 0
        #: source handle -> (app, exec_id), learned at subscription time;
        #: the precise attribution for data-update deliveries
        self._source_keys: dict[str, tuple[str, str]] = {}
        #: exec_id -> apps it belongs to — the fallback attribution when
        #: a delivery carries no (known) source handle; exec ids can
        #: collide across apps, so this may over-invalidate
        self._exec_apps: dict[str, set[str]] = {}
        #: execution GSHs already subscribed (enables re-subscription
        #: sweeps after new members publish)
        self._subscribed: set[str] = set()
        self._sink = None
        self._sink_gsh = None
        self._coherence_lock = threading.Lock()
        self.coherence = {
            "subscriptions": 0,
            "notifications": 0,
            "invalidations": 0,
            "fullClears": 0,
            "memberClears": 0,
            "staleDiscards": 0,
            "statsInvalidations": 0,
            "statsDeltas": 0,
        }
        #: lazily created ViewMaintainer (see :meth:`views`)
        self._view_maintainer = None
        #: the engine-lifetime fan-out pool; injected (the deployer owns
        #: its lifecycle) or created lazily on first fan-out
        self._scheduler = scheduler
        self._owns_scheduler = scheduler is None
        self._scheduler_lock = threading.Lock()

    # -------------------------------------------------- fan-out scheduler
    def _pool(self) -> FanoutScheduler:
        """The engine-lifetime fan-out scheduler (created on first use).

        Sized once from the federation topology (``max_workers`` wins if
        set); per-query width clamping happens at submit time by simply
        queueing — the pool never grows per query.  The environment's
        reactor, when one is already running, paces the scheduler's
        control tick; a lazily created pool never *starts* a reactor.
        """
        sched = self._scheduler
        if sched is not None and not sched.is_shutdown:
            return sched
        with self._scheduler_lock:
            sched = self._scheduler
            if sched is None or sched.is_shutdown:
                if self.max_workers is not None:
                    width = self.max_workers
                else:
                    width = choose_fanout(
                        [m.stats() for m in self.managers.values()]
                    )
                reactor = getattr(
                    getattr(self.client, "environment", None), "_reactor", None
                )
                sched = self._scheduler = FanoutScheduler(
                    max_workers=width, reactor=reactor, name="fedpool"
                )
                self._owns_scheduler = True
        return sched

    def scheduler_stats(self) -> dict:
        """Pool/queue/tenant counters for SDE publication and stats().

        Safe before the first fan-out: an absent pool reports the same
        keys zeroed rather than forcing pool creation as a side effect
        of monitoring.
        """
        sched = self._scheduler
        if sched is None or sched.is_shutdown:
            return empty_scheduler_stats()
        return sched.stats()

    def set_rate_limit(
        self, tenant: str | None, rate: float, burst: int | None = None
    ) -> None:
        """Token-bucket admission for *tenant* (None = the default bucket)."""
        self._pool().set_rate_limit(tenant, rate, burst=burst)

    def close(self) -> None:
        """Shut down the fan-out pool if this engine created it.

        An injected scheduler (shared by the deployer across engines)
        is left running — its owner closes it.
        """
        with self._scheduler_lock:
            sched, self._scheduler = self._scheduler, None
            owns = self._owns_scheduler
        if sched is not None and owns:
            sched.shutdown()

    # ------------------------------------------------------------ catalog
    def members(self) -> dict[str, object]:
        """name -> Application binding for every published member."""
        if self._bindings is None:
            bindings: dict[str, object] = {}
            for org in self.client.discover_organizations("%"):
                for service in org.services():
                    if service.name not in bindings:
                        bindings[service.name] = self.client.bind(service)
            self._bindings = dict(sorted(bindings.items()))
        return self._bindings

    def refresh_members(self) -> None:
        """Forget discovery results (e.g. after new members publish).

        ``_exec_ids`` must go too: a re-published member can reuse a GSH
        for a different execution, and a stale GSH -> execId mapping
        would silently mislabel (and mis-invalidate) its results.  The
        environment's pooled stubs go for the same reason: a reused GSH
        must re-bind, not be answered by a binding to the old service.
        """
        self._bindings = None
        self._params.clear()
        self._metrics.clear()
        self._exec_ids.clear()
        with self._coherence_lock:
            self._member_stats.clear()
            self._exec_stats.clear()
            self._stats_dirty.clear()
        stub_pool = getattr(
            getattr(self.client, "environment", None), "stub_pool", None
        )
        if stub_pool is not None:
            stub_pool.clear()

    def _member_params(self, name: str, binding) -> dict[str, list[str]]:
        params = self._params.get(name)
        if params is None:
            params = self._params[name] = binding.exec_query_params()
        return params

    def _member_metrics(self, name: str, probe) -> list[str]:
        metrics = self._metrics.get(name)
        if metrics is None:
            metrics = self._metrics[name] = probe.metrics()
        return metrics

    def _execution_id(self, binding) -> str:
        if binding.is_local:
            return binding.exec_id
        cached = self._exec_ids.get(binding.gsh)
        if cached is None:
            values = _sde_values(binding.find_service_data("name:execId"))
            if not values:
                raise QueryError(f"execution {binding.gsh} publishes no execId")
            cached = self._exec_ids[binding.gsh] = values[0]
        return cached

    # ------------------------------------------------------------ queries
    def explain(self, query: str | Query) -> str:
        return self._plan(self._parse(query)).explain()

    def explain_plan(self, query: str | Query) -> list[str]:
        """Cost-annotated plan lines, without executing the query.

        Extends :meth:`explain` with the cost model's federation-wide
        summary: the effective mode the stats actually selected and the
        estimated transfer volume.
        """
        plan = self._plan(self._parse(query))
        lines = plan.explain().splitlines()
        lines.append(f"effective mode: {plan.effective_mode}")
        lines.append(f"estimated transfer: {plan.estimated_bytes} bytes")
        return lines

    def execute(
        self,
        query: str | Query,
        stream: bool = False,
        approx: bool = False,
        tolerance: float | None = None,
        tenant: str | None = None,
    ) -> QueryResult | StreamedResult:
        """Run a federated query.

        ``stream=False`` (the default) answers with a fully materialized
        :class:`QueryResult`.  ``stream=True`` answers with a
        :class:`StreamedResult` iterator whose rows arrive incrementally
        — in exactly the order (and bytes) the bulk path would produce —
        holding O(members × chunk) memory instead of the whole result.

        ``approx=True`` (aggregate queries only) admits bounded-error
        tier-0 answers from merged sketches: the result carries per-cell
        ``error_bounds`` and members whose sketches are missing — or
        whose bounds exceed *tolerance* (worst relative error per cell)
        — fall back to the exact tier-1/2 paths per member.

        ``tenant`` keys the fan-out scheduler's fair queueing and rate
        limiting; when omitted the engine uses the dispatching request's
        ``clientId`` header (a query arriving through the federation
        service inherits the identity admission control saw), falling
        back to the shared default tenant.
        """
        query = self._parse(query)
        if approx and stream:
            raise QueryError("approx=True cannot stream (bounds need every row)")
        if approx and not query.is_aggregate:
            raise QueryError("approx=True requires an aggregate query")
        if tolerance is not None and not approx:
            raise QueryError("tolerance requires approx=True")
        if tenant is None:
            from repro.ogsi.dispatch import current_client_id

            tenant = current_client_id() or DEFAULT_TENANT
        if stream:
            return self._execute_stream(query, tenant=tenant)
        return self._execute_bulk(
            query, approx=approx, tolerance=tolerance, tenant=tenant
        )

    def _execute_bulk(
        self,
        query: Query,
        approx: bool = False,
        tolerance: float | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> QueryResult:
        fingerprint = query.fingerprint()
        if approx:
            # approximate results memoize under a disjoint key: an exact
            # caller must never be served bounded estimates (or vice
            # versa), even for the same query text
            fingerprint += f";approx[tol={tolerance!r}]"
        cached = self.plan_cache.get(fingerprint)
        if cached is not None:
            packed_rows, cached_bounds = split_bounds(cached)
            return QueryResult(
                rows=[ResultRow.unpack(r) for r in packed_rows],
                columns=query.output_columns,
                cached=True,
                plan=None,
                approx=approx,
                error_bounds=cached_bounds if approx else [],
            )
        snapshot, plan, stats, deps = self._begin_uncached(
            query, tenant, approx=approx, tolerance=tolerance
        )
        tier0_members = [m for m in plan.members if m.is_tier0]
        stats["tier0Members"] = len(tier0_members)
        stats["estimatedRoundTrips"] = plan.estimated_round_trips
        merger = StreamingMerger(query)
        errors: list[str] = []
        # a tier-0 answer is likewise a read of the member's cached
        # stats/sketches: the wildcard dep plus the generation-snapshot
        # comparison in _finish_uncached guarantee an update racing this
        # query can never leave a stale tier-0 answer in the cache
        tracker = BoundsTracker(query) if approx and plan.tier0_capable else None
        for member in tier0_members:
            deps.add((member.app, "*"))
            if tracker is not None:
                tracker.add_estimates(member.app, member.tier0)
            else:
                # exact mode: the estimates are provably exact
                # (zero-width count/sum, proven extrema), so they fold
                # into the merge as synthetic getPRAgg buckets
                ctx = TaskContext(app=member.app)
                for metric, est in member.tier0:
                    if est.count_hi <= 0.0:
                        continue
                    record = AggregateRecord(
                        "",
                        int(round(est.count_lo)),
                        est.sum_lo,
                        est.min_exact if est.min_exact is not None else est.value_lo,
                        est.max_exact if est.max_exact is not None else est.value_hi,
                    )
                    merger.absorb_aggregates(ctx, metric, [record])
        tasks = self._collect_tasks(plan, stats)
        if tasks:
            pool = self._pool()
            pending = {pool.submit(task, tenant=tenant) for task in tasks}
            try:
                # merge on this thread as completions stream in
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        self._merge_payloads(merger, future, stats, errors, deps)
            except BaseException:
                # hard failure: queued member tasks must not run
                for future in pending:
                    future.cancel()
                raise
            if errors and len(errors) == len(tasks):
                raise QueryError(
                    f"all {len(tasks)} member task(s) failed: {'; '.join(errors[:3])}"
                )
        error_bounds: list[dict[str, tuple[float, float]]] = []
        if tracker is not None:
            # interval merge: tier-0 estimates plus the fan-out members'
            # exact accumulators, with per-cell bounds keyed by group
            tracker.add_groups(merger.group_accumulators())
            unordered, bounds_by_key = tracker.rows()
            rows = order_rows(unordered, query)
            key_width = len(query.group_by)
            error_bounds = [
                bounds_by_key.get(tuple(str(v) for v in row.values[:key_width]), {})
                for row in rows
            ]
        else:
            rows = order_rows(merger.rows(), query)
            if approx:
                # approx requested but the query shape is not tier-0
                # capable: the exact pipeline answered, every cell exact
                error_bounds = [{} for _ in rows]
        self._finish_uncached(
            fingerprint, deps, snapshot, rows, errors,
            degraded=plan.stats_degraded,
            bounds_records=pack_bounds(error_bounds) if approx else None,
        )
        return QueryResult(
            rows=rows,
            columns=query.output_columns,
            cached=False,
            plan=plan,
            stats=stats,
            errors=errors,
            approx=approx,
            error_bounds=error_bounds,
        )

    # ----------------------------------------------------------- streaming
    def _execute_stream(
        self, query: Query, tenant: str = DEFAULT_TENANT
    ) -> StreamedResult:
        fingerprint = query.fingerprint()
        cached = self.plan_cache.get(fingerprint)
        if cached is not None:
            return StreamedResult(
                columns=query.output_columns,
                source=iter([ResultRow.unpack(r) for r in cached]),
                cached=True,
            )
        if query.is_aggregate or query.order_by is not None:
            # a global reduction or sort needs every row before the first
            # output row exists; run the bulk pipeline (which memoizes as
            # usual) and stream its finished rows
            result = self._execute_bulk(query, tenant=tenant)
            return StreamedResult(
                columns=result.columns,
                source=iter(result.rows),
                plan=result.plan,
                stats=result.stats,
                errors=result.errors,
            )
        snapshot, plan, stats, deps = self._begin_uncached(query, tenant)
        stats["chunkedCalls"] = 0
        stats["bulkCalls"] = 0
        errors: list[str] = []
        streams = self._stream_tasks(
            plan, query, stats, threading.Lock(), deps, tenant
        )
        source = self._stream_rows(
            query, plan, fingerprint, streams, stats, errors, deps, snapshot
        )
        return StreamedResult(
            columns=query.output_columns,
            source=source,
            plan=plan,
            stats=stats,
            errors=errors,
        )

    def _begin_uncached(
        self,
        query: Query,
        tenant: str,
        approx: bool = False,
        tolerance: float | None = None,
    ) -> tuple[_Snapshot, Plan, dict[str, int], set[tuple[str, str]]]:
        """The shared head of both result paths after a plan-cache miss:
        coherence snapshot, plan, rate charge, stats counters, plan-time
        dependencies.

        This is the one place a query is rate-limited — after the cache
        probe and planning (cached and tier-0 answers cost the members
        nothing, so they are free) and before any execution selection,
        so a shed query has made no member round trip.  ``BusyFault``
        propagates undegraded: a shed is not a member failure.
        """
        with self._coherence_lock:
            snapshot = _Snapshot(
                dict(self._generations), dict(self._app_generations), self._epoch
            )
        plan = self._plan(query, approx=approx, tolerance=tolerance)
        fanout_members = [m for m in plan.members if not m.is_tier0]
        if fanout_members:
            self._pool().acquire_rate(tenant)
        self.plan_modes[plan.effective_mode] += 1
        # metrics the planner already proved away (skipped members count
        # all their metrics; surviving fan-out members count omitted
        # sub-queries — tier-0 members answered theirs, nothing skipped)
        proven_away = len(query.metrics) * (
            len(fanout_members) + len(plan.skipped)
        ) - sum(len(member.subqueries) for member in fanout_members)
        stats = {
            "executions": 0,
            "calls": 0,
            "records": 0,
            "skipped_metrics": proven_away,
            "errors": 0,
            "skippedMembers": len(plan.skipped),
            "estimatedBytes": plan.estimated_bytes,
            "payloadBytes": 0,
        }
        # a stats-proven skip is a read of the member's *statistics*: the
        # wildcard dep makes any later update to that member invalidate
        # (or stale-discard) this result, so the skip gets re-evaluated
        deps = {(skipped.app, "*") for skipped in plan.skipped}
        return snapshot, plan, stats, deps

    def _stream_tasks(
        self, plan: Plan, query: Query, stats, stats_lock, deps,
        tenant: str = DEFAULT_TENANT,
    ) -> list[MemberStream]:
        """One :class:`MemberStream` per selected execution (not started)."""
        # producers run on the scheduler's elastic stream lane (slots
        # accounted to the tenant), never on the bounded sub-query pool:
        # a backpressure-blocked producer must not eat a slot another
        # tenant's bulk tasks need
        pool = self._pool()

        def runner(fn):
            pool.spawn(fn, tenant=tenant)

        streams: list[MemberStream] = []
        for member, executions, subqueries in self.member_work(plan.members, stats):
            # sub-queries concatenate in canonical metric order so each
            # member stream is wholly sorted by the row key (app and exec
            # are constant within a stream)
            subqueries = sorted(subqueries, key=lambda sq: ordering_key(sq.metric))
            if member.cost is not None and member.cost.est_rows is not None:
                per_exec = max(1, member.cost.est_rows // max(1, len(executions)))
            else:
                per_exec = None
            for execution in executions:
                produce = self._stream_producer(
                    member, execution, subqueries, query, per_exec,
                    stats, stats_lock, deps,
                )
                streams.append(
                    MemberStream(
                        f"{member.app}:{len(streams)}",
                        produce,
                        runner,
                        chunk_depth=self.stream_chunk_depth,
                    )
                )
        return streams

    def _stream_producer(
        self, member: MemberPlan, execution, subqueries, query: Query,
        per_exec: int | None, stats, stats_lock, deps,
    ):
        """Build the producer generator for one execution's stream.

        Remote executions with large (or unknown — bulk is the memory
        risk) estimated row counts drain through a server-``ordered``
        chunked cursor; provably small remote ones and local bindings
        use one bulk ``getPR`` plus a client-side canonical sort, which
        is cheaper than cursor round trips.  Either way the emitted
        chunks are sorted and value predicates are applied producer-side
        so filtered rows never cross the merge.
        """
        chunk_rows = self.stream_chunk_rows
        value_preds = query.predicates_on("value")
        use_cursor = not execution.is_local and (
            per_exec is None or per_exec >= self.stream_threshold_rows
        )

        def produce(stop):
            exec_id = self._execution_id(execution)
            deps.add((member.app, exec_id))
            foci = filter_foci(execution.foci(), member.foci)
            if not foci:
                return
            for sub in subqueries:
                if stop.is_set():
                    return
                if use_cursor:
                    rows = execution.get_pr_chunked(
                        sub.metric, foci, sub.start, sub.end, sub.result_type,
                        max_rows=chunk_rows, ordered=True,
                        accept_encodings=self.accept_encodings,
                    )
                    kind = "chunkedCalls"
                else:
                    results = execution.get_pr(
                        sub.metric, foci, sub.start, sub.end, sub.result_type
                    )
                    results.sort(key=pr_sort_key)
                    rows = iter(results)
                    kind = "bulkCalls"
                batch: list[ResultRow] = []
                records = payload_bytes = 0
                try:
                    for result in rows:
                        if stop.is_set():
                            return
                        records += 1
                        payload_bytes += len(result.pack())
                        if value_preds and not matches_value(result.value, value_preds):
                            continue
                        batch.append(
                            ResultRow(
                                RAW_COLUMNS,
                                (
                                    member.app,
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
                        if len(batch) >= chunk_rows:
                            yield batch
                            batch = []
                finally:
                    closer = getattr(rows, "close", None)
                    if closer is not None:
                        closer()
                    with stats_lock:
                        stats["calls"] += 1
                        stats[kind] += 1
                        stats["records"] += records
                        stats["payloadBytes"] += payload_bytes
                if batch:
                    yield batch

        return produce

    def _stream_rows(
        self, query: Query, plan: Plan, fingerprint: str,
        streams: list[MemberStream], stats, errors: list[str], deps,
        snapshot: _Snapshot,
    ):
        """The consumer generator behind a raw-path StreamedResult.

        Starts the member streams on first iteration, merges, enforces
        LIMIT (sound under the heap invariant: every yielded row is a
        global minimum, so the first N are the bulk path's first N), and
        on clean exhaustion memoizes — only a *fully drained* stream
        with no member errors, and only while the accumulated rows stay
        under ``stream_memoize_max_bytes``.
        """
        limit = query.limit
        acc: list[ResultRow] | None = []
        acc_bytes = 0
        completed_scan = False

        def on_error(exc: BaseException) -> None:
            stats["errors"] += 1
            errors.append(f"{type(exc).__name__}: {exc}")

        for member_stream in streams:
            member_stream.start()
        yielded = 0
        try:
            merged = merge_streams(streams, on_error)
            while limit is None or yielded < limit:
                try:
                    row = next(merged)
                except StopIteration:
                    completed_scan = True
                    break
                yield row
                yielded += 1
                if acc is not None:
                    acc_bytes += len(row.pack())
                    if acc_bytes > self.stream_memoize_max_bytes:
                        acc = None
                    else:
                        acc.append(row)
        finally:
            for member_stream in streams:
                member_stream.close()
        if completed_scan and streams and errors and len(errors) == len(streams):
            raise QueryError(
                f"all {len(streams)} member task(s) failed: {'; '.join(errors[:3])}"
            )
        if acc is not None:
            self._finish_uncached(
                fingerprint, deps, snapshot, acc, errors,
                degraded=plan.stats_degraded,
            )

    def _finish_uncached(
        self,
        fingerprint: str,
        deps: set[tuple[str, str]],
        snapshot: _Snapshot,
        rows: list[ResultRow],
        errors: list[str],
        degraded: bool = False,
        bounds_records: list[str] | None = None,
    ) -> None:
        """Memoize a freshly computed result, unless it must not be.

        Degraded results (per-task errors, or a plan built with missing
        member stats) are never cached; results any of whose member
        generations (or the global epoch) moved since the pre-planning
        snapshot are the insert-after-invalidate race and are discarded
        too.  Wildcard deps ``(app, "*")`` — members skipped on a stats
        proof, or answered at tier 0 from cached stats — compare the
        *app-level* generation.  ``bounds_records`` (approximate
        results) are stored after the packed rows.
        """
        if errors or degraded:
            return
        with self._coherence_lock:
            stale = self._epoch != snapshot.epoch or any(
                self._app_generations.get(dep[0], 0)
                != snapshot.app_generations.get(dep[0], 0)
                if dep[1] == "*"
                else self._generations.get(dep, 0) != snapshot.generations.get(dep, 0)
                for dep in deps
            )
            if stale:
                self.coherence["staleDiscards"] += 1
                return
            self.plan_cache.put(
                fingerprint,
                [row.pack() for row in rows] + list(bounds_records or ()),
            )
            self._plan_deps[fingerprint] = frozenset(deps)
            self._prune_deps_locked()

    def _prune_deps_locked(self) -> None:
        """Drop dependency records whose cache entries were LRU-evicted."""
        if len(self._plan_deps) <= 2 * max(1, len(self.plan_cache)):
            return
        self._plan_deps = {
            fp: dep
            for fp, dep in self._plan_deps.items()
            if self.plan_cache.contains(fp)
        }

    def invalidate_cache(self) -> int:
        """Drop all memoized query results; returns how many were dropped.

        Cached member statistics go too — a manual invalidation usually
        means "the stores changed under us", and stale stats could keep
        proving skips that no longer hold.
        """
        with self._coherence_lock:
            dropped = len(self.plan_cache)
            self.plan_cache.clear()
            self._plan_deps.clear()
            self._member_stats.clear()
            self._exec_stats.clear()
            self._stats_dirty.clear()
            self._epoch += 1
        return dropped

    # ----------------------------------------------------------- coherence
    def enable_coherence(self, container) -> int:
        """Subscribe a sink to every member Execution's data-update topic.

        Deploys a NotificationSink next to the engine (once) in
        *container*, walks every member's executions, and subscribes the
        sink to each one's ``data-update`` topic.  Safe to call again
        after :meth:`refresh_members` — already-subscribed executions are
        skipped.  Returns the number of *new* subscriptions made.
        """
        from repro.ogsi.notification import NotificationSinkBase

        if self._sink is None:
            self._sink = NotificationSinkBase(callback=self._on_update)
            self._sink_gsh = container.deploy(
                "services/FederatedQuery/coherence-sink", self._sink
            )
        sink_handle = self._sink_gsh.url()
        subscribed = 0
        for app, binding in self.members().items():
            for execution in binding.all_executions():
                if not hasattr(execution, "subscribe"):
                    continue  # local-bypass executions have no Services Layer
                exec_id = self._execution_id(execution)
                with self._coherence_lock:
                    self._source_keys[execution.gsh] = (app, exec_id)
                    self._exec_apps.setdefault(exec_id, set()).add(app)
                if execution.gsh in self._subscribed:
                    continue
                execution.subscribe("data-update", sink_handle)
                self._subscribed.add(execution.gsh)
                subscribed += 1
        with self._coherence_lock:
            self.coherence["subscriptions"] += subscribed
        return subscribed

    def _on_update(self, topic: str, message: str) -> None:
        """Data-update delivery: drop exactly the plans that read the
        updated execution.

        The message is ``execId|generation|sourceHandle|description``
        (see :meth:`repro.core.execution.ExecutionService.data_updated`).
        Attribution prefers the source handle (exec ids collide across
        Applications), then the exec-id -> apps map.  An update with no
        execution-level attribution is scoped to the *member* its source
        handle names (``ppg://host/services/<app>/...``) when that names
        a known member; only a source the engine cannot attribute at all
        falls back to a full cache clear — correctness over precision.

        Invalidation runs under the coherence lock; the view-maintenance
        hook runs *after* release (it re-plans and refetches member
        rows, which re-enters :meth:`_collect_stats`).
        """
        parts = message.split("|", 3)
        exec_id = parts[0]
        source = parts[2] if len(parts) >= 3 else ""
        member_clear: str | None = None
        full_clear = False
        with self._coherence_lock:
            self.coherence["notifications"] += 1
            known = self._source_keys.get(source)
            if known is not None:
                deps = [known]
            else:
                deps = [(app, exec_id) for app in self._exec_apps.get(exec_id, ())]
            if not deps:
                member_clear = self._attribute_source_locked(source)
                if member_clear is not None:
                    self._member_clear_locked(member_clear)
                else:
                    full_clear = True
                    self._full_clear_locked()
            for dep in deps:
                self._invalidate_dep_locked(dep)
        maintainer = self._view_maintainer
        if maintainer is None:
            return
        if deps:
            for app, dep_exec in deps:
                maintainer.on_update(app, dep_exec)
        elif member_clear is not None:
            maintainer.on_member_update(member_clear)
        elif full_clear:
            maintainer.on_full_refresh()

    def _invalidate_dep_locked(self, dep: tuple[str, str]) -> None:
        app = dep[0]
        self._generations[dep] = self._generations.get(dep, 0) + 1
        self._app_generations[app] = self._app_generations.get(app, 0) + 1
        # the member's cached statistics describe the pre-update
        # store: mark just the updated execution's share stale so
        # the next plan re-merges a delta instead of refetching
        # the whole member
        if app in self._member_stats:
            self.coherence["statsInvalidations"] += 1
            self._stats_dirty.setdefault(app, set()).add(dep[1])
        wildcard = (app, "*")
        for fingerprint, dep_set in list(self._plan_deps.items()):
            if dep in dep_set or wildcard in dep_set:
                del self._plan_deps[fingerprint]
                if self.plan_cache.remove(fingerprint):
                    self.coherence["invalidations"] += 1

    def _attribute_source_locked(self, source: str) -> str | None:
        """Last-resort attribution: the member app a source handle's
        path names.

        Site services deploy under ``services/<app>/...`` (factories,
        replicas, instances alike), so a parseable handle whose second
        path segment names a known member scopes the update to that
        member even when the engine never subscribed to the execution.
        """
        from repro.ogsi.gsh import GridServiceHandle

        try:
            gsh = GridServiceHandle.parse(source)
        except Exception:
            return None
        segments = gsh.path.split("/")
        if len(segments) < 2 or segments[0] != "services":
            return None
        app = segments[1]
        known = (
            {a for apps in self._exec_apps.values() for a in apps}
            | {key[0] for key in self._source_keys.values()}
            | set(self._member_stats)
            | set(self._app_generations)
            | set(self._bindings or ())
        )
        return app if app in known else None

    def _member_clear_locked(self, app: str) -> None:
        """Scope an execution-unattributable update to one member: drop
        only the plans (and stats) depending on *app*, not the whole
        federation's.  The epoch still bumps — any in-flight query may
        have read the member, so its result must not be cached."""
        self.coherence["memberClears"] += 1
        self._app_generations[app] = self._app_generations.get(app, 0) + 1
        self._epoch += 1
        if app in self._member_stats:
            self.coherence["statsInvalidations"] += 1
            self._member_stats.pop(app, None)
            self._exec_stats.pop(app, None)
        self._stats_dirty.pop(app, None)
        for fingerprint, dep_set in list(self._plan_deps.items()):
            if any(dep[0] == app for dep in dep_set):
                del self._plan_deps[fingerprint]
                if self.plan_cache.remove(fingerprint):
                    self.coherence["invalidations"] += 1

    def _full_clear_locked(self) -> None:
        """Unattributable update: clear everything, and bump the epoch
        so any in-flight query discards instead of re-caching stale
        rows."""
        self.coherence["fullClears"] += 1
        self.coherence["statsInvalidations"] += len(self._member_stats)
        self.plan_cache.clear()
        self._plan_deps.clear()
        self._member_stats.clear()
        self._exec_stats.clear()
        self._stats_dirty.clear()
        self._epoch += 1

    def coherence_stats(self) -> dict[str, int]:
        """Snapshot of the coherence counters plus tracked-plan count."""
        with self._coherence_lock:
            stats = dict(self.coherence)
            stats["trackedPlans"] = len(self._plan_deps)
        return stats

    # --------------------------------------------------------------- views
    def views(self):
        """The engine's :class:`~repro.fedquery.views.ViewMaintainer`
        (created on first use)."""
        if self._view_maintainer is None:
            from repro.fedquery.views import ViewMaintainer

            self._view_maintainer = ViewMaintainer(self)
        return self._view_maintainer

    def view_stats(self) -> dict[str, int]:
        """View-maintenance counters (all zero before any view exists)."""
        if self._view_maintainer is None:
            from repro.fedquery.views import empty_view_stats

            return empty_view_stats()
        return self._view_maintainer.stats()

    # ----------------------------------------------------------- internals
    def _parse(self, query: str | Query) -> Query:
        if isinstance(query, Query):
            return query.validate()
        return parse_query(query)

    def _plan(
        self,
        query: Query,
        approx: bool = False,
        tolerance: float | None = None,
        allow_tier0: bool = True,
    ) -> Plan:
        members = self.members()
        unknown = [name for name in query.sources if name not in members]
        if unknown:
            raise QueryError(
                f"unknown application(s) {unknown} "
                f"(published: {', '.join(members)})"
            )
        catalog = {
            name: self._member_params(name, binding)
            for name, binding in members.items()
        }
        stats = self._collect_stats(members) if self.cost_based else None
        return plan_query(
            query,
            catalog,
            stats,
            approx=approx,
            tolerance=tolerance,
            tier0=self.tier0 and allow_tier0,
        )

    def _collect_stats(self, members: dict[str, object]) -> dict[str, StoreStats | None]:
        """Member stats for the cost model, from the per-member cache.

        A failed ``getStats`` maps the member to ``None`` (the planner
        falls back to the global mode for it and never skips it) and is
        *not* cached, so the next plan retries; the resulting degraded
        plan's result is likewise not memoized (``Plan.stats_degraded``).
        """
        collected: dict[str, StoreStats | None] = {}
        for name, binding in members.items():
            with self._coherence_lock:
                stats = self._member_stats.get(name)
                dirty = self._stats_dirty.pop(name, None)
            if stats is not None and dirty:
                stats = self._refresh_stats_delta(name, binding, dirty)
            if stats is None:
                try:
                    stats = binding.get_stats()
                except Exception:
                    collected[name] = None
                    continue
                with self._coherence_lock:
                    self._member_stats[name] = stats
                    # app-level numbers supersede any per-exec baseline
                    self._exec_stats.pop(name, None)
            collected[name] = stats
        return collected

    def _refresh_stats_delta(
        self, name: str, binding, dirty: set[str]
    ) -> StoreStats | None:
        """Re-merge a member's stats after refetching only what changed.

        Merged :class:`StoreStats` are not invertible (a removed
        execution's min/max cannot be subtracted back out), so the engine
        keeps a per-execution baseline — established lazily, the first
        time a delta is needed — refetches just the executions the
        updates touched, and re-merges locally.  Any trouble (unknown
        execution id, transport failure) returns ``None`` after dropping
        the member's cached stats wholesale: exactly the pre-delta
        fallback, so correctness never depends on the fast path.
        """
        with self._coherence_lock:
            baseline = self._exec_stats.get(name)
            per_exec = dict(baseline) if baseline is not None else None
        try:
            if per_exec is None:
                per_exec = {}
                for execution in binding.all_executions():
                    per_exec[self._execution_id(execution)] = execution.get_stats()
                applied = len(dirty & set(per_exec))
            else:
                applied = 0
                for exec_id in sorted(dirty):
                    matches = binding.query_executions("execid", exec_id)
                    if not matches:
                        raise QueryError(f"no execution {exec_id!r} in member {name}")
                    per_exec[exec_id] = matches[0].get_stats()
                    applied += 1
            merged = StoreStats.merge(list(per_exec.values()))
        except Exception:
            with self._coherence_lock:
                self._member_stats.pop(name, None)
                self._exec_stats.pop(name, None)
            return None
        with self._coherence_lock:
            self._exec_stats[name] = per_exec
            self._member_stats[name] = merged
            self.coherence["statsDeltas"] += applied
        return merged

    def _select_executions(self, member: MemberPlan, binding, stats) -> list:
        if member.selector is None:
            executions = binding.all_executions()
            stats["calls"] += 1
            return executions
        selected: dict[str, object] | None = None
        for alternatives in member.selector.conjuncts:
            term: dict[str, object] = {}
            for attribute, value, operator in alternatives:
                for execution in binding.query_executions(attribute, value, operator):
                    term.setdefault(execution.gsh, execution)
                stats["calls"] += 1
            if selected is None:
                selected = term
            else:
                selected = {g: e for g, e in selected.items() if g in term}
            if not selected:
                return []
        return list(selected.values()) if selected else []

    def member_work(
        self, members: Iterable[MemberPlan], stats
    ) -> Iterator[tuple[MemberPlan, list, list[SubQuery]]]:
        """The one enumeration of member work behind a plan, consumed by
        the bulk task builder, the stream producers and view maintenance.

        Yields ``(member, executions, subqueries)`` per member that really
        fans out: its selected executions and the sub-queries surviving
        the metric filter.  Tier-0 members (answered at plan time) and
        members with nothing selected or nothing left to ask yield
        nothing.  ``stats`` takes the ``calls``, ``executions`` and
        ``skipped_metrics`` counts.
        """
        for member in members:
            if member.is_tier0:
                continue
            binding = self.members()[member.app]
            executions = self._select_executions(member, binding, stats)
            if not executions:
                continue
            if member.cost is not None and not member.cost.stats_missing:
                # the planner already dropped metrics the member's stats
                # prove absent; probing one execution here would be
                # *wrong* for heterogeneous members (executions[0] need
                # not record every metric its siblings do)
                subqueries = list(member.subqueries)
            else:
                metrics = self._member_metrics(member.app, executions[0])
                subqueries = [sq for sq in member.subqueries if sq.metric in metrics]
                stats["skipped_metrics"] += len(member.subqueries) - len(subqueries)
            if not subqueries:
                continue
            stats["executions"] += len(executions)
            yield member, executions, subqueries

    def _collect_tasks(self, plan: Plan, stats) -> list:
        return [
            self._make_task(member, execution, subqueries)
            for member, executions, subqueries in self.member_work(plan.members, stats)
            for execution in executions
        ]

    def _make_task(self, member: MemberPlan, execution, subqueries):
        def run():
            # exec_id is always resolved (cached per GSH): the coherence
            # layer keys plan dependencies on (app, exec_id)
            exec_id = self._execution_id(execution)
            info = dict(execution.info()) if member.needs_info else None
            ctx = TaskContext(app=member.app, exec_id=exec_id, info=info)
            foci = filter_foci(execution.foci(), member.foci)
            payloads: list[tuple[str, str, list]] = []
            if not foci:
                return ctx, payloads
            for sub in subqueries:
                if sub.mode == "aggregate":
                    records = fetch_aggregates(execution, sub, foci)
                    payloads.append((sub.metric, "aggregate", records))
                else:
                    results = execution.get_pr(
                        sub.metric, foci, sub.start, sub.end, sub.result_type
                    )
                    payloads.append((sub.metric, "raw", results))
            return ctx, payloads

        return run

    def _merge_payloads(
        self,
        merger: StreamingMerger,
        future: Future,
        stats,
        errors: list[str],
        deps: set[tuple[str, str]],
    ) -> None:
        """Fold one completed member task into the merger.

        A :class:`QueryError` is a hard failure (planning/protocol — the
        whole query is wrong) and propagates; any other per-task
        exception degrades the result: it is counted, recorded, and the
        surviving members' rows still come back.
        """
        try:
            ctx, payloads = future.result()
        except QueryError:
            raise
        except Exception as exc:
            stats["errors"] += 1
            errors.append(f"{type(exc).__name__}: {exc}")
            return
        deps.add((ctx.app, ctx.exec_id))
        for metric, kind, payload in payloads:
            stats["calls"] += 1
            stats["records"] += len(payload)
            stats["payloadBytes"] += sum(len(item.pack()) for item in payload)
            if kind == "aggregate":
                merger.absorb_aggregates(ctx, metric, payload)
            else:
                merger.absorb_results(ctx, metric, payload)
