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
   ``SLOTS_PER_REPLICA`` sizes the pool accordingly.  Results are
   folded on the calling thread as futures complete.  A raw task drains
   one execution's :meth:`FederationEngine.raw_reader` (the reader a
   stream pulls): sorted runs of columns, rendered into the answer's
   ``col=value`` token columns (:func:`~repro.fedquery.merge.render`).
   Per-task failures degrade the result (surviving members' rows are
   returned, the failures are counted) instead of aborting the query.
3. **Plan cache** — whole answers are memoized on the query's canonical
   fingerprint as those token columns (a byte-budgeted LRU), so repeated
   dashboards cost one cache probe, served as stored: nothing parsed,
   rendered or joined.
4. **Cache coherence** and 5. **cached member statistics** — which
   cached plan, ``getStats`` answer or remembered member fact (execution
   list, vocabulary, foci) may still be trusted after a ``data-update``
   — live in :mod:`repro.fedquery.coherence`; the engine only snapshots
   before it reads and offers what it computed for admission
   afterwards.  Failed stats fetches degrade gracefully (the member
   keeps the global mode, is never skipped, and the degraded result is
   not memoized).
6. **Streaming execution** — every ``execute`` returns one
   :class:`QueryResult`, a bulk or cached answer as one chunk.  With
   ``stream=True``, a raw query without ORDER BY is lazy chunks of the
   readers bulk drains on the pool, pulled in run order one member
   chunk at a time on the thread that drains the result: one member
   cursor open at a time, none once LIMIT is reached.  A read planned
   to fit one chunk (``stream_chunk_rows``) is one ``getPR``, sorted on
   arrival; a larger or unsized one is an ``ordered`` cursor when
   streamed, a ``getPR`` advertising the columnar encoding when bulk.
   Fully drained streams memoize like bulk results (while the plan
   cache's byte budget would admit them); partial drains and degraded
   runs never do.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, wait
from contextlib import contextmanager
from functools import cached_property, partial
from itertools import chain
from typing import Iterable, Iterator

from repro.core.prcache import ByteBudgetLruCache, PrCache, entry_bytes
from repro.core.semantic import ordering_key
from repro.fedquery.ast import Query, QueryError
from repro.fedquery.coherence import ANY, CoherenceTracker, Dep
from repro.fedquery.merge import (
    RAW_COLUMNS, ResultRow, StreamingMerger, TaskContext, execution_runs, filter_values,
    raw_answer, read_rows, render, run_chunks,
)
from repro.fedquery.parser import parse_query
from repro.fedquery.planner import MemberPlan, Plan, SubQuery, plan_query
from repro.fedquery.pushdown import filter_foci
from repro.fedquery.scheduler import DEFAULT_POOL_WORKERS, DEFAULT_TENANT, FanoutScheduler
from repro.ogsi.cursor import DEFAULT_CHUNK_ROWS
from repro.ogsi.dispatch import current_client_id
from repro.soap.colbatch import DecodedBatch
from repro.soap.faults import SoapFault
from repro.xmlkit import parse as parse_xml

#: fan-out cap, so a large federation cannot spawn an unbounded thread
#: pool (with no Manager topology known the width is the scheduler's
#: ``DEFAULT_POOL_WORKERS``)
FANOUT_CAP = 32

#: fan-out slots per replica container (dispatch serializes per service,
#: so one container progresses several execution instances at once)
SLOTS_PER_REPLICA = 4

#: default byte budget for the plan cache — streamed queries can memoize
#: large row sets, so the default cache is bounded by bytes, not entries
DEFAULT_PLAN_CACHE_BYTES = 4 * 1024 * 1024
DEFAULT_PLAN_CACHE_ENTRIES = 256


def choose_fanout(manager_stats: list[dict[str, object]]) -> int:
    """Pool width from the Managers' replica topology
    (``DEFAULT_POOL_WORKERS`` when none is known): ``SLOTS_PER_REPLICA``
    per replica, at most ``FANOUT_CAP``."""
    replicas = sum(int(stats.get("replicas", 0)) for stats in manager_stats)
    if replicas <= 0:
        return DEFAULT_POOL_WORKERS
    return min(FANOUT_CAP, SLOTS_PER_REPLICA * replicas)


def _sde_values(xml: str) -> list[str]:
    """Extract ``<value>`` texts from a FindServiceData result document."""
    root = parse_xml(xml).root
    return [el.text() for el in root.iter_all() if el.tag.local == "value"]


class QueryResult:
    """One federated answer as chunks of ``col=value`` wire tokens
    (:class:`~repro.soap.colbatch.DecodedBatch`): a bulk or cached answer
    is one chunk, a stream a lazy producer.  Iterating yields rows read by
    :func:`~repro.fedquery.merge.read_rows`, the client's own, a chunk at
    a time; :attr:`rows` drains the rest; :meth:`wire_chunks` hands the
    chunks on.  ``errors`` (one per failed member task: never memoized)
    and ``stats`` are final once ``complete``.  Closing early closes the
    producer and every member cursor; a partially drained stream is
    never memoized.
    """

    def __init__(
        self, chunks: Iterable[DecodedBatch], columns: tuple[str, ...], plan: Plan | None = None,
        cached: bool = False, stats: dict | None = None, errors: list[str] | None = None,
    ) -> None:
        self.columns = columns
        self.plan = plan
        self.cached = cached
        self.stats = {} if stats is None else stats
        self.errors = [] if errors is None else errors
        self.complete = self.closed = False
        self._chunks = self._drained(chunks)
        self._rows = chain.from_iterable(map(read_rows, self._chunks))

    def _drained(self, chunks: Iterable[DecodedBatch]) -> Iterator[DecodedBatch]:
        yield from chunks
        self.complete = self.closed = True

    def __iter__(self) -> "QueryResult":
        return self

    def __next__(self) -> ResultRow:
        return next(self._rows)

    @cached_property
    def rows(self) -> list[ResultRow]:
        """The rest of the answer, drained into a list (once)."""
        return list(self)

    def wire_chunks(self) -> Iterator[DecodedBatch]:
        """The answer a chunk of wire tokens at a time, instead of rows."""
        return self._chunks

    def close(self) -> None:
        """Release member cursors; safe to call repeatedly."""
        if self.closed:
            return
        self.closed = True
        self._rows = iter(())
        self._chunks.close()  # GeneratorExit runs the producer's finally blocks

    def __enter__(self) -> "QueryResult":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


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
        stream_chunk_rows: int = DEFAULT_CHUNK_ROWS,
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
        #: rows per member chunk (a read planned larger is *large*)
        self.stream_chunk_rows = stream_chunk_rows
        self._bindings: dict[str, object] | None = None
        self._exec_ids: dict[str, str] = {}
        #: how each executed (uncached) plan's effective mode broke down
        self.plan_modes = {"raw": 0, "aggregate": 0, "mixed": 0, "skip": 0, "tier0": 0}
        #: decides what cached plans and member stats may be trusted
        self.coherence = CoherenceTracker(self.plan_cache)
        #: lazily created ViewMaintainer (see :meth:`views`)
        self._view_maintainer = None
        #: the engine-lifetime fan-out pool, created on first use
        self._scheduler: FanoutScheduler | None = None
        self._scheduler_lock = threading.Lock()
        #: member reads on pool threads count into their query's stats
        self._stats_lock = threading.Lock()

    # -------------------------------------------------- fan-out scheduler
    def _pool(self) -> FanoutScheduler:
        """The engine-lifetime fan-out scheduler (created on first use).

        Sized once from the federation topology; per-query width
        clamping happens at submit time by simply queueing — the pool
        never grows per query.  Building it starts no thread, so reading
        its stats before the first fan-out is free of side effects.
        """
        sched = self._scheduler
        if sched is not None and not sched.is_shutdown:
            return sched
        with self._scheduler_lock:
            sched = self._scheduler
            if sched is None or sched.is_shutdown:
                width = choose_fanout([m.stats() for m in self.managers.values()])
                sched = self._scheduler = FanoutScheduler(max_workers=width, name="fedpool")
        return sched

    def scheduler_stats(self) -> dict:
        """Pool/queue/tenant counters (the monitor's ``fanoutScheduler.*``)."""
        return self._pool().stats()

    def close(self) -> None:
        """Shut down the fan-out pool and join its workers."""
        with self._scheduler_lock:
            sched, self._scheduler = self._scheduler, None
        if sched is not None:
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
        self._exec_ids.clear()
        self.coherence.drop_stats()
        self.coherence.forget()
        stub_pool = getattr(
            getattr(self.client, "environment", None), "stub_pool", None
        )
        if stub_pool is not None:
            stub_pool.clear()

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
        """The cost-annotated plan text, without executing the query."""
        return self._plan(self._parse(query)).explain()

    def execute(
        self,
        query: str | Query,
        stream: bool = False,
        tenant: str | None = None,
    ) -> QueryResult:
        """Run a federated query.

        ``stream`` only chooses who pulls a raw query's readers: the
        fan-out pool, into one chunk (the default), or the thread that
        drains the :class:`QueryResult` — the same rows in the same
        order, in O(members × chunk) memory.  Aggregates and ORDER BY
        need every row before the first output row, so they run bulk.

        Every answer is exact.  A member whose cached stats and sketches
        prove its share of an aggregate is answered at tier 0 with no
        round trip; every other member fans out.

        ``tenant`` keys the fan-out scheduler's fair queueing; when
        omitted the engine uses the dispatching request's ``clientId``
        header (a query arriving through the federation service carries
        its caller's), falling back to the shared default tenant.
        """
        query = self._parse(query)
        if tenant is None:
            tenant = current_client_id() or DEFAULT_TENANT
        fingerprint = query.fingerprint()
        # the one plan-cache probe of this query, whichever path runs it
        cached = self.plan_cache.get(fingerprint)
        if cached is not None:
            # served as stored, through a slice: nothing is parsed or
            # rendered, and rows joined for this caller stay off the entry
            return QueryResult([cached[:]], query.output_columns, cached=True)
        if query.is_aggregate:
            return self._execute_aggregate(query, fingerprint, tenant)
        return self._execute_raw(query, fingerprint, tenant, stream and query.order_by is None)

    def _execute_aggregate(self, query: Query, fingerprint: str, tenant: str) -> QueryResult:
        plan, stats, deps, errors, finish = self._begin_uncached(query, fingerprint)
        merger = StreamingMerger(query)
        for member in (m for m in plan.members if m.is_tier0):
            # a tier-0 answer is likewise a read of the member's cached
            # stats/sketches: the wildcard dep plus the generation-snapshot
            # comparison at admission guarantee an update racing this
            # query can never leave a stale tier-0 answer in the cache
            deps.add((member.app, ANY))
            # each metric's partial is the member's global getPRAgg
            # bucket, exact in every field a selected aggregate reads, so
            # it folds like a fetched one (an empty one folds nothing)
            ctx = TaskContext(app=member.app)
            for metric, record in member.tier0:
                merger.absorb_aggregates(ctx, metric, [record])
        tasks = self._collect_tasks(plan, stats)
        for _, (ctx, payloads) in self._fan_out(tasks, tenant, stats, errors):
            deps.add((ctx.app, ctx.exec_id))
            merger.absorb(ctx, payloads)
        answer = merger.answer()
        finish(len(tasks), answer)
        return QueryResult([answer], query.output_columns, plan, False, stats, errors)

    def _execute_raw(
        self, query: Query, fingerprint: str, tenant: str, stream: bool
    ) -> QueryResult:
        """A raw query: one :meth:`raw_reader` per selected execution, its
        runs in :func:`run_chunks` order.  Bulk drains the readers on the
        fan-out pool and answers with :func:`raw_answer`.  A stream (no
        ORDER BY) pulls them on the thread draining it: execution ids
        (remembered facts) are resolved first, so the order is known
        before a cursor opens; a failing execution degrades the result
        and reads no further; no read starts once LIMIT is reached; and a
        stream drained to its end or LIMIT is memoized, its chunks joined
        into one, while the plan cache's sizer charges them no more than
        its byte budget (past it, the cache would refuse the entry, so no
        chunk is held)."""
        plan, stats, deps, errors, finish = self._begin_uncached(query, fingerprint)
        predicates = query.predicates_on("value")
        #: one reader per selected execution (nothing read yet)
        work = [
            (subqueries, self.raw_reader(
                member, execution, subqueries, stats, predicates,
                cursor=stream and large, columnar=large,
            ))
            for member, executions, subqueries, large in self.member_work(plan.members, stats)
            for execution in executions
        ]

        def runs(readers: Iterable[tuple[int, Iterator]]) -> list[tuple]:
            out = [run for p, reader in readers for run in execution_runs(work[p][0], reader)]
            deps.update((ctx.app, ctx.exec_id) for _, ctx, _ in out)
            return out

        if not stream:
            drained = self._fan_out([partial(list, r) for _, r in work], tenant, stats, errors)
            readers = runs((p, iter(d)) for p, d in drained)
            answer = render(RAW_COLUMNS, raw_answer(run_chunks(readers), query))
            finish(len(work), answer)
            return QueryResult([answer], query.output_columns, plan, False, stats, errors)

        def pulled(reader: Iterator) -> Iterator:
            with self._degrading(stats, errors):
                yield from reader

        def chunks() -> Iterator[DecodedBatch]:
            readers = [pulled(reader) for _, reader in work]
            remaining = query.limit
            budget = self.plan_cache.max_bytes
            acc: list[DecodedBatch] | None = []
            acc_bytes = 0
            try:
                for values in run_chunks(runs(enumerate(readers))) if remaining != 0 else ():
                    if remaining is not None:
                        values = [column[:remaining] for column in values]
                        remaining -= len(values[0])
                    answer = render(RAW_COLUMNS, values)
                    if acc is not None and budget is not None:
                        acc_bytes += entry_bytes(fingerprint, answer)
                        if acc_bytes > budget:
                            acc = None
                    if acc is not None:
                        acc.append(answer)
                    yield answer
                    if remaining == 0:
                        break
            finally:
                for reader in readers:
                    reader.close()
            finish(len(work), None if acc is None else DecodedBatch.concat(acc))

        return QueryResult(chunks(), query.output_columns, plan, False, stats, errors)

    def _begin_uncached(self, query: Query, fingerprint: str):
        """The shared head of both result paths after a plan-cache miss —
        coherence snapshot, plan, stats counters, plan-time dependencies —
        and, as the ``finish`` it returns last (after the plan, the
        counters, the dependency set and the list member failures are
        recorded in), their shared tail.
        """
        snapshot = self.coherence.snapshot()
        plan = self._plan(query)
        fanout_members = [m for m in plan.members if not m.is_tier0]
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
            "chunkedCalls": 0,
            "bulkCalls": 0,
            "tier0Members": len(plan.members) - len(fanout_members),
            "estimatedRoundTrips": plan.estimated_round_trips,
        }
        # a stats-proven skip is a read of the member's *statistics*: the
        # wildcard dep makes any later update to that member invalidate
        # (or stale-discard) this result, so the skip gets re-evaluated
        deps = {(skipped.app, ANY) for skipped in plan.skipped}
        errors: list[str] = []

        def finish(n: int, answer: DecodedBatch | None) -> None:
            """End a query that ran *n* member tasks.  If every one of
            them failed there is no answer to degrade to.  And a degraded
            result (member task errors, or a plan built with missing
            member stats) is never offered to the plan cache — nor one
            the caller gave up accumulating (*answer* is None).  The
            cache keeps its own slice, so rows joined for this caller
            never stay on the entry."""
            if errors and len(errors) == n:
                raise QueryError(
                    f"all {n} member task(s) failed: {'; '.join(errors[:3])}"
                )
            if answer is not None and not errors and not plan.stats_degraded:
                self.coherence.admit(fingerprint, deps, snapshot, answer[:])

        return plan, stats, deps, errors, finish

    @contextmanager
    def read(
        self, execution, sub: SubQuery, foci: list[str], stats,
        cursor: bool, ordered: bool = False, columnar: bool = False,
    ):
        """The one member read under bulk tasks, streamed runs and
        view maintenance: *sub* over *foci* on *execution*, as a context
        whose value iterates the records — ``getPRAgg`` buckets, or
        ``getPR`` results (through a chunked *cursor* when asked, else
        as one array that may arrive as a *columnar* chunk; in
        ``pr_sort_key`` order when *ordered*).  On the way out, whether
        the consumer drained it, stopped or raised, the cursor is closed
        and the read counted into *stats*, its bytes the payload received.
        """
        aggregate = None
        if sub.mode == "aggregate":
            aggregate = (sub.min_value, sub.max_value, "focus" if sub.group_by_focus else "")
        rows = execution.read(
            sub.metric, foci, sub.start, sub.end, sub.result_type, aggregate,
            cursor=cursor, max_rows=self.stream_chunk_rows,
            ordered=ordered, columnar=columnar,
        )
        try:
            yield rows
        finally:
            rows.close()
            with self._stats_lock:
                stats["calls"] += 1
                stats["chunkedCalls" if isinstance(rows, Iterator) else "bulkCalls"] += 1
                stats["records"] += rows.rows_fetched
                stats["payloadBytes"] += rows.bytes_fetched

    def _fan_out(self, tasks: list, tenant: str, stats, errors: list[str]) -> Iterator[tuple]:
        """Run *tasks* on the fan-out pool under *tenant*, yielding
        ``(plan position, result)`` on this thread as each completes.  A
        failed task degrades the result (:meth:`_degrading`); a
        :class:`QueryError` — the whole query is wrong — propagates, and
        the queued tasks never run."""
        pool = self._pool()
        positions = {pool.submit(task, tenant=tenant): p for p, task in enumerate(tasks)}
        pending = set(positions)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    with self._degrading(stats, errors):
                        yield positions[future], future.result()
        except BaseException:
            for future in pending:
                future.cancel()
            raise

    @staticmethod
    @contextmanager
    def _degrading(stats, errors: list[str]):
        """A member task failing in the block is counted and recorded,
        and the surviving members' rows still come back; a
        :class:`QueryError` (planning or protocol) propagates."""
        try:
            yield
        except QueryError:
            raise
        except Exception as exc:
            stats["errors"] += 1
            errors.append(f"{type(exc).__name__}: {exc}")

    # ----------------------------------------------------------- coherence
    def invalidate_cache(self) -> int:
        """Drop all memoized query results; returns how many were dropped.

        Cached member statistics go too — a manual invalidation usually
        means "the stores changed under us", and stale stats could keep
        proving skips that no longer hold.
        """
        return self.coherence.invalidate()

    def enable_coherence(self, container) -> int:
        """Subscribe a sink to every member Execution's data-update topic.

        Deploys a NotificationSink next to the engine (once) in
        *container*, walks every member's executions, and subscribes the
        sink to each one's ``data-update`` topic.  Safe to call again
        after :meth:`refresh_members` — already-subscribed executions are
        skipped.  Returns the number of *new* subscriptions made.
        """
        return self.coherence.subscribe(
            container,
            self._on_update,
            (
                (app, self._execution_id(execution), execution)
                for app, binding in self.members().items()
                for execution in binding.all_executions()
                # local-bypass executions have no Services Layer
                if hasattr(execution, "subscribe")
            ),
        )

    def _on_update(self, topic: str, message: str) -> None:
        """Data-update delivery: the tracker drops exactly what read the
        updated scope, then — after its lock is released, because view
        maintenance re-plans and refetches member rows — each scope goes
        unchanged to the view maintainer, whose one refetch brings the
        views depending on it up to date."""
        scopes = self.coherence.on_update(message, self._bindings or ())
        maintainer = self._view_maintainer
        if maintainer is not None:
            for app, exec_id in scopes:
                maintainer.on_update(app, exec_id)

    def coherence_stats(self) -> dict[str, int]:
        """Snapshot of the coherence counters plus tracked-plan count."""
        return self.coherence.stats()

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
        return self.views().stats()

    # ----------------------------------------------------------- internals
    def _parse(self, query: str | Query) -> Query:
        if isinstance(query, Query):
            return query.validate()
        return parse_query(query)

    def _plan(self, query: Query, allow_tier0: bool = True) -> Plan:
        members = self.members()
        unknown = [name for name in query.sources if name not in members]
        if unknown:
            raise QueryError(
                f"unknown application(s) {unknown} "
                f"(published: {', '.join(members)})"
            )
        catalog = {
            name: self.coherence.fact(name, ANY, "params", binding.exec_query_params)
            for name, binding in members.items()
        }
        return plan_query(
            query,
            catalog,
            self.coherence.member_stats(members, self._execution_id),
            tier0=allow_tier0,
        )

    def _select_executions(self, member: MemberPlan, binding, stats) -> list:
        if member.selector is None:

            def read() -> list:
                stats["calls"] += 1  # counted only when it crosses the wire
                return binding.all_executions()

            return self.coherence.fact(member.app, ANY, "executions", read)
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
    ) -> Iterator[tuple[MemberPlan, list, list[SubQuery], bool]]:
        """The one enumeration of member work behind a plan, consumed by
        the aggregate task builder, the raw readers and view maintenance.

        Yields ``(member, executions, subqueries, large)`` per member
        that really fans out: its selected executions, the sub-queries
        surviving the metric filter in run order (``ordering_key`` of
        the metric), and whether a raw read is *large*:
        planned at more rows than one chunk (``stream_chunk_rows``) —
        the plan's row estimate spread over the executions and their
        sub-queries — or unsized.  Tier-0 members (answered at plan
        time) and members with nothing selected or nothing left to ask
        yield nothing.  ``stats`` takes the ``calls``, ``executions`` and
        ``skipped_metrics`` counts.
        """
        for member in members:
            if member.is_tier0:
                continue
            binding = self.members()[member.app]
            executions = self._select_executions(member, binding, stats)
            if not executions:
                continue
            if not member.cost.stats_missing:
                # the planner already dropped metrics the member's stats
                # prove absent; probing one execution here would be
                # *wrong* for heterogeneous members (executions[0] need
                # not record every metric its siblings do)
                subqueries = list(member.subqueries)
            else:
                metrics = self.coherence.fact(
                    member.app, ANY, "metrics", executions[0].metrics
                )
                subqueries = [sq for sq in member.subqueries if sq.metric in metrics]
                stats["skipped_metrics"] += len(member.subqueries) - len(subqueries)
            if not subqueries:
                continue
            stats["executions"] += len(executions)
            per_exec = member.est_rows_per_execution(len(executions))
            large = per_exec is None or per_exec > self.stream_chunk_rows * len(subqueries)
            subqueries.sort(key=lambda sq: ordering_key(sq.metric))
            yield member, executions, subqueries, large

    def _collect_tasks(self, plan: Plan, stats) -> list:
        # an aggregate query reads every execution as arrays; a large raw
        # read (a mixed query's) as one getPR that advertises the columnar
        # encoding, so the member may answer with a single colbatch chunk
        # in the same round trip
        return [
            partial(
                self.execution_task, member, execution, subqueries, stats, columnar=large
            )
            for member, executions, subqueries, large in self.member_work(plan.members, stats)
            for execution in executions
        ]

    def on_execution(self, member: MemberPlan, execution, body) -> Iterator:
        """The per-execution prologue every result path shares (bulk
        task, streamed runs, view maintenance): yields what the
        generator ``body(execution, ctx, foci)`` yields — *ctx* naming
        the execution (dependencies are keyed ``(app, exec_id)``) with
        its info when the plan needs it, *foci* its remembered foci
        under the plan's focus filter.

        A remembered handle is soft state: its instance can be
        destroyed, expire or restart.  The container's ``no service at``
        fault, before anything was yielded, re-resolves the execution by
        id and runs *body* once more; any other failure propagates (the
        caller degrades).  Either way the member's facts are forgotten,
        so nothing stale survives an error.
        """
        for retry in (True, False):
            started = False
            try:
                exec_id = self._execution_id(execution)
                info = dict(execution.info()) if member.needs_info else None
                foci = self.coherence.fact(member.app, exec_id, "foci", execution.foci)
                ctx = TaskContext(app=member.app, exec_id=exec_id, info=info)
                for item in body(execution, ctx, filter_foci(foci, member.foci)):
                    started = True
                    yield item
                return
            except Exception as exc:
                stale = (
                    retry and not started and isinstance(exc, SoapFault)
                    and exc.fault_message.startswith("no service at ")
                )
                self.coherence.forget(member.app, stale_handle=stale)
                live = stale and self.members()[member.app].query_executions(
                    "execid", self._execution_id(execution)
                )
                if not live:
                    raise
                execution = live[0]

    def raw_reader(
        self, member: MemberPlan, execution, subqueries, stats, predicates,
        cursor: bool = False, columnar: bool = False,
    ) -> Iterator:
        """One execution's raw read, the same whoever pulls it — a stream
        on the thread draining it, bulk on the fan-out pool, view
        maintenance inline: yields the execution's :class:`TaskContext`
        before reading anything, then each sub-query's run as its
        :meth:`read` arrives — ``ordered``, less what the value
        *predicates* drop, chunk by chunk from a *cursor* or as one
        array (*columnar* when asked) — with a None ending it.  A failure
        forgets the member's facts and propagates."""

        def body(execution, ctx, foci):
            for sub in subqueries:
                if foci:
                    with self.read(
                        execution, sub, foci, stats, cursor, ordered=True, columnar=columnar
                    ) as rows:
                        for chunk in rows.chunks():
                            yield filter_values(chunk, predicates)
                yield None

        try:
            ctx = TaskContext(member.app, self._execution_id(execution))
        except Exception:
            self.coherence.forget(member.app)
            raise
        yield ctx
        yield from self.on_execution(member, execution, body)

    def execution_task(
        self, member: MemberPlan, execution, subqueries, stats,
        cursor: bool = False, columnar: bool = False,
    ):
        """The per-execution aggregate task body: :meth:`read` every
        sub-query and return ``(ctx, [(sub, records)])`` — one pair per
        chunk read, buckets or a raw read's columns — for a
        :class:`StreamingMerger` to absorb.  Aggregate queries run it on
        the fan-out pool; view maintenance runs it inline, on the thread
        delivering the update."""

        def fetch(execution, ctx, foci):
            payloads = []
            for sub in subqueries if foci else ():
                with self.read(execution, sub, foci, stats, cursor, columnar=columnar) as rows:
                    payloads.extend((sub, chunk) for chunk in rows.chunks())
            yield ctx, payloads

        (fetched,) = self.on_execution(member, execution, fetch)
        return fetched
