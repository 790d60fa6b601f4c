"""The Execution Grid service (thesis §5.3.2, Table 2).

An Execution instance is transient and stateful: created by the
Execution Factory (usually via the Manager), it carries its execution
wrapper, its Performance-Result cache, and — per future-work §7 — a
NotificationSource so clients can subscribe to data-store updates.
"""

from __future__ import annotations

import math
import threading

from repro.core.prcache import PrCache, default_pr_cache
from repro.core.semantic import (
    EXECUTION_PORTTYPE,
    PerformanceResult,
    ResultColumns,
    pr_agg_cache_key,
    pr_cache_key,
)
from repro.mapping.base import ExecutionWrapper
from repro.ogsi.cursor import DEFAULT_CURSOR_TTL, deploy_cursor
from repro.ogsi.dispatch import answer_encoding
from repro.ogsi.notification import NotificationSourceMixin
from repro.ogsi.porttypes import NOTIFICATION_SINK_PORTTYPE
from repro.ogsi.service import GridServiceBase
from repro.soap.chunks import ENCODING_XML, WIRE_ENCODINGS, frame_answer
from repro.soap.colbatch import DecodedBatch, decode_columns, encode_batch


class ExecutionService(GridServiceBase, NotificationSourceMixin):
    """One Execution semantic object exposed as a Grid service."""

    porttype = EXECUTION_PORTTYPE

    def __init__(
        self,
        wrapper: ExecutionWrapper,
        exec_id: str,
        cache: PrCache | None = None,
    ) -> None:
        super().__init__()
        self._init_notification_source()
        self.wrapper = wrapper
        self.exec_id = exec_id
        self.cache = cache if cache is not None else default_pr_cache()
        #: data generation: bumped on every data_updated(), so clients
        #: can detect results computed against a superseded store state
        self.generation = 0
        self._update_lock = threading.Lock()  # moving the generation, admitting an answer
        #: soft-state lifetime granted to getPRChunked cursors; renewed
        #: on every next(), swept by the container when it lapses
        self.cursor_ttl: float = DEFAULT_CURSOR_TTL
        #: wire encodings this execution's cursors and getPR answers may
        #: serve (chosen per request; ``("xml",)`` pins per-row transfers)
        self.wire_encodings: tuple[str, ...] = WIRE_ENCODINGS

    def on_deployed(self, container, gsh) -> None:
        super().on_deployed(container, gsh)
        # Future-work §7: expose metrics/foci/types/time as SDEs so an
        # XPath FindServiceData query can answer discovery questions —
        # read off the wrapper and the PR cache when asked, so neither
        # the query path nor data_updated() keeps copies current.
        sdes = self.service_data
        sdes.set("execId", lambda: self.exec_id)
        sdes.set("generation", lambda: str(self.generation))
        sdes.set("cacheStats", lambda: self.cache.stat_records())
        sdes.set("metrics", self.getMetrics)
        sdes.set("foci", self.getFoci)
        sdes.set("types", self.getTypes)
        sdes.set("timeStartEnd", self.getTimeStartEnd)

    # ----------------------------------------------- Table 2 operations
    def getInfo(self) -> list[str]:
        self.require_active()
        return [f"{name}|{value}" for name, value in self.wrapper.get_info()]

    def getFoci(self) -> list[str]:
        self.require_active()
        return self.wrapper.get_foci()

    def getMetrics(self) -> list[str]:
        self.require_active()
        return self.wrapper.get_metrics()

    def getTypes(self) -> list[str]:
        self.require_active()
        return self.wrapper.get_types()

    def getTimeStartEnd(self) -> list[str]:
        self.require_active()
        start, end = self.wrapper.get_time_start_end()
        return [repr(start), repr(end)]

    def getPR(
        self,
        metric: str,
        foci: list[str],
        startTime: str,
        endTime: str,
        resultType: str,
    ) -> list[str]:
        """Query Performance Results, consulting the PR cache first; framed
        for an advertising request (``frame_answer``, cached beside them)."""
        self.require_active()
        key = pr_cache_key(metric, list(foci), startTime, endTime, resultType)

        def rows() -> list[str]:
            try:
                start = float(startTime)
                end = float(endTime)
            except ValueError as exc:
                raise ValueError(f"bad time bound: {exc}") from exc
            results = self.wrapper.get_pr(metric, list(foci), start, end, resultType)
            return [pr.pack() for pr in results]

        encoding = answer_encoding(self.wire_encodings)
        if encoding == ENCODING_XML:
            return self._memo(key, rows)
        return self._memo(
            f"{encoding}: {key}", lambda: frame_answer(self._memo(key, rows), encoding)
        )

    def getPRAgg(
        self,
        metric: str,
        foci: list[str],
        startTime: str,
        endTime: str,
        resultType: str,
        minValue: str,
        maxValue: str,
        groupBy: str,
    ) -> list[str]:
        """Server-side aggregation (the federated push-down operation).

        Matching Performance Results are reduced to combinable
        count/total/min/max buckets at the store — RDBMS wrappers answer
        with real SQL, others reduce in the Mapping Layer — so only the
        buckets cross the wire.  ``minValue``/``maxValue`` are inclusive
        value bounds (empty string = unbounded); ``groupBy`` is ``""`` or
        ``"focus"``.  Results share the Execution's PR cache under a
        distinct key space, so Table 5 caching applies here too.
        """
        self.require_active()
        if groupBy not in ("", "focus"):
            raise ValueError(f"unsupported groupBy {groupBy!r}")
        key = pr_agg_cache_key(
            metric, list(foci), startTime, endTime, resultType,
            minValue, maxValue, groupBy,
        )

        def buckets() -> list[str]:
            try:
                start = float(startTime)
                end = float(endTime)
                min_value = float(minValue) if minValue else None
                max_value = float(maxValue) if maxValue else None
            except ValueError as exc:
                raise ValueError(f"bad getPRAgg bound: {exc}") from exc
            # nan orders no value, so each store would filter by it its own
            # way; an infinite bound is simply an open one and passes.
            if any(b is not None and math.isnan(b) for b in (min_value, max_value)):
                raise ValueError("bad getPRAgg bound: nan")
            records = self.wrapper.get_pr_aggregate(
                metric, list(foci), start, end, resultType,
                min_value, max_value, groupBy,
            )
            return [record.pack() for record in records]

        return self._memo(key, buckets)

    def _memo(self, key: str, compute):
        """The PR cache's answer for *key*, else ``compute()``'s — cached
        only if no ``data_updated()`` ran while it was computed."""
        cached = self.cache.get(key)
        if cached is not None:
            return cached if isinstance(cached, DecodedBatch) else list(cached)
        generation = self.generation
        answer = compute()
        with self._update_lock:
            if generation == self.generation:
                self.cache.put(key, answer)
        return answer

    def getPRChunked(
        self,
        metric: str,
        foci: list[str],
        startTime: str,
        endTime: str,
        resultType: str,
        ordered: bool,
    ) -> str:
        """Like getPR, but answered through a ResultCursor instance.

        Deploys a transient cursor under this Execution's path (the same
        factory/instance idiom as the Execution itself) and returns its
        GSH; the client drains it with ``next(maxRows)``/``close()``, in
        the encoding this request's ``acceptEncodings`` header chose.

        Two server-side profiles, chosen by ``ordered``:

        * ``ordered=False`` streams the wrapper's lazy ``iter_pr`` scan
          in store order — O(chunk) server memory, the profile for big
          single-store drains — and bypasses the PR cache;
        * ``ordered=True`` sorts the result by the canonical
          ``pr_sort_key`` first — what the federated streaming merge
          needs to reproduce bulk ordering exactly — and caches it (key
          ``ordered: <key>``) as the packed rows' columns, the numeric
          ones as their numbers: a warm cursor reads, sorts and renders
          nothing, and slices and encodes each chunk from the numbers
          (or, over XML, joins the chunk's rows).

        A ``data_updated()`` mid-drain clears the cache, not a live
        ordered cursor's answer; an unordered scan may surface it in
        later chunks.  The ``generation`` SDE lets clients detect it.
        """
        self.require_active()
        encoding = answer_encoding(self.wire_encodings)
        if self.container is None:
            raise RuntimeError("Execution service is not deployed")
        try:
            start = float(startTime)
            end = float(endTime)
        except ValueError as exc:
            raise ValueError(f"bad time bound: {exc}") from exc

        def answer() -> DecodedBatch:
            results = self.wrapper.get_pr(metric, list(foci), start, end, resultType)
            packed = [pr.pack() for pr in results]
            # sorted as read back (pack() rounds the times), then coded
            # once, so the numeric columns are held as numbers
            sent = ResultColumns.unpack([*zip(*(row.split("|") for row in packed))] or [()] * 5)
            return decode_columns(encode_batch([packed[i] for i in sent.order()]))

        if ordered:
            key = pr_cache_key(metric, list(foci), startTime, endTime, resultType)
            chunks = [self._memo("ordered: " + key, answer)]
        else:
            scan = self.wrapper.iter_pr(metric, list(foci), start, end, resultType)
            chunks = ([pr.pack()] for pr in scan)  # one-row chunks: O(chunk) memory
        assert self.gsh is not None
        gsh = deploy_cursor(
            self.container, self.gsh.path, chunks, ttl=self.cursor_ttl, encoding=encoding
        )
        return gsh.url()

    def getStats(self) -> list[str]:
        """Store statistics for the cost-based planner (packed records).

        Delegates to the Mapping Layer, whose wrappers answer from one
        scan of their own rows (SMG98 from SQL aggregates, with no
        sketch).
        The first call also publishes them as the ``storeStats`` SDE,
        computed per read from then on: an XPath read of an instance
        nobody asked for statistics never pays a store scan.
        """
        self.require_active()
        if "storeStats" not in self.service_data:
            self.service_data.set("storeStats", self.getStats)
        return self.wrapper.get_stats().pack_records()

    def getPRAsync(
        self,
        metric: str,
        foci: list[str],
        startTime: str,
        endTime: str,
        resultType: str,
        sinkHandle: str,
    ) -> str:
        """Registry-callback query (§7 extension).

        Runs the query and pushes the packed results to *sinkHandle* as a
        notification on topic ``pr-result/<query-id>``; the message body
        is the newline-joined result array ('|' is taken by the record
        format).  Returns the query id.  Query failures are delivered on
        topic ``pr-error/<query-id>`` instead of faulting the submit call
        — the submitter may long since have moved on.
        """
        self.require_active()
        if self.container is None:
            raise RuntimeError("Execution service is not deployed")
        self._async_counter = getattr(self, "_async_counter", 0) + 1
        query_id = f"query-{self.exec_id}-{self._async_counter}"
        stub = self.container.environment.stub_for_handle(
            sinkHandle, NOTIFICATION_SINK_PORTTYPE
        )
        try:
            packed = self.getPR(metric, foci, startTime, endTime, resultType)
        except Exception as exc:
            stub.DeliverNotification(f"pr-error/{query_id}", str(exc))
            return query_id
        stub.DeliverNotification(f"pr-result/{query_id}", "\n".join(packed))
        return query_id

    # -------------------------------------------------------- lifecycle
    def on_destroyed(self) -> None:
        self.cache.clear()

    # --------------------------------------------------- update support
    def data_updated(self, description: str = "") -> int:
        """Notify subscribers that the underlying data store changed.

        Ordering matters for coherence: the generation is bumped and the
        PR cache cleared *before* the notification goes out, so a
        subscriber that re-queries from inside its delivery callback can
        never replay pre-update packed results, and any in-flight reader
        holding the old generation can recognize its results as
        superseded.  The SDEs need nothing: they are computed when read.
        Returns the number of push deliveries made.

        The notification body is ``execId|generation|sourceHandle|description``
        — the handle disambiguates executions whose ids collide across
        Applications (runids restart at 1 per store).
        """
        self.require_active()
        with self._update_lock:
            self.generation += 1
            self.cache.clear()
        source = self.gsh.url() if self.gsh is not None else ""
        return self.notify(
            "data-update", f"{self.exec_id}|{self.generation}|{source}|{description}"
        )

    def unpack_results(self, packed: list[str]) -> list[PerformanceResult]:
        """Convenience for in-process callers/tests."""
        return [PerformanceResult.unpack(p) for p in packed]
