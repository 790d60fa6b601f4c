"""The Virtualization Layer: PPerfGrid client, virtual objects, panels.

This is the library form of the thesis's Swing client (Figures 8-11):

* service discovery against the UDDI registry (Figure 8);
* :class:`ApplicationBinding` / :class:`ExecutionBinding` — the virtual
  objects: local stubs through which remote Applications/Executions are
  used "as if they were local objects";
* :class:`ApplicationQueryPanel` / :class:`ExecutionQueryPanel` — the
  batch query tables of Figures 9 and 10, including the future-work
  metric-value filter;
* the local-bypass optimization of §7: a data store co-located with the
  client is accessed directly through its wrapper, skipping the Services
  Layer.

The client is the top of the ``core`` package's import order: it sits
above :mod:`repro.fedquery`, whose FederatedQuery and ViewRegistry
services it calls like any other (``tests/test_layers.py``).
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from concurrent.futures import wait
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Collection, Iterable, Iterator

from repro.core.semantic import (
    APPLICATION_PORTTYPE,
    EXECUTION_PORTTYPE,
    UNDEFINED_TYPE,
    AggregateRecord,
    PerformanceResult,
    ResultColumns,
    StoreStats,
)
from repro.fedquery.merge import answer_order, read_rows
from repro.fedquery.parser import parse_query
from repro.fedquery.scheduler import shared_scheduler
from repro.fedquery.service import FEDERATED_QUERY_PORTTYPE
from repro.fedquery.views import ViewDelta
from repro.fedquery.viewservice import VIEW_REGISTRY_PORTTYPE
from repro.mapping.base import ApplicationWrapper
from repro.ogsi.container import GridEnvironment
from repro.ogsi.cursor import DEFAULT_CHUNK_ROWS, RESULT_CURSOR_PORTTYPE
from repro.ogsi.dispatch import accept_encodings_headers
from repro.ogsi.notification import NotificationSinkBase, PullNotificationSink
from repro.ogsi.porttypes import FACTORY_PORTTYPE
from repro.soap.chunks import (
    ANSWER_ENCODINGS, CHUNK_HEADER, ENCODING_XML, WIRE_ENCODINGS, ChunkError, decode_chunk,
    require_accepted, unframe_answer,
)
from repro.soap.colbatch import DecodedBatch
from repro.uddi.proxy import OrganizationProxy, ServiceProxy, UddiClient

def default_accept_encodings(served: tuple[str, ...] = WIRE_ENCODINGS) -> tuple[str, ...]:
    """Wire encodings a request creating a cursor — or expecting a large
    array answer — advertises: the only source of that list.  Built in,
    it is what the responder can serve: a member's encodings, or a
    federation's (*served* ``ANSWER_ENCODINGS``, ``colbatch+pfx`` first).

    ``PPG_ACCEPT_ENCODINGS`` (comma-separated) overrides the built-in
    list; setting it to ``xml`` pins every cursor drain and array answer
    in the process to per-row XML — the CI leg that keeps it covered.
    """
    override = os.environ.get("PPG_ACCEPT_ENCODINGS")
    if override:
        return tuple(item.strip() for item in override.split(",") if item.strip())
    return served


def _check_max_rows(max_rows: int) -> None:
    if max_rows < 1:
        raise ValueError(f"max_rows must be >= 1, got {max_rows}")


def _parse_pairs(records: list[str]) -> dict[str, str]:
    """Parse ``"name|value"`` records into a dict."""
    out: dict[str, str] = {}
    for record in records:
        name, _, value = record.partition("|")
        out[name] = value
    return out


def _window(
    execution, start: float | None, end: float | None
) -> tuple[float, float]:
    """Default an open query window to *execution*'s full time range
    (fetched only when a bound is actually missing)."""
    if start is None or end is None:
        t0, t1 = execution.time_range()
        start = t0 if start is None else start
        end = t1 if end is None else end
    return start, end


def _parse_params(records: list[str]) -> dict[str, list[str]]:
    """Parse ``"name|v1|v2|..."`` records into attribute -> values."""
    out: dict[str, list[str]] = {}
    for record in records:
        parts = record.split("|")
        out[parts[0]] = parts[1:]
    return out


class ChunkedResultIterator:
    """Client half of the ResultCursor protocol: a plain iterator.

    Pages through a remote cursor with ``next(maxRows)`` calls, verifies
    chunk sequence numbers, and yields one decoded row at a time —
    client memory stays bounded by one chunk regardless of result size.
    ``decoder`` maps each chunk's packed rows (a colbatch chunk's still
    its columns) to the objects yielded (the row strings when omitted).
    The cursor is closed automatically when the stream is exhausted;
    close early (or use the context-manager form) to release a partially
    drained cursor without waiting for its server-side TTL.

    ``accept_encodings`` is what the request that created the cursor
    advertised (default: :func:`default_accept_encodings`, what
    :meth:`open` sends).  The first chunk pins :attr:`encoding`; a chunk
    in an encoding the request did not advertise
    (``soap.chunks.require_accepted``) or other than the pinned one is a
    protocol error.
    """

    def __init__(
        self,
        environment: GridEnvironment,
        cursor_handle: str,
        max_rows: int = DEFAULT_CHUNK_ROWS,
        decoder: Callable[[Collection[str]], Iterable] | None = None,
        accept_encodings: tuple[str, ...] | None = None,
    ) -> None:
        _check_max_rows(max_rows)
        self.environment = environment
        self.cursor_handle = cursor_handle
        self.max_rows = max_rows
        self._stub = environment.stub_for_handle(cursor_handle, RESULT_CURSOR_PORTTYPE)
        self._expected_seq = 0
        self._done = False
        self._closed = False
        #: the last chunk's rows as they arrived, and the rows not yet yielded
        self._chunk: Collection[str] = ()
        self._rows: Iterator = self._decoded(decoder or iter)
        self.chunks_fetched = 0
        self.rows_fetched = 0
        #: summed length of the payload records received, chunk headers
        #: aside — what the engine's ``payloadBytes`` counts
        self.bytes_fetched = 0
        self.accept_encodings = (
            tuple(accept_encodings)
            if accept_encodings is not None
            else default_accept_encodings()
        )
        #: the content encoding of every chunk, pinned by the first one
        self.encoding: str | None = None

    @classmethod
    def open(
        cls, environment: GridEnvironment, stub, operation: str, *args: object,
        max_rows: int = DEFAULT_CHUNK_ROWS,
        decoder: Callable[[Collection[str]], Iterable] | None = None,
        served: tuple[str, ...] = WIRE_ENCODINGS,
    ) -> "ChunkedResultIterator":
        """Send *operation*, which creates a cursor, advertising
        :func:`default_accept_encodings` of what the responder *served*,
        and iterate the cursor; a bad *max_rows* raises first, so no
        cursor lingers until its TTL."""
        _check_max_rows(max_rows)
        advertised = default_accept_encodings(served)
        handle = stub.invoke(operation, *args, headers=accept_encodings_headers(advertised))
        return cls(environment, handle, max_rows, decoder, advertised)

    def _fetch(self) -> None:
        payload = list(self._stub.next(self.max_rows))
        try:
            envelope = decode_chunk(payload)
            require_accepted(envelope, self.accept_encodings)
            if self.encoding is None:
                self.encoding = envelope.encoding
            elif envelope.encoding != self.encoding:
                raise ChunkError(
                    f"cursor {self.cursor_handle} switched encoding mid-stream: "
                    f"chunk {envelope.seq} arrived as {envelope.encoding!r}, "
                    f"pinned {self.encoding!r}"
                )
            if envelope.seq != self._expected_seq:
                raise ChunkError(
                    f"cursor {self.cursor_handle} returned chunk {envelope.seq}, "
                    f"expected {self._expected_seq} (missed or replayed fetch)"
                )
        except ChunkError:
            # a broken stream cannot be resynchronized — destroy the
            # server-side cursor now instead of leaving it to linger
            # until the TTL sweep reclaims it
            self.close()
            raise
        self._expected_seq += 1
        # a colbatch chunk's rows stay columns until a row is read
        self._chunk = envelope.rows
        self._done = envelope.done
        self.chunks_fetched += 1
        self.rows_fetched += len(envelope.rows)
        self.bytes_fetched += _payload_length(payload)

    def _fetched(self) -> Iterator[Collection[str]]:
        """Each remaining chunk's rows as they arrived (a colbatch chunk's
        still its columns); the cursor is closed after the last."""
        while not (self._done or self._closed):
            self._fetch()
            yield self._chunk
        self.close()

    def chunks(self) -> Iterator["ColumnRead"]:
        """A ``getPR`` cursor read a chunk at a time instead of row by
        row, each chunk as its :func:`read_columns`."""
        return self._decoded(lambda chunk: (read_columns(chunk),))

    def __iter__(self) -> "ChunkedResultIterator":
        return self

    def __next__(self) -> object:
        return next(self._rows)

    def _decoded(self, decode: Callable[[Collection[str]], Iterable]) -> Iterator:
        """What *decode* makes of each remaining chunk, in order."""
        for chunk in self._fetched():
            try:
                yield from decode(chunk)
            except Exception:
                # a stream that cannot be decoded cannot be resumed: release
                # the server-side cursor now, as for a broken chunk sequence
                self.close()
                raise

    def close(self) -> None:
        """Release the server-side cursor (idempotent, best-effort).

        Best-effort because the cursor may already be gone — expired by
        TTL, or reclaimed after a server restart — and tearing down an
        iterator must not raise for it.
        """
        if self._closed:
            return
        self._closed = True
        self._chunk, self._rows = (), iter(())
        try:
            self._stub.close()
        except Exception:
            pass

    def __enter__(self) -> "ChunkedResultIterator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ArrayRead:
    """What a member read that opened no cursor returns, carrying the
    accounting surface of :class:`ChunkedResultIterator` so a consumer
    treats both alike: the decoded buckets of a ``getPRAgg``
    (:class:`BucketRead`), the columns of a raw ``getPR``
    (:class:`ColumnRead`)."""

    #: summed length of the payload records received (the local bypass: 0)
    bytes_fetched: int = 0
    encoding: str = ENCODING_XML  # the content encoding the answer arrived in

    @property
    def rows_fetched(self) -> int:
        return len(self)

    def chunks(self) -> list["ArrayRead"]:
        """The read a chunk at a time, as a cursor's is: one chunk, itself."""
        return [self]

    def close(self) -> None:
        """Nothing is held open: the array already crossed the wire."""


class BucketRead(list, ArrayRead):
    """A ``getPRAgg`` answer: the decoded bucket list itself."""


class ColumnRead(ResultColumns, ArrayRead):
    """A raw ``getPR`` answer, column by column."""


def _payload_length(items: list[str]) -> int:
    """Summed length of a received SOAP array's payload records: a chunk header aside."""
    framed = items and items[0].startswith(CHUNK_HEADER + "|")
    return sum(map(len, items)) - (len(items[0]) if framed else 0)


def read_columns(packed: Collection[str]) -> ColumnRead:
    """A ``getPR`` array or cursor chunk as columns: a colbatch answer's
    as they came (spans and values the floats they decoded to, or parsed
    from text), per-row XML (or a batch with exception rows) parsed one
    record at a time and transposed."""
    if isinstance(packed, DecodedBatch) and not packed.exceptions and packed.width == 5:
        spans, values = packed.floats(3), packed.floats(4)
        if spans is not None and len(spans) == 2 and values is not None and len(values) == 1:
            return ColumnRead(*map(packed.column, range(3)), *spans, *values)
        return ColumnRead.unpack(packed.columns)
    return ColumnRead.of(map(PerformanceResult.unpack, packed))


class ExecutionBinding:
    """A virtual Execution object (remote, via stub)."""

    def __init__(self, environment: GridEnvironment, gsh: str) -> None:
        self.environment = environment
        self.gsh = gsh
        self.stub = environment.pooled_stub_for_handle(gsh, EXECUTION_PORTTYPE)

    @property
    def is_local(self) -> bool:
        return False

    def info(self) -> dict[str, str]:
        return _parse_pairs(self.stub.getInfo())

    def foci(self) -> list[str]:
        return list(self.stub.getFoci())

    def metrics(self) -> list[str]:
        return list(self.stub.getMetrics())

    def types(self) -> list[str]:
        return list(self.stub.getTypes())

    def time_range(self) -> tuple[float, float]:
        start, end = self.stub.getTimeStartEnd()
        return (float(start), float(end))

    def get_pr(
        self,
        metric: str,
        foci: list[str],
        start: float | None = None,
        end: float | None = None,
        result_type: str = UNDEFINED_TYPE,
    ) -> list[PerformanceResult]:
        """Query Performance Results (the Table 4 "total query time" path)."""
        return list(self.read(metric, foci, start, end, result_type))

    def read(
        self, metric: str, foci: list[str], start: float | None = None,
        end: float | None = None, result_type: str = UNDEFINED_TYPE,
        aggregate: tuple[float | None, float | None, str] | None = None,
        cursor: bool = False, max_rows: int = DEFAULT_CHUNK_ROWS,
        ordered: bool = False, columnar: bool = False,
    ) -> "ArrayRead | ChunkedResultIterator":
        """The one member read: a ``getPR`` array (``getPRAgg`` when
        *aggregate* gives its ``(min_value, max_value, group_by)``) or,
        when *cursor* is set on a raw read, a ``getPRChunked`` cursor
        paging *max_rows* at a time — aggregates never page through a
        cursor.  Either is an iterable of records, in ``pr_sort_key``
        order when *ordered*, with ``rows_fetched``, ``close()`` and
        ``bytes_fetched`` — the summed length of the payload records
        received, whatever their encoding (a chunk header aside).
        A raw array is a :class:`ColumnRead`: its columns are what the
        federation merges, its iteration the per-record fallback.

        A cursor always advertises :func:`default_accept_encodings`; a
        ``getPR`` does when *columnar* is set (the caller expects a large
        answer), which may then be one columnar chunk of the same records.
        """
        if cursor and aggregate is None:
            return self.get_pr_chunked(
                metric, foci, start, end, result_type, max_rows=max_rows, ordered=ordered
            )
        start, end = _window(self, start, end)
        args = (metric, list(foci), repr(start), repr(end), result_type)
        if aggregate is None:
            advertised = default_accept_encodings() if columnar else ()
            with self.environment.recorder.time("virtualization.getPR"):
                answer = self.stub.invoke(
                    "getPR", *args, headers=accept_encodings_headers(advertised)
                )
            packed, encoding = unframe_answer(answer, advertised)
            records = read_columns(packed)
            records.bytes_fetched = _payload_length(answer)
            records.encoding = encoding
            if ordered:
                records.sort()
            return records
        min_value, max_value, group_by = aggregate
        with self.environment.recorder.time("virtualization.getPRAgg"):
            packed = self.stub.getPRAgg(
                *args,
                "" if min_value is None else repr(min_value),
                "" if max_value is None else repr(max_value),
                group_by,
            )
        buckets = BucketRead(map(AggregateRecord.unpack, packed))
        buckets.bytes_fetched = sum(map(len, packed))
        return buckets

    def get_pr_chunked(
        self,
        metric: str,
        foci: list[str],
        start: float | None = None,
        end: float | None = None,
        result_type: str = UNDEFINED_TYPE,
        max_rows: int = DEFAULT_CHUNK_ROWS,
        ordered: bool = False,
    ) -> ChunkedResultIterator:
        """Open a ResultCursor over the query and return its iterator.

        The returned :class:`ChunkedResultIterator` yields
        :class:`PerformanceResult` objects one chunk at a time; close it
        early to release a partially drained cursor.
        """
        start, end = _window(self, start, end)
        with self.environment.recorder.time("virtualization.getPRChunked"):
            return ChunkedResultIterator.open(
                self.environment, self.stub, "getPRChunked",
                metric, list(foci), repr(start), repr(end), result_type, bool(ordered),
                max_rows=max_rows, decoder=partial(map, PerformanceResult.unpack),
            )

    def stream_pr(
        self,
        metric: str,
        foci: list[str],
        start: float | None = None,
        end: float | None = None,
        result_type: str = UNDEFINED_TYPE,
        max_rows: int = DEFAULT_CHUNK_ROWS,
        estimated_rows: int | None = None,
        ordered: bool = False,
    ) -> Iterator[PerformanceResult]:
        """Transparent iteration: chunked for big results, bulk for small.

        :meth:`read`, choosing cursor or array from ``estimated_rows`` —
        or, when none is passed, from the execution's ``getStats`` row
        count for *metric* (the one probe the federation engine, which
        already holds statistics, does not want).  A result estimated to
        fit one chunk (at most *max_rows*) costs one ``getPR``; a larger
        or unknown one (bulk is the memory risk) streams through a
        cursor, *max_rows* a page.
        """
        if estimated_rows is None:
            try:
                stats = self.get_stats().metric(metric)
                estimated_rows = stats.rows if stats is not None else 0
            except Exception:
                estimated_rows = None  # unknown: stream, the safe side
        return iter(
            self.read(
                metric, foci, start, end, result_type,
                cursor=estimated_rows is None or estimated_rows > max_rows,
                max_rows=max_rows, ordered=ordered,
            )
        )

    def get_pr_agg(
        self,
        metric: str,
        foci: list[str],
        start: float | None = None,
        end: float | None = None,
        result_type: str = UNDEFINED_TYPE,
        min_value: float | None = None,
        max_value: float | None = None,
        group_by: str = "",
    ):
        """Server-side aggregation (the federated-query push-down path).

        Returns :class:`~repro.core.semantic.AggregateRecord` buckets;
        only those cross the wire, not the individual results.
        """
        return self.read(
            metric, foci, start, end, result_type, (min_value, max_value, group_by)
        )

    def find_service_data(self, query: str) -> str:
        """FindServiceData passthrough (supports the ``xpath:`` dialect)."""
        return self.stub.FindServiceData(query)

    def get_stats(self) -> StoreStats:
        """Per-execution store statistics (the cost model's input)."""
        with self.environment.recorder.time("virtualization.getStats"):
            return StoreStats.unpack_records(list(self.stub.getStats()))

    def get_pr_async(
        self,
        metric: str,
        foci: list[str],
        sink_handle: str,
        start: float | None = None,
        end: float | None = None,
        result_type: str = UNDEFINED_TYPE,
    ) -> str:
        """Submit a registry-callback query (§7); returns the query id."""
        start, end = _window(self, start, end)
        return self.stub.getPRAsync(
            metric, list(foci), repr(start), repr(end), result_type, sink_handle
        )

    def subscribe(self, topic: str, sink_handle: str, expiration: float = 0.0) -> str:
        return self.stub.SubscribeToNotificationTopic(topic, sink_handle, expiration)

    def destroy(self) -> None:
        self.stub.Destroy()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ExecutionBinding {self.gsh}>"


class LocalExecutionBinding:
    """Local-bypass Execution: direct wrapper access, no Services Layer."""

    def __init__(self, environment: GridEnvironment, wrapper, exec_id: str) -> None:
        self.environment = environment
        self.wrapper = wrapper
        self.exec_id = exec_id
        self.gsh = f"local:{exec_id}"

    @property
    def is_local(self) -> bool:
        return True

    def info(self) -> dict[str, str]:
        return dict(self.wrapper.get_info())

    def foci(self) -> list[str]:
        return self.wrapper.get_foci()

    def metrics(self) -> list[str]:
        return self.wrapper.get_metrics()

    def types(self) -> list[str]:
        return self.wrapper.get_types()

    def time_range(self) -> tuple[float, float]:
        return self.wrapper.get_time_start_end()

    def read(
        self, metric: str, foci: list[str], start: float | None = None,
        end: float | None = None, result_type: str = UNDEFINED_TYPE,
        aggregate: tuple[float | None, float | None, str] | None = None,
        cursor: bool = False, max_rows: int = DEFAULT_CHUNK_ROWS,
        ordered: bool = False, columnar: bool = False,
    ) -> ArrayRead:
        """Local bypass of :meth:`ExecutionBinding.read`, signature and
        all: the wrapper's answer — its server-side aggregation when
        *aggregate* is given — and never a cursor or a wire encoding,
        whatever *cursor* and *columnar* ask."""
        start, end = _window(self, start, end)
        if aggregate is not None:
            with self.environment.recorder.time("virtualization.getPRAgg.local"):
                return BucketRead(self.wrapper.get_pr_aggregate(
                    metric, list(foci), start, end, result_type, *aggregate
                ))
        with self.environment.recorder.time("virtualization.getPR.local"):
            records = ColumnRead.of(
                self.wrapper.get_pr(metric, list(foci), start, end, result_type)
            )
        if ordered:
            records.sort()
        return records

    #: the remote binding's, as they are: each is a few lines over the
    #: binding's own ``read``, and this one costs no round trip
    get_pr = ExecutionBinding.get_pr
    get_pr_agg = ExecutionBinding.get_pr_agg
    stream_pr = ExecutionBinding.stream_pr

    def get_stats(self) -> StoreStats:
        """Store statistics via the wrapper directly (local bypass)."""
        return self.wrapper.get_stats()


class ApplicationBinding:
    """A virtual Application object (remote, via stub).

    ``stub`` (optional) supplies a pre-built stub — used by the dynamic
    WSDL-driven binding path, where the interface was parsed off the wire
    rather than taken from the compile-time PortType constant.
    """

    def __init__(
        self,
        environment: GridEnvironment,
        instance_gsh: str,
        name: str = "",
        stub=None,
    ) -> None:
        self.environment = environment
        self.gsh = instance_gsh
        self.name = name
        self.stub = stub or environment.pooled_stub_for_handle(
            instance_gsh, APPLICATION_PORTTYPE
        )

    @property
    def is_local(self) -> bool:
        return False

    def app_info(self) -> dict[str, str]:
        return _parse_pairs(self.stub.getAppInfo())

    def num_executions(self) -> int:
        return int(self.stub.getNumExecs())

    def exec_query_params(self) -> dict[str, list[str]]:
        return _parse_params(self.stub.getExecQueryParams())

    def all_executions(self) -> list[ExecutionBinding]:
        return [ExecutionBinding(self.environment, g) for g in self.stub.getAllExecs()]

    def query_executions(
        self, attribute: str, value: str, operator: str = "="
    ) -> list[ExecutionBinding]:
        if operator == "=":
            handles = self.stub.getExecs(attribute, value)
        else:
            handles = self.stub.getExecsOp(attribute, value, operator)
        return [ExecutionBinding(self.environment, g) for g in handles]

    def get_stats(self) -> StoreStats:
        """Application-wide store statistics (the cost model's input)."""
        with self.environment.recorder.time("virtualization.getStats"):
            return StoreStats.unpack_records(list(self.stub.getStats()))

    def destroy(self) -> None:
        self.stub.Destroy()
        # the instance is gone; a pooled binding to it must not be
        # handed to the next caller
        self.environment.stub_pool.invalidate(self.gsh)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ApplicationBinding {self.name or self.gsh}>"


class LocalApplicationBinding:
    """Local-bypass Application: direct wrapper access (§7 optimization)."""

    def __init__(self, environment: GridEnvironment, wrapper: ApplicationWrapper, name: str = "") -> None:
        self.environment = environment
        self.wrapper = wrapper
        self.name = name
        self.gsh = f"local:{name}"

    @property
    def is_local(self) -> bool:
        return True

    def app_info(self) -> dict[str, str]:
        return dict(self.wrapper.get_app_info())

    def num_executions(self) -> int:
        return self.wrapper.get_num_execs()

    def exec_query_params(self) -> dict[str, list[str]]:
        return self.wrapper.get_exec_query_params()

    def all_executions(self) -> list[LocalExecutionBinding]:
        return [
            LocalExecutionBinding(self.environment, self.wrapper.execution(i), i)
            for i in self.wrapper.get_all_exec_ids()
        ]

    def query_executions(
        self, attribute: str, value: str, operator: str = "="
    ) -> list[LocalExecutionBinding]:
        ids = self.wrapper.get_exec_ids(attribute, value, operator)
        return [
            LocalExecutionBinding(self.environment, self.wrapper.execution(i), i)
            for i in ids
        ]

    def get_stats(self) -> StoreStats:
        """Store statistics via the wrapper directly (local bypass)."""
        return self.wrapper.get_stats()


def _deploy_sink(environment: GridEnvironment, authority: str, kind: str, sink):
    """Deploy a notification *sink* in the client's own container as
    ``services/<kind>/instances/<n>``: the container numbers instances
    per prefix under its lock, and the environment creates it under its
    own, so concurrent subscribers never collide."""
    container = environment.ensure_container(authority)
    return container.deploy_instance(f"services/{kind}", sink)


class AsyncQueryCollector:
    """Client-side half of the registry-callback query model (§7).

    Deploys a pull sink next to the client; :meth:`collect` drains
    deliveries and files them by query id.  ``results[qid]`` holds the
    parsed PerformanceResults once the callback arrived; failed queries
    appear in ``errors[qid]`` instead.
    """

    def __init__(self, environment: GridEnvironment, authority: str = "ppg-client:7070") -> None:
        self.environment = environment
        self.sink = PullNotificationSink()
        self.sink_gsh = _deploy_sink(environment, authority, "async-sink", self.sink)
        self.results: dict[str, list[PerformanceResult]] = {}
        self.errors: dict[str, str] = {}

    @property
    def sink_handle(self) -> str:
        return self.sink_gsh.url()

    def collect(self) -> int:
        """Drain pending deliveries; returns how many queries completed."""
        drained = 0
        for topic, message in self.sink.poll():
            kind, _, query_id = topic.partition("/")
            if kind == "pr-result":
                packed = message.split("\n") if message else []
                self.results[query_id] = [PerformanceResult.unpack(p) for p in packed]
                drained += 1
            elif kind == "pr-error":
                self.errors[query_id] = message
                drained += 1
        return drained

    def wait_for(self, query_id: str) -> list[PerformanceResult]:
        """Collect until *query_id* has completed; raises on query error.

        Delivery is synchronous in-process, so a single collect suffices;
        the loop shape documents the protocol for a networked deployment.
        """
        if query_id not in self.results and query_id not in self.errors:
            self.collect()
        if query_id in self.errors:
            raise RuntimeError(f"async query {query_id} failed: {self.errors[query_id]}")
        if query_id not in self.results:
            raise KeyError(f"no callback received for query {query_id}")
        return self.results[query_id]

    def close(self) -> None:
        self.sink.Destroy()


class ViewSubscription:
    """The client half of ``subscribeView``: a live replica of one view.

    Fetches the view's consistent snapshot (``getView``), deploys a
    NotificationSink next to the client, and subscribes it to the view's
    delta topic.  Every pushed :class:`~repro.fedquery.views.ViewDelta`
    is applied to :attr:`rows`; a delta whose epoch or base version does
    not match the local state (a missed or reordered delivery, or a
    server-side rebuild raced past us) triggers a consistent re-fetch
    instead of silently diverging — counted in :attr:`stale_refreshes`.
    """

    def __init__(
        self,
        environment: GridEnvironment,
        registry_stub,
        view_id: str,
        authority: str = "ppg-client:7070",
    ) -> None:
        self.environment = environment
        self._stub = registry_stub
        self.view_id = view_id
        self.epoch = 0
        self.version = 0
        self.query = None
        self.rows: list = []
        self.deltas_applied = 0
        self.stale_refreshes = 0
        self._sink = NotificationSinkBase(callback=self._on_delivery)
        self._sink_gsh = _deploy_sink(environment, authority, "view-sink", self._sink)
        self.refresh()
        self.subscription_id = self._stub.subscribeView(
            view_id, self._sink_gsh.url()
        )

    def refresh(self) -> None:
        """Adopt the registry's current snapshot (epoch, version, rows)."""
        records = list(self._stub.getView(self.view_id))
        header = _parse_pairs(records[:6])
        self.epoch = int(header["epoch"])
        self.version = int(header["version"])
        self.query = parse_query(header["query"])
        self.rows = list(read_rows(records[6:]))

    def _on_delivery(self, topic: str, message: str) -> None:
        self.apply(ViewDelta.decode(message))

    def apply(self, delta) -> None:
        """Apply one pushed delta (see the consistency rules above)."""
        if delta.view_id != self.view_id:
            return
        if delta.kind == "refresh":
            # a new epoch replaces local state unconditionally
            self.epoch = delta.epoch
            self.version = delta.to_version
            self.rows = list(read_rows(delta.added))
            self.deltas_applied += 1
            return
        if delta.epoch != self.epoch or delta.from_version != self.version:
            self.stale_refreshes += 1
            self.refresh()
            return
        counts = Counter(row.pack() for row in self.rows)
        for packed in delta.removed:
            if counts.get(packed, 0) <= 0:
                # the delta removes a row we never had: local state
                # has diverged, so fall back to a consistent refresh
                self.stale_refreshes += 1
                self.refresh()
                return
            counts[packed] -= 1
        for packed in delta.added:
            counts[packed] += 1
        rows = []
        for row, count in zip(read_rows(counts), counts.values()):
            rows.extend([row] * count)
        # the answer order is deterministic, so re-sorting (and
        # re-limiting) the multiset with the engine's own order reproduces
        # the server's rows byte for byte — a LIMIT window that shifted
        # included
        values = list(zip(*(row.values for row in rows))) or [()] * len(self.query.output_columns)
        self.rows = [rows[i] for i in answer_order(values, self.query)]
        self.version = delta.to_version
        self.deltas_applied += 1

    def close(self) -> None:
        try:
            self._stub.UnsubscribeFromNotificationTopic(self.subscription_id)
        except Exception:
            pass
        self._sink.Destroy()


class PPerfGridClient:
    """The client application: discovery, binding, and query panels."""

    def __init__(self, environment: GridEnvironment, uddi_handle: str | None = None) -> None:
        self.environment = environment
        self.uddi = (
            UddiClient.connect(environment, uddi_handle) if uddi_handle is not None else None
        )
        #: the Figure 8 "Current Bindings" list
        self.bindings: list[ApplicationBinding | LocalApplicationBinding] = []
        #: factory URL -> wrapper, for the local-bypass optimization
        self._local_wrappers: dict[str, ApplicationWrapper] = {}
        #: FederatedQuery service stub, set by :meth:`use_federation`
        self._fed_stub = None
        #: ViewRegistry service stub, set by :meth:`use_views`
        self._views_stub = None

    # ------------------------------------------------------------ discovery
    def discover_organizations(self, name_pattern: str = "%") -> list[OrganizationProxy]:
        if self.uddi is None:
            raise RuntimeError("no UDDI registry configured for this client")
        return self.uddi.find_organizations(name_pattern)

    def register_local_wrapper(self, factory_url: str, wrapper: ApplicationWrapper) -> None:
        """Mark a factory's data store as host-local (enables bypass)."""
        self._local_wrappers[factory_url] = wrapper

    # -------------------------------------------------------------- binding
    def bind(self, service: ServiceProxy | str, name: str = "") -> ApplicationBinding | LocalApplicationBinding:
        """Bind to a published Application (creates a service instance).

        ``service`` is a UDDI ServiceProxy or a raw factory GSH/URL.  If
        the factory's data store was registered as local, the Services
        Layer is skipped entirely (future-work §7 bypass).
        """
        if isinstance(service, ServiceProxy):
            factory_url = service.factory_url
            name = name or service.name
        else:
            factory_url = service
        local = self._local_wrappers.get(factory_url)
        if local is not None:
            binding: ApplicationBinding | LocalApplicationBinding = LocalApplicationBinding(
                self.environment, local, name
            )
        else:
            factory_stub = self.environment.stub_for_handle(factory_url, FACTORY_PORTTYPE)
            instance_gsh = factory_stub.CreateService([])
            binding = ApplicationBinding(self.environment, instance_gsh, name)
        self.bindings.append(binding)
        return binding

    def bind_dynamic(self, service: ServiceProxy | str, name: str = "") -> ApplicationBinding:
        """Bind using only the service's published WSDL (Figure 1 flow).

        Unlike :meth:`bind`, no compile-time PortType is consulted: the
        factory's and the created instance's interfaces are both fetched
        as WSDL service data and parsed into stubs — the workflow a
        non-Python PPerfGrid client would follow.
        """
        if isinstance(service, ServiceProxy):
            factory_url = service.factory_url
            name = name or service.name
        else:
            factory_url = service
        factory_stub = self.environment.pooled_stub_from_wsdl(factory_url)
        instance_gsh = factory_stub.CreateService([])
        instance_stub = self.environment.pooled_stub_from_wsdl(instance_gsh)
        binding = ApplicationBinding(self.environment, instance_gsh, name, stub=instance_stub)
        self.bindings.append(binding)
        return binding

    # ---------------------------------------------------- federated queries
    def use_federation(self, handle: str) -> None:
        """Point this client at a deployed FederatedQuery service."""
        self._fed_stub = self.environment.stub_for_handle(
            handle, FEDERATED_QUERY_PORTTYPE
        )

    def _require_federation(self):
        if self._fed_stub is None:
            raise RuntimeError("no federation configured; call use_federation() first")
        return self._fed_stub

    def query(self, text: str):
        """Run a federated query; returns a list of ResultRow objects.

        Requires :meth:`use_federation` first — the query text travels
        to the FederatedQuery service over SOAP and packed result rows
        come back (see README "Federated queries" for the grammar).
        """
        fed = self._require_federation()
        with self.environment.recorder.time("virtualization.fedquery"):
            # only the federation knows the answer's size: always
            # advertise (a small answer still comes back as XML)
            accepted = default_accept_encodings(ANSWER_ENCODINGS)
            answer = fed.invoke("query", text, headers=accept_encodings_headers(accepted))
            packed, _ = unframe_answer(answer, accepted)
        return list(read_rows(packed))

    def query_stream(self, text: str, max_rows: int = DEFAULT_CHUNK_ROWS):
        """Run a federated query through a ResultCursor.

        Where :meth:`query` transfers the whole row set in one SOAP
        array, this opens a cursor over the federation's *streamed*
        execution (``FederationEngine.execute(stream=True)``) and
        returns a :class:`ChunkedResultIterator` yielding ResultRow
        objects — rows flow member-chunk by member-chunk end to end, in
        the same order :meth:`query` would return them.  Close the
        iterator early to release the cursor and its member reads.
        """
        fed = self._require_federation()
        with self.environment.recorder.time("virtualization.fedquery.stream"):
            return ChunkedResultIterator.open(
                self.environment, fed, "queryChunked", text,
                max_rows=max_rows, decoder=read_rows, served=ANSWER_ENCODINGS,
            )

    def explain(self, text: str) -> str:
        """The cost-annotated plan for *text* (explainPlan operation):
        per-member push-down terms and modes, estimated rows and transfer
        bytes, and any stats-proven skips or pruned members.
        """
        return "\n".join(self._require_federation().explainPlan(text))

    def subscribe_updates(self) -> int:
        """Ask the federation to subscribe to member data-update topics.

        Afterwards a ``data_updated()`` on any member Execution drops
        exactly the cached plans that read it (see README "Update
        notifications & cache coherence").  Returns the number of new
        subscriptions made.
        """
        return int(self._require_federation().subscribeUpdates())

    def coherence_stats(self) -> dict[str, int]:
        """The federation's cache-coherence counters."""
        records = _parse_pairs(self._require_federation().coherenceStats())
        return {name: int(value) for name, value in records.items()}

    # ----------------------------------------------------- materialized views
    def use_views(self, handle: str) -> None:
        """Point this client at a deployed ViewRegistry service."""
        self._views_stub = self.environment.stub_for_handle(
            handle, VIEW_REGISTRY_PORTTYPE
        )

    def _require_views(self):
        if self._views_stub is None:
            raise RuntimeError("no view registry configured; call use_views() first")
        return self._views_stub

    def create_view(self, text: str) -> str:
        """Register *text* as a materialized view; returns its view id."""
        return str(self._require_views().createView(text))

    def drop_view(self, view_id: str) -> bool:
        return bool(int(self._require_views().dropView(view_id)))

    def get_view(self, view_id: str):
        """The view's current snapshot: (header dict, list of ResultRow)."""
        records = list(self._require_views().getView(view_id))
        header = _parse_pairs(records[:6])
        return header, list(read_rows(records[6:]))

    def subscribe_view(
        self, view_id: str, authority: str = "ppg-client:7070"
    ) -> ViewSubscription:
        """Subscribe to a view's pushed deltas; returns the live replica."""
        return ViewSubscription(
            self.environment, self._require_views(), view_id, authority
        )

    def view_stats(self) -> dict[str, int]:
        """The federation's view-maintenance counters."""
        records = _parse_pairs(self._require_views().viewStats())
        return {name: int(value) for name, value in records.items()}

    def unbind_all(self) -> None:
        for binding in self.bindings:
            if isinstance(binding, ApplicationBinding):
                try:
                    binding.destroy()
                except Exception:
                    pass
        self.bindings.clear()


@dataclass
class ApplicationQuery:
    """One row of the Figure 9 query table."""

    binding: ApplicationBinding | LocalApplicationBinding
    attribute: str
    value: str
    operator: str = "="


@dataclass
class ApplicationQueryPanel:
    """The Application Query Panel: batch queries for Executions.

    Successive queries against the same Application OR together (thesis
    §5.3.1.2); results are deduplicated by Execution GSH.
    """

    queries: list[ApplicationQuery] = field(default_factory=list)

    def add_query(
        self,
        binding: ApplicationBinding | LocalApplicationBinding,
        attribute: str,
        value: str,
        operator: str = "=",
    ) -> None:
        self.queries.append(ApplicationQuery(binding, attribute, value, operator))

    def clear(self) -> None:
        self.queries.clear()

    def run_queries(self) -> list[ExecutionBinding | LocalExecutionBinding]:
        """The 'Run Queries' button."""
        out: list[ExecutionBinding | LocalExecutionBinding] = []
        seen: set[str] = set()
        for query in self.queries:
            for execution in query.binding.query_executions(
                query.attribute, query.value, query.operator
            ):
                if execution.gsh not in seen:
                    seen.add(execution.gsh)
                    out.append(execution)
        return out


@dataclass
class ExecutionQuery:
    """One row of the Figure 10 query table, plus the §7 value filter."""

    metric: str
    foci: list[str]
    start: float | None = None
    end: float | None = None
    result_type: str = UNDEFINED_TYPE
    #: optional metric-value filter (future-work §7): keep only results
    #: with min_value <= value <= max_value
    min_value: float | None = None
    max_value: float | None = None

    def matches(self, result: PerformanceResult) -> bool:
        if self.min_value is not None and result.value < self.min_value:
            return False
        if self.max_value is not None and result.value > self.max_value:
            return False
        return True


@dataclass
class ExecutionQueryPanel:
    """The Execution Query Panel: batch PR queries over bound Executions."""

    executions: list[ExecutionBinding | LocalExecutionBinding] = field(default_factory=list)
    queries: list[ExecutionQuery] = field(default_factory=list)

    def add_query(self, query: ExecutionQuery) -> None:
        self.queries.append(query)

    def run_queries(self) -> dict[str, list[PerformanceResult]]:
        """The 'Run Queries' button: execution GSH -> filtered results."""
        out: dict[str, list[PerformanceResult]] = {}
        for execution in self.executions:
            out[execution.gsh] = self._query_one(execution)
        return out

    def run_queries_parallel(self, max_workers: int = 8) -> dict[str, list[PerformanceResult]]:
        """Run with concurrent per-Execution queries, as the thesis's client does.

        "Each query to an Execution was made in a separate thread" (§6.5).
        Results are identical to :meth:`run_queries`; within one process
        the threads interleave on the GIL rather than truly parallelize,
        which is why the Figure 12 experiment replays onto simulated
        hosts instead (DESIGN.md §5).

        The threads come from the process-wide shared fan-out scheduler
        — repeated panel runs reuse warm workers instead of creating and
        joining ``max_workers`` threads per call.  ``max_workers`` bounds
        this call's concurrency (a semaphore over the shared pool), not
        the pool size.
        """
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        pool = shared_scheduler()
        gate = threading.Semaphore(max_workers)

        def gated(execution):
            with gate:
                return self._query_one(execution)

        futures = {
            execution.gsh: pool.submit(
                lambda execution=execution: gated(execution), tenant="panel"
            )
            for execution in self.executions
        }
        wait(list(futures.values()))
        return {gsh: future.result() for gsh, future in futures.items()}

    def _query_one(self, execution) -> list[PerformanceResult]:
        collected: list[PerformanceResult] = []
        for query in self.queries:
            results = execution.get_pr(
                query.metric, query.foci, query.start, query.end, query.result_type
            )
            collected.extend(r for r in results if query.matches(r))
        return collected
