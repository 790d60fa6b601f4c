"""Streamed federated execution: bounded-memory k-way member merge.

The bulk executor buffers every member task's whole payload before
merging; one large member therefore sets the peak memory for the whole
query.  The streaming path keeps memory bounded end to end:

* each member execution's rows are produced by a worker thread into a
  **bounded chunk queue** (:class:`MemberStream`) — at most
  ``chunk_depth`` chunks are ever outstanding per member, so a fast
  store cannot run ahead of a slow consumer (backpressure);
* producers emit rows **pre-sorted** by the canonical row order (the
  server-side ``ordered`` cursor contract plus metric-sorted sub-query
  concatenation), so a heap-based **k-way merge** across members yields
  the exact sequence the bulk path's global sort produces — byte
  identical, holding one row per member instead of the full result;
* the consumer-facing :class:`StreamedResult` finalizes bookkeeping on
  exhaustion (memoization, error accounting) and releases all member
  streams on early close.
"""

from __future__ import annotations

import threading
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Iterable, Iterator

from repro.fedquery.ast import QueryError
from repro.fedquery.merge import ResultRow, row_sort_key

#: bounded queue depth per member stream (the backpressure window)
DEFAULT_CHUNK_DEPTH = 2

#: streamed results larger than this (packed bytes) are not memoized —
#: accumulating them for the plan cache would defeat bounded memory
DEFAULT_MEMOIZE_MAX_BYTES = 512 * 1024


class MemberStream:
    """One member execution's sorted row stream, with backpressure.

    ``produce`` is a generator function ``produce(stop_event)`` yielding
    row chunks (lists of :class:`ResultRow`); it runs on a thread
    *runner* provides and blocks whenever ``chunk_depth`` chunks are
    already queued.  The consumer pulls rows one at a time with
    :meth:`next_row`; ``None`` means the stream is finished — check
    :attr:`failure` to distinguish exhaustion from a mid-stream error.

    The bounded buffer is a condition-signalled deque: a producer blocked
    on a full window and a consumer blocked on an empty one wake each
    other (and :meth:`close`) immediately — no polling loop, no CPU burn
    while blocked, no latency tax on early close.

    ``runner`` hands the producer body to an executor — the engine
    passes the fan-out scheduler's elastic stream lane, so producers
    reuse lane threads instead of costing one fresh thread per member
    stream.  The stream itself never creates a thread.
    """

    def __init__(
        self,
        label: str,
        produce: Callable[[threading.Event], Iterable[list[ResultRow]]],
        runner: Callable[[Callable[[], None]], None],
        chunk_depth: int = DEFAULT_CHUNK_DEPTH,
    ) -> None:
        if chunk_depth < 1:
            raise ValueError(f"chunk_depth must be >= 1, got {chunk_depth}")
        self.label = label
        self._produce = produce
        self._depth = chunk_depth
        self._cond = threading.Condition()
        self._chunks: deque[list[ResultRow]] = deque()
        self._stop = threading.Event()
        self._producer_done = False
        self._buffer: list[ResultRow] = []
        self._index = 0
        self._finished = False
        self._started = False
        #: the producer's exception, visible before the final None
        self.failure: BaseException | None = None
        self._runner = runner
        self._producer_ident: int | None = None

    def start(self) -> None:
        self._started = True
        self._runner(self._run)

    # ------------------------------------------------------ producer side
    def _run(self) -> None:
        self._producer_ident = threading.get_ident()
        try:
            for chunk in self._produce(self._stop):
                if self._stop.is_set():
                    break
                if chunk and not self._enqueue(list(chunk)):
                    break
        except BaseException as exc:  # noqa: BLE001 - forwarded to consumer
            self.failure = exc
        finally:
            with self._cond:
                self._producer_done = True
                self._cond.notify_all()

    def _enqueue(self, chunk: list[ResultRow]) -> bool:
        """Blocking put, woken promptly by the consumer or :meth:`close`."""
        with self._cond:
            while len(self._chunks) >= self._depth and not self._stop.is_set():
                self._cond.wait()
            if self._stop.is_set():
                return False
            self._chunks.append(chunk)
            self._cond.notify_all()
            return True

    # ------------------------------------------------------ consumer side
    def next_row(self) -> ResultRow | None:
        if self._index >= len(self._buffer):
            with self._cond:
                while True:
                    if self._chunks:
                        self._buffer = self._chunks.popleft()
                        self._index = 0
                        self._cond.notify_all()  # window freed: wake producer
                        break
                    if self._finished or self._producer_done:
                        self._finished = True
                        return None
                    self._cond.wait()
        row = self._buffer[self._index]
        self._index += 1
        return row

    def close(self) -> None:
        """Stop the producer and drop whatever is still queued.

        Prompt: a producer blocked on a full window is woken by the
        condition immediately.
        """
        self._stop.set()
        with self._cond:
            self._finished = True
            self._chunks.clear()
            self._buffer = []
            self._index = 0
            self._cond.notify_all()
        if self._started and self._producer_ident != threading.get_ident():
            # the runner owns the thread, so there is nothing to join:
            # wait (bounded) for the producer to notice the stop flag
            with self._cond:
                self._cond.wait_for(lambda: self._producer_done, timeout=2.0)


def merge_streams(
    streams: list[MemberStream],
    on_error: Callable[[BaseException], None],
) -> Iterator[ResultRow]:
    """Heap k-way merge of sorted member streams.

    Yields rows in the canonical :func:`row_sort_key` order.  A stream
    that fails mid-way is dropped after its already-merged rows (the
    fan-out degradation contract: surviving members still answer),
    except :class:`QueryError`, which is a hard protocol failure and
    propagates.
    """

    def advance(stream: MemberStream) -> ResultRow | None:
        row = stream.next_row()
        if row is None and stream.failure is not None:
            failure, stream.failure = stream.failure, None
            if isinstance(failure, QueryError):
                raise failure
            on_error(failure)
        return row

    heap: list[tuple[tuple, int, ResultRow]] = []
    for index, stream in enumerate(streams):
        row = advance(stream)
        if row is not None:
            heappush(heap, (row_sort_key(row), index, row))
    while heap:
        _, index, row = heappop(heap)
        yield row
        nxt = advance(streams[index])
        if nxt is not None:
            heappush(heap, (row_sort_key(nxt), index, nxt))


class StreamedResult:
    """Iterator of result rows from ``FederationEngine.execute(stream=True)``.

    Mirrors :class:`~repro.fedquery.executor.QueryResult`'s metadata
    (``columns``/``cached``/``plan``/``stats``/``errors``) but delivers
    rows incrementally.  ``errors`` and ``stats`` keep filling in while
    the stream drains; they are final once iteration completes
    (``complete`` is True).  Closing early — explicitly, via the context
    manager, or by dropping out of a ``for`` loop and calling
    :meth:`close` — releases every member stream; a partially drained
    result is never memoized.
    """

    def __init__(
        self,
        columns: tuple[str, ...],
        source: Iterator[ResultRow],
        plan=None,
        cached: bool = False,
        stats: dict | None = None,
        errors: list[str] | None = None,
    ) -> None:
        self.columns = columns
        self.plan = plan
        self.cached = cached
        self.stats = stats if stats is not None else {}
        self.errors = errors if errors is not None else []
        self._source = iter(source)
        self.complete = False
        self.closed = False

    def __iter__(self) -> "StreamedResult":
        return self

    def __next__(self) -> ResultRow:
        try:
            return next(self._source)
        except StopIteration:
            self.complete = True
            self.close()
            raise

    def close(self) -> None:
        """Release member streams; safe to call repeatedly."""
        if self.closed:
            return
        self.closed = True
        closer = getattr(self._source, "close", None)
        if closer is not None:
            closer()  # GeneratorExit runs the producer-side finally blocks

    def __enter__(self) -> "StreamedResult":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
