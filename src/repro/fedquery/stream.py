"""Streamed federated execution: bounded-memory k-way member merge.

The bulk executor buffers every member task's whole payload before
merging; one large member therefore sets the peak memory for the whole
query.  The streaming path keeps memory bounded end to end:

* each member execution's rows come from a **lazy generator** that
  pages its member cursor only when the merge asks for the next row, on
  the thread that drains the result — a fast store cannot run ahead of
  a slow consumer, and no thread is started for it;
* those generators yield rows **pre-sorted** by the canonical row order
  (the server-side ``ordered`` cursor contract plus metric-sorted
  sub-query concatenation), so a heap-based **k-way merge** across
  members yields the exact sequence the bulk path's global sort
  produces — byte identical, holding one row per member instead of the
  full result;
* the consumer-facing :class:`StreamedResult` finalizes bookkeeping on
  exhaustion (memoization, error accounting) and closes every member
  generator on early close.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Iterator

from repro.fedquery.ast import QueryError
from repro.fedquery.merge import ResultRow, row_sort_key

#: streamed results larger than this (packed bytes) are not memoized —
#: accumulating them for the plan cache would defeat bounded memory
DEFAULT_MEMOIZE_MAX_BYTES = 512 * 1024


def merge_streams(
    streams: list[Iterator[ResultRow]],
    on_error: Callable[[BaseException], None],
) -> Iterator[ResultRow]:
    """Heap k-way merge of sorted member row iterators.

    Yields rows in the canonical :func:`row_sort_key` order, ties broken
    by stream position.  A stream that fails mid-way is dropped after
    its already-merged rows (the fan-out degradation contract: surviving
    members still answer), except :class:`QueryError`, which is a hard
    protocol failure and propagates.
    """

    def advance(index: int) -> ResultRow | None:
        try:
            return next(streams[index], None)
        except QueryError:
            raise
        except Exception as exc:
            on_error(exc)
            return None

    heap: list[tuple[tuple, int, ResultRow]] = []
    for index in range(len(streams)):
        row = advance(index)
        if row is not None:
            heappush(heap, (row_sort_key(row), index, row))
    while heap:
        _, index, row = heappop(heap)
        yield row
        nxt = advance(index)
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
    :meth:`close` — closes every member generator, and with it every
    member cursor; a partially drained result is never memoized.
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
        """Release member cursors; safe to call repeatedly."""
        if self.closed:
            return
        self.closed = True
        closer = getattr(self._source, "close", None)
        if closer is not None:
            closer()  # GeneratorExit runs the member generators' finally blocks

    def __enter__(self) -> "StreamedResult":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
