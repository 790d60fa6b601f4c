"""Streamed federated execution: the bulk answer's runs, pulled in order.

A raw answer is a sequence of *runs* (one execution's one sub-query) in
:func:`~repro.fedquery.merge.run_chunks` order, read through one reader
per execution (``FederationEngine.raw_reader``).  Bulk drains every
reader on the fan-out pool before answering; a stream keeps memory
bounded end to end by pulling the same readers on the thread that drains
the result: one member chunk at a time, ties collected and sorted, one
member cursor open at a time, and none opened once LIMIT is reached.
:class:`StreamedResult` hands the chunks on — as rows in process, as
wire chunks through :meth:`StreamedResult.wire_chunks` (a raw chunk's
token columns, never joined into texts for a colbatch cursor) — and
closes the open member cursor on early close.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

from repro.fedquery.merge import RawAnswer, ResultRow, answer_rows, answer_texts
from repro.soap.colbatch import DecodedBatch

#: streamed results larger than this (packed bytes) are not memoized —
#: accumulating them for the plan cache would defeat bounded memory
DEFAULT_MEMOIZE_MAX_BYTES = 512 * 1024


class StreamedResult:
    """Iterator of result rows from ``FederationEngine.execute(stream=True)``.

    Mirrors :class:`~repro.fedquery.executor.QueryResult`'s metadata
    (``columns``/``cached``/``plan``/``stats``/``errors``) but delivers
    its answer incrementally, one *chunk* (a :class:`RawAnswer` or a row
    list) at a time: iterating yields rows, :meth:`wire_chunks` the
    chunks a cursor frames.  ``errors`` and ``stats`` keep filling in
    while the stream drains; they are final once iteration completes
    (``complete`` is True).  Closing early — explicitly, via the context
    manager, or by dropping out of a ``for`` loop and calling
    :meth:`close` — closes the producer, and with it every member
    cursor; a partially drained result is never memoized.
    """

    def __init__(
        self,
        columns: tuple[str, ...],
        chunks: Iterable[RawAnswer | list[ResultRow]],
        plan,
        cached: bool,
        stats: dict,
        errors: list[str],
    ) -> None:
        self.columns = columns
        self.plan = plan
        self.cached = cached
        self.stats = stats
        self.errors = errors
        self.complete = False
        self.closed = False
        self._chunks = self._drained(chunks)
        self._rows: Iterator[ResultRow] = chain.from_iterable(map(answer_rows, self._chunks))

    def _drained(self, chunks: Iterable) -> Iterator:
        yield from chunks
        self.complete = self.closed = True

    def __iter__(self) -> "StreamedResult":
        return self

    def __next__(self) -> ResultRow:
        return next(self._rows)

    def wire_chunks(self) -> Iterator[DecodedBatch | list[str]]:
        """The answer a chunk at a time instead of rows: a raw chunk as its
        wire tokens (``RawAnswer.cells``, the columns ``query`` frames a
        bulk answer from), any other as its rows' wire texts."""
        for chunk in self._chunks:
            if isinstance(chunk, RawAnswer):
                yield DecodedBatch(len(chunk.values[0]), chunk.cells, {})
            else:
                yield answer_texts(chunk)

    def close(self) -> None:
        """Release member cursors; safe to call repeatedly."""
        if self.closed:
            return
        self.closed = True
        self._rows = iter(())
        self._chunks.close()  # GeneratorExit runs the producer's finally blocks

    def __enter__(self) -> "StreamedResult":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
