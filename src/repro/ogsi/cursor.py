"""ResultCursor: a transient Grid service streaming one result set.

Large query results should not cross the wire as one SOAP array — the
single-bulk-transfer failure mode stalls the fan-out and blows up both
peers' memory.  Instead the producing service deploys a *ResultCursor*
instance (the same factory/instance idiom as Execution instances: a
transient service under the producer's path, reclaimed by the
container's lifetime sweep) and returns its GSH; the client then drains
the stream with repeated ``next(maxRows)`` calls and ``close()``-es it.

Lifetime follows OGSI soft state: the cursor is created with a TTL and
every successful ``next`` renews it, so an abandoned cursor (client
crashed mid-drain) is reclaimed by ``sweep_expired()`` without any
distributed garbage-collection protocol.  ``close`` is just ``Destroy``
under a cursor-flavored name — after it (or after expiry), further
``next`` calls fault with the container's ``no service at ...`` fault.

A cursor serves one content encoding, fixed at deployment from the
creating request's ``acceptEncodings`` header (``xml`` without one).  An
old client's ``negotiate`` call gets the container's no-operation fault,
and its fallback drains that ``xml``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.ogsi.gsh import GridServiceHandle
from repro.ogsi.service import GridServiceBase, ServiceState
from repro.soap.chunks import ANSWER_ENCODINGS, ENCODING_XML, encode_chunk
from repro.soap.colbatch import DecodedBatch
from repro.wsdl.porttype import Operation, Parameter, PortType

#: PPerfGrid extension namespace for the cursor PortType
CURSOR_NS = "http://pperfgrid.cs.pdx.edu/2004/cursor"

#: default soft-state lifetime (seconds) between ``next`` renewals
DEFAULT_CURSOR_TTL = 300.0

#: default page size a chunked iterator requests per ``next`` call; a
#: member read (``stream_pr``'s, and the federation engine's) estimated
#: to fit one page is one bulk getPR instead of a cursor
DEFAULT_CHUNK_ROWS = 256

_NEXT_OPERATION = Operation(
    "next",
    (Parameter("maxRows", "xsd:int"),),
    "xsd:string[]",
    doc=(
        "Return the next chunk of the stream: a '#chunk|seq|count|"
        "done[|encoding]' header record followed by the payload "
        "records (per-row strings, or a columnar batch when the "
        "creating request's acceptEncodings header chose one).  "
        "Each successful call renews the cursor's "
        "termination time (soft-state keepalive).  Calling next "
        "on a closed or expired cursor faults."
    ),
)

_CLOSE_OPERATION = Operation(
    "close",
    (),
    "void",
    doc=(
        "Release the cursor's server-side state immediately "
        "(equivalent to Destroy).  Idle cursors that are never "
        "closed are reclaimed when their TTL expires."
    ),
)

RESULT_CURSOR_PORTTYPE = PortType(
    name="ResultCursor",
    namespace=CURSOR_NS,
    doc=(
        "A transient service streaming one query's result set in "
        "client-paced chunks, with soft-state lifetime management."
    ),
    operations=(_NEXT_OPERATION, _CLOSE_OPERATION),
)


class ResultCursorService(GridServiceBase):
    """One live result stream, backed by any iterable of chunks — lists
    of row texts, or :class:`~repro.soap.colbatch.DecodedBatch` token
    columns a colbatch chunk is encoded from — re-sliced to each
    ``next(maxRows)``.  ``chunks`` is consumed lazily, one chunk ahead —
    handing a generator here keeps the producer's memory bounded by a
    chunk, which is the whole point.
    ``on_close`` (optional) runs exactly once when the cursor is
    destroyed, however that happens (``close``, ``Destroy``, or the
    lifetime sweep); producers use it to release upstream resources
    such as member streams feeding the iterator.

    ``encoding`` is the content encoding of every chunk: the producer's
    ``answer_encoding`` pick for the creating request, ``xml`` by default.
    """

    porttype = RESULT_CURSOR_PORTTYPE

    def __init__(
        self,
        chunks: Iterable[Sequence[str] | DecodedBatch],
        ttl: float | None = DEFAULT_CURSOR_TTL,
        on_close: Callable[[], None] | None = None,
        encoding: str = ENCODING_XML,
    ) -> None:
        super().__init__()
        if encoding not in ANSWER_ENCODINGS:
            raise ValueError(f"unknown wire encoding {encoding!r}")
        self._chunks: Iterator = filter(len, chunks)  # the non-empty ones
        #: the chunk the next row comes from, and that row's index in it
        self._chunk: Sequence[str] | DecodedBatch | None = None
        self._offset = 0
        self._exhausted = False
        self._seq = 0
        self.ttl = ttl
        self._on_close = on_close
        self.rows_served = 0
        self._encoding = encoding

    def on_deployed(self, container, gsh) -> None:
        super().on_deployed(container, gsh)
        if self.ttl is not None:
            self.termination_time = container.clock.now() + self.ttl
        sdes = self.service_data
        sdes.set("chunksServed", lambda: str(self._seq))
        sdes.set("rowsServed", lambda: str(self.rows_served))
        sdes.set("done", lambda: "1" if self._exhausted else "0")
        sdes.set("encoding", lambda: self._encoding)

    def _pull(self) -> None:
        """Make the source's next chunk current, or end the stream."""
        self._chunk, self._offset = next(self._chunks, None), 0
        self._exhausted = self._chunk is None

    # --------------------------------------------------------- operations
    def next(self, maxRows: int) -> list[str]:
        """The next chunk: header + up to *maxRows* rows (see chunks.py)."""
        self.require_active()
        if maxRows < 1:
            raise ValueError(f"maxRows must be >= 1, got {maxRows}")
        if self._chunk is None and not self._exhausted:
            self._pull()
        pieces, count = [], 0
        while self._chunk is not None and count < maxRows:
            chunk, start = self._chunk, self._offset
            stop = min(len(chunk), start + maxRows - count)
            pieces.append(chunk[start:stop])
            count, self._offset = count + stop - start, stop
            if stop == len(chunk):
                # one-chunk lookahead so the final chunk carries done=1
                # itself, sparing the client an extra empty round trip
                self._pull()
        if self.container is not None and self.ttl is not None:
            self.termination_time = self.container.clock.now() + self.ttl
        seq = self._seq
        self._seq += 1
        self.rows_served += count
        columnar = pieces and all(isinstance(piece, DecodedBatch) for piece in pieces)
        rows = DecodedBatch.concat(pieces) if columnar else [row for p in pieces for row in p]
        return encode_chunk(seq, rows, done=self._exhausted, encoding=self._encoding)

    def close(self) -> None:
        """Release the stream now (the polite end of the protocol).

        Idempotent: a ``close`` racing the lifetime sweep (both serialize
        on the cursor's dispatch gate, so one always runs first) is a
        no-op rather than a ``destroyed service`` fault.
        """
        if self.state is ServiceState.ACTIVE:
            self.Destroy()

    # ---------------------------------------------------------- lifecycle
    def on_destroyed(self) -> None:
        self._chunks = iter(())
        self._chunk = None
        self._exhausted = True
        callback, self._on_close = self._on_close, None
        if callback is not None:
            callback()


def deploy_cursor(
    container,
    base_path: str,
    chunks: Iterable[Sequence[str] | DecodedBatch],
    ttl: float | None = DEFAULT_CURSOR_TTL,
    on_close: Callable[[], None] | None = None,
    encoding: str = ENCODING_XML,
) -> GridServiceHandle:
    """Deploy a cursor instance over *chunks* under ``<base_path>/cursors``
    and return its GSH — the producer-side half of every *Chunked operation."""
    cursor = ResultCursorService(chunks, ttl=ttl, on_close=on_close, encoding=encoding)
    return container.deploy_instance(f"{base_path}/cursors", cursor)
