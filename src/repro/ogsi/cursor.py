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

from typing import Callable, Iterable, Iterator

from repro.ogsi.gsh import GridServiceHandle
from repro.ogsi.service import GridServiceBase, ServiceState
from repro.soap.chunks import ENCODING_XML, WIRE_ENCODINGS, encode_chunk
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
    """One live result stream, backed by any row iterable.

    ``rows`` is consumed lazily — handing a generator here keeps the
    producer's memory bounded by one chunk, which is the whole point.
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
        rows: Iterable[str],
        ttl: float | None = DEFAULT_CURSOR_TTL,
        on_close: Callable[[], None] | None = None,
        encoding: str = ENCODING_XML,
    ) -> None:
        super().__init__()
        if encoding not in WIRE_ENCODINGS:
            raise ValueError(f"unknown wire encoding {encoding!r}")
        self._iter: Iterator[str] = iter(rows)
        self._pending: str | None = None
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

    # --------------------------------------------------------- operations
    def next(self, maxRows: int) -> list[str]:
        """The next chunk: header + up to *maxRows* rows (see chunks.py)."""
        self.require_active()
        if maxRows < 1:
            raise ValueError(f"maxRows must be >= 1, got {maxRows}")
        batch: list[str] = []
        if self._pending is not None:
            batch.append(self._pending)
            self._pending = None
        while len(batch) < maxRows and not self._exhausted:
            try:
                batch.append(next(self._iter))
            except StopIteration:
                self._exhausted = True
        if not self._exhausted:
            # one-row lookahead so the final chunk carries done=1 itself,
            # sparing the client an extra empty round trip
            try:
                self._pending = next(self._iter)
            except StopIteration:
                self._exhausted = True
        if self.container is not None and self.ttl is not None:
            self.termination_time = self.container.clock.now() + self.ttl
        seq = self._seq
        self._seq += 1
        self.rows_served += len(batch)
        return encode_chunk(
            seq,
            batch,
            done=self._exhausted and self._pending is None,
            encoding=self._encoding,
        )

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
        self._iter = iter(())
        self._pending = None
        self._exhausted = True
        callback, self._on_close = self._on_close, None
        if callback is not None:
            callback()


def deploy_cursor(
    container,
    base_path: str,
    rows: Iterable[str],
    ttl: float | None = DEFAULT_CURSOR_TTL,
    on_close: Callable[[], None] | None = None,
    encoding: str = ENCODING_XML,
) -> GridServiceHandle:
    """Deploy a cursor instance under ``<base_path>/cursors`` and return
    its GSH — the producer-side half of every *Chunked operation."""
    cursor = ResultCursorService(rows, ttl=ttl, on_close=on_close, encoding=encoding)
    return container.deploy_instance(f"{base_path}/cursors", cursor)
