"""Non-blocking dispatch core: per-service serialization.

The container used to take one global re-entrant lock around every
request, which capped each authority at one in-flight request and made
cross-container notification a lock-ordering deadlock (two containers
delivering into each other's sinks while each held its own dispatch
lock).  This module replaces that lock with two cooperating pieces:

* :class:`ServiceGate` — a re-entrant, *fully releasable*, first-come-
  first-served mutex, one per deployed service path.  Dispatch
  serializes per service instead of per container, so requests to
  different services in one container proceed concurrently while a
  single stateful instance still sees one request at a time, in the
  order the requests arrived.
* a per-thread **dispatch frame stack** — every dispatch pushes the gate
  it holds; :func:`suspend_dispatch` releases every gate the current
  thread holds for the duration of an outbound SOAP call (notification
  delivery), restoring them afterwards.  No SOAP round trip is ever made
  while holding dispatch state, which is the deadlock fix.

A frame also carries its request's ``clientId`` and ``acceptEncodings``
headers, read from the parsed envelope, for the dispatched code.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

from repro.soap.chunks import ENCODING_XML
from repro.xmlkit import Element


# --------------------------------------------------------------------- gates
class ServiceGate:
    """A re-entrant, first-come-first-served mutex whose full recursion
    depth can be released.

    ``release_save``/``acquire_restore`` (the :class:`threading.Condition`
    idiom) let :func:`suspend_dispatch` drop the gate across an outbound
    call even when dispatch has nested back into the same service.

    A release hands the gate to the longest waiter before anyone else
    can take it.  A notify-and-race gate lets the thread that just
    released win every rematch (it still holds the GIL when it comes
    back), so one client issuing requests back to back could keep
    another waiting for as long as it kept going.
    """

    __slots__ = ("_lock", "_owner", "_depth", "_waiters")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._owner: int | None = None
        self._depth = 0
        #: (turn, thread, depth) per queued thread, oldest first; *turn*
        #: is a held lock the releasing thread opens (guarded by _lock)
        self._waiters: deque[tuple[threading.Lock, int, int]] = deque()

    def _take(self, me: int, depth: int) -> None:
        with self._lock:
            if self._owner is None:
                self._owner, self._depth = me, depth
                return
            turn = threading.Lock()
            turn.acquire()
            self._waiters.append((turn, me, depth))
        turn.acquire()  # opened by _hand_over, which made this thread the owner

    def _hand_over(self) -> None:
        """Give the gate to the oldest waiter, or free it."""
        with self._lock:
            if self._waiters:
                turn, self._owner, self._depth = self._waiters.popleft()
                turn.release()
            else:
                self._owner, self._depth = None, 0

    def acquire(self) -> None:
        me = threading.get_ident()
        if self._owner == me:  # only this thread can have set it to *me*
            self._depth += 1
        else:
            self._take(me, 1)

    def release(self) -> None:
        if self._owner != threading.get_ident():
            raise RuntimeError("release of a gate not owned by this thread")
        self._depth -= 1
        if self._depth == 0:
            self._hand_over()

    def release_save(self) -> int:
        """Release the gate completely; returns the saved depth."""
        if self._owner != threading.get_ident():
            raise RuntimeError("release_save of a gate not owned by this thread")
        depth = self._depth
        self._hand_over()
        return depth

    def acquire_restore(self, depth: int) -> None:
        """Re-take the gate at the previously saved recursion depth."""
        self._take(threading.get_ident(), depth)

    def held_by_me(self) -> bool:
        return self._owner == threading.get_ident()


class _Frames(threading.local):
    def __init__(self) -> None:  # per-thread initializer
        self.stack: list[ServiceGate] = []


_FRAMES = _Frames()


@contextmanager
def dispatch_frame(gate: ServiceGate, headers: Iterable[Element] = ()) -> Iterator[None]:
    """Hold *gate* for one dispatch, visible to :func:`suspend_dispatch`;
    the request's ``clientId`` and ``acceptEncodings`` headers (*headers*'
    ones, if any) are what :func:`current_client_id` and
    :func:`answer_encoding` see meanwhile — a nested dispatch's own."""
    client_id = accepted = None
    for header in headers:
        if header.tag.local == CLIENT_ID_HEADER:
            client_id = header.text().strip()
            if not 0 < len(client_id) <= MAX_CLIENT_ID_CHARS:
                client_id = None
        elif header.tag.local == ACCEPT_ENCODINGS_HEADER:
            accepted = header.text()
    gate.acquire()
    _FRAMES.stack.append(gate)
    previous = _REQUEST.client_id, _REQUEST.accept_encodings
    _REQUEST.client_id, _REQUEST.accept_encodings = client_id, accepted
    try:
        yield
    finally:
        _REQUEST.client_id, _REQUEST.accept_encodings = previous
        _FRAMES.stack.pop()
        gate.release()


@contextmanager
def suspend_dispatch() -> Iterator[None]:
    """Release every dispatch gate this thread holds for the duration.

    The notification source wraps its delivery loop in this so the SOAP
    round trips into other containers are made with no dispatch state
    held — the cross-container deadlock fix.  Gates are restored in
    their original (outermost-first) acquisition order.
    """
    unique: list[ServiceGate] = []
    for gate in _FRAMES.stack:  # outermost first; dedupe nested re-entries
        if gate not in unique:
            unique.append(gate)
    saved = [(gate, gate.release_save()) for gate in reversed(unique)]
    try:
        yield
    finally:
        for gate, depth in reversed(saved):  # outermost first again
            gate.acquire_restore(depth)


# -------------------------------------------------------------- dispatch core
class DispatchCore:
    """One container's gate table: one :class:`ServiceGate` per path."""

    def __init__(self) -> None:
        self._gates: dict[str, ServiceGate] = {}
        self._lock = threading.Lock()

    def gate_for(self, path: str) -> ServiceGate:
        with self._lock:
            gate = self._gates.get(path)
            if gate is None:
                gate = self._gates[path] = ServiceGate()
            return gate

    def discard(self, path: str) -> None:
        """Forget a removed service's gate (holders keep their reference)."""
        with self._lock:
            self._gates.pop(path, None)


# ---------------------------------------- request headers: identity, encoding
#: SOAP header element name carrying an explicit client identity
CLIENT_ID_HEADER = "clientId"

#: a longer ``clientId`` (after stripping whitespace) counts as absent
MAX_CLIENT_ID_CHARS = 128

#: SOAP header element listing, comma-separated, the content encodings a
#: caller accepts for one string-array answer or one cursor's chunks
ACCEPT_ENCODINGS_HEADER = "acceptEncodings"


class _RequestContext(threading.local):
    client_id: str | None = None  # the request's clientId
    accept_encodings: str | None = None  # the request's acceptEncodings


_REQUEST = _RequestContext()


def current_client_id() -> str | None:
    """The ``clientId`` header of the request this thread is dispatching.

    ``None`` outside dispatch, and for requests that carried no usable
    header — the engine's tenant scheduling then falls back to its
    default tenant.
    """
    return _REQUEST.client_id


def answer_encoding(offered: tuple[str, ...]) -> str:
    """The encoding of this thread's answer, an array or a cursor's chunks:
    the first *offered* one the request's header lists, else ``xml``."""
    accepted = {item.strip() for item in (_REQUEST.accept_encodings or "").split(",")}
    return next((enc for enc in offered if enc in accepted), ENCODING_XML)


def accept_encodings_headers(accept_encodings: tuple[str, ...]) -> list[Element]:
    """The header advertising *accept_encodings*; none if they are ``xml``."""
    if set(accept_encodings) <= {ENCODING_XML}:
        return []
    return [Element(ACCEPT_ENCODINGS_HEADER, children=[",".join(accept_encodings)])]


def client_id_headers(client_id: str) -> Callable[[str, bytes], list[Element]]:
    """A stub ``headers_provider`` stamping every request with *client_id*."""
    if not client_id:
        raise ValueError("client_id may not be empty")

    def provider(_operation: str, _payload: bytes) -> list[Element]:
        return [Element(CLIENT_ID_HEADER, children=[client_id])]

    return provider
