"""Non-blocking dispatch core: per-service serialization + admission control.

The container used to take one global re-entrant lock around every
request, which capped each authority at one in-flight request and made
cross-container notification a lock-ordering deadlock (two containers
delivering into each other's sinks while each held its own dispatch
lock).  This module replaces that lock with three cooperating pieces:

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
* :class:`AdmissionController` — a bounded request queue at the
  container ingress with per-client fair (round-robin) queueing (the
  shared :class:`FairQueue`) and load-shedding: when the queue is at
  its configured bound, the request is refused with a ``Server``-role
  busy :class:`BusyFault` instead of piling onto the convoy.  Nested
  dispatches (a service calling another service mid-request) bypass
  admission — admitted work must be able to run to completion, or a
  saturated queue deadlocks against itself.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

from repro.soap.chunks import ENCODING_XML
from repro.soap.faults import SoapFault
from repro.xmlkit import Element


class BusyFault(SoapFault):
    """The load-shedding fault: the container refused to queue a request.

    Always ``Server``-role (the caller did nothing wrong; retrying later
    is legitimate) with a ``ServerBusy`` detail so clients can tell a
    shed from an application fault.
    """

    def __init__(self, message: str) -> None:
        super().__init__("Server", message, detail="ServerBusy")


def is_busy_fault(fault: SoapFault) -> bool:
    """True when *fault* is a load-shed (client-side faults re-decode)."""
    return fault.code == "Server" and fault.detail == "ServerBusy"


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


def in_dispatch() -> bool:
    """True while the current thread is inside any container dispatch."""
    return bool(_FRAMES.stack)


@contextmanager
def dispatch_frame(gate: ServiceGate, headers: Iterable[Element] = ()) -> Iterator[None]:
    """Hold *gate* for one dispatch, visible to :func:`suspend_dispatch`;
    the request's ``acceptEncodings`` header (*headers*' one, if any) is
    what :func:`answer_encoding` sees meanwhile — a nested dispatch's own."""
    accepted = None
    for header in headers:
        if header.tag.local == ACCEPT_ENCODINGS_HEADER:
            accepted = header.text()
    gate.acquire()
    _FRAMES.stack.append(gate)
    previous, _REQUEST.accept_encodings = _REQUEST.accept_encodings, accepted
    try:
        yield
    finally:
        _REQUEST.accept_encodings = previous
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


# ---------------------------------------------------------------- fair queue
class FairQueue:
    """Per-key FIFOs served round-robin across keys.

    The one fair-queueing primitive: ingress admission keys it by client,
    the fan-out scheduler by tenant.  A key that floods lengthens only
    its own FIFO — every :meth:`pop` serves the next key in rotation —
    and a single key degenerates to a plain global FIFO.

    Lock-free by contract: every method must be called under the
    owner's own lock or condition.  A key is in the rotation exactly
    while its FIFO is non-empty.
    """

    __slots__ = ("_queues", "_rotation", "_size")

    def __init__(self) -> None:
        self._queues: dict[str, deque] = {}
        self._rotation: deque[str] = deque()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def depth(self, key: str) -> int:
        """Items queued under *key*."""
        return len(self._queues.get(key, ()))

    def push(self, key: str, item) -> None:
        fifo = self._queues.get(key)
        if fifo is None:
            fifo = self._queues[key] = deque()
            self._rotation.append(key)
        fifo.append(item)
        self._size += 1

    def pop(self):
        """The head of the next key in rotation; ``None`` when empty."""
        if not self._rotation:
            return None
        key = self._rotation.popleft()
        fifo = self._queues[key]
        item = fifo.popleft()
        if fifo:
            self._rotation.append(key)  # round-robin re-queue
        else:
            del self._queues[key]
        self._size -= 1
        return item

    def drain(self) -> list:
        """Remove and return everything queued."""
        items = [item for fifo in self._queues.values() for item in fifo]
        self._queues.clear()
        self._rotation.clear()
        self._size = 0
        return items


# ----------------------------------------------------------------- admission
class AdmissionController:
    """Bounded ingress queue with per-client fair (round-robin) admission.

    ``max_inflight`` is the number of requests dispatched concurrently
    (``None`` = unbounded: no queueing ever happens); ``max_queue_depth``
    bounds how many requests may wait (``None`` = unbounded queue; ``0``
    = shed immediately when saturated).  Waiters queue in a
    :class:`FairQueue` keyed by client, so one aggressive client cannot
    starve the rest.
    """

    def __init__(
        self,
        max_inflight: int | None = None,
        max_queue_depth: int | None = None,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue_depth is not None and max_queue_depth < 0:
            raise ValueError(f"max_queue_depth must be >= 0, got {max_queue_depth}")
        self.max_inflight = max_inflight
        self.max_queue_depth = max_queue_depth
        self._cond = threading.Condition()
        #: waiting tickets (single-element lists), keyed by client
        self._waiters = FairQueue()
        self.inflight = 0
        self.admitted = 0
        self.shed = 0
        self.queue_waits = 0
        self.peak_inflight = 0
        self.peak_queued = 0

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def acquire(self, client: str) -> None:
        """Admit one request for *client*, queueing or shedding as needed.

        Raises :class:`BusyFault` when the wait queue is at its bound.
        """
        with self._cond:
            if self.max_inflight is None or (
                self.inflight < self.max_inflight and not self._waiters
            ):
                self._admit_locked()
                return
            if (
                self.max_queue_depth is not None
                and self.queued >= self.max_queue_depth
            ):
                self.shed += 1
                raise BusyFault(
                    f"busy: {self.queued} request(s) already queued "
                    f"(bound {self.max_queue_depth}), try again later"
                )
            ticket: list[bool] = [False]
            self._waiters.push(client, ticket)
            self.queue_waits += 1
            self.peak_queued = max(self.peak_queued, self.queued)
            while not ticket[0]:
                self._cond.wait()

    def release(self) -> None:
        """One dispatched request finished; admit the next fair waiter."""
        with self._cond:
            self.inflight -= 1
            self._grant_locked()
            if self.inflight == 0 and self.queued == 0:
                self._cond.notify_all()  # wake wait_idle

    def wait_idle(self, timeout: float = 5.0) -> bool:
        """Block until no request is in flight or queued (True on success).

        The teardown half of the admission contract:
        ``GridEnvironment.close()`` is this wait, once per container, so
        teardown returns only after every in-flight request has answered.
        """
        with self._cond:
            return self._cond.wait_for(
                lambda: self.inflight == 0 and self.queued == 0, timeout=timeout
            )

    def _admit_locked(self) -> None:
        self.inflight += 1
        self.admitted += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)

    def _grant_locked(self) -> None:
        granted = False
        while self._waiters and (
            self.max_inflight is None or self.inflight < self.max_inflight
        ):
            ticket = self._waiters.pop()
            ticket[0] = True
            self._admit_locked()
            granted = True
        if granted:
            self._cond.notify_all()

    def snapshot(self) -> dict[str, int]:
        with self._cond:
            return {
                "inflight": self.inflight,
                "queueDepth": self.queued,
                "admitted": self.admitted,
                "shed": self.shed,
                "queueWaits": self.queue_waits,
                "peakInflight": self.peak_inflight,
                "peakQueueDepth": self.peak_queued,
            }


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

#: SOAP header element listing, comma-separated, the content encodings a
#: caller accepts for one string-array answer or one cursor's chunks
ACCEPT_ENCODINGS_HEADER = "acceptEncodings"


class _RequestContext(threading.local):
    client_id: str | None = None  # the clientId admission saw
    accept_encodings: str | None = None  # the request's acceptEncodings


_REQUEST = _RequestContext()


def current_client_id() -> str | None:
    """The ``clientId`` header of the request this thread is dispatching.

    ``None`` outside dispatch, and for requests that carried no header —
    the engine's tenant scheduling then falls back to its default
    tenant, exactly as admission control falls back to the thread key.
    """
    return _REQUEST.client_id


@contextmanager
def client_context(client_id: str | None) -> Iterator[None]:
    """Make *client_id* visible via :func:`current_client_id` within."""
    previous = _REQUEST.client_id
    _REQUEST.client_id = client_id
    try:
        yield
    finally:
        _REQUEST.client_id = previous


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


_CLIENT_ID_RE = re.compile(
    rb"<(?:[A-Za-z0-9_.-]+:)?clientId(?:\s[^>]*)?>([^<]{1,128})</"
)


def extract_client_id(request: bytes) -> str | None:
    """Cheaply pull a ``<clientId>`` header value out of raw request bytes.

    Admission runs *before* the envelope is parsed (shedding must stay
    cheap under overload), so the client key comes from a byte scan, not
    a DOM walk.  Absent header -> ``None``; the container then falls back
    to the calling thread's identity, which is exactly one simulated
    client in every harness this repo runs.
    """
    match = _CLIENT_ID_RE.search(request)
    if match is None:
        return None
    return match.group(1).decode("utf-8", "replace").strip() or None


def client_id_headers(client_id: str) -> Callable[[str, bytes], list[Element]]:
    """A stub ``headers_provider`` stamping every request with *client_id*."""
    if not client_id:
        raise ValueError("client_id may not be empty")

    def provider(_operation: str, _payload: bytes) -> list[Element]:
        return [Element(CLIENT_ID_HEADER, children=[client_id])]

    return provider
