"""Benchmark-owned tracing: spans at the public injection points only.

Nothing under ``src/`` is instrumented.  A traced run swaps three
objects in at construction time, each at a seam the system already
offers:

* :class:`TimingTransport` on ``environment.transport`` (installed
  before any container binds, as ``LatencyTransport`` is) — one span per
  ``send``, classified by authority/path into fed, view, fed-cursor,
  member, member-cursor, notify and other hops;
* :class:`SpanRecorder` as the environment's ``Recorder`` — the existing
  ``TimedExecutionWrapper`` samples (``mapping.getPR[.iter|.agg|.stats]``)
  become spans with a start and an end;
* :class:`TimedDatabase` handed to the RDBMS wrappers — one span per
  ``Database.execute``.

The driver adds a ``driver.op`` span around each client call.  Spans
stay in memory; :func:`write_trace` dumps them when the run ends.

Attribution (:func:`exclusive_ms`): every instant of a ``driver.op`` is
credited to the innermost spans active at that instant, split evenly
when several run in parallel.  For a span whose children run one after
another this is "span minus the union of its children"; for a parallel
fan-out it shares the interval instead of counting it once per child,
so the layer rows partition ``driver.op`` exactly.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator

from repro.minidb.database import Database
from repro.simnet.metrics import Recorder

#: span kind -> the layer row its exclusive time is credited to
LAYER_OF_KIND = {
    "driver.op": "client",
    "fed": "fedquery",
    "fedcursor": "fedquery",
    "view": "views",
    "notify": "views",
    "member": "ogsi",
    "cursor": "ogsi",
    "other": "ogsi",
    "mapping": "mapping",
    "db": "minidb",
}
LAYERS = ("client", "fedquery", "views", "ogsi", "mapping", "minidb")

#: transport hops whose request is served by one member-side service
LEAF_HOPS = ("member", "cursor")

#: captured (endpoint, request, response) triples kept per hop kind,
#: and the byte budget that caps them (bulk responses are ~300 KB each)
SAMPLES_PER_KIND = 48
SAMPLE_BYTES_PER_KIND = 4 << 20


class Span:
    """One timed interval; ``parent`` is the enclosing span on the same
    thread at ``begin`` time (cross-thread parents are resolved later by
    :func:`attach_orphans`)."""

    __slots__ = (
        "id", "kind", "label", "thread", "parent", "op",
        "start", "end", "sent", "received",
    )

    def __init__(self, span_id: int, kind: str, label: str, parent: "Span | None") -> None:
        self.id = span_id
        self.kind = kind
        self.label = label
        self.thread = threading.get_ident()
        self.parent = parent
        self.op: int | None = None
        self.start = 0.0
        self.end = 0.0
        self.sent = 0
        self.received = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_record(self) -> dict:
        return {
            "id": self.id,
            "op": self.op,
            "parent": self.parent.id if self.parent is not None else None,
            "kind": self.kind,
            "label": self.label,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "sent": self.sent,
            "received": self.received,
        }


class Tracer:
    """In-memory span sink with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.samples: dict[str, list[tuple[str, bytes, bytes]]] = defaultdict(list)
        self._sample_bytes: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()  # next() is atomic under the GIL
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, kind: str, label: str = "") -> Span:
        stack = self._stack()
        span = Span(next(self._ids), kind, label, stack[-1] if stack else None)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    @contextmanager
    def span(self, kind: str, label: str = "") -> Iterator[Span]:
        span = self.begin(kind, label)
        try:
            yield span
        finally:
            self.end(span)

    def capture(self, kind: str, endpoint: str, request: bytes, response: bytes) -> None:
        """Keep a bounded sample of wire messages for the replay kernels."""
        kept = self.samples[kind]
        size = len(request) + len(response)
        if (
            len(kept) < SAMPLES_PER_KIND
            and self._sample_bytes[kind] + size <= SAMPLE_BYTES_PER_KIND
        ):
            kept.append((endpoint, request, response))
            self._sample_bytes[kind] += size

    def clear(self) -> None:
        """Forget what set-up and warm-up traffic left behind."""
        self.spans = []
        self.samples.clear()
        self._sample_bytes.clear()


class TimingTransport:
    """Wraps the environment's transport; one classified span per send.

    ``roles`` maps a container authority to ``"fed"`` or ``"member"``;
    anything else (registry, the client's own sink container) is
    ``other`` unless its path names a notification sink.
    """

    def __init__(self, inner, tracer: Tracer, roles: dict[str, str]) -> None:
        self.inner = inner
        self.tracer = tracer
        self.roles = roles

    def classify(self, endpoint_url: str) -> str:
        authority, _, path = endpoint_url.partition("://")[2].partition("/")
        if "sink" in path:
            return "notify"
        role = self.roles.get(authority)
        if role == "fed":
            if "/cursors/" in path:
                return "fedcursor"
            return "view" if path.endswith("/views") else "fed"
        if role == "member":
            return "cursor" if "/cursors/" in path else "member"
        return "other"

    def send(self, endpoint_url: str, request: bytes) -> bytes:
        kind = self.classify(endpoint_url)
        span = self.tracer.begin(kind, endpoint_url)
        span.sent = len(request)
        try:
            response = self.inner.send(endpoint_url, request)
            span.received = len(response)
        finally:
            self.tracer.end(span)
        self.tracer.capture(kind, endpoint_url, request, response)
        return response

    # containers bind through the installed transport
    def bind(self, authority: str, handler) -> None:
        self.inner.bind(authority, handler)

    def unbind(self, authority: str) -> None:
        self.inner.unbind(authority)

    def authorities(self) -> list[str]:
        return self.inner.authorities()


class SpanRecorder(Recorder):
    """A ``Recorder`` whose ``mapping.*`` timers also leave spans."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        if not name.startswith("mapping."):
            with super().time(name):
                yield
            return
        with self.tracer.span("mapping", name), super().time(name):
            yield


class TimedDatabase(Database):
    """Delegates to a generated ``Database``, timing ``execute``.

    A subclass only because ``repro.minidb.dbapi.connect`` type-checks
    its argument; every attribute other than ``execute`` resolves on the
    wrapped instance.
    """

    def __init__(self, inner: Database, tracer: Tracer) -> None:  # no super().__init__: state lives in *inner*
        self._inner = inner
        self._tracer = tracer

    def execute(self, sql: str, params=None):
        with self._tracer.span("db", sql[:60]):
            return self._inner.execute(sql, params)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


# ----------------------------------------------------------------- analysis
def _chain_root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def attach_orphans(spans: list[Span]) -> tuple[dict[Span, list[Span]], int]:
    """Group *spans* by the ``driver.op`` they belong to.

    A span begun on a driver thread inside an op already points at it
    through its same-thread parent chain.  A chain begun on another
    thread (a fan-out worker, a stream producer) is attached to the
    deepest span of the op whose interval contains its start.  When
    several ops qualify (concurrent drivers), the one whose containing
    span started first wins: requests to one service are served in
    arrival order, so the earliest hop is the one being executed.  The
    choice can misplace a span between two ops but never loses it, and
    every reported figure is a per-op mean.

    Returns ``({op span: its spans}, number of spans outside any op)``.
    """
    by_root: dict[Span, list[Span]] = defaultdict(list)
    for span in spans:
        by_root[_chain_root(span)].append(span)
    ops = sorted(
        (root for root in by_root if root.kind == "driver.op"),
        key=lambda span: span.start,
    )
    per_thread: dict[int, list[Span]] = defaultdict(list)
    for op in ops:
        per_thread[op.thread].append(op)
    starts = {thread: [op.start for op in lane] for thread, lane in per_thread.items()}
    members: dict[Span, list[Span]] = {op: list(by_root[op]) for op in ops}
    # the driver-thread chain is fixed before any orphan is attached, so
    # an orphan's parent never depends on the order orphans are visited
    chains = {op: list(members[op]) for op in ops}
    unattributed = 0
    for root, chain in by_root.items():
        if root.kind == "driver.op":
            continue
        best: Span | None = None
        best_op: Span | None = None
        for thread, lane in per_thread.items():
            index = bisect_right(starts[thread], root.start) - 1
            if index < 0 or lane[index].end <= root.start:
                continue
            op = lane[index]
            holder = max(
                (s for s in chains[op] if s.start <= root.start < s.end),
                key=lambda s: s.start,
            )
            if best is None or holder.start < best.start:
                best, best_op = holder, op
        if best is None:
            unattributed += len(chain)
            continue
        root.parent = best
        members[best_op].extend(chain)
    for index, op in enumerate(ops):
        for span in members[op]:
            span.op = index
    return members, unattributed


def exclusive_ms(op: Span, members: list[Span]) -> dict[str, float]:
    """Partition *op*'s interval among the layers (see module docstring)."""
    events = []
    for span in members:
        start = max(span.start, op.start)
        end = min(span.end, op.end)
        if end > start:
            # parents open before and close after their children on ties
            events.append((start, 1, span.id, span))
            events.append((end, 0, -span.id, span))
    events.sort(key=lambda event: event[:3])
    active: set[Span] = set()
    leaves: set[Span] = set()
    open_children: dict[Span, int] = defaultdict(int)
    credit = dict.fromkeys(LAYERS, 0.0)
    previous = op.start
    for at, opening, _, span in events:
        if at > previous and leaves:
            share = (at - previous) * 1e3 / len(leaves)
            for leaf in leaves:
                credit[LAYER_OF_KIND[leaf.kind]] += share
        previous = at
        parent = span.parent
        if opening:
            active.add(span)
            leaves.add(span)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(span)
            leaves.discard(span)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return credit


def union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by *intervals*."""
    total = 0.0
    edge = float("-inf")
    for start, end in sorted(intervals):
        if end > edge:
            total += end - max(start, edge)
            edge = end
    return total


def write_trace(path: str, spans: list[Span], summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"summary": summary, "spans": [span.as_record() for span in spans]},
            fh,
        )
        fh.write("\n")
