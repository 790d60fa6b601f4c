"""Incremental materialized federated views.

A :class:`MaterializedView` is a standing federated query whose answer
the engine keeps current under ``data_updated`` traffic instead of
recomputing it per query.  The maintenance model is semi-naive delta
evaluation over *partitions* — one per ``(app, exec_id)`` the view
reads, each holding that execution's own merger snapshot:

* **aggregate-merge** views keep its group -> metric ->
  :class:`~repro.fedquery.merge.Accumulator` snapshot; min/max are not
  invertible, so a refetch replaces a partition rather than subtracting
  from a global state, and the output re-merges all snapshots.  ``mean``
  folds as the (total, count) pair.
* **raw-splice** views keep its answer's columns; the output is the
  answer order of their concatenation.
* **topk-bounded** (ORDER BY/LIMIT) views keep only its own top-N
  candidate set: under the total row order the global top-N is always a
  subset of the union of per-partition top-Ns.

Every update takes one path: the coherence tracker's scope — an
execution ``(app, exec_id)``, a member ``(app, None)`` or everything
``(None, None)`` — drives one partition refetch, and the view re-folds.

Consistency is tracked per view with an *(epoch, version)* pair:
``version`` advances with every applied change; ``epoch`` advances when
the view was refetched whole (an unattributable update, or any
maintenance failure).  Emitted :class:`ViewDelta` messages carry both,
so a subscriber applying a delta against a stale epoch or version can
detect the gap and refresh consistently instead of silently diverging.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass

from repro.fedquery.ast import Query, QueryError
from repro.fedquery.merge import (
    RAW_COLUMNS, StreamingMerger, execution_runs, raw_answer, render, run_chunks,
)
from repro.fedquery.parser import parse_query
from repro.fedquery.planner import ViewShape, view_shape
from repro.soap.colbatch import DecodedBatch

#: every counter ``ViewMaintainer.stats()`` reports (plus "views")
VIEW_STAT_NAMES = (
    "views",
    "created",
    "dropped",
    "deltasApplied",
    "deltaRowsFetched",
    "deltaBytesFetched",
    "scopedRecomputes",
    "epochRefreshes",
    "noopUpdates",
    "pushedDeltas",
    "maintenanceErrors",
)


@dataclass(frozen=True)
class ViewDelta:
    """One versioned change to a view, in wire form.

    ``kind`` is ``delta`` (apply removed/added to the current rows, then
    re-sort and re-limit — a shifted LIMIT window included) or
    ``refresh`` (a new epoch: adopt added unconditionally).
    """

    view_id: str
    epoch: int
    from_version: int
    to_version: int
    kind: str
    removed: tuple[str, ...] = ()
    added: tuple[str, ...] = ()

    def encode(self) -> str:
        """One header line, then one ``-``/``+`` line per packed row."""
        lines = [
            f"{self.view_id}|{self.epoch}|{self.from_version}|"
            f"{self.to_version}|{self.kind}"
        ]
        lines.extend("-" + row for row in self.removed)
        lines.extend("+" + row for row in self.added)
        return "\n".join(lines)

    @staticmethod
    def decode(message: str) -> "ViewDelta":
        lines = message.split("\n")
        head = lines[0].split("|", 4)
        if len(head) != 5:
            raise QueryError(f"bad view delta header {lines[0]!r}")
        return ViewDelta(
            view_id=head[0],
            epoch=int(head[1]),
            from_version=int(head[2]),
            to_version=int(head[3]),
            kind=head[4],
            removed=tuple(l[1:] for l in lines[1:] if l.startswith("-")),
            added=tuple(l[1:] for l in lines[1:] if l.startswith("+")),
        )


class MaterializedView:
    """One standing query plus its maintained state."""

    def __init__(self, view_id: str, text: str, query: Query, shape: ViewShape):
        self.view_id = view_id
        self.text = text
        self.query = query
        self.shape = shape
        self.epoch = 1
        self.version = 1
        #: the rendered answer, set by the view's first refetch
        self.rows: DecodedBatch | None = None
        #: (app, exec_id) -> that execution's merger snapshot: its group
        #: accumulators (aggregate views) or its answer's columns (raw views)
        self.partitions: dict[tuple[str, str], dict | list[list]] = {}
        #: member apps the view depends on (contributing *or* skipped on
        #: a stats proof — a skip must be re-evaluated after an update)
        self.deps: set[str] = set()

    def packed_rows(self) -> list[str]:
        return self.rows.rows

    def describe(self) -> str:
        return (
            f"{self.view_id}|{self.shape.kind}|epoch={self.epoch}"
            f"|version={self.version}|rows={len(self.rows)}"
        )


def _multiset_diff(
    old: list[str], new: list[str]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    old_counts, new_counts = Counter(old), Counter(new)
    removed: list[str] = []
    for row, count in sorted((old_counts - new_counts).items()):
        removed.extend([row] * count)
    added: list[str] = []
    for row, count in sorted((new_counts - old_counts).items()):
        added.extend([row] * count)
    return tuple(removed), tuple(added)


class ViewMaintainer:
    """Owns every materialized view of one :class:`FederationEngine`.

    The engine's coherence sink hands each ``data_updated`` scope to
    :meth:`on_update` (after releasing its own lock), which refetches
    exactly that scope of every view depending on it.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self._views: dict[str, MaterializedView] = {}
        self._counter = 0
        self._lock = threading.RLock()
        #: callbacks fired with (view, delta) for every emitted change
        self._listeners: list = []
        self.counters = {name: 0 for name in VIEW_STAT_NAMES if name != "views"}

    # ------------------------------------------------------------ registry
    def add_listener(self, callback) -> None:
        self._listeners.append(callback)

    def create_view(self, text: str) -> MaterializedView:
        if not isinstance(text, str):
            # the text is the view's identity on the wire (getView's
            # query header, which a subscriber parses back)
            raise TypeError(f"a view is created from query text, not {type(text).__name__}")
        query = parse_query(text)
        with self._lock:
            self._counter += 1
            view = MaterializedView(f"view-{self._counter}", text, query, view_shape(query))
            view.rows = self._refetch(view)
            self._views[view.view_id] = view
            self.counters["created"] += 1
        return view

    def drop_view(self, view_id: str) -> bool:
        with self._lock:
            dropped = self._views.pop(view_id, None)
            if dropped is not None:
                self.counters["dropped"] += 1
            return dropped is not None

    def get_view(self, view_id: str) -> MaterializedView:
        with self._lock:
            view = self._views.get(view_id)
        if view is None:
            raise QueryError(f"unknown view {view_id!r}")
        return view

    def views(self) -> list[MaterializedView]:
        with self._lock:
            return list(self._views.values())

    def stats(self) -> dict[str, int]:
        with self._lock:
            out = dict(self.counters)
            out["views"] = len(self._views)
        return out

    # --------------------------------------------------------- maintenance
    def on_update(self, app: str | None, exec_id: str | None) -> None:
        """Bring one coherence scope — an execution ``(app, exec_id)``, a
        member ``(app, None)`` or everything ``(None, None)`` — into every
        view depending on it.  A scoped refetch is pushed as a delta;
        everything, or a scoped refetch that failed, is refetched and
        pushed as a refresh under a new epoch."""
        with self._lock:
            for view in self._views.values():
                if app is not None and app not in view.deps:
                    continue
                if app is not None:
                    try:
                        answer = self._refetch(view, app, exec_id)
                    except Exception:
                        self.counters["maintenanceErrors"] += 1
                    else:
                        scope = "scopedRecomputes" if exec_id is None else "deltasApplied"
                        self.counters[scope] += 1
                        self._publish(view, answer)
                        continue
                try:
                    answer = self._refetch(view)
                except Exception:
                    self.counters["maintenanceErrors"] += 1
                    continue
                self.counters["epochRefreshes"] += 1
                self._publish(view, answer, new_epoch=True)

    # ----------------------------------------------------------- internals
    def _refetch(
        self, view: MaterializedView, app: str | None = None, exec_id: str | None = None
    ) -> DecodedBatch:
        """Refetch the partitions in scope and re-fold the view's answer.

        Re-plans without tier 0 (a tier-0 member has no executions to
        partition by), drops the partitions the scope covers and those
        of every member the fresh plan proves out of the view, then
        reads each in-scope execution inline — an aggregate view through
        the engine's per-execution task, a raw one through its raw
        reader, drained into the partition's own answer — because this
        is the thread delivering the update, and the notifier may hold
        a service gate a pool thread would wait on.  A large (or
        unsized) read therefore drains through a chunked cursor by the
        engine's own rule, never as an unbounded SOAP array.  An
        execution absent from the fetch no longer matches the view's
        selector.
        """
        query = view.query
        plan = self.engine._plan(query, allow_tier0=False)
        planned = {member.app for member in plan.members}
        view.deps = planned | {skipped.app for skipped in plan.skipped}

        def in_scope(key: tuple[str, str]) -> bool:
            return app in (None, key[0]) and exec_id in (None, key[1])

        view.partitions = {
            key: part
            for key, part in view.partitions.items()
            if key[0] in planned and not in_scope(key)
        }
        fetched = Counter()
        try:
            for member, executions, subqueries, large in self.engine.member_work(
                [member for member in plan.members if app in (None, member.app)], fetched
            ):
                for execution in executions:
                    key = (member.app, self.engine._execution_id(execution))
                    if not in_scope(key):
                        continue
                    if query.is_aggregate:
                        merger = StreamingMerger(query)
                        merger.absorb(*self.engine.execution_task(
                            member, execution, subqueries, fetched, cursor=large
                        ))
                        view.partitions[key] = merger.group_accumulators()
                    else:
                        reader = self.engine.raw_reader(
                            member, execution, subqueries, fetched,
                            query.predicates_on("value"), cursor=large,
                        )
                        # a LIMIT partition keeps only its own top-N: a
                        # sufficient candidate set under the total order
                        runs = execution_runs(subqueries, reader)
                        view.partitions[key] = raw_answer(run_chunks(runs), query)
        finally:
            self.counters["deltaRowsFetched"] += fetched["records"]
            self.counters["deltaBytesFetched"] += fetched["payloadBytes"]
        if not query.is_aggregate:
            return render(RAW_COLUMNS, raw_answer(view.partitions.values(), query, canonical=False))
        merger = StreamingMerger(query)
        for groups in view.partitions.values():
            merger.absorb_groups(groups)
        # the complete-group rule applies to the *merged* groups, so a
        # group partially present across partitions behaves exactly as
        # in a from-scratch execution
        return merger.answer()

    def _publish(
        self, view: MaterializedView, answer: DecodedBatch, new_epoch: bool = False
    ) -> None:
        """Adopt *answer* and emit a versioned change: a ``refresh`` under a
        new epoch, else the multiset ``delta`` if anything changed (a
        subscriber re-sorts and re-limits, so a LIMIT window that shifts
        is an ordinary delta too)."""
        old_packed = view.packed_rows()
        view.rows = answer
        new_packed = view.packed_rows()
        if new_epoch:
            view.epoch += 1
            kind, removed, added = "refresh", (), tuple(new_packed)
        elif new_packed == old_packed:
            self.counters["noopUpdates"] += 1
            return
        else:
            kind = "delta"
            removed, added = _multiset_diff(old_packed, new_packed)
        view.version += 1
        delta = ViewDelta(
            view.view_id, view.epoch, view.version - 1, view.version, kind, removed, added
        )
        self.counters["pushedDeltas"] += 1
        for listener in list(self._listeners):
            try:
                listener(view, delta)
            except Exception:
                self.counters["maintenanceErrors"] += 1
