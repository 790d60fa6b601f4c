"""Incremental materialized federated views.

A :class:`MaterializedView` is a standing federated query whose answer
the engine keeps current under ``data_updated`` traffic instead of
recomputing it per query.  The maintenance model is semi-naive delta
evaluation over *partitions* — one partition per ``(app, exec_id)`` the
view reads:

* **aggregate-merge** views keep each partition's combinable
  group -> metric -> :class:`~repro.fedquery.merge.Accumulator`
  snapshot; a data-update refetches only the notifying execution's
  snapshot (min/max are not invertible, so deltas replace a partition
  rather than subtract from a global state) and the output re-merges
  all snapshots.  ``mean`` folds as the (total, count) pair.
* **raw-splice** views keep each partition's projected rows; the output
  is the canonical ordering of their concatenation.
* **topk-bounded** (ORDER BY/LIMIT) views keep only each partition's
  own top-N candidate set: under the total row order the global top-N
  is always a subset of the union of per-partition top-Ns.

Consistency is tracked per view with an *(epoch, version)* pair:
``version`` advances with every applied change; ``epoch`` advances when
the view was rebuilt from scratch (an unattributable update, or any
maintenance failure).  Emitted :class:`ViewDelta` messages carry both,
so a subscriber applying a delta against a stale epoch or version can
detect the gap and refresh consistently instead of silently diverging.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass

from repro.fedquery.ast import Query, QueryError
from repro.fedquery.merge import ResultRow, StreamingMerger, order_rows
from repro.fedquery.parser import parse_query
from repro.fedquery.planner import ViewShape, view_shape

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

    ``kind`` is ``delta`` (apply removed/added to the current rows),
    ``replace`` (added *is* the new row set — LIMIT views, where a
    one-row change can shift the whole window), or ``refresh`` (a new
    epoch: adopt added unconditionally).
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


@dataclass
class _Partition:
    """One execution's contribution to a view."""

    groups: dict | None = None  # aggregate-merge: group -> metric -> Accumulator
    rows: list[ResultRow] | None = None  # raw shapes (bounded for top-k)


class MaterializedView:
    """One standing query plus its maintained state."""

    def __init__(self, view_id: str, text: str, query: Query, shape: ViewShape):
        self.view_id = view_id
        self.text = text
        self.query = query
        self.shape = shape
        self.epoch = 1
        self.version = 1
        self.rows: list[ResultRow] = []
        #: (app, exec_id) -> _Partition
        self.partitions: dict[tuple[str, str], _Partition] = {}
        #: member apps the view depends on (contributing *or* skipped on
        #: a stats proof — a skip must be re-evaluated after an update)
        self.deps: set[str] = set()

    def packed_rows(self) -> list[str]:
        return [row.pack() for row in self.rows]

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

    The engine's coherence sink routes each ``data_updated`` here (after
    releasing its own lock): precisely attributed updates refetch one
    partition, member-scoped ones recompute that member's partitions,
    unattributable ones rebuild every view under a new epoch.
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

    def create_view(self, query: str | Query) -> MaterializedView:
        text = query if isinstance(query, str) else query.fingerprint()
        parsed = parse_query(query) if isinstance(query, str) else query.validate()
        shape = view_shape(parsed)
        with self._lock:
            self._counter += 1
            view = MaterializedView(f"view-{self._counter}", text, parsed, shape)
            view.rows = self._rebuild(view)
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
    def on_update(self, app: str, exec_id: str) -> None:
        """Precisely attributed update: refetch one partition per view."""
        with self._lock:
            for view in self._views.values():
                if app not in view.deps:
                    continue
                try:
                    self._apply_delta(view, app, exec_id)
                except Exception:
                    self.counters["maintenanceErrors"] += 1
                    self._refresh_view(view)

    def on_member_update(self, app: str) -> None:
        """Member-scoped update: recompute that member's partitions."""
        with self._lock:
            for view in self._views.values():
                if app not in view.deps:
                    continue
                try:
                    self._recompute_member(view, app)
                except Exception:
                    self.counters["maintenanceErrors"] += 1
                    self._refresh_view(view)

    def on_full_refresh(self) -> None:
        """Unattributable update: rebuild every view under a new epoch."""
        with self._lock:
            for view in self._views.values():
                self._refresh_view(view)

    # ----------------------------------------------------------- internals
    # Maintenance plans always pass allow_tier0=False: a tier-0 member
    # has no executions to partition by, and view deltas *replace*
    # per-(app, exec) partition snapshots — it must fetch real data.
    def _apply_delta(self, view: MaterializedView, app: str, exec_id: str) -> None:
        """Semi-naive step: replace exactly the updated partition."""
        plan = self.engine._plan(view.query, allow_tier0=False)
        view.deps = self._plan_deps(plan)
        member = next((m for m in plan.members if m.app == app), None)
        if member is None:
            # fresh statistics (or the re-plan) prove the member out of
            # the view: every partition it contributed goes with it
            for key in [k for k in view.partitions if k[0] == app]:
                del view.partitions[key]
        else:
            # absent from the fetch: the execution no longer matches the
            # view's selector
            view.partitions.pop((app, exec_id), None)
            self._fetch_members(view, [member], only_exec=exec_id)
        self.counters["deltasApplied"] += 1
        self._publish(view, self._fold(view))

    def _recompute_member(self, view: MaterializedView, app: str) -> None:
        """Scoped recompute: rebuild only *app*'s partitions."""
        plan = self.engine._plan(view.query, allow_tier0=False)
        view.deps = self._plan_deps(plan)
        for key in [k for k in view.partitions if k[0] == app]:
            del view.partitions[key]
        self._fetch_members(view, [m for m in plan.members if m.app == app])
        self.counters["scopedRecomputes"] += 1
        self._publish(view, self._fold(view))

    def _refresh_view(self, view: MaterializedView) -> None:
        """Rebuild from scratch under a new epoch and push a refresh."""
        try:
            rows = self._rebuild(view)
        except Exception:
            self.counters["maintenanceErrors"] += 1
            return
        view.rows = rows
        view.epoch += 1
        view.version += 1
        self.counters["epochRefreshes"] += 1
        self._emit(
            view,
            ViewDelta(
                view_id=view.view_id,
                epoch=view.epoch,
                from_version=view.version - 1,
                to_version=view.version,
                kind="refresh",
                added=tuple(view.packed_rows()),
            ),
        )

    def _rebuild(self, view: MaterializedView) -> list[ResultRow]:
        """Full collection: fetch every member's partitions, then fold."""
        plan = self.engine._plan(view.query, allow_tier0=False)
        view.partitions = {}
        view.deps = self._plan_deps(plan)
        self._fetch_members(view, plan.members)
        return self._fold(view)

    def _plan_deps(self, plan) -> set[str]:
        return {m.app for m in plan.members} | {s.app for s in plan.skipped}

    def _fetch_members(
        self, view: MaterializedView, members, only_exec: str | None = None
    ) -> None:
        """(Re)fetch the partitions of *members*' selected executions —
        all of them, or just execution *only_exec* — each through the
        engine's per-execution task, run inline: this is the thread
        delivering the update, and the notifier may hold a service gate
        a pool thread would wait on.  A large (or unsized) raw partition
        therefore drains through a chunked cursor by the engine's own
        rule, never as an unbounded SOAP array.
        """
        fetched = Counter()
        try:
            for member, executions, subqueries, cursor in self.engine.member_work(
                members, fetched
            ):
                for execution in executions:
                    exec_id = self.engine._execution_id(execution)
                    if only_exec in (None, exec_id):
                        ctx, payloads = self.engine.execution_task(
                            member, execution, subqueries, fetched, cursor
                        )
                        view.partitions[(member.app, exec_id)] = self._partition(
                            view, ctx, payloads
                        )
                        if only_exec is not None:
                            return
        finally:
            self.counters["deltaRowsFetched"] += fetched["records"]
            self.counters["deltaBytesFetched"] += fetched["payloadBytes"]

    def _partition(self, view: MaterializedView, ctx, payloads) -> _Partition:
        """One execution's contribution, through a private merger."""
        query = view.query
        merger = StreamingMerger(query)
        merger.absorb(ctx, payloads)
        if query.is_aggregate:
            return _Partition(groups=merger.group_accumulators())
        if view.shape.kind == "topk-bounded":
            # the partition's own top-N is a sufficient candidate set
            return _Partition(rows=order_rows(merger.raw_rows(), query))
        return _Partition(rows=merger.raw_rows())

    def _fold(self, view: MaterializedView) -> list[ResultRow]:
        """Re-merge every partition into the view's output rows."""
        query = view.query
        if query.is_aggregate:
            merger = StreamingMerger(query)
            for partition in view.partitions.values():
                if partition.groups:
                    merger.absorb_groups(partition.groups)
            # the complete-group rule applies to the *merged* groups, so
            # a group partially present across partitions behaves exactly
            # as in a from-scratch execution
            return order_rows(merger.rows(), query)
        rows: list[ResultRow] = []
        for partition in view.partitions.values():
            if partition.rows:
                rows.extend(partition.rows)
        return order_rows(rows, query)

    def _publish(self, view: MaterializedView, rows: list[ResultRow]) -> None:
        """Adopt *rows*; emit a versioned delta if anything changed."""
        old_packed = view.packed_rows()
        view.rows = rows
        new_packed = view.packed_rows()
        if new_packed == old_packed:
            self.counters["noopUpdates"] += 1
            return
        from_version = view.version
        view.version += 1
        if view.query.limit is not None:
            # a LIMIT window can shift wholesale; ship the new rows
            delta = ViewDelta(
                view_id=view.view_id,
                epoch=view.epoch,
                from_version=from_version,
                to_version=view.version,
                kind="replace",
                added=tuple(new_packed),
            )
        else:
            removed, added = _multiset_diff(old_packed, new_packed)
            delta = ViewDelta(
                view_id=view.view_id,
                epoch=view.epoch,
                from_version=from_version,
                to_version=view.version,
                kind="delta",
                removed=removed,
                added=added,
            )
        self._emit(view, delta)

    def _emit(self, view: MaterializedView, delta: ViewDelta) -> None:
        self.counters["pushedDeltas"] += 1
        for listener in list(self._listeners):
            try:
                listener(view, delta)
            except Exception:
                self.counters["maintenanceErrors"] += 1
