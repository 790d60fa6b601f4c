"""Cache coherence for the federation engine: one owner of the trust rule.

The engine memoizes three things it read from the members — whole query
results (the plan cache), member statistics (``getStats``, the cost
model's input) and the small facts every fan-out starts from (a
member's execution list and vocabulary, an execution's foci) — and a
``data-update`` can supersede any of them at any moment, including
while the read is in flight.  :class:`CoherenceTracker` decides when
such an answer may be trusted:

* **One generation table**, three levels of one hierarchy: ``(app,
  exec_id)``, ``(app, "*")`` for a member, ``("*", "*")`` for the
  federation.  An execution update bumps the first two, a member-scoped
  clear the last two, a full clear the last.
* **One admit rule**, for plans, statistics and facts alike: copy the
  generations *before* the read, cache the answer only if none it
  depends on moved by the time the read is done (the
  insert-after-invalidate race).  A superseded answer still serves the
  query that computed it; it is just never cached.
* **One invalidation routine** whose scope selects the generations
  bumped, the plans dropped — each cached fingerprint records the
  ``(app, exec_id)`` set it read, or ``(app, "*")`` where it relied on
  the member's statistics (a stats-proven skip, a tier-0 answer) — and
  the fate of the member's cached statistics.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.prcache import PrCache
from repro.core.semantic import StoreStats
from repro.ogsi.gsh import GridServiceHandle
from repro.ogsi.notification import NotificationSinkBase
from repro.soap.colbatch import DecodedBatch

#: the wildcard of the generation hierarchy
ANY = "*"
#: the federation-wide generation: every cached answer depends on it
ROOT = (ANY, ANY)

Dep = tuple[str, str]
#: ``(app, exec_id)``, ``(app, None)`` for a member, ``(None, None)`` for all
Scope = tuple[str | None, str | None]


@dataclass
class _CachedStats:
    """One member's cached statistics."""

    merged: StoreStats
    #: exec_id -> StoreStats behind ``merged`` (merged stats are not
    #: invertible, so a delta refresh re-merges from this); None until
    #: the first delta establishes it
    per_exec: dict[str, StoreStats] | None = None
    #: executions data-updated since ``merged`` was computed
    dirty: set[str] = field(default_factory=set)


class CoherenceTracker:
    """Generations, plan dependencies, the member-stats cache, the
    member-fact memo, the sink subscriptions and the counters, under one
    lock."""

    def __init__(self, plan_cache: PrCache) -> None:
        self.plan_cache = plan_cache
        self._lock = threading.RLock()
        #: engine-local data generation per hierarchy key (absent = 0)
        self._generations: dict[Dep, int] = {}
        #: fingerprint -> the deps read when the entry was cached
        self._plan_deps: dict[str, frozenset[Dep]] = {}
        self._dep_sets: dict[frozenset[Dep], frozenset[Dep]] = {}
        #: member -> cached statistics; failed fetches are never cached
        self._stats: dict[str, _CachedStats] = {}
        #: what the members told a listening engine, by name: ``(app,
        #: "*")`` -> the member's execution bindings and vocabularies,
        #: ``(app, exec_id)`` -> that execution's foci; never query text
        self._facts: dict[Dep, dict[str, object]] = {}
        #: execution GSH -> (app, exec_id), learned at subscription time:
        #: the precise attribution for data-update deliveries
        self._sources: dict[str, Dep] = {}
        #: execution GSHs already subscribed (re-subscription sweeps
        #: after new members publish skip them)
        self._subscribed: set[str] = set()
        self._sink_gsh = None
        self.counters = {
            "subscriptions": 0,
            "notifications": 0,
            "invalidations": 0,
            "fullClears": 0,
            "memberClears": 0,
            "staleDiscards": 0,
            "statsInvalidations": 0,
            "statsDeltas": 0,
            "factHits": 0,
            "factReads": 0,
            "staleHandles": 0,
        }

    # --------------------------------------------------------------- plans
    def snapshot(self) -> dict[Dep, int]:
        """The generation table, copied *before* planning: whatever the
        query reads from here on is superseded by any later bump."""
        with self._lock:
            return dict(self._generations)

    def admit(
        self,
        fingerprint: str,
        deps: Iterable[Dep],
        snapshot: dict[Dep, int],
        answer: DecodedBatch,
    ) -> bool:
        """Cache a computed answer's token columns unless a generation it
        depends on moved since *snapshot* (counted as a stale discard)."""
        deps = frozenset(deps)
        with self._lock:
            if any(
                self._generations.get(key, 0) != snapshot.get(key, 0)
                for key in (*deps, ROOT)
            ):
                self.counters["staleDiscards"] += 1
                return False
            self.plan_cache.put(fingerprint, answer)
            # plans over the same executions share one dependency set
            self._plan_deps[fingerprint] = self._dep_sets.setdefault(deps, deps)
            if len(self._plan_deps) > 2 * max(1, len(self.plan_cache)):
                # drop dependency records whose entries were LRU-evicted
                self._plan_deps = {
                    fp: dep
                    for fp, dep in self._plan_deps.items()
                    if self.plan_cache.contains(fp)
                }
                self._dep_sets = {dep: dep for dep in self._plan_deps.values()}
            return True

    def invalidate(self, app: str | None = None, exec_id: str | None = None) -> int:
        """Supersede everything read from the scope; returns plans dropped.

        ``(app, exec_id)`` is one execution, ``(app, None)`` a whole
        member, ``(None, None)`` the federation.  Anything wider than an
        execution also bumps the federation generation — any in-flight
        query may have read the member, so its result must not be cached
        — and drops the cached statistics outright; an execution update
        marks just that execution's share of them dirty, so the next
        plan re-merges a delta instead of refetching the whole member.
        Remembered facts go by the same scope: an update forgets the
        execution's and its member's own, a wider one all under it.
        """
        member = (app, ANY)
        with self._lock:
            plans = self._plan_deps.items()
            if app is None:
                bumped, doomed = [ROOT], list(self._plan_deps)
            elif exec_id is None:
                bumped = [member, ROOT]
                doomed = [fp for fp, deps in plans if any(d[0] == app for d in deps)]
            else:
                bumped = [(app, exec_id), member]
                doomed = [fp for fp, deps in plans if not deps.isdisjoint(bumped)]
            for key in bumped:
                self._generations[key] = self._generations.get(key, 0) + 1
            if exec_id is None:
                self.counters["statsInvalidations"] += self.drop_stats(app)
                self.forget(app)
            elif app in self._stats:
                self.counters["statsInvalidations"] += 1
                self._stats[app].dirty.add(exec_id)
            for key in bumped:
                self._facts.pop(key, None)
            dropped = 0
            for fingerprint in doomed:
                del self._plan_deps[fingerprint]
                dropped += self.plan_cache.remove(fingerprint)
            self.counters["invalidations"] += dropped
            return dropped

    # ------------------------------------------------------- notifications
    @property
    def listening(self) -> bool:
        """Has :meth:`subscribe` deployed the sink yet?"""
        return self._sink_gsh is not None

    def subscribe(self, container, callback, executions) -> int:
        """Subscribe one sink to each execution's ``data-update`` topic.

        Deploys a NotificationSink delivering to *callback* in
        *container* (once); *executions* yields ``(app, exec_id,
        binding)``.  Already-subscribed executions are skipped; returns
        the number of new subscriptions.
        """
        if self._sink_gsh is None:
            self._sink_gsh = container.deploy(
                "services/FederatedQuery/coherence-sink",
                NotificationSinkBase(callback=callback),
            )
        subscribed = 0
        for app, exec_id, execution in executions:
            with self._lock:
                self._sources[execution.gsh] = (app, exec_id)
                if execution.gsh in self._subscribed:
                    continue
            execution.subscribe("data-update", self._sink_gsh.url())
            with self._lock:
                self._subscribed.add(execution.gsh)
                self.counters["subscriptions"] += 1
            subscribed += 1
        return subscribed

    def on_update(self, message: str, members: Iterable[str] = ()) -> list[Scope]:
        """Attribute one data-update delivery and invalidate its scope(s).

        The message is ``execId|generation|sourceHandle|description``
        (see :meth:`repro.core.execution.ExecutionService.data_updated`).
        Attribution prefers the source handle, then every subscribed
        execution with that exec id (ids collide across Applications, so
        this may over-invalidate).  Failing both, the update is scoped
        to the *member* its source handle names when that is a known one
        (*members* adds the caller's catalog to what the tracker has
        seen); only a source that cannot be attributed at all clears
        everything — correctness over precision.

        Returns the scopes invalidated, for the view-maintenance hook,
        which must run after the lock is released.
        """
        parts = message.split("|", 3)
        exec_id = parts[0]
        source = parts[2] if len(parts) >= 3 else ""
        with self._lock:
            self.counters["notifications"] += 1
            if source in self._sources:
                scopes: list[Scope] = [self._sources[source]]
            else:
                scopes = [
                    key for key in set(self._sources.values()) if key[1] == exec_id
                ]
            if not scopes:
                app = self._member_named_by(source, members)
                self.counters["fullClears" if app is None else "memberClears"] += 1
                scopes = [(app, None)]
            for scope in scopes:
                self.invalidate(*scope)
        return scopes

    def _member_named_by(self, source: str, members: Iterable[str]) -> str | None:
        """Last-resort attribution: site services deploy under
        ``services/<app>/...`` (factories, replicas, instances alike), so
        a parseable handle whose second path segment names a known
        member scopes the update to it even when the tracker never
        subscribed to the execution."""
        try:
            segments = GridServiceHandle.parse(source).path.split("/")
        except Exception:
            return None
        if len(segments) < 2 or segments[0] != "services":
            return None
        known = {key[0] for key in (*self._sources.values(), *self._generations)}
        known = (known | {*self._stats, *members}) - {ANY}
        return segments[1] if segments[1] in known else None

    # --------------------------------------------------------- member stats
    def member_stats(
        self, members: dict[str, object], exec_id_of: Callable[[object], str]
    ) -> dict[str, StoreStats | None]:
        """Member statistics for the cost model, read through the cache.

        *members* maps name to Application binding; ``exec_id_of`` names
        an Execution binding.  A failed ``getStats`` maps the member to
        ``None`` (the planner keeps the global mode for it and never
        skips it) and is not cached, so the next plan retries.
        """
        return {
            app: self._stats_for(app, binding, exec_id_of)
            for app, binding in members.items()
        }

    def _generation(self, key: Dep) -> tuple[int, int]:
        """What an answer read from *key* (a member ``(app, "*")`` or an
        execution) depends on: the key, and the federation generation
        every wider clear bumps."""
        return self._generations.get(key, 0), self._generations.get(ROOT, 0)

    def _stats_for(self, app: str, binding, exec_id_of) -> StoreStats | None:
        with self._lock:
            cached = self._stats.get(app)
            if cached is not None and not cached.dirty:
                return cached.merged
            dirty = sorted(cached.dirty) if cached is not None else []
            generation = self._generation((app, ANY))
        stats = per_exec = None
        if cached is not None:
            # Delta refresh: refetch only the executions the updates
            # touched — and any the member's (remembered) list names
            # that the per-execution baseline does not know yet — and
            # re-merge.  Any trouble falls back to the whole-member
            # fetch, so correctness never depends on the fast path.
            try:
                known = cached.per_exec or {}
                per_exec = {}
                for execution in self.fact(app, ANY, "executions", binding.all_executions):
                    exec_id = exec_id_of(execution)
                    if exec_id in dirty or exec_id not in known:
                        per_exec[exec_id] = execution.get_stats()
                    else:
                        per_exec[exec_id] = known[exec_id]
                stats = StoreStats.merge(list(per_exec.values()))
            except Exception:
                self.drop_stats(app)
                per_exec = None
        if stats is None:
            try:
                stats = binding.get_stats()
            except Exception:
                return None
        with self._lock:
            # the admit rule: what was fetched is cached only if neither
            # the member nor the federation was superseded meanwhile;
            # otherwise it serves this plan (itself stale-discarded) and
            # nothing about the member stays cached
            if self._generation((app, ANY)) != generation:
                self.drop_stats(app)
            else:
                self._stats[app] = _CachedStats(stats, per_exec)
                if per_exec is not None:
                    self.counters["statsDeltas"] += len(per_exec.keys() & dirty)
        return stats

    def drop_stats(self, app: str | None = None) -> int:
        """Forget *app*'s cached statistics (every member's when None);
        returns how many members had any."""
        with self._lock:
            if app is not None:
                return int(self._stats.pop(app, None) is not None)
            dropped = len(self._stats)
            self._stats.clear()
            return dropped

    # --------------------------------------------------------- member facts
    def fact(self, app: str, exec_id: str, name: str, read: Callable[[], object]):
        """Fact *name* of execution *exec_id* (``"*"``: of the member
        itself), read through the memo: ``read()`` asks the member; the
        answer is remembered under the admit rule, and only by a
        listening tracker (nobody would tell another that it changed)."""
        key = (app, exec_id)
        with self._lock:
            facts = self._facts.get(key)
            if facts is not None and name in facts:
                self.counters["factHits"] += 1
                return facts[name]
            generation = self._generation(key)
            self.counters["factReads"] += 1
        value = read()
        with self._lock:
            if self.listening and self._generation(key) == generation:
                self._facts.setdefault(key, {})[name] = value
        return value

    def forget(self, app: str | None = None, stale_handle: bool = False) -> None:
        """Forget *app*'s facts (every member's when None); nothing is
        superseded, the next read just asks again.  *stale_handle* counts
        a re-resolution of a handle that outlived its instance."""
        with self._lock:
            self.counters["staleHandles"] += stale_handle
            for key in [k for k in self._facts if app in (None, k[0])]:
                del self._facts[key]

    # ------------------------------------------------------------- counters
    def stats(self) -> dict[str, int]:
        """The coherence counters plus tracked plans and resident facts."""
        with self._lock:
            return {
                **self.counters,
                "trackedPlans": len(self._plan_deps),
                "factsRemembered": sum(map(len, self._facts.values())),
            }
