"""Cache coherence for the federated plan cache (notification-driven).

Covers the coherence layer end to end: a ``data_updated()`` on one
member Execution invalidates exactly the cached plans that read it,
the insert-after-invalidate race is closed by generation counters, and
member-task failures degrade the result instead of aborting the query.
"""

from __future__ import annotations

import pytest

from repro.core.prcache import ByteBudgetLruCache
from repro.core.semantic import PerformanceResult, StoreStats
from repro.experiments.common import GridScale, build_grid, build_synthetic_grid
from repro.fedquery import FEDERATED_QUERY_PORTTYPE, QueryError, naive_query
from repro.fedquery.coherence import CoherenceTracker
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper

HPL_QUERY = "SELECT count(gflops), max(gflops) FROM HPL GROUP BY app"
PRESTA_QUERY = "SELECT count(latency_us) FROM PRESTA-RMA GROUP BY network"


@pytest.fixture()
def grid():
    """A tiny grid with a coherence-enabled FederatedQuery service."""
    grid = build_grid(GridScale.tiny())
    grid.deploy_federation()
    yield grid
    grid.cleanup()


def hpl_exec_service(grid, index: int = 0):
    exec_id = grid.hpl_site.wrapper.get_all_exec_ids()[index]
    service = grid.execution_service("HPL", exec_id)
    assert service is not None  # instantiated by subscribeUpdates()
    return service


class TestSubscriptions:
    def test_deploy_federation_subscribes_members(self, grid):
        stats = grid.fed_engine.coherence_stats()
        executions = (
            grid.scale.hpl_executions
            + grid.scale.smg98_executions
            + grid.scale.presta_executions
        )
        assert stats["subscriptions"] == executions
        # every member Execution service carries exactly one subscription
        assert hpl_exec_service(grid).subscription_count() == 1

    def test_subscribe_updates_idempotent_over_soap(self, grid):
        stub = grid.environment.stub_for_handle(grid.fed_gsh, FEDERATED_QUERY_PORTTYPE)
        assert stub.subscribeUpdates() == 0  # deploy_federation already did it
        assert grid.client.subscribe_updates() == 0
        assert hpl_exec_service(grid).subscription_count() == 1

    def test_coherence_stats_over_soap(self, grid):
        stats = grid.client.coherence_stats()
        assert set(stats) == {
            "subscriptions",
            "notifications",
            "invalidations",
            "fullClears",
            "memberClears",
            "staleDiscards",
            "statsInvalidations",
            "statsDeltas",
            "trackedPlans",
            "factsRemembered",
            "factHits",
            "factReads",
            "staleHandles",
        }


class TestTargetedInvalidation:
    def test_update_drops_only_dependent_plans(self, grid):
        engine = grid.fed_engine
        before_max = engine.execute(HPL_QUERY).rows[0]["max(gflops)"]
        engine.execute(PRESTA_QUERY)
        assert engine.execute(HPL_QUERY).cached is True
        assert engine.execute(PRESTA_QUERY).cached is True

        # mutate the HPL store under one execution, then announce it
        service = hpl_exec_service(grid)
        grid.hpl_site.wrapper.conn.execute(
            "UPDATE hpl_runs SET gflops = ? WHERE runid = ?",
            [99999.0, int(service.exec_id)],
        )
        assert service.data_updated("gflops recalibrated") == 1

        # the unrelated fingerprint still answers from the plan cache...
        assert engine.execute(PRESTA_QUERY).cached is True
        # ...while the affected one recomputes and sees the fresh rows
        fresh = engine.execute(HPL_QUERY)
        assert fresh.cached is False
        assert fresh.rows[0]["max(gflops)"] == 99999.0
        assert before_max != 99999.0

        stats = grid.client.coherence_stats()
        assert stats["invalidations"] >= 1
        assert stats["fullClears"] == 0
        assert stats["notifications"] >= 1

    def test_recached_result_reflects_update(self, grid):
        engine = grid.fed_engine
        engine.execute(HPL_QUERY)
        service = hpl_exec_service(grid)
        grid.hpl_site.wrapper.conn.execute(
            "UPDATE hpl_runs SET gflops = ? WHERE runid = ?",
            [77777.0, int(service.exec_id)],
        )
        service.data_updated()
        engine.execute(HPL_QUERY)
        hot = engine.execute(HPL_QUERY)  # re-cached, post-update rows
        assert hot.cached is True
        assert hot.rows[0]["max(gflops)"] == 77777.0

    def test_execution_pr_cache_cleared_before_notify(self, grid):
        """A subscriber re-querying from its callback sees fresh data."""
        service = hpl_exec_service(grid)
        packed_before = service.getPR("gflops", ["/Run"], "0.0", "1e12", "UNDEFINED")
        grid.hpl_site.wrapper.conn.execute(
            "UPDATE hpl_runs SET gflops = ? WHERE runid = ?",
            [55555.0, int(service.exec_id)],
        )
        seen_during_delivery: list[float] = []
        from repro.ogsi.notification import NotificationSinkBase

        def on_delivery(topic, message):
            packed = service.getPR("gflops", ["/Run"], "0.0", "1e12", "UNDEFINED")
            seen_during_delivery.append(service.unpack_results(packed)[0].value)

        sink = NotificationSinkBase(callback=on_delivery)
        gsh = grid.hpl_site.container.deploy("services/coherence-probe", sink)
        service.SubscribeToNotificationTopic("data-update", gsh.url(), 0.0)
        service.data_updated("probe")
        assert seen_during_delivery == [55555.0]
        assert service.unpack_results(packed_before)[0].value != 55555.0
        assert service.generation == 1

    def test_unattributable_update_falls_back_to_full_clear(self, grid):
        engine = grid.fed_engine
        engine.execute(HPL_QUERY)
        engine._on_update("data-update", "no-such-exec|1|mystery")
        assert engine.execute(HPL_QUERY).cached is False
        assert engine.coherence_stats()["fullClears"] == 1
        assert engine.coherence_stats()["memberClears"] == 0

    def test_member_source_update_scopes_the_clear(self, grid):
        """An unknown-execution update whose source handle names a known
        member drops only that member's dependent plans."""
        engine = grid.fed_engine
        engine.execute(HPL_QUERY)
        engine.execute(PRESTA_QUERY)
        source = "ppg://hpl.pdx.edu:8080/services/HPL/ExecutionFactory/instances/999"
        engine._on_update("data-update", f"999|1|{source}|late publisher")
        stats = engine.coherence_stats()
        assert stats["memberClears"] == 1
        assert stats["fullClears"] == 0
        # the unrelated member's plan survives; the named member's drops
        assert engine.execute(PRESTA_QUERY).cached is True
        assert engine.execute(HPL_QUERY).cached is False


class TestInsertAfterInvalidateRace:
    def test_mid_query_update_discards_result(self, grid, monkeypatch):
        engine = grid.fed_engine
        service = hpl_exec_service(grid)
        # an attribute group key keeps this below tier 0, so the query
        # still fans out and the race can strike mid-flight (the tier-0
        # variant of this race lives in test_fedquery_tier0)
        query = "SELECT count(gflops), max(gflops) FROM HPL GROUP BY numprocs"
        original = engine._collect_tasks

        def racy_collect(plan, stats):
            tasks = original(plan, stats)

            def first_then_update(task=tasks[0]):
                result = task()
                # the store updates while the fan-out is still in flight
                service.data_updated("mid-query")
                return result

            return [first_then_update, *tasks[1:]]

        monkeypatch.setattr(engine, "_collect_tasks", racy_collect)
        result = engine.execute(query)
        assert result.cached is False and result.rows
        monkeypatch.setattr(engine, "_collect_tasks", original)
        # the superseded result was discarded, not cached
        assert engine.execute(query).cached is False
        assert engine.coherence_stats()["staleDiscards"] == 1


class TestDegradedResults:
    def test_one_failing_member_degrades_not_aborts(self, grid, monkeypatch):
        engine = grid.fed_engine

        def broken(*args, **kwargs):
            raise RuntimeError("store connection lost")

        monkeypatch.setattr(hpl_exec_service(grid), "getPRAgg", broken)
        result = engine.execute("SELECT count(gflops) FROM HPL GROUP BY numprocs")
        assert result.stats["errors"] == 1
        assert len(result.errors) == 1 and "store connection lost" in result.errors[0]
        # surviving executions still contribute rows
        assert sum(r["count(gflops)"] for r in result.rows) > 0

    def test_degraded_result_not_cached(self, grid, monkeypatch):
        engine = grid.fed_engine
        text = "SELECT mean(gflops) FROM HPL GROUP BY machine"

        def broken(*args, **kwargs):
            raise RuntimeError("transient")

        monkeypatch.setattr(hpl_exec_service(grid), "getPRAgg", broken)
        assert engine.execute(text).errors
        monkeypatch.undo()
        # the partial answer was not memoized; the retry is complete
        retry = engine.execute(text)
        assert retry.cached is False and not retry.errors
        assert engine.execute(text).cached is True

    def test_all_members_failing_raises(self, grid, monkeypatch):
        engine = grid.fed_engine

        def broken(*args, **kwargs):
            raise RuntimeError("down")

        for exec_id in grid.hpl_site.wrapper.get_all_exec_ids():
            monkeypatch.setattr(
                grid.execution_service("HPL", exec_id), "getPRAgg", broken
            )
        # GROUP BY numprocs: below tier 0, so the fan-out actually runs
        with pytest.raises(QueryError, match="member task"):
            engine.execute("SELECT min(gflops) FROM HPL GROUP BY numprocs")

    def test_query_error_in_task_is_hard_failure(self, grid, monkeypatch):
        engine = grid.fed_engine

        def bad_exec_id(execution):
            raise QueryError("execution publishes no execId")

        monkeypatch.setattr(engine, "_execution_id", bad_exec_id)
        with pytest.raises(QueryError, match="no execId"):
            engine.execute("SELECT sum(gflops) FROM HPL GROUP BY numprocs")


class TestStatsSkipReevaluation:
    """A stats-proven skip must not outlive the statistics behind it.

    The plan never read any of the skipped member's executions, so
    ordinary (app, exec_id) dependency tracking would leave it cached
    forever; the wildcard (app, "*") dependency plus the stats-cache
    invalidation make a ``data_updated`` re-evaluate the skip.
    """

    QUERY = "SELECT count(m) GROUP BY app"

    def _grid(self):
        def result(value: float) -> PerformanceResult:
            return PerformanceResult("m", "/R", "synthetic", 0.0, 1.0, value)

        a = InMemoryWrapper(
            "A", [InMemoryExecution("0", {}, [result(v) for v in (1.0, 2.0)])]
        )
        # B starts empty: its stats prove "m: not recorded" -> skip
        b = InMemoryWrapper("B", [InMemoryExecution("0", {}, [])])
        grid = build_synthetic_grid({"A": a, "B": b})
        engine = grid.deploy_federation()
        return grid, engine, b

    def test_update_reopens_a_stats_proven_skip(self):
        grid, engine, b = self._grid()
        first = engine.execute(self.QUERY)
        assert first.stats["skippedMembers"] == 1
        assert [(r["app"], r["count(m)"]) for r in first.rows] == [("A", 2.0)]
        assert engine.execute(self.QUERY).cached is True

        # the skipped member's store gains m rows, then announces it
        b.executions_data[0].results.append(
            PerformanceResult("m", "/R", "synthetic", 0.0, 1.0, 7.0)
        )
        service = grid.execution_service("B", "0")
        assert service.data_updated("backfilled m") == 1

        stats = engine.coherence_stats()
        assert stats["statsInvalidations"] >= 1  # B's cached stats dropped
        assert stats["invalidations"] >= 1  # ...and the dependent plan

        fresh = engine.execute(self.QUERY)
        assert fresh.cached is False
        assert fresh.stats["skippedMembers"] == 0
        assert [(r["app"], r["count(m)"]) for r in fresh.rows] == [
            ("A", 2.0),
            ("B", 1.0),
        ]

    def test_update_to_unrelated_member_keeps_the_skip(self):
        grid, engine, b = self._grid()
        engine.execute(self.QUERY)
        service = grid.execution_service("A", "0")
        assert service.data_updated("A only") == 1
        # A's update invalidates the plan (it read A), but the re-plan
        # still proves B away — the skip itself was not disturbed
        fresh = engine.execute(self.QUERY)
        assert fresh.cached is False
        assert fresh.stats["skippedMembers"] == 1


class TestRefreshMembers:
    def test_refresh_clears_exec_id_cache(self, grid):
        engine = grid.fed_engine
        engine.execute(HPL_QUERY)
        assert engine._exec_ids  # populated during the fan-out
        engine.refresh_members()
        assert engine._exec_ids == {}
        # re-discovery still answers correctly afterwards
        assert engine.execute("SELECT count(resid) FROM HPL GROUP BY app").rows


class TestDeltaRefresh:
    """A delta refresh refetches only the updated execution's stats and
    re-merges them with the remembered ones; the result is the merge of
    every execution's fresh stats, record for record.  The first update
    after a whole-member fetch refetches every execution (there is no
    per-execution baseline yet); the second refetches one.  HPL's second
    update really changes a value, so a stale part would show."""

    QUERIES = {
        "HPL": "SELECT count(gflops) FROM HPL GROUP BY numprocs",
        "SMG98": "SELECT count(time_spent) FROM SMG98 GROUP BY app",
        "PRESTA-RMA": "SELECT count(latency_us) FROM PRESTA-RMA GROUP BY network",
    }

    @pytest.mark.parametrize("app", sorted(QUERIES))
    def test_update_remerges_per_execution_stats(self, grid, monkeypatch, app):
        engine = grid.fed_engine
        member = engine.members()[app]
        executions = member.all_executions()
        first, last = (engine._execution_id(e) for e in (executions[0], executions[-1]))
        engine.explain(self.QUERIES[app])
        grid.execution_service(app, first).data_updated("ingest")
        engine.explain(self.QUERIES[app])  # the per-execution baseline
        if app == "HPL":
            grid.hpl_site.wrapper.conn.execute(
                "UPDATE hpl_runs SET gflops = ? WHERE runid = ?", [99999.0, int(last)]
            )
        grid.execution_service(app, last).data_updated("ingest")
        member_fetches, exec_fetches = [], []
        fetch, exec_fetch = type(member).get_stats, type(executions[0]).get_stats
        monkeypatch.setattr(
            type(member), "get_stats", lambda self: member_fetches.append(self) or fetch(self)
        )
        monkeypatch.setattr(
            type(executions[0]), "get_stats",
            lambda self: exec_fetches.append(self) or exec_fetch(self),
        )
        deltas = engine.coherence_stats()["statsDeltas"]
        engine.explain(self.QUERIES[app])
        assert engine.coherence_stats()["statsDeltas"] == deltas + 1
        assert member_fetches == []  # the delta branch, not a whole-member refetch
        assert len(exec_fetches) == 1
        merged = engine.coherence.member_stats({app: member}, engine._execution_id)[app]
        fresh = StoreStats.merge([exec_fetch(execution) for execution in executions])
        assert merged.pack_records() == fresh.pack_records()
        if app == "HPL":
            assert merged.metric("gflops").maximum == 99999.0


class TestStatsFetchRace:
    """Cached member statistics are admitted like cached plans: an
    update delivered while the ``getStats`` that produced them was in
    flight supersedes them, so they must not be cached."""

    def test_update_racing_the_first_stats_fetch(self, monkeypatch):
        def result(metric: str) -> PerformanceResult:
            return PerformanceResult(metric, "/R", "synthetic", 0.0, 1.0, 1.0)

        a = InMemoryWrapper("A", [InMemoryExecution("0", {}, [result("m")])])
        grid = build_synthetic_grid({"A": a})
        engine = grid.deploy_federation()
        binding = engine.members()["A"]
        original = binding.get_stats
        fetched = []

        def racy_get_stats():
            stats = original()
            if not fetched:
                # the store gains metric x after the statistics were
                # read, while the fetch is still on its way back
                a.executions_data[0].results.append(result("x"))
                assert grid.execution_service("A", "0").data_updated("x") == 1
            fetched.append(stats)
            return stats

        monkeypatch.setattr(binding, "get_stats", racy_get_stats)
        # planned on the pre-update statistics: this answer may fall on
        # either side of the update, but nothing it read may be cached
        engine.execute("SELECT x")
        second = engine.execute("SELECT x")
        expected = naive_query("SELECT x", engine.members())
        assert len(expected) == 1
        assert second.cached is False
        assert [r.pack() for r in second.rows] == [r.pack() for r in expected]
        third = engine.execute("SELECT x")
        assert third.cached is True
        assert [r.pack() for r in third.rows] == [r.pack() for r in expected]
        assert len(fetched) == 2  # the superseded statistics were refetched

    @pytest.mark.parametrize(
        "scope", [("A", "1"), ("A", None), (None, None)], ids=["exec", "member", "all"]
    )
    def test_stats_superseded_mid_fetch_are_not_cached(self, scope):
        tracker = CoherenceTracker(ByteBudgetLruCache(max_bytes=10**9, capacity=8))

        class Member:
            fetches = 0

            def get_stats(self):
                self.fetches += 1
                if self.fetches == 1:
                    tracker.invalidate(*scope)
                return StoreStats(1, 0.0, 1.0, ("/R",), ("t",), ())

        member = Member()
        for expected_fetches in (1, 2, 2):
            stats = tracker.member_stats({"A": member}, exec_id_of=None)
            assert stats["A"] is not None
            assert member.fetches == expected_fetches


class TestTrackerScopes:
    """One generation table, one invalidation routine: the scope alone
    decides which cached plans drop and which in-flight reads go stale."""

    DEPS = {
        "p1": {("A", "1")},
        "p2": {("A", "*")},
        "p3": {("B", "1")},
    }

    @pytest.mark.parametrize(
        "scope, dropped",
        [
            (("A", "1"), {"p1", "p2"}),
            (("A", None), {"p1", "p2"}),
            ((None, None), {"p1", "p2", "p3"}),
        ],
        ids=["exec", "member", "all"],
    )
    def test_scope_selects_plans_and_stale_snapshots(self, scope, dropped):
        cache = ByteBudgetLruCache(max_bytes=10**9, capacity=8)
        tracker = CoherenceTracker(cache)
        before = tracker.snapshot()
        for fingerprint, deps in self.DEPS.items():
            assert tracker.admit(fingerprint, deps, before, ["row"])
        assert tracker.invalidate(*scope) == len(dropped)
        assert {fp for fp in self.DEPS if not cache.contains(fp)} == dropped
        assert tracker.stats()["invalidations"] == len(dropped)
        # a read that started before the invalidation is stale for
        # exactly the dependency sets the scope covers; a member or
        # full clear also supersedes everything in flight
        in_flight_stale = dropped if scope[1] is not None else set(self.DEPS)
        for fingerprint, deps in self.DEPS.items():
            admitted = tracker.admit(fingerprint + "'", deps, before, ["row"])
            assert admitted is (fingerprint not in in_flight_stale)
        assert tracker.stats()["staleDiscards"] == len(in_flight_stale)
