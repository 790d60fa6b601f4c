"""FanoutScheduler: pooled fan-out workers and tenant fairness.

The contract under test: one engine-lifetime pool carries every fan-out
(the oracle suites cover the merged bytes; here we cover the pool
mechanics) — fair round-robin across tenants keyed by the request's
``clientId`` header, lazy worker growth with idle reaping, and the
process-wide shared pool behind ``ExecutionQueryPanel.run_queries_parallel``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.client import ExecutionQuery, ExecutionQueryPanel
from repro.core.semantic import PerformanceResult
from repro.experiments.common import build_synthetic_grid
from repro.fedquery import scheduler as scheduler_module
from repro.fedquery.scheduler import (
    DEFAULT_POOL_WORKERS,
    DEFAULT_TENANT,
    FanoutScheduler,
    shared_scheduler,
)
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper
from repro.ogsi.dispatch import MAX_CLIENT_ID_CHARS, client_id_headers


def wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def blocked_worker(sched: FanoutScheduler, tenant: str = DEFAULT_TENANT):
    """Occupy one pool worker until the returned event is set."""
    release = threading.Event()
    started = threading.Event()

    def block():
        started.set()
        release.wait(timeout=10.0)

    future = sched.submit(block, tenant=tenant)
    assert started.wait(timeout=5.0)
    return release, future


class TestFairQueueing:
    def test_round_robin_interleaves_minority_tenant(self):
        sched = FanoutScheduler(max_workers=1)
        try:
            release, blocker = blocked_worker(sched)
            order: list[str] = []
            futures = [
                sched.submit(lambda t=t: order.append(t), tenant=t)
                for t in ["hog", "hog", "hog", "hog", "meek"]
            ]
            release.set()
            for future in futures:
                future.result(timeout=5.0)
            # strict FIFO would run meek last; round-robin admits it
            # right after the flooding tenant's first grant
            assert order == ["hog", "meek", "hog", "hog", "hog"]
        finally:
            sched.shutdown()

    def test_queue_wait_stats_recorded_per_tenant(self):
        sched = FanoutScheduler(max_workers=1)
        try:
            release, _ = blocked_worker(sched, tenant="a")
            future = sched.submit(lambda: None, tenant="a")
            time.sleep(0.05)  # measurable queue wait
            release.set()
            future.result(timeout=5.0)
            tenants = sched.stats()["tenants"]
            assert tenants["a"]["maxWaitMs"] >= 40.0
            assert tenants["a"]["avgWaitMs"] > 0.0
            assert tenants["a"]["completed"] == 2
        finally:
            sched.shutdown()


class TestWorkerLifecycle:
    def test_workers_reused_across_batches(self):
        sched = FanoutScheduler(max_workers=4)
        try:
            for future in [sched.submit(lambda: 1) for _ in range(8)]:
                assert future.result(timeout=5.0) == 1
            created = sched.stats()["workersCreated"]
            assert created <= 4
            for future in [sched.submit(lambda: 2) for _ in range(8)]:
                assert future.result(timeout=5.0) == 2
            assert sched.stats()["workersCreated"] == created
        finally:
            sched.shutdown()

    def test_idle_workers_reaped_and_regrown(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "WORKER_IDLE_S", 0.05)
        sched = FanoutScheduler(max_workers=2)
        try:
            assert sched.submit(lambda: "x").result(timeout=5.0) == "x"
            assert wait_until(lambda: sched.worker_count() == 0, timeout=5.0)
            # the shrunk pool regrows lazily on the next submit
            assert sched.submit(lambda: "y").result(timeout=5.0) == "y"
            assert sched.stats()["workersCreated"] >= 2
        finally:
            sched.shutdown()

    def test_cancelled_future_never_runs(self):
        sched = FanoutScheduler(max_workers=1)
        try:
            release, blocker = blocked_worker(sched)
            ran = threading.Event()
            victim = sched.submit(ran.set)
            assert victim.cancel()
            release.set()
            blocker.result(timeout=5.0)
            assert wait_until(lambda: sched.stats()["cancelled"] == 1)
            assert not ran.is_set()
        finally:
            sched.shutdown()

    def test_task_exception_propagates_via_future(self):
        sched = FanoutScheduler(max_workers=1)
        try:
            def boom():
                raise RuntimeError("kaput")

            with pytest.raises(RuntimeError, match="kaput"):
                sched.submit(boom).result(timeout=5.0)
        finally:
            sched.shutdown()

    def test_shutdown_idempotent_and_cancels_queued(self):
        sched = FanoutScheduler(max_workers=1)
        release, blocker = blocked_worker(sched)
        queued = sched.submit(lambda: None)
        sched.shutdown()
        assert queued.cancelled()
        release.set()
        sched.shutdown()  # idempotent
        with pytest.raises(RuntimeError):
            sched.submit(lambda: None)


class TestSharedScheduler:
    def test_singleton_and_recreation_after_shutdown(self):
        first = shared_scheduler()
        assert shared_scheduler() is first
        first.shutdown()
        second = shared_scheduler()
        assert second is not first
        assert not second.is_shutdown


class _PanelExecution:
    """Minimal Execution-shaped adapter over an InMemoryExecution."""

    def __init__(self, gsh: str, rows: list[PerformanceResult]) -> None:
        self.gsh = gsh
        self._rows = rows

    def get_pr(self, metric, foci, start, end, result_type):
        return [r for r in self._rows if r.metric == metric]


class TestPanelSharedPool:
    def test_parallel_matches_serial_and_reuses_threads(self):
        rows = [
            PerformanceResult("wall", "/R", "s", float(i), float(i + 1), 10.0 * i)
            for i in range(4)
        ]
        panel = ExecutionQueryPanel(
            executions=[_PanelExecution(f"gsh-{i}", rows) for i in range(6)],
            queries=[ExecutionQuery("wall", ["/R"])],
        )
        serial = panel.run_queries()
        pool = shared_scheduler()
        first = panel.run_queries_parallel(max_workers=3)
        created = pool.stats()["workersCreated"]
        second = panel.run_queries_parallel(max_workers=3)
        # the regression under test: repeated panel runs must not build
        # a fresh thread pool per call
        assert pool.stats()["workersCreated"] == created
        assert first == serial
        assert second == serial

    def test_parallel_validates_max_workers(self):
        panel = ExecutionQueryPanel(executions=[], queries=[])
        with pytest.raises(ValueError):
            panel.run_queries_parallel(max_workers=0)


def _grid_rows(metric: str, count: int, base: float) -> list[PerformanceResult]:
    return [
        PerformanceResult(
            metric, "/R", "synthetic", float(i), float(i + 1), base + i * 1.5
        )
        for i in range(count)
    ]


@pytest.fixture()
def fedgrid():
    a = InMemoryWrapper(
        "A",
        [
            InMemoryExecution("0", {"numprocs": "2"}, _grid_rows("m", 10, 100.0)),
            InMemoryExecution("1", {"numprocs": "4"}, _grid_rows("m", 10, 200.0)),
        ],
    )
    b = InMemoryWrapper(
        "B",
        [InMemoryExecution("0", {"numprocs": "8"}, _grid_rows("m", 10, 300.0))],
    )
    grid = build_synthetic_grid({"A": a, "B": b})
    engine = grid.deploy_federation()
    return grid, engine


class TestEngineIntegration:
    def test_engine_reuses_one_pool_across_queries(self, fedgrid):
        grid, engine = fedgrid
        engine.execute("SELECT m WHERE numprocs = 2")
        sched = engine._scheduler
        assert sched is not None
        created = sched.stats()["workersCreated"]
        engine.execute("SELECT m WHERE numprocs = 4")
        engine.execute("SELECT m WHERE numprocs = 8")
        assert engine._scheduler is sched
        assert sched.stats()["workersCreated"] == created

    def test_client_id_header_becomes_the_tenant(self, fedgrid):
        grid, engine = fedgrid
        from repro.fedquery.service import FEDERATED_QUERY_PORTTYPE

        stub = grid.environment.stub_for_handle(
            grid.fed_gsh,
            FEDERATED_QUERY_PORTTYPE,
            headers_provider=client_id_headers("alice"),
        )
        assert stub.query("SELECT m WHERE numprocs = 2")
        tenants = engine.scheduler_stats()["tenants"]
        assert "alice" in tenants
        assert tenants["alice"]["completed"] >= 1

    def test_unusable_client_ids_land_on_default_tenant(self, fedgrid):
        """A whitespace-only id and one past the length cap count as no id."""
        grid, engine = fedgrid
        from repro.fedquery.service import FEDERATED_QUERY_PORTTYPE

        for client_id in ("   ", "x" * (MAX_CLIENT_ID_CHARS + 1)):
            stub = grid.environment.stub_for_handle(
                grid.fed_gsh,
                FEDERATED_QUERY_PORTTYPE,
                headers_provider=client_id_headers(client_id),
            )
            assert stub.query("SELECT m WHERE numprocs = 2")
        assert set(engine.scheduler_stats()["tenants"]) == {DEFAULT_TENANT}

    def test_anonymous_queries_land_on_default_tenant(self, fedgrid):
        grid, engine = fedgrid
        engine.execute("SELECT m WHERE numprocs = 8")
        assert DEFAULT_TENANT in engine.scheduler_stats()["tenants"]

    def test_scheduler_stats_before_first_query_reports_absent_pool(self):
        """Reading stats builds the pool, which starts no thread: every
        worker is still absent."""
        from repro.fedquery.executor import FederationEngine

        engine = FederationEngine(client=None, managers={})
        stats = engine.scheduler_stats()
        assert stats["maxWorkers"] == DEFAULT_POOL_WORKERS
        assert stats["workers"] == 0
        assert stats["submitted"] == 0
        assert stats["tenants"] == {}
        engine.close()

    def test_scheduler_stats_keep_one_shape_across_first_use(self, fedgrid):
        """Monitors flatten these keys into SDEs: the idle pool must
        report exactly the key set the busy pool does."""
        from repro.core.client import PPerfGridClient
        from repro.fedquery.executor import FederationEngine

        grid, _ = fedgrid
        engine = FederationEngine(PPerfGridClient(grid.environment, grid.uddi_gsh))
        try:
            before = engine.scheduler_stats()
            assert engine._pool().worker_count() == 0  # reading stats ran nothing
            engine.execute("SELECT m WHERE numprocs = 2")
            after = engine.scheduler_stats()
            assert after["submitted"] >= 1
            assert set(before) == set(after)
            assert {"enabled", "fair"}.isdisjoint(after)
        finally:
            engine.close()

    def test_monitor_publishes_scheduler_sdes(self, fedgrid):
        grid, engine = fedgrid
        engine.execute("SELECT m WHERE numprocs = 2")
        container = grid.environment.container_for("fed.pdx.edu:9090")
        monitor = container.service_at("services/FederatedQuery/monitor")
        records = dict(
            record.split("=", 1) for record in monitor.getContainerStats()
        )
        assert int(records["fanoutScheduler.submitted"]) >= 1
        assert "fanoutScheduler.queueDepth" in records
        assert f"fanoutScheduler.tenants.{DEFAULT_TENANT}.completed" in records
