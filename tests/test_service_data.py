"""Service data is computed when read.

Every SDE that mirrors live state is a producer registered once, so a
read (by name, by XPath, or over SOAP) always sees the state the owning
component holds now, and no operation pays to keep a copy current: the
write-count guard below pins that the member operations write no
service data beyond a new instance's introspection values.  Also here:
the container monitor's wholesale refresh, and the federation pool's
lifecycle (the engine builds its pool, closing the engine joins it, and
a query starts no thread outside it).
"""

from __future__ import annotations

import threading

import pytest

from repro.core.semantic import PerformanceResult, StoreStats
from repro.experiments.common import build_synthetic_grid
from repro.fedquery.executor import _sde_values
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper
from repro.ogsi.monitor import CONTAINER_MONITOR_PORTTYPE
from repro.ogsi.porttypes import FACTORY_PORTTYPE, GRID_SERVICE_PORTTYPE
from repro.ogsi.servicedata import ServiceDataSet

#: what every deploy writes as plain values; everything else is a producer
INTROSPECTION = {"handle", "reference", "primaryKey", "interfaces", "createdAt"}
FOCI = ["/rank/0", "/rank/1", "/rank/2"]


def _rows(metric: str, count: int, result_type: str = "synthetic") -> list[PerformanceResult]:
    return [
        PerformanceResult(metric, f"/rank/{i % 3}", result_type, float(i), float(i + 1), 1.5 * i)
        for i in range(count)
    ]


@pytest.fixture()
def grid():
    wrapper = InMemoryWrapper(
        "A",
        [
            InMemoryExecution("0", {"numprocs": "2"}, _rows("m", 12)),
            InMemoryExecution("1", {"numprocs": "4"}, _rows("m", 6)),
        ],
    )
    grid = build_synthetic_grid({"A": wrapper})
    yield grid
    grid.environment.close()


def _values(stub, name: str) -> list[str]:
    return _sde_values(stub.FindServiceData(f"name:{name}"))


def _rows_of(records: list[str], metric: str) -> int:
    return StoreStats.unpack_records(records).metric(metric).rows


class TestComputedWhenRead:
    def test_data_updated_new_result_type_shows_in_types_sde(self, grid):
        execution = grid.bind("A").all_executions()[0]
        assert _values(execution.stub, "types") == ["synthetic"]
        grid.sites["A"].wrapper.executions_data[0].results.extend(
            _rows("m", 2, result_type="late")
        )
        grid.execution_service("A", "0").data_updated("a new result type")
        assert _values(execution.stub, "types") == ["late", "synthetic"]
        assert _values(execution.stub, "generation") == ["1"]
        xml = execution.find_service_data("xpath://serviceDataElement[@name='types']/value")
        assert "late" in xml

    def test_execution_store_stats_published_from_first_get_stats(self, grid):
        execution = grid.bind("A").all_executions()[0]
        # an XPath read of every SDE pays no store scan nobody asked for
        assert "storeStats" not in execution.find_service_data("xpath://serviceDataElement")
        assert execution.get_stats().metric("m").rows == 12
        grid.sites["A"].wrapper.executions_data[0].results.extend(_rows("m", 3))
        assert _rows_of(_values(execution.stub, "storeStats"), "m") == 15

    def test_application_store_stats_follow_member_appends(self, grid):
        app = grid.bind("A")
        assert app.get_stats().metric("m").rows == 18
        grid.sites["A"].wrapper.executions_data[1].results.extend(_rows("m", 4))
        # no second Application getStats: the SDE reads the store itself
        assert _rows_of(_values(app.stub, "storeStats"), "m") == 22

    def test_factory_answers_instances_created_before_its_first_creation(self, grid):
        site = grid.sites["A"]
        factory = grid.environment.stub_for_handle(
            site.execution_factory_gsh, FACTORY_PORTTYPE
        )
        assert _values(factory, "instancesCreated") == ["0"]
        factory.CreateService(["1"])
        assert _values(factory, "instancesCreated") == ["1"]

    def test_cursor_progress_is_read_off_the_cursor(self, grid):
        execution = grid.bind("A").all_executions()[0]
        rows = execution.get_pr_chunked("m", FOCI, max_rows=5)
        cursor = grid.environment.stub_for_handle(rows.cursor_handle, GRID_SERVICE_PORTTYPE)
        assert [_values(cursor, name) for name in ("chunksServed", "done")] == [["0"], ["0"]]
        next(rows)
        assert _values(cursor, "chunksServed") == ["1"]
        assert _values(cursor, "rowsServed") == ["5"]
        assert _values(cursor, "done") == ["0"]
        assert _values(cursor, "encoding") == [rows.encoding]
        assert len(list(rows)) == 11  # drained: the cursor closed itself

    def test_wsdl_is_rendered_once_and_only_when_asked(self, grid, monkeypatch):
        import repro.ogsi.service as service_module

        renders = []
        real = service_module.generate_wsdl
        monkeypatch.setattr(
            service_module, "generate_wsdl", lambda *args: renders.append(1) or real(*args)
        )
        execution = grid.bind("A").all_executions()[1]
        assert not renders
        first = execution.find_service_data("wsdl")
        assert execution.find_service_data("wsdl") == first
        assert renders == [1]


class TestWriteCountGuard:
    def test_member_operations_write_no_service_data(self, grid, monkeypatch):
        execution = grid.bind("A").all_executions()[0]
        execution.get_stats()  # the first call registers the storeStats producer
        site = grid.sites["A"]
        factory = grid.environment.stub_for_handle(
            site.execution_factory_gsh, FACTORY_PORTTYPE
        )
        writes: list[str] = []
        real_set = ServiceDataSet.set

        def counted(self, name, values):
            if not callable(values) and name not in INTROSPECTION:
                writes.append(name)
            return real_set(self, name, values)

        monkeypatch.setattr(ServiceDataSet, "set", counted)
        assert len(list(execution.get_pr_chunked("m", FOCI, max_rows=4))) == 12
        assert len(execution.get_pr("m", FOCI)) == 12
        assert execution.get_pr_agg("m", FOCI, group_by="focus")
        assert execution.get_stats().metric("m").rows == 12
        factory.CreateService(["1"])
        grid.execution_service("A", "0").data_updated("no SDE to refresh")
        assert writes == []


class TestMonitorRefresh:
    def test_source_that_fails_once_then_recovers(self):
        from repro.ogsi.container import GridEnvironment

        env = GridEnvironment()
        container = env.create_container("mon:1")
        answer: dict = {"x": 1, "y": 2}

        def flaky():
            if answer is None:
                raise RuntimeError("source down")
            return answer

        gsh = container.deploy_monitor(sources={"flaky": flaky})
        stub = env.stub_for_handle(gsh, CONTAINER_MONITOR_PORTTYPE)
        sdes = env.stub_for_handle(gsh, GRID_SERVICE_PORTTYPE)

        def flaky_records() -> dict[str, str]:
            records = dict(r.split("=", 1) for r in stub.getContainerStats())
            return {k: v for k, v in records.items() if k.startswith("flaky.")}

        assert flaky_records() == {"flaky.x": "1", "flaky.y": "2"}
        answer = None
        # the failure replaces the source's values, it does not sit beside them
        assert flaky_records() == {"flaky.error": "1"}
        assert _values(sdes, "flaky.x") == [] and _values(sdes, "flaky.error") == ["1"]
        answer = {"x": 3}
        assert flaky_records() == {"flaky.x": "3"}
        assert _values(sdes, "flaky.error") == [] and _values(sdes, "flaky.y") == []
        assert _values(sdes, "flaky.x") == ["3"]


class TestFederationPoolLifecycle:
    def test_closing_the_engine_shuts_its_pool_and_joins_the_workers(self, grid):
        engine = grid.deploy_federation()
        assert engine.execute("SELECT m WHERE numprocs = 2").rows
        pool = engine._scheduler
        workers = list(pool._workers)
        assert workers
        grid.fed_engine.close()
        assert pool.is_shutdown
        assert not any(worker.is_alive() for worker in workers)

    def test_a_query_starts_no_reactor(self, grid):
        """The only threads a query leaves behind are the engine's pool
        workers: the grid itself runs no loop of its own."""
        before = set(threading.enumerate())
        engine = grid.deploy_federation()
        assert engine.execute("SELECT m WHERE numprocs = 2").rows
        assert list(engine.execute("SELECT m WHERE numprocs = 4", stream=True))
        assert grid.client.query("SELECT count(m) GROUP BY app")
        started = set(threading.enumerate()) - before
        assert started
        assert started <= engine._scheduler._workers
        engine.close()
