"""Tests for the Application and Execution Grid services over the wire."""

import pytest

from repro.core.semantic import UNDEFINED_TYPE, PerformanceResult
from repro.soap import SoapFault


@pytest.fixture(scope="module")
def hpl_app(shared_grid):
    return shared_grid.bind("HPL")


@pytest.fixture(scope="module")
def smg_app(shared_grid):
    return shared_grid.bind("SMG98")


class TestApplicationService:
    def test_app_info_pipe_format(self, hpl_app):
        raw = hpl_app.stub.getAppInfo()
        assert all("|" in record for record in raw)
        assert hpl_app.app_info()["name"] == "HPL"

    def test_num_execs(self, hpl_app, shared_grid):
        assert hpl_app.num_executions() == shared_grid.scale.hpl_executions

    def test_exec_query_params_format(self, hpl_app):
        raw = hpl_app.stub.getExecQueryParams()
        parsed = hpl_app.exec_query_params()
        assert len(raw) == len(parsed)
        assert "numprocs" in parsed
        assert all(parsed[attr] for attr in parsed)

    def test_get_all_execs_returns_gshs(self, hpl_app, shared_grid):
        handles = hpl_app.stub.getAllExecs()
        assert len(handles) == shared_grid.scale.hpl_executions
        assert all(h.startswith("ppg://") for h in handles)
        assert len(set(handles)) == len(handles)  # GSH uniqueness

    def test_get_execs_by_attribute(self, hpl_app):
        params = hpl_app.exec_query_params()
        value = params["numprocs"][0]
        executions = hpl_app.query_executions("numprocs", value)
        assert executions
        for execution in executions:
            assert execution.info()["numprocs"] == value

    def test_get_execs_operator_extension(self, hpl_app):
        lt = hpl_app.query_executions("numprocs", "16", "<")
        ge = hpl_app.query_executions("numprocs", "16", ">=")
        assert len(lt) + len(ge) == hpl_app.num_executions()

    def test_or_semantics_of_successive_queries(self, hpl_app):
        # "A group of subsequent queries would be similar to stringing
        # 'OR' terms together" (§5.3.1.2) — the panel dedups by GSH.
        from repro.core import ApplicationQueryPanel

        panel = ApplicationQueryPanel()
        panel.add_query(hpl_app, "numprocs", "16")
        panel.add_query(hpl_app, "numprocs", "16")  # duplicate query
        merged = panel.run_queries()
        assert len(merged) == len(hpl_app.query_executions("numprocs", "16"))

    def test_bad_attribute_is_fault(self, hpl_app):
        with pytest.raises(SoapFault):
            hpl_app.query_executions("bogus", "1")


class TestExecutionService:
    def test_discovery_operations(self, smg_app):
        execution = smg_app.all_executions()[0]
        assert "/Messages" in execution.foci()
        assert "time_spent" in execution.metrics()
        assert execution.types() == ["vampir"]
        start, end = execution.time_range()
        assert 0.0 == start < end

    def test_info_pipe_format(self, smg_app):
        execution = smg_app.all_executions()[0]
        info = execution.info()
        assert info["execid"] == "1"

    def test_get_pr_returns_packed_strings(self, smg_app):
        execution = smg_app.all_executions()[0]
        t0, t1 = execution.time_range()
        raw = execution.stub.getPR(
            "time_spent", ["/Code/SMG/smg_relax"], repr(t0), repr(t1), UNDEFINED_TYPE
        )
        assert raw
        parsed = [PerformanceResult.unpack(r) for r in raw]
        assert all(p.metric == "time_spent" for p in parsed)

    def test_get_pr_defaults_to_full_range(self, smg_app):
        execution = smg_app.all_executions()[0]
        explicit = execution.get_pr(
            "time_spent", ["/Code/SMG/smg_relax"], *execution.time_range()
        )
        defaulted = execution.get_pr("time_spent", ["/Code/SMG/smg_relax"])
        assert len(explicit) == len(defaulted)

    def test_get_pr_type_mismatch_empty(self, smg_app):
        execution = smg_app.all_executions()[0]
        assert execution.get_pr("time_spent", ["/Code/SMG/smg_relax"], result_type="hpl") == []

    def test_bad_time_bound_is_fault(self, smg_app):
        execution = smg_app.all_executions()[0]
        with pytest.raises(SoapFault):
            execution.stub.getPR("time_spent", ["/Code/SMG/smg_relax"], "zero", "1", "UNDEFINED")

    def test_unknown_metric_is_fault(self, smg_app):
        execution = smg_app.all_executions()[0]
        with pytest.raises(SoapFault):
            execution.get_pr("watts", ["/Messages"])

    def test_sdes_expose_discovery_data(self, smg_app):
        execution = smg_app.all_executions()[0]
        xml = execution.find_service_data("metrics")
        assert "time_spent" in xml
        xml = execution.find_service_data("xpath://serviceDataElement[@name='types']/value")
        assert "vampir" in xml

    def test_destroy_then_query_faults(self, fresh_grid):
        app = fresh_grid.bind("HPL")
        execution = app.all_executions()[0]
        execution.destroy()
        with pytest.raises(SoapFault):
            execution.metrics()


class TestExecutionCaching:
    def test_cache_hit_skips_mapping(self, fresh_grid):
        app = fresh_grid.bind("HPL")
        execution = app.all_executions()[0]
        mapping_timer = fresh_grid.environment.recorder.timer("mapping.getPR")
        execution.get_pr("gflops", ["/Run"])
        count_after_first = mapping_timer.count
        execution.get_pr("gflops", ["/Run"])
        assert mapping_timer.count == count_after_first  # no new mapping call

    def test_different_params_miss(self, fresh_grid):
        app = fresh_grid.bind("HPL")
        execution = app.all_executions()[0]
        mapping_timer = fresh_grid.environment.recorder.timer("mapping.getPR")
        execution.get_pr("gflops", ["/Run"])
        execution.get_pr("runtimesec", ["/Run"])
        assert mapping_timer.count == 2

    def test_announce_update_invalidates_cache(self, fresh_grid):
        app = fresh_grid.bind("HPL")
        execution = app.all_executions()[0]
        exec_id = execution.info()["runid"]
        before = execution.get_pr("gflops", ["/Run"])[0].value
        # Mutate the store under the service.
        fresh_grid.hpl_site.wrapper.conn.execute(
            "UPDATE hpl_runs SET gflops = ? WHERE runid = ?", [123.456, int(exec_id)]
        )
        # Cached value still served.
        assert execution.get_pr("gflops", ["/Run"])[0].value == before
        container = fresh_grid.environment.container_for("hpl.pdx.edu:8080")
        for path in container.service_paths():
            service = container.service_at(path)
            if getattr(service, "exec_id", None) == exec_id:
                service.data_updated("test")
        assert execution.get_pr("gflops", ["/Run"])[0].value == 123.456

    def test_default_cache_stays_bounded_under_literal_varying_queries(self):
        """Cache keys carry the value bounds, so a dashboard that varies
        a numeric literal adds one never-hit entry per query: an
        Execution that was configured no cache must not keep them all."""
        from repro.core.prcache import DEFAULT_PR_CACHE_ENTRIES
        from repro.experiments.common import build_synthetic_grid
        from repro.mapping.memory import InMemoryExecution, InMemoryWrapper

        rows = [
            PerformanceResult("m", "/f", "synthetic", 0.0, 1.0, float(v)) for v in range(40)
        ]
        grid = build_synthetic_grid({"A": InMemoryWrapper("A", [InMemoryExecution("0", {}, rows)])})
        try:
            execution = grid.client.bind(grid.sites["A"].factory_url).all_executions()[0]
            cache = grid.execution_service("A", "0").cache

            def count_at_least(bound: float) -> int:
                return execution.get_pr_agg("m", ["/f"], 0.0, 1.0, min_value=bound)[0].count

            for k in range(1, 501):
                assert count_at_least(20 + k / 1000) == 19
            assert len(cache) <= DEFAULT_PR_CACHE_ENTRIES
            assert cache.stats.evictions >= 500 - DEFAULT_PR_CACHE_ENTRIES > 0
            hits = cache.stats.hits
            assert count_at_least(20.75) == 19  # the 501st distinct bound
            assert count_at_least(20.5) == 19  # a recent one, still resident
            assert cache.stats.hits == hits + 1
        finally:
            grid.environment.close()


class TestResidentCache:
    """An Execution's PR cache holds at most its entry bound of distinct
    answers (none when caching is off), and a data update or a Destroy
    empties it."""

    @staticmethod
    def _execution(grid):
        """(binding, service) of one HPL execution."""
        execution = grid.bind("HPL").all_executions()[0]
        return execution, grid.execution_service("HPL", execution.info()["runid"])

    @staticmethod
    def _distinct_queries(execution, count: int) -> None:
        for k in range(count):
            execution.get_pr("gflops", ["/Run"], 0.0, 1e9 + k)

    def test_a_null_cache_holds_nothing(self):
        from repro.experiments.common import GridScale, build_grid

        grid = build_grid(GridScale.tiny(), caching=False)
        try:
            execution, service = self._execution(grid)
            self._distinct_queries(execution, 300)
            assert len(service.cache) == 0
        finally:
            grid.cleanup()

    def test_a_capacity_bound_keeps_the_last_eight(self):
        from repro.core.prcache import ByteBudgetLruCache
        from repro.experiments.common import GridScale, build_grid

        grid = build_grid(GridScale.tiny())
        try:
            execution, service = self._execution(grid)
            service.cache = ByteBudgetLruCache(max_bytes=10**9, capacity=8)
            self._distinct_queries(execution, 50)
            assert len(service.cache) == 8 and service.cache.stats.evictions == 42
        finally:
            grid.cleanup()

    def test_data_updated_and_destroy_empty_the_cache(self):
        from repro.experiments.common import GridScale, build_grid

        grid = build_grid(GridScale.tiny())
        try:
            execution, service = self._execution(grid)
            self._distinct_queries(execution, 300)
            assert len(service.cache) == 300
            service.data_updated("ingest")
            assert len(service.cache) == 0
            self._distinct_queries(execution, 5)
            assert len(service.cache) == 5
            service.Destroy()
            assert len(service.cache) == 0
        finally:
            grid.cleanup()
