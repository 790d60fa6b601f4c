"""Failure-injection tests: corrupted messages, dying services,
misbehaving wrappers, hostile inputs at every boundary."""

import threading

import pytest

from repro.core import PPerfGridClient, PPerfGridSite, SiteConfig
from repro.core.execution import ExecutionService
from repro.core.semantic import EXECUTION_PORTTYPE, UNDEFINED_TYPE, PerformanceResult
from repro.datastores import generate_hpl
from repro.experiments.common import build_synthetic_grid
from repro.mapping import HplRdbmsWrapper
from repro.mapping.base import ExecutionWrapper
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper
from repro.ogsi import GridEnvironment, GridServiceHandle
from repro.soap import SoapFault
from repro.soap.rpc import decode_response, encode_request

from tests.leaks import live_cursors


@pytest.fixture()
def env_site():
    env = GridEnvironment()
    site = PPerfGridSite(
        env,
        SiteConfig("s:1", "HPL"),
        HplRdbmsWrapper(generate_hpl(num_executions=4).to_database()),
    )
    return env, site


class TestCorruptedMessages:
    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"garbage",
            b"<?xml version='1.0'?><notsoap/>",
            b"<?xml version='1.0'?><Envelope/>",  # wrong namespace
            "<a>é</a>".encode("utf-16"),  # wrong encoding
        ],
    )
    def test_container_returns_fault_bytes(self, env_site, payload):
        env, site = env_site
        container = env.container_for("s:1")
        response = container.handle_request("services/HPL/ApplicationFactory", payload)
        with pytest.raises(SoapFault) as exc_info:
            decode_response(response)
        assert exc_info.value.code == "Client"

    def test_request_to_nonexistent_path(self, env_site):
        env, site = env_site
        container = env.container_for("s:1")
        request = encode_request("urn:x", "anything", [])
        response = container.handle_request("no/such/path", request)
        with pytest.raises(SoapFault) as exc_info:
            decode_response(response)
        assert "no service at" in exc_info.value.fault_message

    def test_wrong_param_types_fault_not_crash(self, env_site):
        env, site = env_site
        container = env.container_for("s:1")
        # getExecs(int, int) instead of (string, string): the service
        # raises inside the wrapper; the container converts to a fault.
        request = encode_request(
            "http://pperfgrid.cs.pdx.edu/2004", "getNumExecs", []
        )
        path = "services/HPL/ApplicationFactory"
        # Factory doesn't implement getNumExecs: client fault.
        response = container.handle_request(path, request)
        with pytest.raises(SoapFault):
            decode_response(response)


class _ExplodingWrapper(ExecutionWrapper):
    """A wrapper whose data store fails mid-query."""

    def __init__(self, fail_on: str = "get_pr") -> None:
        self.fail_on = fail_on

    def _maybe_fail(self, op: str):
        if op == self.fail_on:
            raise OSError("disk on fire")

    def get_info(self):
        self._maybe_fail("get_info")
        return [("execid", "1")]

    def get_foci(self):
        self._maybe_fail("get_foci")
        return ["/Run"]

    def get_metrics(self):
        self._maybe_fail("get_metrics")
        return ["m"]

    def get_types(self):
        self._maybe_fail("get_types")
        return ["t"]

    def get_time_start_end(self):
        self._maybe_fail("get_time_start_end")
        return (0.0, 1.0)

    def get_pr(self, metric, foci, start, end, result_type):
        self._maybe_fail("get_pr")
        return []


class TestWrapperFailures:
    def test_data_layer_failure_becomes_server_fault(self):
        env = GridEnvironment()
        container = env.create_container("s:1")
        service = ExecutionService(_ExplodingWrapper(), "1")
        gsh = container.deploy("services/exec", service)
        stub = env.stub_for_handle(gsh, EXECUTION_PORTTYPE)
        with pytest.raises(SoapFault) as exc_info:
            stub.getPR("m", ["/Run"], "0", "1", UNDEFINED_TYPE)
        assert exc_info.value.code == "Server"
        assert "disk on fire" in exc_info.value.fault_message

    def test_failed_query_not_cached(self):
        env = GridEnvironment()
        container = env.create_container("s:1")
        wrapper = _ExplodingWrapper()
        service = ExecutionService(wrapper, "1")
        container.deploy("services/exec", service)
        with pytest.raises(OSError):
            service.getPR("m", ["/Run"], "0", "1", UNDEFINED_TYPE)
        # The store recovers; the next query must reach it, not a cache.
        wrapper.fail_on = "never"
        assert service.getPR("m", ["/Run"], "0", "1", UNDEFINED_TYPE) == []
        assert service.cache.stats.hits == 0

    def test_discovery_failure_faults_the_read_not_the_deploy(self):
        env = GridEnvironment()
        container = env.create_container("s:1")
        gsh = container.deploy(
            "services/exec", ExecutionService(_ExplodingWrapper("get_metrics"), "1")
        )
        stub = env.stub_for_handle(gsh, EXECUTION_PORTTYPE)
        # service data is computed when read: the store is asked then
        with pytest.raises(SoapFault, match="disk on fire") as exc_info:
            stub.FindServiceData("metrics")
        assert exc_info.value.code == "Server"
        assert "<value>1</value>" in stub.FindServiceData("execId")


class TestServiceDeathMidSession:
    def test_client_sees_fault_after_remote_destroy(self, env_site):
        env, site = env_site
        client = PPerfGridClient(env)
        app = client.bind(site.factory_url, "HPL")
        execution = app.all_executions()[0]
        execution.get_pr("gflops", ["/Run"])
        # The site tears the instance down (lifetime expiry analog).
        gsh = GridServiceHandle.parse(execution.gsh)
        env.container_for("s:1").service_at(gsh.path).Destroy()
        with pytest.raises(SoapFault):
            execution.get_pr("runtimesec", ["/Run"])

    def test_manager_heals_after_container_loses_instances(self, env_site):
        env, site = env_site
        client = PPerfGridClient(env)
        app = client.bind(site.factory_url, "HPL")
        first = app.all_executions()
        for execution in first:
            gsh = GridServiceHandle.parse(execution.gsh)
            env.container_for("s:1").service_at(gsh.path).Destroy()
        second = app.all_executions()
        assert len(second) == len(first)
        assert all(e.get_pr("gflops", ["/Run"]) for e in second)


class TestHostileQueryInputs:
    def test_sql_injection_via_attribute_value_is_inert(self, env_site):
        env, site = env_site
        client = PPerfGridClient(env)
        app = client.bind(site.factory_url, "HPL")
        # The value is bound as a literal; a quote cannot escape it.
        result = app.query_executions("machine", "x'; DROP TABLE hpl_runs; --")
        assert result == []
        assert app.num_executions() == 4  # table intact

    def test_injection_via_numeric_attribute_faults_cleanly(self, env_site):
        env, site = env_site
        client = PPerfGridClient(env)
        app = client.bind(site.factory_url, "HPL")
        with pytest.raises(SoapFault):
            app.query_executions("numprocs", "1 OR 1=1")
        assert app.num_executions() == 4

    def test_pipe_in_query_value_handled(self, env_site):
        env, site = env_site
        client = PPerfGridClient(env)
        app = client.bind(site.factory_url, "HPL")
        assert app.query_executions("machine", "a|b") == []

    def test_huge_foci_list_rejected_by_wrapper(self, env_site):
        env, site = env_site
        client = PPerfGridClient(env)
        app = client.bind(site.factory_url, "HPL")
        execution = app.all_executions()[0]
        foci = [f"/Bogus/{i}" for i in range(50)]
        # Unknown foci are skipped for HPL (returns nothing), not a crash.
        assert execution.get_pr("gflops", foci) == []

    def test_control_characters_in_strings_roundtrip(self, env_site):
        env, site = env_site
        client = PPerfGridClient(env)
        app = client.bind(site.factory_url, "HPL")
        # Query values with XML-hostile characters survive the SOAP trip.
        assert app.query_executions("machine", "<>&\"'") == []


def _result(metric: str, value: float) -> PerformanceResult:
    return PerformanceResult(metric, "/R", "synthetic", 0.0, 1.0, value)


def _stats_grid():
    """A two-member federation: A records ``m``, B does not.

    With healthy statistics the cost model proves B cannot answer a
    query on ``m`` and skips it; with B's ``getStats`` failing, the only
    sound choice is the pre-cost-model global plan for B.
    """
    a = InMemoryWrapper(
        "A", [InMemoryExecution("0", {}, [_result("m", v) for v in (1.0, 2.0, 3.0)])]
    )
    b = InMemoryWrapper("B", [InMemoryExecution("0", {}, [_result("other", 9.0)])])
    grid = build_synthetic_grid({"A": a, "B": b})
    engine = grid.deploy_federation()
    return grid, engine, b


class TestStatsFetchFailures:
    """A failing member ``getStats`` degrades the plan, never the answer."""

    QUERY = "SELECT count(m) GROUP BY app"

    def test_stats_failure_never_skips_the_member(self, monkeypatch):
        grid, engine, b = _stats_grid()

        def broken():
            raise OSError("stats store on fire")

        monkeypatch.setattr(b, "get_stats", broken)
        result = engine.execute(self.QUERY)
        # the answer is still exact: B contributes nothing because the
        # executor probed its metric vocabulary, not because it was
        # skipped on (unavailable) statistics
        assert [(r["app"], r["count(m)"]) for r in result.rows] == [("A", 3.0)]
        plan = result.plan
        assert plan.skipped == ()
        assert plan.stats_degraded is True
        by_app = {member.app: member for member in plan.members}
        assert by_app["B"].cost.stats_missing is True
        # B fell back to the global mode instead of being skipped
        assert by_app["B"].cost.mode == plan.mode

    def test_degraded_plan_not_cached_until_stats_recover(self, monkeypatch):
        grid, engine, b = _stats_grid()

        def broken():
            raise OSError("transient stats failure")

        monkeypatch.setattr(b, "get_stats", broken)
        assert engine.execute(self.QUERY).cached is False
        # degraded plans are never memoized: the retry re-plans
        assert engine.execute(self.QUERY).cached is False
        monkeypatch.undo()
        healed = engine.execute(self.QUERY)
        assert healed.cached is False
        assert healed.plan.stats_degraded is False
        # the failed fetch was not cached either: fresh stats now prove
        # B cannot contribute, so the healthy plan skips it outright
        assert [skipped.app for skipped in healed.plan.skipped] == ["B"]
        assert engine.execute(self.QUERY).cached is True

    def test_stats_failure_visible_in_explain(self, monkeypatch):
        grid, engine, b = _stats_grid()

        def broken():
            raise OSError("stats store down")

        monkeypatch.setattr(b, "get_stats", broken)
        text = engine.explain(self.QUERY)
        assert "stats unavailable" in text
        assert "skipped" not in text


class TestTenantIsolationUnderFailure:
    """A tenant whose member dies mid-stream leaves no member cursor and
    no thread behind; other tenants' queries proceed undisturbed."""

    def _grid(self):
        def rows(metric, count, base):
            return [
                PerformanceResult(
                    metric, "/R", "s", float(i), float(i + 1), base + i
                )
                for i in range(count)
            ]

        a = InMemoryWrapper(
            "A", [InMemoryExecution("0", {"numprocs": "2"}, rows("m", 20, 0.0))]
        )
        b = InMemoryWrapper(
            "B", [InMemoryExecution("0", {"numprocs": "4"}, rows("m", 20, 100.0))]
        )
        grid = build_synthetic_grid({"A": a, "B": b})
        engine = grid.deploy_federation()
        engine.stream_chunk_rows = 5  # below a read's 20 rows: the cursor path
        return grid, engine

    def test_member_death_mid_stream_releases_slots(self, monkeypatch):
        grid, engine = self._grid()

        def broken(*args, **kwargs):
            raise RuntimeError("member host died")

        monkeypatch.setattr(
            grid.execution_service("B", "0"), "getPRChunked", broken
        )
        before = set(threading.enumerate())
        with engine.execute(
            "SELECT m", stream=True, tenant="victim"
        ) as streamed:
            rows = list(streamed)
        assert {row["app"] for row in rows} == {"A"}
        assert len(streamed.errors) == 1

        # the members were read on this thread, and each read closed
        # with the stream: no cursor and no thread outlive the query
        assert live_cursors(grid) == 0
        assert set(threading.enumerate()) <= before

        # an unrelated tenant's bulk query is unaffected
        result = engine.execute(
            "SELECT m WHERE numprocs = 2", tenant="bystander"
        )
        assert len(result.rows) == 20
        assert not result.errors
        tenants = engine.scheduler_stats()["tenants"]
        assert tenants["bystander"]["completed"] >= 1

    def test_early_close_under_failure_releases_slots(self, monkeypatch):
        grid, engine = self._grid()

        def broken(*args, **kwargs):
            raise RuntimeError("member host died")

        monkeypatch.setattr(
            grid.execution_service("A", "0"), "getPRChunked", broken
        )
        before = set(threading.enumerate())
        streamed = engine.execute("SELECT m", stream=True, tenant="victim")
        next(iter(streamed))  # touch the stream, then abandon it
        streamed.close()
        assert live_cursors(grid) == 0
        assert set(threading.enumerate()) <= before
