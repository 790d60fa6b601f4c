"""Tests for GSHs, service data, the GridService base, factories,
registries, handle maps, and the container dispatch path."""

import functools
import math

import pytest

from repro.ogsi import (
    FACTORY_PORTTYPE,
    GRID_SERVICE_PORTTYPE,
    HANDLE_MAP_PORTTYPE,
    REGISTRY_PORTTYPE,
    ContainerError,
    FactoryService,
    GridEnvironment,
    GridServiceBase,
    GridServiceHandle,
    GshError,
    HandleMapService,
    RegistryService,
    ServiceDataSet,
    ogsi_porttype_table,
)
from repro.simnet.clock import VirtualClock
from repro.soap import SoapFault
from repro.wsdl import Operation, Parameter, PortType
from repro.xmlkit import parse


class TestGsh:
    def test_parse_and_roundtrip(self):
        gsh = GridServiceHandle.parse("ppg://host:8080/services/App/instances/3")
        assert gsh.authority == "host:8080"
        assert gsh.path == "services/App/instances/3"
        assert gsh.url() == "ppg://host:8080/services/App/instances/3"
        assert gsh.endpoint_url() == "http://host:8080/services/App/instances/3"

    def test_instance_id_extraction(self):
        gsh = GridServiceHandle.parse("ppg://h:1/services/App/instances/42")
        assert gsh.instance_id == "42"
        assert gsh.base_service == "services/App"

    def test_non_instance_handle(self):
        gsh = GridServiceHandle.parse("ppg://h:1/services/App")
        assert gsh.instance_id is None
        assert gsh.base_service == "services/App"

    @pytest.mark.parametrize(
        "bad",
        ["http://h:1/x", "ppg://h:1", "ppg:///x", "ppg://h:1//x", "ppg://h:1/x/"],
    )
    def test_invalid_handles(self, bad):
        with pytest.raises(GshError):
            GridServiceHandle.parse(bad)
        assert not GridServiceHandle.is_valid(bad)


class TestServiceData:
    def test_set_get_names(self):
        sds = ServiceDataSet()
        sds.set("single", "value")
        sds.set("multi", ["a", "b"])
        assert sds.get("single").values == ["value"]
        assert sds.names() == ["multi", "single"]

    def test_name_query(self):
        sds = ServiceDataSet()
        sds.set("metrics", ["gflops", "runtimesec"])
        xml = sds.query("metrics")
        root = parse(xml).root
        sde = root.find("serviceDataElement")
        assert sde.get("name") == "metrics"
        assert [v.text() for v in sde.findall("value")] == ["gflops", "runtimesec"]

    def test_name_prefix_query(self):
        sds = ServiceDataSet()
        sds.set("x", "1")
        assert "serviceDataElement" in sds.query("name:x")

    def test_missing_name_gives_empty_result(self):
        xml = ServiceDataSet().query("ghost")
        assert parse(xml).root.children == []

    def test_xpath_query(self):
        sds = ServiceDataSet()
        sds.set("foci", ["/Code/MPI/MPI_Send", "/Process/0"])
        xml = sds.query("xpath://serviceDataElement[@name='foci']/value")
        values = [el.text() for el in parse(xml).root.iter_elements()]
        assert values == ["/Code/MPI/MPI_Send", "/Process/0"]

    def test_bad_xpath_raises(self):
        with pytest.raises(ValueError):
            ServiceDataSet().query("xpath:[[[")

    def test_remove(self):
        sds = ServiceDataSet()
        sds.set("x", "1")
        sds.remove("x")
        assert sds.get("x") is None

    def test_deferred_value_is_produced_by_its_first_read_only(self):
        # a producer that remembers its render, as the WSDL SDE's does
        sds = ServiceDataSet()
        calls = []
        sds.set("big", functools.cache(lambda: calls.append(1) or "rendered"))
        sds.set("small", "1")
        assert sds.names() == ["big", "small"] and not calls
        assert sds.get("small").values == ["1"] and not calls
        assert sds.get("big").values == ["rendered"]
        assert "rendered" in sds.query("name:big") and "rendered" in sds.to_xml()
        assert "rendered" in sds.query("xpath://serviceDataElement[@name='big']/value")
        assert calls == [1]

    def test_producer_runs_on_every_read_and_only_on_a_read(self):
        sds = ServiceDataSet()
        state = {"n": 0}

        def produce():
            state["n"] += 1
            return [str(state["n"])]

        sds.set("live", produce)
        sds.set("small", "1")
        assert sds.names() == ["live", "small"] and "live" in sds
        assert sds.get("small").values == ["1"] and state["n"] == 0
        assert sds.get("live").values == ["1"]
        assert "<value>2</value>" in sds.query("name:live")
        assert "<value>3</value>" in sds.to_xml()
        assert "<value>4</value>" in sds.query(
            "xpath://serviceDataElement[@name='live']/value"
        )

    def test_deferred_value_is_replaced_or_removed_unproduced(self):
        sds = ServiceDataSet()
        sds.set("a", lambda: 1 / 0)
        sds.set("b", lambda: 1 / 0)
        sds.set("a", "now")
        sds.remove("b")
        assert sds.names() == ["a"] and sds.get("a").values == ["now"]
        assert sds.get("b") is None and "<value>" not in sds.query("b")


ECHO_PT = PortType(
    "Echo",
    "urn:echo",
    (Operation("echo", (Parameter("text", "xsd:string"),), "xsd:string"),),
    extends=(GRID_SERVICE_PORTTYPE,),
)


class EchoService(GridServiceBase):
    porttype = ECHO_PT

    def echo(self, text: str) -> str:
        self.require_active()
        return "echo:" + text


class BrokenService(GridServiceBase):
    porttype = PortType(
        "Broken", "urn:b", (Operation("declared_only", (), "void"),)
    )


@pytest.fixture()
def env():
    return GridEnvironment(clock=VirtualClock())


@pytest.fixture()
def container(env):
    return env.create_container("site:8080")


class TestContainer:
    def test_deploy_and_call(self, env, container):
        gsh = container.deploy("services/echo", EchoService())
        stub = env.stub_for_handle(gsh, ECHO_PT)
        assert stub.echo("x") == "echo:x"

    def test_duplicate_path_rejected(self, container):
        container.deploy("services/echo", EchoService())
        with pytest.raises(ContainerError):
            container.deploy("services/echo", EchoService())

    def test_duplicate_authority_rejected(self, env):
        with pytest.raises(ContainerError):
            env.create_container("site:8080")
            env.create_container("site:8080")

    def test_introspection_sdes_seeded(self, env, container):
        service = EchoService()
        gsh = container.deploy("services/echo", service)
        assert service.service_data.get("handle").values == [gsh.url()]
        assert "Echo" in service.service_data.get("interfaces").values
        assert "GridService" in service.service_data.get("interfaces").values

    def test_unknown_operation_is_client_fault(self, env, container):
        from repro.soap.rpc import decode_response, encode_request

        container.deploy("services/echo", EchoService())
        # Craft a request the stub would refuse, to exercise the server check.
        request = encode_request("urn:echo", "frobnicate", [])
        response = container.handle_request("services/echo", request)
        with pytest.raises(SoapFault) as exc_info:
            decode_response(response)
        assert exc_info.value.code == "Client"
        # Wrong arity crafted directly is also a client fault.
        request = encode_request("urn:echo", "echo", [])
        with pytest.raises(SoapFault) as exc_info:
            decode_response(container.handle_request("services/echo", request))
        assert exc_info.value.code == "Client"

    def test_declared_but_unimplemented_is_server_fault(self, env, container):
        gsh = container.deploy("services/broken", BrokenService())
        stub = env.stub_for_handle(gsh, BrokenService.porttype)
        with pytest.raises(SoapFault) as exc_info:
            stub.declared_only()
        assert exc_info.value.code == "Server"

    def test_service_exception_becomes_server_fault(self, env, container):
        class Exploding(EchoService):
            def echo(self, text):
                raise RuntimeError("kaboom")

        gsh = container.deploy("services/boom", Exploding())
        stub = env.stub_for_handle(gsh, ECHO_PT)
        with pytest.raises(SoapFault) as exc_info:
            stub.echo("x")
        assert exc_info.value.code == "Server"
        assert "kaboom" in exc_info.value.fault_message

    def test_garbage_request_is_fault_bytes(self, container):
        response = container.handle_request("services/echo", b"not xml at all")
        assert b"Fault" in response

    def test_grid_service_ops_on_any_service(self, env, container):
        gsh = container.deploy("services/echo", EchoService())
        stub = env.stub_for_handle(gsh, GRID_SERVICE_PORTTYPE)
        xml = stub.FindServiceData("handle")
        assert gsh.url() in xml


class TestLifetime:
    def test_destroy_removes_service(self, env, container):
        gsh = container.deploy("services/echo", EchoService())
        stub = env.stub_for_handle(gsh, ECHO_PT)
        stub.Destroy()
        assert not container.has_service(gsh)
        with pytest.raises(SoapFault):
            stub.echo("x")

    def test_set_termination_time(self, env, container):
        service = EchoService()
        container.deploy("services/echo", service)
        assert service.SetTerminationTime(100.0) == 100.0
        assert service.termination_time == 100.0
        assert service.SetTerminationTime(0.0) == 0.0
        assert math.isinf(service.termination_time)

    def test_sweep_expired(self, env, container):
        clock = env.clock
        service = EchoService()
        gsh = container.deploy("services/echo", service)
        service.SetTerminationTime(50.0)
        clock.advance(49.0)
        assert container.sweep_expired() == 0
        clock.advance(2.0)
        assert container.sweep_expired() == 1
        assert not container.has_service(gsh)

    def test_factory_grants_lifetime(self, env, container):
        factory = FactoryService(lambda params: EchoService(), instance_lifetime=10.0)
        container.deploy("services/factory", factory)
        stub = env.stub_for_handle("ppg://site:8080/services/factory", FACTORY_PORTTYPE)
        gsh = stub.CreateService([])
        instance = container.service_at(GridServiceHandle.parse(gsh).path)
        assert instance.termination_time == pytest.approx(env.clock.now() + 10.0)


class TestFactory:
    def test_instances_get_unique_paths(self, env, container):
        factory = FactoryService(lambda params: EchoService())
        container.deploy("services/factory", factory)
        stub = env.stub_for_handle("ppg://site:8080/services/factory", FACTORY_PORTTYPE)
        g1, g2 = stub.CreateService([]), stub.CreateService([])
        assert g1 != g2
        assert factory.created_count == 2
        assert factory.service_data.get("instancesCreated").values == ["2"]

    def test_creation_parameters_forwarded(self, env, container):
        seen = []

        def builder(params):
            seen.append(params)
            return EchoService()

        container.deploy("services/factory", FactoryService(builder))
        stub = env.stub_for_handle("ppg://site:8080/services/factory", FACTORY_PORTTYPE)
        stub.CreateService(["exec-42"])
        assert seen == [["exec-42"]]

    def test_undeployed_factory_rejects(self):
        factory = FactoryService(lambda params: EchoService())
        with pytest.raises(RuntimeError):
            factory.CreateService([])


class TestRegistry:
    def test_register_find_unregister(self, env, container):
        gsh = container.deploy("services/registry", RegistryService())
        stub = env.stub_for_handle(gsh, REGISTRY_PORTTYPE)
        stub.RegisterService("ppg://a:1/x", ["ServiceA"], 0.0)
        stub.RegisterService("ppg://a:1/y", ["OtherB"], 0.0)
        assert stub.FindServices("Service%") == ["ppg://a:1/x"]
        assert len(stub.FindServices("%")) == 2
        stub.UnregisterService("ppg://a:1/x")
        assert stub.FindServices("Service%") == []

    def test_soft_state_expiry(self, env, container):
        registry = RegistryService()
        container.deploy("services/registry", registry)
        registry.RegisterService("ppg://a:1/x", ["A"], 10.0)
        env.clock.advance(11.0)
        assert registry.live_count() == 0

    def test_refresh_extends_lifetime(self, env, container):
        registry = RegistryService()
        container.deploy("services/registry", registry)
        registry.RegisterService("ppg://a:1/x", ["A"], 10.0)
        env.clock.advance(8.0)
        registry.RegisterService("ppg://a:1/x", ["A"], 10.0)
        env.clock.advance(8.0)
        assert registry.live_count() == 1

    def test_empty_handle_rejected(self, container):
        registry = RegistryService()
        container.deploy("services/registry", registry)
        with pytest.raises(ValueError):
            registry.RegisterService("", ["A"], 0.0)


class TestHandleMap:
    def test_resolves_live_service(self, env, container):
        gsh = container.deploy("services/echo", EchoService())
        hm_gsh = container.deploy("services/handlemap", HandleMapService(env))
        stub = env.stub_for_handle(hm_gsh, HANDLE_MAP_PORTTYPE)
        assert stub.FindByHandle(gsh.url()) == gsh.endpoint_url()

    def test_stale_handle_faults(self, env, container):
        hm_gsh = container.deploy("services/handlemap", HandleMapService(env))
        stub = env.stub_for_handle(hm_gsh, HANDLE_MAP_PORTTYPE)
        with pytest.raises(SoapFault):
            stub.FindByHandle("ppg://site:8080/services/ghost")


class TestPortTypeTable:
    def test_table3_rows_match_thesis(self):
        rows = ogsi_porttype_table()
        pairs = {(pt, op) for pt, op, _ in rows}
        for expected in [
            ("GridService", "FindServiceData"),
            ("GridService", "SetTerminationTime"),
            ("GridService", "Destroy"),
            ("NotificationSource", "SubscribeToNotificationTopic"),
            ("NotificationSink", "DeliverNotification"),
            ("Registry", "RegisterService"),
            ("Registry", "UnregisterService"),
            ("Factory", "CreateService"),
            ("HandleMap", "FindByHandle"),
        ]:
            assert expected in pairs
        assert all(doc for _, _, doc in rows)
