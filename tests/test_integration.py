"""End-to-end integration scenarios across the whole stack."""

import pytest

from repro.core import (
    ExecutionQuery,
    ExecutionQueryPanel,
    PPerfGridClient,
    PPerfGridSite,
    SiteConfig,
)
from repro.core.semantic import PerformanceResult
from repro.datastores import XmlStore, generate_hpl
from repro.gsi import CertificateAuthority, make_verifier, signature_header_provider
from repro.mapping import HplRdbmsWrapper, HplXmlWrapper
from repro.ogsi import GridEnvironment, GridServiceHandle, PullNotificationSink
from repro.simnet.clock import VirtualClock
from repro.uddi import UddiClient, UddiRegistryServer


class TestFigure3Workflow:
    """The full component-interaction sequence of thesis Figure 3."""

    def test_full_walkthrough(self, fresh_grid):
        grid = fresh_grid
        # 1a/1b: client logs into registry, gets Application factory handles.
        orgs = grid.client.discover_organizations("%")
        services = orgs[0].services()
        hpl_service = next(s for s in services if s.name == "HPL")
        # 2a-2c: bind to factory, CreateService, get instance handle.
        app = grid.client.bind(hpl_service)
        assert GridServiceHandle.is_valid(app.gsh)
        # 3a-3i: query Application for Executions -> Execution GSHs.
        params = app.exec_query_params()
        value = params["numprocs"][0]
        executions = app.query_executions("numprocs", value)
        assert executions
        # 4a-4f: bind to Execution instances, query Performance Results.
        for execution in executions:
            results = execution.get_pr("gflops", ["/Run"])
            assert len(results) == 1
            assert isinstance(results[0], PerformanceResult)

    def test_transport_byte_accounting_is_live(self, fresh_grid):
        recorder = fresh_grid.environment.recorder
        before = recorder.bytes_total
        app = fresh_grid.bind("HPL")
        app.num_executions()
        assert recorder.bytes_total > before


class TestHeterogeneousUniformView:
    """Same content behind different formats gives identical answers."""

    def test_rdbms_and_xml_sites_agree_over_the_wire(self):
        env = GridEnvironment()
        registry = env.create_container("reg:1")
        uddi_gsh = registry.deploy("services/uddi", UddiRegistryServer())
        uddi = UddiClient.connect(env, uddi_gsh)
        org = uddi.publish_organization("Org", "", "")

        hpl = generate_hpl(seed=21, num_executions=10)
        site_a = PPerfGridSite(
            env, SiteConfig("a:1", "HPL-RDBMS"), HplRdbmsWrapper(hpl.to_database())
        )
        site_b = PPerfGridSite(
            env, SiteConfig("b:1", "HPL-XML"), HplXmlWrapper(XmlStore(hpl.to_xml()))
        )
        site_a.publish(uddi, org)
        site_b.publish(uddi, org)

        client = PPerfGridClient(env, uddi_gsh.url())
        bindings = {}
        for service in client.discover_organizations()[0].services():
            bindings[service.name] = client.bind(service)

        a, b = bindings["HPL-RDBMS"], bindings["HPL-XML"]
        assert a.num_executions() == b.num_executions()
        ea = a.all_executions()
        eb = b.all_executions()
        for xa, xb in zip(ea[:5], eb[:5]):
            ra = xa.get_pr("gflops", ["/Run"])[0]
            rb = xb.get_pr("gflops", ["/Run"])[0]
            assert ra.value == rb.value

    def test_cross_site_query_panel(self, fresh_grid):
        hpl = fresh_grid.bind("HPL")
        smg = fresh_grid.bind("SMG98")
        panel = ExecutionQueryPanel(
            executions=hpl.all_executions()[:2] + smg.all_executions()[:1]
        )
        # Metric known to one site is unknown to the other: the wrapper
        # faults for HPL, so query each metric only where it exists.
        panel.add_query(ExecutionQuery("gflops", ["/Run"], result_type="hpl"))
        results = panel.run_queries()
        hpl_hits = [prs for prs in results.values() if prs]
        assert len(hpl_hits) == 0 or all(
            p.metric == "gflops" for prs in hpl_hits for p in prs
        )


class TestSecureFederation:
    def test_mixed_secured_and_open_sites(self):
        clock = VirtualClock()
        env = GridEnvironment(clock=clock)
        ca = CertificateAuthority()
        hpl = generate_hpl(seed=3, num_executions=4)
        open_site = PPerfGridSite(
            env, SiteConfig("open:1", "HPL"), HplRdbmsWrapper(hpl.to_database())
        )
        secure_site = PPerfGridSite(
            env, SiteConfig("sec:1", "HPL"), HplRdbmsWrapper(hpl.to_database())
        )
        env.container_for("sec:1").verifier = make_verifier(ca, clock)

        client = PPerfGridClient(env)
        open_app = client.bind(open_site.factory_url, "HPL")
        assert open_app.num_executions() == 4

        from repro.soap import SoapFault

        with pytest.raises(SoapFault):
            client.bind(secure_site.factory_url, "HPL")

        user = ca.issue("/CN=user")
        headers = signature_header_provider(user)
        from repro.core.semantic import APPLICATION_PORTTYPE
        from repro.ogsi.porttypes import FACTORY_PORTTYPE

        factory = env.stub_for_handle(secure_site.factory_url, FACTORY_PORTTYPE, headers)
        gsh = factory.CreateService([])
        app_stub = env.stub_for_handle(gsh, APPLICATION_PORTTYPE, headers)
        assert app_stub.getNumExecs() == 4


class TestStreamingUpdateScenario:
    def test_pull_subscriber_sees_updates_and_fresh_data(self, fresh_grid):
        env = fresh_grid.environment
        app = fresh_grid.bind("HPL")
        execution = app.all_executions()[0]
        exec_id = execution.info()["runid"]

        sink = PullNotificationSink()
        client_container = env.create_container("client:1")
        sink_gsh = client_container.deploy("services/sink", sink)
        execution.subscribe("data-update", sink_gsh.url())

        old_value = execution.get_pr("gflops", ["/Run"])[0].value
        fresh_grid.hpl_site.wrapper.conn.execute(
            "UPDATE hpl_runs SET gflops = gflops + 1 WHERE runid = ?", [int(exec_id)]
        )
        container = env.container_for("hpl.pdx.edu:8080")
        for path in container.service_paths():
            service = container.service_at(path)
            if getattr(service, "exec_id", None) == exec_id:
                service.data_updated("recalibrated")
        messages = sink.poll()
        assert messages and messages[0][0] == "data-update"
        assert execution.get_pr("gflops", ["/Run"])[0].value == pytest.approx(
            old_value + 1
        )


class TestLifetimeIntegration:
    def test_expired_instances_swept_and_manager_recovers(self):
        clock = VirtualClock()
        env = GridEnvironment(clock=clock)
        site = PPerfGridSite(
            env,
            SiteConfig("s:1", "HPL", instance_lifetime=60.0),
            HplRdbmsWrapper(generate_hpl(num_executions=3).to_database()),
        )
        client = PPerfGridClient(env)
        app = client.bind(site.factory_url, "HPL")
        first = app.all_executions()
        clock.advance(120.0)
        swept = env.sweep_expired()
        assert swept >= len(first) + 1  # executions + the app instance
        # Rebind and requery: Manager detects dead instances, recreates.
        app2 = client.bind(site.factory_url, "HPL")
        second = app2.all_executions()
        assert len(second) == 3
        assert {e.gsh for e in second}.isdisjoint({e.gsh for e in first})
        assert second[0].get_pr("gflops", ["/Run"])
