"""Tests for the Manager service: GSH caching and replica distribution."""

import pytest

from repro.core import PPerfGridClient, PPerfGridSite, SiteConfig
from repro.core.manager import ManagerService
from repro.datastores import generate_hpl
from repro.mapping import HplRdbmsWrapper
from repro.ogsi import GridEnvironment, GridServiceHandle


@pytest.fixture()
def replicated_site():
    env = GridEnvironment()
    wrapper = HplRdbmsWrapper(generate_hpl(num_executions=8).to_database())
    site = PPerfGridSite(env, SiteConfig("hostA:1", "HPL"), wrapper)
    site.add_replica("hostB:1")
    client = PPerfGridClient(env)
    return env, site, client


class TestDistribution:
    def test_interleaving_alternates_hosts(self, replicated_site):
        env, site, client = replicated_site
        app = client.bind(site.factory_url, "HPL")
        executions = app.all_executions()
        authorities = [GridServiceHandle.parse(e.gsh).authority for e in executions]
        assert authorities == ["hostA:1", "hostB:1"] * 4

    def test_assignment_counts_balanced(self, replicated_site):
        env, site, client = replicated_site
        app = client.bind(site.factory_url, "HPL")
        app.all_executions()
        counts = list(site.manager.assignment_counts().values())
        assert counts == [4, 4]

    def test_gsh_cache_prevents_recreation(self, replicated_site):
        env, site, client = replicated_site
        app = client.bind(site.factory_url, "HPL")
        first = [e.gsh for e in app.all_executions()]
        created = site.manager.creations
        second = [e.gsh for e in app.all_executions()]
        assert first == second
        assert site.manager.creations == created
        assert site.manager.cache_hits >= len(first)

    def test_subset_query_reuses_cached_instances(self, replicated_site):
        env, site, client = replicated_site
        app = client.bind(site.factory_url, "HPL")
        all_gshs = {e.gsh for e in app.all_executions()}
        subset = app.query_executions("runid", "3")
        assert all(e.gsh in all_gshs for e in subset)

    def test_destroyed_instance_recreated(self, replicated_site):
        env, site, client = replicated_site
        app = client.bind(site.factory_url, "HPL")
        executions = app.all_executions()
        executions[0].destroy()
        refreshed = app.all_executions()
        assert refreshed[0].gsh != executions[0].gsh
        # The fresh instance is live.
        assert refreshed[0].metrics()

    def test_add_replica_duplicate_rejected(self, replicated_site):
        env, site, client = replicated_site
        handle = site.manager.replicas[0].factory_handle
        with pytest.raises(ValueError):
            site.manager.add_replica(handle)

    def test_manager_requires_a_factory(self):
        with pytest.raises(ValueError):
            ManagerService([])

    def test_evict_forces_recreation(self, replicated_site):
        env, site, client = replicated_site
        app = client.bind(site.factory_url, "HPL")
        app.all_executions()
        created = site.manager.creations
        site.manager.evict("1")
        app.all_executions()
        assert site.manager.creations == created + 1

    def test_round_robin_continues_across_calls(self):
        env = GridEnvironment()
        wrapper = HplRdbmsWrapper(generate_hpl(num_executions=6).to_database())
        site = PPerfGridSite(env, SiteConfig("hostA:1", "HPL"), wrapper)
        site.add_replica("hostB:1")
        site.add_replica("hostC:1")
        hosts = []
        for keys in (["1", "2"], ["3", "4", "5"], ["6"]):
            for gsh in site.manager.getExecs(keys):
                hosts.append(GridServiceHandle.parse(gsh).authority)
        assert hosts == ["hostA:1", "hostB:1", "hostC:1"] * 2

    def test_add_replica_restarts_the_rotation(self, replicated_site):
        env, site, client = replicated_site
        site.manager.getExecs(["1"])  # hostA; hostB would be next
        site.add_replica("hostC:1")
        gshs = site.manager.getExecs(["2", "3"])
        assert [GridServiceHandle.parse(g).authority for g in gshs] == ["hostA:1", "hostB:1"]


class TestStatsSnapshot:
    def test_stats_reflect_topology_and_caching(self, replicated_site):
        env, site, client = replicated_site
        app = client.bind(site.factory_url, "HPL")
        app.all_executions()
        app.all_executions()
        stats = site.manager.stats()
        assert stats["replicas"] == 2
        assert stats["creations"] == 8
        assert stats["cache_hits"] >= 8
        assert stats["lookups"] == stats["creations"] + stats["cache_hits"]
        assert 0.0 < stats["hit_rate"] < 1.0
        assert stats["cached_instances"] == 8
        assert stats["instances_per_host"] == {"hostA:1": 4, "hostB:1": 4}

    def test_stats_before_any_query(self, replicated_site):
        env, site, client = replicated_site
        stats = site.manager.stats()
        assert stats["creations"] == 0
        assert stats["hit_rate"] == 0.0
        assert stats["instances_per_host"] == {"hostA:1": 0, "hostB:1": 0}
