"""StubPool: keyed, TTL'd client-stub caching in the binding layer.

The contract under test: a pool hit skips handle validation and stub
construction entirely; TTL expiry forces a liveness re-validation
through the normal bind; ``refresh_members()`` and bind faults
invalidate; identity-stamped stubs (``headers_provider``) bypass the
pool; destroyed instances drop their pooled bindings; and the dynamic
WSDL path pays its fetch+parse once per TTL window.
"""

from __future__ import annotations

import pytest

from repro.core.semantic import PerformanceResult
from repro.experiments.common import build_synthetic_grid
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper
from repro.ogsi.container import DEFAULT_STUB_TTL_S, GridEnvironment, StubPool
from repro.ogsi.dispatch import client_id_headers
from repro.ogsi.gsh import GshError
from repro.simnet.clock import VirtualClock

from tests.test_dispatch import deploy_echo


@pytest.fixture()
def env_echo():
    env = GridEnvironment()
    container = env.create_container("c:1")
    service, gsh = deploy_echo(container)
    return env, container, service, gsh


class TestStubPoolUnit:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            StubPool(ttl=0)
        with pytest.raises(ValueError):
            StubPool(capacity=0)

    def test_ttl_expiry_counts_and_misses(self):
        clock = VirtualClock()
        pool = StubPool(ttl=10.0, clock=clock)
        pool.put(("u", "P"), object())
        clock.advance(9.9)
        assert pool.get(("u", "P")) is not None
        clock.advance(0.1)
        assert pool.get(("u", "P")) is None
        stats = pool.stats()
        assert stats["expirations"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_capacity_evicts_lru(self):
        pool = StubPool(capacity=2)
        pool.put(("a", "P"), 1)
        pool.put(("b", "P"), 2)
        assert pool.get(("a", "P")) == 1  # refresh a's recency
        pool.put(("c", "P"), 3)  # evicts b
        assert pool.get(("b", "P")) is None
        assert pool.get(("a", "P")) == 1
        assert pool.stats()["evictions"] == 1

    def test_invalidate_drops_every_porttype_for_handle(self):
        pool = StubPool()
        pool.put(("u", "P"), 1)
        pool.put(("u", "Q"), 2)
        pool.put(("v", "P"), 3)
        assert pool.invalidate("u") == 2
        assert len(pool) == 1
        assert pool.stats()["invalidations"] == 2


class TestPooledBind:
    def test_hit_returns_same_stub(self, env_echo):
        env, container, service, gsh = env_echo
        first = env.pooled_stub_for_handle(gsh, service.porttype)
        second = env.pooled_stub_for_handle(gsh, service.porttype)
        assert second is first
        assert env.stub_pool.stats()["hits"] == 1
        assert first.ping("x") == "x"

    def test_headers_provider_bypasses_pool(self, env_echo):
        env, container, service, gsh = env_echo
        stamped = env.pooled_stub_for_handle(
            gsh, service.porttype, headers_provider=client_id_headers("alice")
        )
        assert stamped.ping("x") == "x"
        assert len(env.stub_pool) == 0

    def test_bind_fault_invalidates_handle(self, env_echo):
        env, container, service, gsh = env_echo
        env.pooled_stub_for_handle(gsh, service.porttype)
        assert len(env.stub_pool) == 1
        before = env.stub_pool.stats()["invalidations"]
        with pytest.raises(GshError):
            env.pooled_stub_for_handle(str(gsh) + "dead", service.porttype)
        assert env.stub_pool.stats()["invalidations"] == before
        # the live handle's entry survives an unrelated handle's fault
        assert len(env.stub_pool) == 1

    def test_expired_entry_revalidates_liveness(self):
        clock = VirtualClock()
        env = GridEnvironment(clock=clock)
        container = env.create_container("c:1")
        service, gsh = deploy_echo(container)
        stale = env.pooled_stub_for_handle(gsh, service.porttype)
        container.remove_service(gsh)
        # inside the TTL the pooled stub still answers the bind...
        assert env.pooled_stub_for_handle(gsh, service.porttype) is stale
        clock.advance(DEFAULT_STUB_TTL_S)
        # a fresh bind now sees the dead service instead of answering
        # from a stale pooled stub
        with pytest.raises(GshError):
            env.pooled_stub_for_handle(gsh, service.porttype)
        assert stale is not None


def _rows(metric: str, count: int) -> list[PerformanceResult]:
    return [
        PerformanceResult(metric, "/R", "s", float(i), float(i + 1), float(i))
        for i in range(count)
    ]


class TestFederationStubReuse:
    def test_repeat_queries_hit_the_pool(self):
        a = InMemoryWrapper(
            "A", [InMemoryExecution("0", {"numprocs": "2"}, _rows("m", 5))]
        )
        grid = build_synthetic_grid({"A": a})
        engine = grid.deploy_federation()
        engine.execute("SELECT m WHERE numprocs = 2")
        hits_before = grid.environment.stub_pool.stats()["hits"]
        engine.plan_cache.clear()
        engine.refresh_members()  # wholesale invalidation...
        assert len(grid.environment.stub_pool) == 0
        engine.execute("SELECT m WHERE numprocs = 2")
        engine.plan_cache.clear()
        engine.execute("SELECT m WHERE numprocs = 2")
        # ...and the rebuilt entries serve the second pass from the pool
        assert grid.environment.stub_pool.stats()["hits"] > hits_before

    def test_destroyed_binding_drops_pooled_stub(self):
        a = InMemoryWrapper(
            "A", [InMemoryExecution("0", {"numprocs": "2"}, _rows("m", 5))]
        )
        grid = build_synthetic_grid({"A": a})
        binding = grid.client.bind(
            next(
                service
                for org in grid.client.discover_organizations("%")
                for service in org.services()
            )
        )
        url = binding.gsh if isinstance(binding.gsh, str) else str(binding.gsh)
        before = grid.environment.stub_pool.stats()["invalidations"]
        binding.destroy()
        assert grid.environment.stub_pool.stats()["invalidations"] > before
        assert grid.environment.stub_pool.invalidate(url) == 0  # already gone
