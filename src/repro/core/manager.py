"""The PPerfGrid Manager (thesis §5.3.1.4).

The Manager is a *non-transient, internal* Grid service: clients never
talk to it, Application service instances do (as Grid-service clients
themselves).  It does two things:

1. **Instance caching** — Execution service instances are expensive to
   create, so the Manager keeps a hash table from unique execution ID to
   the GSH of an already-created instance.
2. **Replica distribution** — when a data source is replicated on
   several hosts, uncached instance creations interleave across the
   replica Execution Factories ("ID 1 on Host A, ID 2 on host B, ...").
"""

from __future__ import annotations

from repro.core.semantic import MANAGER_PORTTYPE
from repro.ogsi.gsh import GridServiceHandle
from repro.ogsi.porttypes import FACTORY_PORTTYPE
from repro.ogsi.service import GridServiceBase


class _Replica:
    """One replica Execution Factory known to the Manager."""

    def __init__(self, factory_handle: str) -> None:
        self.factory_handle = factory_handle
        self.gsh = GridServiceHandle.parse(factory_handle)
        self.assigned = 0


class ManagerService(GridServiceBase):
    """GSH cache plus replica distribution."""

    porttype = MANAGER_PORTTYPE

    def __init__(self, factory_handles: list[str]) -> None:
        super().__init__()
        if not factory_handles:
            raise ValueError("a Manager needs at least one Execution Factory")
        self.replicas = [_Replica(h) for h in factory_handles]
        #: round-robin position: the replica the next creation goes to,
        #: kept across getExecs calls and restarted by add_replica
        self._next = 0
        #: unique execution ID -> Execution instance GSH (the §5.3.1.4 table)
        self._instance_cache: dict[str, str] = {}
        self.creations = 0
        self.cache_hits = 0

    def getExecs(self, keys: list[str]) -> list[str]:
        """One Execution-instance GSH per key, creating on cache misses."""
        self.require_active()
        if self.container is None:
            raise RuntimeError("Manager is not deployed")
        out: list[str] = []
        for key in keys:
            cached = self._instance_cache.get(key)
            if cached is not None:
                # Validate the cached instance is still alive (it may have
                # been destroyed or expired); recreate if not.
                gsh = GridServiceHandle.parse(cached)
                container = self.container.environment.container_for(gsh.authority)
                if container is not None and container.has_service(gsh):
                    self.cache_hits += 1
                    out.append(cached)
                    continue
                del self._instance_cache[key]
            replica = self.replicas[self._next % len(self.replicas)]
            self._next += 1
            stub = self.container.environment.stub_for_handle(
                replica.gsh, FACTORY_PORTTYPE
            )
            instance_gsh = stub.CreateService([key])
            replica.assigned += 1
            self.creations += 1
            self._instance_cache[key] = instance_gsh
            out.append(instance_gsh)
        return out

    # ----------------------------------------------------------- local API
    def add_replica(self, factory_handle: str) -> None:
        """Register another replica Execution Factory (admin operation)."""
        if any(r.factory_handle == factory_handle for r in self.replicas):
            raise ValueError(f"replica {factory_handle!r} already registered")
        self.replicas.append(_Replica(factory_handle))
        self._next = 0

    def cached_count(self) -> int:
        return len(self._instance_cache)

    def stats(self) -> dict[str, object]:
        """Snapshot of the Manager's caching and distribution state.

        Used by the federated-query executor to size its fan-out (one
        slot per replica container keeps requests truly concurrent; more
        just queue on the container dispatch locks), and useful on its
        own for capacity dashboards.
        """
        lookups = self.cache_hits + self.creations
        per_host: dict[str, int] = {}
        for replica in self.replicas:
            authority = replica.gsh.authority
            per_host[authority] = per_host.get(authority, 0) + replica.assigned
        return {
            "replicas": len(self.replicas),
            "creations": self.creations,
            "cache_hits": self.cache_hits,
            "lookups": lookups,
            "hit_rate": self.cache_hits / lookups if lookups else 0.0,
            "cached_instances": len(self._instance_cache),
            "instances_per_host": per_host,
        }

    def assignment_counts(self) -> dict[str, int]:
        """factory handle -> instances created there."""
        return {r.factory_handle: r.assigned for r in self.replicas}

    def evict(self, key: str) -> None:
        self._instance_cache.pop(key, None)
