#!/usr/bin/env python
"""Performance-Result caching (Table 5).

Runs the same getPR query repeatedly against an Execution instance with
caching off and on, then shows the hit accounting.

Run: ``python examples/caching_demo.py``
"""

import time

from repro.core import PPerfGridClient, PPerfGridSite, SiteConfig
from repro.core.prcache import NullCache, UnboundedCache
from repro.datastores import generate_smg98
from repro.mapping import Smg98RdbmsWrapper
from repro.ogsi import GridEnvironment


def timed_queries(env, factory_url: str, n: int) -> float:
    client = PPerfGridClient(env)
    app = client.bind(factory_url, "SMG98")
    execution = app.all_executions()[0]
    t0 = time.perf_counter()
    for _ in range(n):
        execution.get_pr("time_spent", ["/Code/MPI/MPI_Allgather"])
    return (time.perf_counter() - t0) / n * 1000


def main() -> None:
    dataset = generate_smg98(num_executions=2, intervals_per_execution=6000)

    env = GridEnvironment()
    site_off = PPerfGridSite(
        env,
        SiteConfig("off:8080", "SMG98", cache_factory=NullCache),
        Smg98RdbmsWrapper(dataset.to_database()),
    )
    site_on = PPerfGridSite(
        env,
        SiteConfig("on:8080", "SMG98", cache_factory=UnboundedCache),
        Smg98RdbmsWrapper(dataset.to_database()),
    )

    n = 10
    off_ms = timed_queries(env, site_off.factory_url, n)
    on_ms = timed_queries(env, site_on.factory_url, n)
    print(f"Mean getPR time over {n} identical queries:")
    print(f"  caching off: {off_ms:8.2f} ms")
    print(f"  caching on:  {on_ms:8.2f} ms")
    print(f"  speedup:     {off_ms / on_ms:8.2f}x  (thesis Table 5 shape)")

    # Inspect the hit accounting on the cached instance.
    container = env.container_for("on:8080")
    for path in container.service_paths():
        service = container.service_at(path)
        if hasattr(service, "cache") and service.cache.stats.lookups:
            s = service.cache.stats
            print(
                f"\nCache stats for {path}: {s.hits} hits / {s.lookups} lookups "
                f"(hit rate {s.hit_rate:.0%})"
            )


if __name__ == "__main__":
    main()
