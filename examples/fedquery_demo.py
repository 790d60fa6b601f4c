#!/usr/bin/env python
"""Federated queries: one declarative question, the whole federation.

Builds the three-source grid (HPL + SMG98 in RDBMSs, PRESTA-RMA in
text files), deploys the FederatedQuery Grid service over it, and runs
queries through the plain client API — predicates push down into the
stores (real SQL in the RDBMS wrappers), sub-queries fan out in
parallel, and repeated queries answer from the plan cache.

Run: ``python examples/fedquery_demo.py``
"""

import time

from repro.experiments.common import GridScale, build_grid


def show(title: str, rows) -> None:
    print(f"\n== {title}")
    for row in rows:
        print("  " + "  ".join(f"{c}={v}" for c, v in row.as_dict().items()))


def main() -> None:
    grid = build_grid(GridScale.tiny())
    grid.deploy_federation()

    # One aggregate question over one member: how does SMG98's
    # time-in-MPI change with process count?
    text = (
        "SELECT mean(time_spent), count(time_spent) FROM SMG98 "
        "WHERE numprocs >= 8 GROUP BY numprocs ORDER BY numprocs"
    )
    show(text, grid.client.query(text))

    # The plan, without executing: what pushed down where, who was pruned.
    print("\n== EXPLAIN")
    print(grid.client.explain(text))

    # A federation-wide question — no FROM clause means every published
    # Application; members that don't speak the metric contribute nothing.
    text = "SELECT count(gflops), max(gflops) WHERE numprocs >= 2 GROUP BY app, numprocs"
    show(text, grid.client.query(text))

    # Raw mode: individual Performance Results, filtered by value.
    text = "SELECT bandwidth_mbps FROM PRESTA-RMA WHERE focus = '/Op/MPI_Put' LIMIT 4"
    show(text, grid.client.query(text))

    # The plan cache: the second identical query skips the federation.
    text = "SELECT mean(latency_us) FROM PRESTA-RMA GROUP BY network"
    t0 = time.perf_counter()
    grid.client.query(text)
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    grid.client.query(text)
    hot = time.perf_counter() - t0
    print(f"\n== plan cache: cold {cold * 1000:.1f} ms, hot {hot * 1000:.2f} ms")

    # Cache coherence: deploy_federation() subscribed the service to every
    # member Execution's data-update topic, so a store update invalidates
    # exactly the cached plans that read it — the PRESTA plan above stays
    # cached while the HPL plans recompute.
    hpl_text = "SELECT max(gflops) FROM HPL GROUP BY app"
    show(hpl_text, grid.client.query(hpl_text))
    exec_id = grid.hpl_site.wrapper.get_all_exec_ids()[0]
    grid.hpl_site.wrapper.conn.execute(
        "UPDATE hpl_runs SET gflops = ? WHERE runid = ?", [99999.0, int(exec_id)]
    )
    grid.execution_service("HPL", exec_id).data_updated("gflops recalibrated")
    show(hpl_text + "  (after data_updated)", grid.client.query(hpl_text))
    stats = grid.client.coherence_stats()
    print(
        f"\n== coherence: {stats['subscriptions']} subscriptions, "
        f"{stats['invalidations']} targeted invalidation(s), "
        f"{stats['fullClears']} full clear(s)"
    )

    grid.cleanup()


if __name__ == "__main__":
    main()
