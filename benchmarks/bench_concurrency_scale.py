"""Federated fan-out at MDS2-style concurrency: pooled vs per-query.

The grid information-service studies (MDS2 and kin) measured the same
collapse this benchmark reproduces: per-request resource churn — thread
create/join per query — dominates long before the member stores
saturate, and one flooding client starves everyone else unless the
scheduler is tenant-aware.  The baseline arms are built from the public
API, not from switches in the scheduler: a per-query pool is a stdlib
``ThreadPoolExecutor`` inside the bench, and a global FIFO is every
submitter sharing one tenant key.  Three scenarios:

* **Fan-out latency vs concurrent drivers** (the gate) — drives the
  fan-out layer directly, the way MDS2's scalability study drove the
  GRIS: each simulated query fans a fixed-width burst of fast member
  calls through one of three arms: a per-query ``ThreadPoolExecutor``
  built and torn down inside the request, the engine-lifetime pooled
  scheduler with every driver on one tenant key (a global FIFO), and
  the pooled scheduler with one tenant key per driver (fair queueing).
  The gate: at the top of the sweep the pooled arms answer with a p50
  at least **2x** better than the per-query pool — warm workers vs
  per-query thread create/join churn.

* **End-to-end engine curve** (informational) — the two pooled arms
  behind the full engine stack (parse, plan, member SOAP dispatch,
  FIRST_COMPLETED merge) over a wide synthetic federation, every query
  text unique so the plan cache never answers.  On a small host the
  engine's own CPU dominates and the arms converge, so this curve
  records the full-stack numbers and asserts pool invariants instead
  of a latency ratio.

* **Minority-tenant p99 under a flooding tenant** — one tenant keeps
  hundreds of tasks queued; a minority tenant submits one task at a
  time.  Under its own tenant key its p99 stays within **3x** of the
  uncontended baseline (round-robin admits it every rotation);
  submitting under the flood's key — one global FIFO — its p99 grows
  with the flood backlog: starvation.

``FEDQUERY_BENCH_QUICK=1`` (the CI mode) shrinks the federation and the
sweeps so the file runs in seconds while asserting the same shape.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

from conftest import write_json, write_result

from repro.core.client import PPerfGridClient
from repro.core.semantic import PerformanceResult
from repro.experiments.common import build_synthetic_grid
from repro.fedquery.executor import FederationEngine
from repro.fedquery.scheduler import FanoutScheduler
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper

QUICK = os.environ.get("FEDQUERY_BENCH_QUICK", "") not in ("", "0")

#: gate scenario: member calls fanned per simulated query
FANOUT = 8
#: gate scenario: concurrent driver threads (simulated clients)
GATE_DRIVER_SWEEP = (8, 32) if QUICK else (8, 32, 64)
GATE_QUERIES_PER_DRIVER = 8 if QUICK else 16
#: pool width for the pooled arms (the legacy arm sizes a pool per query)
POOL_WORKERS = 16 if QUICK else 32

#: end-to-end curve: federation width — the "hundreds of hosts" axis
MEMBERS = 12 if QUICK else 96
E2E_DRIVER_SWEEP = (4, 16) if QUICK else (8, 32)
E2E_QUERIES_PER_DRIVER = 5 if QUICK else 16

#: fairness scenario: modeled member-call time (sleep: I/O, GIL-free)
TASK_S = 0.005
FLOOD_DEPTH = 100 if QUICK else 200
MINORITY_PROBES = 20 if QUICK else 40
FAIR_WORKERS = 4

_unique = itertools.count()


def _rows(count: int, base: float) -> list[PerformanceResult]:
    return [
        PerformanceResult("m", "/R", "s", float(i), float(i + 1), base + i)
        for i in range(count)
    ]


def _percentile(sorted_values: list[float], p: float) -> float:
    if not sorted_values:
        return float("nan")
    return sorted_values[min(len(sorted_values) - 1, int(p * len(sorted_values)))]


def _drive_threads(query_fn, drivers: int, queries: int) -> dict:
    """Run ``query_fn(driver, q)`` from ``drivers`` concurrent threads."""
    latencies: list[float] = []
    lock = threading.Lock()
    barrier = threading.Barrier(drivers + 1)

    def run(driver: int) -> None:
        mine: list[float] = []
        barrier.wait(timeout=60.0)
        for q in range(queries):
            t0 = time.perf_counter()
            query_fn(driver, q)
            mine.append(time.perf_counter() - t0)
        with lock:
            latencies.extend(mine)

    threads = [
        threading.Thread(target=run, args=(i,), daemon=True) for i in range(drivers)
    ]
    for t in threads:
        t.start()
    barrier.wait(timeout=60.0)
    t0 = time.perf_counter()
    for t in threads:
        t.join(timeout=300.0)
    elapsed = time.perf_counter() - t0
    assert not any(t.is_alive() for t in threads), "driver thread hung"
    latencies.sort()
    return {
        "drivers": drivers,
        "queries": len(latencies),
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
        "throughput": len(latencies) / elapsed if elapsed > 0 else 0.0,
    }


# --------------------------------------------------------------------------
# scenario 1 (the gate): fan-out layer, pooled vs per-query pool
# --------------------------------------------------------------------------


def _member_call() -> list:
    """A fast member store answering from memory: build and pack a small
    result set — the regime where per-request churn dominates."""
    return [r.pack() for r in _rows(4, 0.0)]


def _curve_line(drivers: int, label: str, point: dict) -> str:
    return (
        f"{drivers:>8} | {label:>12} | {point['p50_ms']:>8.2f} | "
        f"{point['p99_ms']:>9.2f} | {point['throughput']:>7.0f}"
    )


def test_pooled_fanout_beats_per_query_pool_at_scale():
    def legacy_query(driver: int, q: int) -> None:
        # one pool per query, sized to the fan-out, created and joined
        # inside the request
        with ThreadPoolExecutor(max_workers=FANOUT) as pool:
            wait([pool.submit(_member_call) for _ in range(FANOUT)])

    def pooled_arm(fair: bool):
        sched = FanoutScheduler(max_workers=POOL_WORKERS, name="bench")
        wait([sched.submit(_member_call, tenant="warm") for _ in range(FANOUT)])

        def query(driver: int, q: int) -> None:
            # one shared tenant key is a global FIFO
            tenant = f"client-{driver}" if fair else "everyone"
            futures = [
                sched.submit(_member_call, tenant=tenant) for _ in range(FANOUT)
            ]
            for future in futures:
                future.result(timeout=120.0)

        return sched, query

    curves: dict[str, list[dict]] = {"legacy": [], "pooled": [], "pooled+fair": []}
    schedulers: dict[str, FanoutScheduler] = {}
    try:
        arms = {"pooled": pooled_arm(fair=False), "pooled+fair": pooled_arm(fair=True)}
        schedulers = {label: sched for label, (sched, _) in arms.items()}
        for drivers in GATE_DRIVER_SWEEP:
            curves["legacy"].append(
                _drive_threads(legacy_query, drivers, GATE_QUERIES_PER_DRIVER)
            )
            for label, (_, query) in arms.items():
                curves[label].append(
                    _drive_threads(query, drivers, GATE_QUERIES_PER_DRIVER)
                )

        lines = [
            f"Fan-out latency vs concurrent drivers ({FANOUT}-wide fan-out, "
            f"{GATE_QUERIES_PER_DRIVER} queries per driver)",
            f"{'drivers':>8} | {'arm':>12} | {'p50 ms':>8} | {'p99 ms':>9} | {'req/s':>7}",
        ]
        for i, drivers in enumerate(GATE_DRIVER_SWEEP):
            for label in curves:
                lines.append(_curve_line(drivers, label, curves[label][i]))

        # the gate: at the top of the sweep, warm pooled workers must
        # answer with at least a 2x better median than per-query thread
        # create/join churn
        legacy_p50 = curves["legacy"][-1]["p50_ms"]
        for label in ("pooled", "pooled+fair"):
            pooled_p50 = curves[label][-1]["p50_ms"]
            assert legacy_p50 >= 2.0 * pooled_p50, (
                f"{label} p50 {pooled_p50:.2f} ms vs legacy {legacy_p50:.2f} ms "
                f"at {GATE_DRIVER_SWEEP[-1]} drivers"
            )
        # the pooled arms really pooled: one engine-lifetime worker set
        for label, sched in schedulers.items():
            stats = sched.stats()
            assert stats["workersCreated"] <= POOL_WORKERS, label
            expected = sum(GATE_DRIVER_SWEEP) * GATE_QUERIES_PER_DRIVER * FANOUT
            assert stats["completed"] >= expected, label

        write_result("concurrency_scale_curve.txt", "\n".join(lines))
        write_json(
            "concurrency_scale",
            {
                "fanout": FANOUT,
                "driver_sweep": list(GATE_DRIVER_SWEEP),
                "queries_per_driver": GATE_QUERIES_PER_DRIVER,
                "pool_workers": POOL_WORKERS,
                "curves": curves,
                "gate": {
                    "legacy_p50_ms": legacy_p50,
                    "pooled_p50_ms": curves["pooled"][-1]["p50_ms"],
                    "pooled_fair_p50_ms": curves["pooled+fair"][-1]["p50_ms"],
                    "required_speedup": 2.0,
                },
                "quick": QUICK,
            },
        )
    finally:
        for sched in schedulers.values():
            sched.shutdown()


# --------------------------------------------------------------------------
# scenario 2 (informational): the pooled arms behind the full engine stack
# --------------------------------------------------------------------------


def _build_federation():
    wrappers = {
        f"M{i:03d}": InMemoryWrapper(
            f"M{i:03d}",
            [InMemoryExecution("0", {"numprocs": str(2 + i % 4)}, _rows(4, float(i)))],
        )
        for i in range(MEMBERS)
    }
    grid = build_synthetic_grid(wrappers)
    grid.deploy_federation(cost_based=False)
    return grid, sorted(wrappers)


def _make_engine(grid) -> FederationEngine:
    """One engine per arm, driven directly (the federated SOAP endpoint
    serializes on its per-service gate, which would measure the gate,
    not the fan-out; member calls still cross the Services Layer)."""
    client = PPerfGridClient(grid.environment, grid.uddi_gsh)
    engine = FederationEngine(
        client,
        managers={name: site.manager for name, site in grid.sites.items()},
        max_workers=POOL_WORKERS,
        cost_based=False,
    )
    engine.execute("SELECT m")  # warm discovery + member bindings
    return engine


def test_end_to_end_engine_scale_curve():
    grid, members = _build_federation()
    #: arm -> fair? (False: every query under one tenant key, a global FIFO)
    arms = {"pooled": False, "pooled+fair": True}
    curves: dict[str, list[dict]] = {}
    engines = {}
    try:
        for label, fair in arms.items():
            engine = engines[label] = _make_engine(grid)

            def query(driver: int, q: int, eng=engine, fair=fair) -> None:
                app = members[(driver + q) % len(members)]
                n = next(_unique)
                text = f"SELECT m WHERE app = '{app}' AND value >= -{n}.5"
                tenant = f"client-{driver}-{q}" if fair else "everyone"
                result = eng.execute(text, tenant=tenant)
                assert not result.cached  # unique text: the fan-out ran

            curves[label] = [
                _drive_threads(query, d, E2E_QUERIES_PER_DRIVER)
                for d in E2E_DRIVER_SWEEP
            ]

        lines = [
            f"End-to-end query latency vs concurrent drivers ({MEMBERS} members, "
            f"{E2E_QUERIES_PER_DRIVER} unique single-member queries per driver)",
            f"{'drivers':>8} | {'arm':>12} | {'p50 ms':>8} | {'p99 ms':>9} | {'req/s':>7}",
        ]
        for i, drivers in enumerate(E2E_DRIVER_SWEEP):
            for label in arms:
                lines.append(_curve_line(drivers, label, curves[label][i]))

        # invariants, not a latency gate (engine CPU dominates on small
        # hosts): every query really fanned out, and the pooled arms
        # kept one engine-lifetime worker set with no per-query growth
        for label, engine in engines.items():
            stats = engine.scheduler_stats()
            assert stats["workersCreated"] <= POOL_WORKERS, label
            assert stats["submitted"] >= sum(
                d * E2E_QUERIES_PER_DRIVER for d in E2E_DRIVER_SWEEP
            )

        write_result("concurrency_scale_e2e.txt", "\n".join(lines))
        write_json(
            "concurrency_scale_e2e",
            {
                "members": MEMBERS,
                "driver_sweep": list(E2E_DRIVER_SWEEP),
                "queries_per_driver": E2E_QUERIES_PER_DRIVER,
                "curves": curves,
                "quick": QUICK,
            },
        )
    finally:
        for engine in engines.values():
            engine.close()


# --------------------------------------------------------------------------
# scenario 3: per-tenant fairness under a flooding tenant
# --------------------------------------------------------------------------


def _minority_latency(fair: bool) -> tuple[float, float]:
    """(uncontended p99 ms, contended p99 ms) for the minority tenant."""
    sched = FanoutScheduler(max_workers=FAIR_WORKERS, name="fairness")
    work = lambda: time.sleep(TASK_S)  # noqa: E731 - tiny modeled member call
    # sharing the flood's tenant key puts the minority in one global FIFO
    minority = "minority" if fair else "flood"
    try:
        baseline: list[float] = []
        for _ in range(MINORITY_PROBES):
            t0 = time.perf_counter()
            sched.submit(work, tenant=minority).result(timeout=60.0)
            baseline.append(time.perf_counter() - t0)

        stop = threading.Event()

        def flood() -> None:
            while not stop.is_set():
                futures = [
                    sched.submit(work, tenant="flood") for _ in range(FLOOD_DEPTH)
                ]
                for future in futures:
                    future.result(timeout=120.0)

        flooder = threading.Thread(target=flood, daemon=True)
        flooder.start()
        time.sleep(0.1)  # let the flood backlog build
        contended: list[float] = []
        for _ in range(MINORITY_PROBES):
            t0 = time.perf_counter()
            sched.submit(work, tenant=minority).result(timeout=120.0)
            contended.append(time.perf_counter() - t0)
        stop.set()
        flooder.join(timeout=60.0)
        baseline.sort()
        contended.sort()
        return (
            _percentile(baseline, 0.99) * 1e3,
            _percentile(contended, 0.99) * 1e3,
        )
    finally:
        sched.shutdown()


def test_fair_queueing_bounds_minority_tenant_p99():
    fair_base, fair_contended = _minority_latency(fair=True)
    fifo_base, fifo_contended = _minority_latency(fair=False)
    fair_ratio = fair_contended / fair_base
    fifo_ratio = fifo_contended / fifo_base

    lines = [
        f"Minority-tenant p99 under a {FLOOD_DEPTH}-deep flooding tenant "
        f"({FAIR_WORKERS} workers, {TASK_S * 1e3:.0f} ms tasks)",
        f"{'arm':>12} | {'uncontended p99 ms':>19} | {'contended p99 ms':>17} | {'ratio':>7}",
        f"{'fair':>12} | {fair_base:>19.2f} | {fair_contended:>17.2f} | {fair_ratio:>6.1f}x",
        f"{'fifo':>12} | {fifo_base:>19.2f} | {fifo_contended:>17.2f} | {fifo_ratio:>6.1f}x",
    ]

    # fairness on: round-robin admits the minority every rotation — its
    # contended p99 stays within 3x of uncontended, or (when the
    # uncontended baseline is small enough to make the ratio noisy)
    # within a few rotations' worth of absolute wait
    fair_bound_ms = max(3.0 * fair_base, 6 * TASK_S * 1e3)
    assert fair_contended <= fair_bound_ms, (
        f"fair minority p99 {fair_contended:.1f} ms "
        f"(ratio {fair_ratio:.1f}x, bound {fair_bound_ms:.1f} ms)"
    )
    # one shared key: the minority convoys behind the whole flood backlog
    assert fifo_ratio > 3.0, f"fifo minority p99 ratio {fifo_ratio:.1f}x"
    # and the starvation is backlog-shaped, not a scheduling hiccup: the
    # FIFO wait covers a meaningful slice of the queued flood work
    assert fifo_contended >= FLOOD_DEPTH * TASK_S * 1e3 / FAIR_WORKERS * 0.25

    write_result("concurrency_fairness.txt", "\n".join(lines))
    write_json(
        "concurrency_fairness",
        {
            "flood_depth": FLOOD_DEPTH,
            "task_ms": TASK_S * 1e3,
            "workers": FAIR_WORKERS,
            "fair": {"uncontended_p99_ms": fair_base, "contended_p99_ms": fair_contended, "ratio": fair_ratio},
            "fifo": {"uncontended_p99_ms": fifo_base, "contended_p99_ms": fifo_contended, "ratio": fifo_ratio},
            "quick": QUICK,
        },
    )
