"""Concurrent clients vs container dispatch: the MDS2-style curve.

Two scenarios, one per dispatch pathology the async core fixes:

* **Throughput vs concurrent clients** — threaded clients hammer a grid
  of containers hosting I/O-modeled services (each call sleeps a fixed
  service time, the in-process stand-in for a store/disk round trip).
  With one service per container — one dispatch gate per container,
  which is what a whole-container lock amounts to — throughput
  flatlines at ``containers / service_time`` no matter how many clients
  arrive; with four services per container the per-service gates scale
  until every deployed service is busy.  The shape assertion mirrors
  the MDS2 measurements the grid-monitoring literature reports:
  concurrency scales with the number of independently dispatchable
  endpoints, not with lock count.

* **Overload with and without admission control** — far more clients
  than one slow service can carry.  Without admission every request
  convoys on the dispatch gate and p99 latency grows with the client
  count; with a bounded queue (``max_inflight``/``max_queue_depth``)
  excess arrivals are shed with a ``ServerBusy`` fault immediately and
  the requests that *are* admitted see a short, bounded queue.

``FEDQUERY_BENCH_QUICK=1`` (the CI mode) shrinks the sweep so the file
runs in seconds while asserting the same shape.
"""

from __future__ import annotations

import os
import threading
import time

from conftest import write_json, write_result

from repro.ogsi import (
    GRID_SERVICE_PORTTYPE,
    GridEnvironment,
    GridServiceBase,
    client_id_headers,
    is_busy_fault,
)
from repro.soap.faults import SoapFault
from repro.wsdl.porttype import Operation, Parameter, PortType

QUICK = os.environ.get("FEDQUERY_BENCH_QUICK", "") not in ("", "0")

#: modeled store access time per request (sleep: I/O-bound, GIL-free)
SERVICE_TIME_S = 0.002
CONTAINERS = 2
SERVICES_PER_CONTAINER = 4
CLIENT_SWEEP = (1, 2, 4, 8) if QUICK else (1, 2, 4, 8, 16)
REQUESTS_PER_CLIENT = 25 if QUICK else 50

#: overload scenario: one slow service, many impatient clients
OVERLOAD_SERVICE_TIME_S = 0.004
OVERLOAD_CLIENTS = 8 if QUICK else 16
OVERLOAD_REQUESTS_PER_CLIENT = 15 if QUICK else 25

STORE_PORTTYPE = PortType(
    "SlowStore",
    "urn:bench-store",
    (Operation("fetch", (Parameter("key", "xsd:string"),), "xsd:string"),),
    extends=(GRID_SERVICE_PORTTYPE,),
)


class SlowStoreService(GridServiceBase):
    """Models a wrapper whose every call blocks on its backing store."""

    porttype = STORE_PORTTYPE

    def __init__(self, service_time_s: float) -> None:
        super().__init__()
        self.service_time_s = service_time_s

    def fetch(self, key: str) -> str:
        time.sleep(self.service_time_s)
        return f"value-for-{key}"


def _build_grid(services_per_container: int):
    env = GridEnvironment()
    endpoints = []
    for c in range(CONTAINERS):
        container = env.create_container(f"bench-{c}:1")
        for s in range(services_per_container):
            gsh = container.deploy(
                f"services/store-{s}", SlowStoreService(SERVICE_TIME_S)
            )
            endpoints.append(gsh)
    return env, endpoints


def _run_clients(env, endpoints, clients: int, requests: int) -> dict:
    """Each client round-robins across every endpoint; returns stats."""
    latencies: list[float] = []
    shed = 0
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def client(client_id: int) -> None:
        nonlocal shed
        stubs = [
            env.stub_for_handle(
                gsh, STORE_PORTTYPE,
                headers_provider=client_id_headers(f"client-{client_id}"),
            )
            for gsh in endpoints
        ]
        barrier.wait(timeout=30.0)
        mine: list[float] = []
        my_shed = 0
        for i in range(requests):
            stub = stubs[(client_id + i) % len(stubs)]
            t0 = time.perf_counter()
            try:
                stub.fetch(f"k{i}")
            except SoapFault as fault:
                if not is_busy_fault(fault):
                    raise
                my_shed += 1
                continue
            mine.append(time.perf_counter() - t0)
        with lock:
            latencies.extend(mine)
            shed += my_shed

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for t in threads:
        t.start()
    barrier.wait(timeout=30.0)
    t0 = time.perf_counter()
    for t in threads:
        t.join(timeout=120.0)
    elapsed = time.perf_counter() - t0
    assert not any(t.is_alive() for t in threads), "client thread hung"
    latencies.sort()

    def pct(p: float) -> float:
        if not latencies:
            return float("nan")
        return latencies[min(len(latencies) - 1, int(p * len(latencies)))]

    return {
        "clients": clients,
        "handled": len(latencies),
        "shed": shed,
        "elapsed_s": elapsed,
        "throughput": len(latencies) / elapsed if elapsed > 0 else 0.0,
        "p50_ms": pct(0.50) * 1e3,
        "p99_ms": pct(0.99) * 1e3,
    }


def test_throughput_scales_with_concurrent_clients():
    arms = {}
    for label, services in (
        ("legacy-container-lock", 1),
        ("per-service", SERVICES_PER_CONTAINER),
    ):
        env, endpoints = _build_grid(services)
        arms[label] = [
            _run_clients(env, endpoints, clients, REQUESTS_PER_CLIENT)
            for clients in CLIENT_SWEEP
        ]

    lines = [
        "Throughput vs concurrent clients "
        f"({CONTAINERS} containers x {SERVICES_PER_CONTAINER} services, "
        f"{SERVICE_TIME_S * 1e3:.0f} ms service time)",
        f"{'clients':>8} | {'legacy req/s':>13} | {'per-service req/s':>18} | {'speedup':>8}",
    ]
    for legacy, fine in zip(arms["legacy-container-lock"], arms["per-service"]):
        speedup = fine["throughput"] / legacy["throughput"]
        lines.append(
            f"{legacy['clients']:>8} | {legacy['throughput']:>13.0f} | "
            f"{fine['throughput']:>18.0f} | {speedup:>7.1f}x"
        )

    # shape: with one client the arms are equivalent (no contention)...
    solo_legacy = arms["legacy-container-lock"][0]["throughput"]
    solo_fine = arms["per-service"][0]["throughput"]
    assert solo_fine > 0.5 * solo_legacy
    # ...and at the top of the sweep per-service dispatch must scale past
    # the one-gate-per-container ceiling (8 gates vs 2: >= 2x is lenient)
    max_legacy = arms["legacy-container-lock"][-1]["throughput"]
    max_fine = arms["per-service"][-1]["throughput"]
    assert max_fine >= 2.0 * max_legacy, (
        f"per-service {max_fine:.0f} req/s vs legacy {max_legacy:.0f} req/s"
    )
    # legacy also must actually flatline near the theoretical lock ceiling
    ceiling = CONTAINERS / SERVICE_TIME_S
    assert max_legacy < 1.5 * ceiling

    write_result("concurrency_curve.txt", "\n".join(lines))
    write_json(
        "concurrency_curve",
        {
            "containers": CONTAINERS,
            "services_per_container": SERVICES_PER_CONTAINER,
            "service_time_ms": SERVICE_TIME_S * 1e3,
            "client_sweep": list(CLIENT_SWEEP),
            "arms": arms,
            "quick": QUICK,
        },
    )


def test_admission_control_bounds_overload_latency():
    def overload_arm(max_inflight, max_queue_depth):
        env = GridEnvironment()
        container = env.create_container(
            "overload:1",
            max_inflight=max_inflight,
            max_queue_depth=max_queue_depth,
        )
        gsh = container.deploy(
            "services/store", SlowStoreService(OVERLOAD_SERVICE_TIME_S)
        )
        stats = _run_clients(
            env, [gsh], OVERLOAD_CLIENTS, OVERLOAD_REQUESTS_PER_CLIENT
        )
        stats["container"] = container.stats()
        return stats

    unbounded = overload_arm(None, None)
    bounded = overload_arm(max_inflight=1, max_queue_depth=2)

    lines = [
        "Overload: "
        f"{OVERLOAD_CLIENTS} clients x {OVERLOAD_REQUESTS_PER_CLIENT} requests, "
        f"1 service, {OVERLOAD_SERVICE_TIME_S * 1e3:.0f} ms service time",
        f"{'arm':>18} | {'handled':>8} | {'shed':>6} | {'p50 ms':>8} | {'p99 ms':>8}",
    ]
    for label, stats in (("no admission", unbounded), ("admission(1,2)", bounded)):
        lines.append(
            f"{label:>18} | {stats['handled']:>8} | {stats['shed']:>6} | "
            f"{stats['p50_ms']:>8.1f} | {stats['p99_ms']:>8.1f}"
        )

    # without admission every request convoys behind the whole client herd
    assert unbounded["shed"] == 0
    assert unbounded["p99_ms"] > OVERLOAD_CLIENTS * OVERLOAD_SERVICE_TIME_S * 1e3 * 0.5
    # with a bounded queue the excess is shed as ServerBusy immediately
    # and the admitted requests see a short queue: bounded p99
    assert bounded["shed"] > 0
    assert bounded["container"]["requestsShed"] == bounded["shed"]
    assert bounded["p99_ms"] < unbounded["p99_ms"], (
        f"admission p99 {bounded['p99_ms']:.1f} ms vs "
        f"unbounded {unbounded['p99_ms']:.1f} ms"
    )

    write_result("concurrency_overload.txt", "\n".join(lines))
    write_json(
        "concurrency_overload",
        {
            "clients": OVERLOAD_CLIENTS,
            "requests_per_client": OVERLOAD_REQUESTS_PER_CLIENT,
            "service_time_ms": OVERLOAD_SERVICE_TIME_S * 1e3,
            "unbounded": unbounded,
            "bounded": bounded,
            "quick": QUICK,
        },
    )
