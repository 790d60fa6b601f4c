"""Ablation studies for the design choices DESIGN.md calls out.

A1 — serialization: how much of the Grid-services overhead is the SOAP
     encode/serialize/parse/decode round trip, as payload grows?
A2 — distribution policy: interleaved vs block vs random vs least-loaded
     Manager policies on homogeneous and heterogeneous replica hosts.
A3 — cache policy: unbounded vs LRU(k) vs adaptive under uniform and
     skewed query streams.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.core.manager import (
    BlockPolicy,
    DistributionPolicy,
    InterleavedPolicy,
    LeastLoadedPolicy,
    RandomPolicy,
)
from repro.core.prcache import AdaptiveCache, LruCache, PrCache, UnboundedCache
from repro.simnet.host import SimHost
from repro.simnet.network import NetworkModel, SharedMediumNetwork
from repro.soap.rpc import decode_response, encode_response


# ------------------------------------------------------- A1: serialization


@dataclass
class SerializationResult:
    """Per payload size: SOAP round-trip cost vs a direct in-process call."""

    payload_results: list[int]
    soap_us: list[float]
    direct_us: list[float]
    wire_bytes: list[int]

    def to_table(self) -> str:
        headers = ["PRs/payload", "Wire bytes", "SOAP (us)", "Direct (us)", "SOAP/Direct"]
        rows = []
        for i, n in enumerate(self.payload_results):
            ratio = self.soap_us[i] / self.direct_us[i] if self.direct_us[i] else float("inf")
            rows.append(
                [n, self.wire_bytes[i], self.soap_us[i], self.direct_us[i], f"{ratio:,.0f}x"]
            )
        return format_table(headers, rows, title="Ablation A1: serialization cost vs payload")


def run_serialization_ablation(
    payload_sizes: tuple[int, ...] = (1, 10, 100, 1000, 5000),
    trials: int = 20,
) -> SerializationResult:
    """Encode+decode a getPR-shaped string-array response of each size."""
    sample_pr = (
        "time_spent|/Code/MPI/MPI_Allgather|vampir|12.345678901-12.345999901|0.000321"
    )
    soap_us: list[float] = []
    direct_us: list[float] = []
    wire_bytes: list[int] = []
    for n in payload_sizes:
        payload = [f"{sample_pr}-{i}" for i in range(n)]
        # Pay any collection the process owes now, not inside the timed loop.
        gc.collect()
        t0 = time.perf_counter()
        encoded = b""
        for _ in range(trials):
            encoded = encode_response("urn:ppg", "getPR", payload)
            decode_response(encoded)
        soap_us.append((time.perf_counter() - t0) / trials * 1e6)
        wire_bytes.append(len(encoded))
        sink: list[str] = []
        t0 = time.perf_counter()
        for _ in range(trials):
            sink = list(payload)  # the in-process "call": one list copy
        del sink
        direct_us.append((time.perf_counter() - t0) / trials * 1e6)
    return SerializationResult(
        payload_results=list(payload_sizes),
        soap_us=soap_us,
        direct_us=direct_us,
        wire_bytes=wire_bytes,
    )


# ------------------------------------------- A2: Manager distribution policy


@dataclass
class DistributionResult:
    """Per policy: makespan of a query fan-out on replica hosts."""

    scenario: str
    host_factors: list[float]
    makespans: dict[str, float]

    def to_table(self) -> str:
        best = min(self.makespans.values())
        headers = ["Policy", "Makespan (s)", "vs best"]
        rows = [
            [name, span, f"{span / best:,.2f}x"]
            for name, span in sorted(self.makespans.items(), key=lambda kv: kv[1])
        ]
        return format_table(
            headers, rows, title=f"Ablation A2: distribution policy ({self.scenario})"
        )


class _FakeReplica:
    """Stands in for Manager replicas when replaying policies offline."""

    def __init__(self) -> None:
        self.assigned = 0


def run_distribution_ablation(
    host_factors: tuple[float, ...] = (1.0, 1.0),
    num_executions: int = 32,
    queries_per_execution: int = 100,
    query_cost_s: float = 0.001,
    scenario: str = "homogeneous 2 hosts",
    seed: int = 3,
) -> DistributionResult:
    """Replay each policy's instance placement onto host timelines.

    Each execution instance receives ``queries_per_execution`` queries of
    ``query_cost_s`` seconds, all charged to the host its instance landed
    on.  Heterogeneous hosts (``host_factors`` != 1) show where the
    thesis's interleaving stops being optimal and least-loaded wins.
    """
    policies: list[DistributionPolicy] = [
        InterleavedPolicy(),
        BlockPolicy(),
        RandomPolicy(seed=seed),
        LeastLoadedPolicy(),
    ]
    makespans: dict[str, float] = {}
    for policy in policies:
        policy.reset()
        hosts = [SimHost(f"h{i}", cpu_factor=f) for i, f in enumerate(host_factors)]
        replicas = [_FakeReplica() for _ in host_factors]
        for ordinal in range(num_executions):
            index = policy.choose(replicas, str(ordinal + 1), ordinal)  # type: ignore[arg-type]
            replicas[index].assigned += 1
            hosts[index].charge(query_cost_s * queries_per_execution)
        makespans[policy.name] = max(h.timeline.busy_until for h in hosts)
    return DistributionResult(
        scenario=scenario, host_factors=list(host_factors), makespans=makespans
    )


# ------------------------------------------ A4: shared-medium network limit


@dataclass
class NetworkContentionResult:
    """Two-host speedup vs response payload size, on a shared bus."""

    payload_bytes: list[int]
    speedups: list[float]
    bus_utilization: list[float]
    service_cost_s: float

    def to_table(self) -> str:
        headers = ["Response bytes", "2-host speedup", "Bus utilization"]
        rows = [
            [b, f"{s:.2f}x", f"{u:.0%}"]
            for b, s, u in zip(self.payload_bytes, self.speedups, self.bus_utilization)
        ]
        return format_table(
            headers,
            rows,
            title=(
                "Ablation A4: shared-medium network contention "
                f"(service cost {self.service_cost_s * 1000:.1f} ms/query)"
            ),
        )

    def crossover_bytes(self, threshold: float = 1.5) -> int | None:
        """Smallest payload where the 2-host speedup drops below *threshold*."""
        for b, s in zip(self.payload_bytes, self.speedups):
            if s < threshold:
                return b
        return None


def run_network_contention_ablation(
    payload_bytes: tuple[int, ...] = (100, 10_000, 100_000, 1_000_000, 5_000_000),
    num_executions: int = 32,
    queries_per_execution: int = 10,
    service_cost_s: float = 0.002,
    network: NetworkModel | None = None,
) -> NetworkContentionResult:
    """Where does replica distribution stop paying off?

    Replays the Figure 12 workload with responses of growing size on a
    shared-medium network.  Host CPU work parallelizes across the two
    replicas, but every response crosses the same wire — once the wire is
    the bottleneck (SMG98-sized payloads on fast Ethernet), the optimized
    arm's advantage collapses toward 1x.
    """
    network = network or NetworkModel()
    speedups: list[float] = []
    utilizations: list[float] = []
    for nbytes in payload_bytes:
        makespans: list[float] = []
        utilization = 0.0
        for replica_count in (1, 2):
            hosts = [SimHost(f"h{i}") for i in range(replica_count)]
            bus = SharedMediumNetwork(network)
            for ordinal in range(num_executions):
                host = hosts[ordinal % replica_count]  # interleaved placement
                for _ in range(queries_per_execution):
                    _, served_at = host.charge(service_cost_s)
                    bus.schedule_transfer(nbytes, ready_at=served_at)
            makespan = max(
                bus.busy_until, max(h.timeline.busy_until for h in hosts)
            )
            makespans.append(makespan)
            if replica_count == 2:
                utilization = bus.utilization(makespan)
        speedups.append(makespans[0] / makespans[1])
        utilizations.append(utilization)
    return NetworkContentionResult(
        payload_bytes=list(payload_bytes),
        speedups=speedups,
        bus_utilization=utilizations,
        service_cost_s=service_cost_s,
    )


# ------------------------------------------------------ A3: cache policies


@dataclass
class CachePolicyResult:
    """Per policy: hit rate and final size under one query stream."""

    stream: str
    lookups: int
    hit_rates: dict[str, float]
    sizes: dict[str, int]

    def to_table(self) -> str:
        headers = ["Policy", "Hit rate", "Entries kept"]
        rows = [
            [name, f"{self.hit_rates[name]:.1%}", self.sizes[name]]
            for name in sorted(self.hit_rates, key=lambda n: -self.hit_rates[n])
        ]
        return format_table(
            headers, rows, title=f"Ablation A3: cache policy ({self.stream}, {self.lookups} lookups)"
        )


def run_cache_policy_ablation(
    num_keys: int = 200,
    num_lookups: int = 5000,
    lru_capacity: int = 32,
    skewed: bool = True,
    memory_free_fraction: float = 0.25,
    seed: int = 17,
) -> CachePolicyResult:
    """Drive each cache with the same stream and compare hit rates.

    ``skewed=True`` draws keys Zipf-style (a few hot queries — the
    realistic analysis workload); otherwise uniform.  The adaptive cache
    sees a host at ``memory_free_fraction`` free memory.
    """
    rng = random.Random(seed)
    weights = [1.0 / (i + 1) for i in range(num_keys)] if skewed else [1.0] * num_keys
    keys = [f"metric | /focus/{i} | UNDEFINED | 0.0-1.0" for i in range(num_keys)]
    stream = rng.choices(keys, weights=weights, k=num_lookups)
    caches: dict[str, PrCache] = {
        "unbounded": UnboundedCache(),
        f"lru({lru_capacity})": LruCache(lru_capacity),
        "adaptive": AdaptiveCache(
            stats_provider=lambda: {"memory_free_fraction": memory_free_fraction},
            max_capacity=lru_capacity * 4,
            min_capacity=4,
        ),
    }
    for name, cache in caches.items():
        for key in stream:
            if cache.get(key) is None:
                cache.put(key, [f"value-for-{key}"])
    return CachePolicyResult(
        stream="zipf-skewed" if skewed else "uniform",
        lookups=num_lookups,
        hit_rates={name: cache.stats.hit_rate for name, cache in caches.items()},
        sizes={name: len(cache) for name, cache in caches.items()},
    )
