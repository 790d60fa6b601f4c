"""Ablation studies for the design choices DESIGN.md calls out.

A1 — serialization: how much of the Grid-services overhead is the SOAP
     encode/serialize/parse/decode round trip, as payload grows?
A4 — shared-medium network: at what response size does Figure 12's
     two-host speedup collapse because every response crosses one wire?
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

from repro.analysis.tables import format_table
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
