"""Figure 12 — scalability via replica-host distribution.

Thesis method (§6.5): a client queries Performance Results from N
Execution instances of the HPL source (N in {2,4,8,16,32,64,124}), each
query in its own thread and repeated 10 times per thread to create load;
the whole set runs 10 times.  The *non-optimized* arm hosts every
instance on one machine; the *optimized* arm lets the Manager interleave
instances across two replica hosts.  Mean speedup in the thesis: 2.14.

Reproduction method: queries execute for real through the full SOAP
stack (caching off), and each query's measured service cost is replayed
onto simulated single-CPU host timelines — per-host work serializes,
hosts run in parallel, a fast-Ethernet network model charges each
response transfer.  The replay substitutes for Java threads because
CPython threads cannot express two genuinely parallel hosts in one
process (see DESIGN.md §5); everything the speedup depends on — who runs
which query, and that a host runs one query at a time — is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.charts import ascii_line_chart
from repro.analysis.stats import mean, relative_change, speedup
from repro.analysis.tables import format_table
from repro.core.client import PPerfGridClient
from repro.core.prcache import NullCache
from repro.core.semantic import UNDEFINED_TYPE
from repro.core.session import PPerfGridSite, SiteConfig
from repro.datastores.generators.hpl import generate_hpl
from repro.mapping.rdbms import HplRdbmsWrapper
from repro.ogsi.container import GridEnvironment
from repro.ogsi.gsh import GridServiceHandle
from repro.simnet.clock import Clock
from repro.simnet.host import SimHost
from repro.simnet.network import NetworkModel

DEFAULT_COUNTS = (2, 4, 8, 16, 32, 64, 124)


@dataclass
class ScalabilityResult:
    counts: list[int]
    nonoptimized_s: list[float]
    optimized_s: list[float]
    repeats: int
    rounds: int
    mean_speedup: float = field(init=False)

    def __post_init__(self) -> None:
        self.mean_speedup = mean(
            [speedup(a, b) for a, b in zip(self.nonoptimized_s, self.optimized_s)]
        )

    def speedups(self) -> list[float]:
        return [speedup(a, b) for a, b in zip(self.nonoptimized_s, self.optimized_s)]

    def relative_changes(self) -> list[float]:
        return [
            relative_change(a, b) for a, b in zip(self.nonoptimized_s, self.optimized_s)
        ]

    def to_table(self) -> str:
        headers = ["Executions", "Non-Optimized (ms)", "Optimized (ms)", "Relative Change", "Speedup"]
        rows = []
        for i, count in enumerate(self.counts):
            rows.append(
                [
                    count,
                    self.nonoptimized_s[i] * 1000,
                    self.optimized_s[i] * 1000,
                    f"{self.relative_changes()[i]:.2f}%",
                    f"{self.speedups()[i]:.2f}",
                ]
            )
        table = format_table(headers, rows, title="Figure 12: PPerfGrid Scalability")
        return table + f"\nMean speedup: {self.mean_speedup:.2f}"

    def to_chart(self) -> str:
        return ascii_line_chart(
            list(self.counts),
            {
                "Optimized": [t * 1000 for t in self.optimized_s],
                "Non-Optimized": [t * 1000 for t in self.nonoptimized_s],
            },
            title="Figure 12: Scalability (milliseconds vs # Execution GSs in query)",
            y_label="ms",
        )


def _build_hpl_grid(
    num_executions: int, replicas: int, clock: Clock | None = None
) -> tuple[GridEnvironment, PPerfGridClient, PPerfGridSite, list[SimHost]]:
    """One HPL site on host A, plus ``replicas - 1`` replica hosts."""
    environment = GridEnvironment(clock=clock)
    hosts = [SimHost("host-A")]
    wrapper = HplRdbmsWrapper(generate_hpl(num_executions=num_executions).to_database())
    site = PPerfGridSite(
        environment,
        SiteConfig(
            "hostA.pdx.edu:8080",
            "HPL",
            timed_mapping=False,
            cache_factory=NullCache,
        ),
        wrapper,
        host=hosts[0],
    )
    for i in range(1, replicas):
        letter = chr(ord("A") + i)
        host = SimHost(f"host-{letter}")
        hosts.append(host)
        site.add_replica(f"host{letter}.pdx.edu:8080", host=host)
    client = PPerfGridClient(environment)
    return environment, client, site, hosts


def run_scalability_experiment(
    counts: tuple[int, ...] | list[int] = DEFAULT_COUNTS,
    repeats: int = 10,
    rounds: int = 10,
    replicas: int = 2,
    network: NetworkModel | None = None,
    clock: Clock | None = None,
) -> ScalabilityResult:
    """Run both arms of the Figure 12 experiment.

    ``repeats`` x ``rounds`` = queries per Execution instance (paper:
    10 x 10 = 100).  ``replicas`` is the optimized arm's host count
    (paper: 2).  ``clock`` is the grid's time source (wall clock by
    default; tests pass a stepped one so every query costs the same).

    Each query executes once for real through the full SOAP stack and its
    measured cost is replayed onto *both* placements — all on host A
    (non-optimized) versus the Manager's interleaved assignment
    (optimized) — so the comparison sees identical workloads and the
    speedup reflects placement alone, with natural per-query cost
    variation carried through.
    """
    if max(counts) < 1 or replicas < 2:
        raise ValueError("need at least one execution and two replica hosts")
    network = network or NetworkModel()
    max_count = max(counts)
    environment, client, site, hosts = _build_hpl_grid(max_count, replicas, clock)
    binding = client.bind(site.factory_url, "HPL")
    executions = binding.all_executions()
    # Warm the query path (interpreter caches, lazily built structures) so
    # one-time costs do not land inside the measured samples.
    for execution in executions[: min(8, len(executions))]:
        for _ in range(5):
            execution.get_pr("gflops", ["/Run"], result_type=UNDEFINED_TYPE)
    host_by_authority = {
        container.authority: container.host
        for container in environment.containers()
        if container.host is not None
    }
    recorder = environment.recorder
    clock = environment.clock
    single = SimHost("single-host")
    nonopt: list[float] = []
    opt: list[float] = []
    for count in counts:
        subset = executions[:count]
        single.timeline.reset()
        for host in hosts:
            host.timeline.reset()
        for _ in range(rounds):
            for execution in subset:
                authority = GridServiceHandle.parse(execution.gsh).authority
                assigned = host_by_authority[authority]
                for _ in range(repeats):
                    bytes_before = recorder.bytes_total
                    t0 = clock.now()
                    execution.get_pr("gflops", ["/Run"], result_type=UNDEFINED_TYPE)
                    service_cost = clock.now() - t0
                    moved = recorder.bytes_total - bytes_before
                    transfer = network.round_trip_time(moved // 2, moved - moved // 2)
                    cost = service_cost + transfer
                    single.charge(cost)
                    assigned.charge(cost)
        nonopt.append(single.timeline.busy_until)
        opt.append(max(host.timeline.busy_until for host in hosts))
    return ScalabilityResult(
        counts=list(counts),
        nonoptimized_s=nonopt,
        optimized_s=opt,
        repeats=repeats,
        rounds=rounds,
    )
