"""Table 4 — Grid services overhead.

Method (thesis §6.4): each ``getPR`` call is timed at two layers —
the Virtualization-layer call (total query time, at the client stub) and
the Mapping-layer call (the local data-store query) — and the overhead is
the difference.  100 queries run against HPL and RMA; 30 against SMG98
(long-running).  Caching is disabled so every query pays the full path.

Reported per data source: mean total, mean mapping, mean overhead,
overhead as % of total, COV of total time, and bytes transferred per
query (request + response over the transport).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

from repro.analysis.stats import coefficient_of_variation, mean
from repro.analysis.tables import format_table
from repro.core.semantic import UNDEFINED_TYPE
from repro.experiments.common import GridScale, TestGrid, build_grid

#: per-source query plans: (metric, foci) for the getPR calls
_QUERY_PLANS = {
    "HPL": ("gflops", ["/Run"]),
    "PRESTA-RMA": (
        "bandwidth_mbps",
        ["/Op/MPI_Put", "/Op/MPI_Get", "/Op/MPI_Accumulate", "/Op/MPI_Send", "/Op/MPI_Isend"],
    ),
    "SMG98": ("time_spent", ["/Code/MPI/MPI_Allgather"]),
}


@dataclass
class OverheadRow:
    """One Table 4 row."""

    source: str
    store_kind: str
    queries: int
    mean_total_ms: float
    mean_mapping_ms: float
    mean_overhead_ms: float
    overhead_pct: float
    cov: float
    #: transport bytes (request + response envelopes) per query
    bytes_per_query: float
    #: payload bytes per query — the paper's "Total Bytes Transferred"
    #: column counts result data only (HPL ~8 B, RMA ~5,692 B, ...)
    payload_bytes_per_query: float
    results_per_query: float


@dataclass
class OverheadResult:
    rows: list[OverheadRow]

    def to_table(self) -> str:
        headers = [
            "Data Source",
            "Store",
            "N",
            "Mean Total (ms)",
            "Mapping (ms)",
            "Mean Overhead (ms)",
            "Overhead %",
            "COV",
            "Payload Bytes/Query",
            "Wire Bytes/Query",
        ]
        rows = [
            [
                r.source,
                r.store_kind,
                r.queries,
                r.mean_total_ms,
                r.mean_mapping_ms,
                r.mean_overhead_ms,
                f"{r.overhead_pct:.0f}%",
                f"{r.cov:.2f}",
                f"~{r.payload_bytes_per_query:,.0f}",
                f"~{r.bytes_per_query:,.0f}",
            ]
            for r in self.rows
        ]
        return format_table(headers, rows, title="Table 4: PPerfGrid Overhead")

    def row(self, source: str) -> OverheadRow:
        for r in self.rows:
            if r.source == source:
                return r
        raise KeyError(source)


_STORE_KINDS = {"HPL": "RDBMS", "PRESTA-RMA": "ASCII text files", "SMG98": "RDBMS"}


def measure_source(
    grid: TestGrid, source: str, num_queries: int
) -> OverheadRow:
    """Run the Table 4 measurement for one data source."""
    binding = grid.bind(source)
    executions = binding.all_executions()
    if not executions:
        raise RuntimeError(f"{source}: no executions bound")
    metric, foci = _QUERY_PLANS[source]
    recorder = grid.environment.recorder
    total_timer = recorder.timer("virtualization.getPR")
    mapping_timer = recorder.timer("mapping.getPR")

    # A full collection over the data stores' heap takes as long as a few
    # hundred HPL or RMA queries; have it now, not inside one timed query.
    gc.collect()
    totals: list[float] = []
    mappings: list[float] = []
    byte_counts: list[int] = []
    payload_counts: list[int] = []
    result_counts: list[int] = []
    for i in range(num_queries):
        execution = executions[i % len(executions)]
        n_total = len(total_timer.samples)
        n_mapping = len(mapping_timer.samples)
        bytes_before = recorder.bytes_total
        results = execution.get_pr(metric, foci, result_type=UNDEFINED_TYPE)
        totals.append(sum(total_timer.samples[n_total:]))
        mappings.append(sum(mapping_timer.samples[n_mapping:]))
        byte_counts.append(recorder.bytes_total - bytes_before)
        # Payload bytes: the result data itself (the paper's definition,
        # which approximates Java object sizes, not SOAP envelopes).
        payload_counts.append(sum(len(r.pack()) for r in results))
        result_counts.append(len(results))

    mean_total = mean(totals)
    mean_mapping = mean(mappings)
    return OverheadRow(
        source=source,
        store_kind=_STORE_KINDS[source],
        queries=num_queries,
        mean_total_ms=mean_total * 1000,
        mean_mapping_ms=mean_mapping * 1000,
        mean_overhead_ms=(mean_total - mean_mapping) * 1000,
        overhead_pct=(mean_total - mean_mapping) / mean_total * 100 if mean_total else 0.0,
        cov=coefficient_of_variation(totals),
        bytes_per_query=mean([float(b) for b in byte_counts]),
        payload_bytes_per_query=mean([float(b) for b in payload_counts]),
        results_per_query=mean([float(c) for c in result_counts]),
    )


def run_overhead_experiment(
    scale: GridScale | None = None,
    hpl_queries: int = 100,
    rma_queries: int = 100,
    smg98_queries: int = 30,
    grid: TestGrid | None = None,
) -> OverheadResult:
    """Run the full Table 4 experiment.

    Query counts default to the thesis's (100 / 100 / 30).  Caching is
    off, so repeated queries against the same execution still exercise
    the Mapping Layer.
    """
    own_grid = grid is None
    grid = grid or build_grid(scale, caching=False)
    try:
        rows = [
            measure_source(grid, "HPL", hpl_queries),
            measure_source(grid, "PRESTA-RMA", rma_queries),
            measure_source(grid, "SMG98", smg98_queries),
        ]
        return OverheadResult(rows=rows)
    finally:
        if own_grid:
            grid.cleanup()
