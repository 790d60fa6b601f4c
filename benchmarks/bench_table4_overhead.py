"""Table 4 — Grid services overhead.

Regenerates the table at the thesis's query counts (100 HPL / 100 RMA /
30 SMG98) and asserts its shape:

* overhead%%: both light stores sit above SMG98 (paper: RMA 71%%, HPL
  28%% > SMG98 11%%), whose share lands near the paper's 11%%.  The
  paper's RMA > HPL is printed, not asserted: HPL's mapping time is
  0.06 ms here, and a ratio over that denominator reads 83%% vs 81%%
  either way round from run to run (ROADMAP, the call-path item);
* payload-bytes ordering: SMG98 >> RMA >> HPL (paper: ~421 KB > ~5.7 KB
  > ~8 B), and total time in the same order.

The per-source benchmarks time one uncached ``getPR`` through the full
Virtualization -> SOAP -> Semantic -> Mapping -> data-store path.
"""

from conftest import write_result

from repro.core.semantic import UNDEFINED_TYPE
from repro.experiments.overhead import run_overhead_experiment


def test_table4_regeneration(paper_grid_uncached, benchmark):
    result = benchmark.pedantic(
        run_overhead_experiment,
        kwargs={"grid": paper_grid_uncached},
        rounds=1,
        iterations=1,
    )
    table = result.to_table()
    write_result("table4_overhead.txt", table)

    by_pct = {r.source: r.overhead_pct for r in result.rows}
    assert min(by_pct["PRESTA-RMA"], by_pct["HPL"]) > by_pct["SMG98"]
    assert by_pct["SMG98"] < 30.0  # paper: 11%

    by_payload = {r.source: r.payload_bytes_per_query for r in result.rows}
    assert by_payload["SMG98"] > by_payload["PRESTA-RMA"] > by_payload["HPL"]

    by_total = {r.source: r.mean_total_ms for r in result.rows}
    assert by_total["SMG98"] > by_total["PRESTA-RMA"] > by_total["HPL"]


def _one_query(grid, source, metric, foci):
    binding = grid.bind(source)
    execution = binding.all_executions()[0]

    def query():
        return execution.get_pr(metric, foci, result_type=UNDEFINED_TYPE)

    return query


def test_getpr_hpl_uncached(paper_grid_uncached, benchmark):
    query = _one_query(paper_grid_uncached, "HPL", "gflops", ["/Run"])
    results = benchmark(query)
    assert len(results) == 1


def test_getpr_rma_uncached(paper_grid_uncached, benchmark):
    query = _one_query(
        paper_grid_uncached, "PRESTA-RMA", "bandwidth_mbps", ["/Op/MPI_Put"]
    )
    results = benchmark(query)
    assert len(results) == 20


def test_getpr_smg98_uncached(paper_grid_uncached, benchmark):
    query = _one_query(
        paper_grid_uncached, "SMG98", "time_spent", ["/Code/MPI/MPI_Allgather"]
    )
    results = benchmark.pedantic(query, rounds=3, iterations=1)
    assert len(results) > 100


def test_mapping_layer_only_smg98(paper_grid_uncached, benchmark):
    """The denominator of the SMG98 overhead%: the raw Mapping-Layer query."""
    wrapper = paper_grid_uncached.smg98_site.wrapper.execution("1")
    results = benchmark.pedantic(
        wrapper.get_pr,
        args=("time_spent", ["/Code/MPI/MPI_Allgather"], 0.0, -1.0, UNDEFINED_TYPE),
        rounds=3,
        iterations=1,
    )
    assert results
