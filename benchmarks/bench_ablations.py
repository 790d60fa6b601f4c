"""Ablation benches (DESIGN.md A1 and A4).

A1 quantifies where the Table 4 overhead comes from (SOAP encode/parse
vs payload size).  A4 finds the response size at which a shared wire
erases Figure 12's two-host speedup.
"""

from conftest import write_result

from repro.experiments.ablations import (
    run_network_contention_ablation,
    run_serialization_ablation,
)


def test_a1_serialization_cost(benchmark):
    result = benchmark.pedantic(
        run_serialization_ablation,
        kwargs={"payload_sizes": (1, 10, 100, 1000, 5000), "trials": 10},
        rounds=1,
        iterations=1,
    )
    write_result("ablation_a1_serialization.txt", result.to_table())
    # SOAP cost grows with payload; the gap vs a direct call is orders of
    # magnitude at every size (why local bypass matters, §7).
    assert result.soap_us == sorted(result.soap_us)
    for soap, direct in zip(result.soap_us, result.direct_us):
        assert soap > direct * 10


def test_a4_network_contention(benchmark):
    result = benchmark.pedantic(run_network_contention_ablation, rounds=1, iterations=1)
    write_result("ablation_a4_network_contention.txt", result.to_table())
    # Small payloads: distribution pays off (~2x); huge payloads: the
    # shared wire is the bottleneck and the speedup collapses to ~1x.
    assert result.speedups[0] > 1.8
    assert result.speedups[-1] < 1.1
    assert result.crossover_bytes() is not None
    # Speedup decays monotonically (within rounding) with payload size.
    for earlier, later in zip(result.speedups, result.speedups[1:]):
        assert later <= earlier + 1e-6
