"""Tests for the experiment drivers at tiny scale (shape, not magnitude)."""

import pytest

from repro.experiments import (
    GridScale,
    render_table1,
    render_table2,
    render_table3,
    run_caching_experiment,
    run_overhead_experiment,
    run_scalability_experiment,
    run_serialization_ablation,
)
from repro.experiments.caching import _measure_arm
from repro.experiments.common import build_grid
from repro.experiments.overhead import measure_source
from repro.minidb.executor import SelectExecutor
from repro.simnet.network import NetworkModel


@pytest.fixture(scope="module")
def overhead_result():
    return run_overhead_experiment(
        GridScale.tiny(), hpl_queries=8, rma_queries=8, smg98_queries=4
    )


class TestOverheadExperiment:
    def test_rows_cover_all_sources(self, overhead_result):
        assert [r.source for r in overhead_result.rows] == [
            "HPL",
            "PRESTA-RMA",
            "SMG98",
        ]

    def test_overhead_is_total_minus_mapping(self, overhead_result):
        for row in overhead_result.rows:
            assert row.mean_overhead_ms == pytest.approx(
                row.mean_total_ms - row.mean_mapping_ms
            )
            assert 0 < row.mean_mapping_ms < row.mean_total_ms

    def test_payload_ordering(self, overhead_result):
        # HPL moves the least data (Table 4 shape).  The full SMG98 >
        # RMA ordering only emerges at paper scale (the tiny trace has
        # few intervals per window) and is asserted by the benchmark.
        by = {r.source: r.payload_bytes_per_query for r in overhead_result.rows}
        assert by["SMG98"] > by["HPL"]
        assert by["PRESTA-RMA"] > by["HPL"]

    def test_wire_bytes_exceed_payload(self, overhead_result):
        for row in overhead_result.rows:
            assert row.bytes_per_query > row.payload_bytes_per_query

    def test_table_renders(self, overhead_result):
        table = overhead_result.to_table()
        assert "Table 4" in table and "SMG98" in table

    def test_row_lookup(self, overhead_result):
        assert overhead_result.row("HPL").source == "HPL"
        with pytest.raises(KeyError):
            overhead_result.row("NOPE")


class TickClock:
    """Advances one fixed tick per ``now()``: a query's cost is the
    number of clock reads it makes, the same for every query."""

    def __init__(self, tick: float = 0.001) -> None:
        self.tick = tick
        self._now = 0.0

    def now(self) -> float:
        self._now += self.tick
        return self._now


class TestScalabilityExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        # latency-only network: response sizes differ by a few bytes per
        # execution, and the replayed costs must be identical
        return run_scalability_experiment(
            counts=(2, 4, 8),
            repeats=5,
            rounds=2,
            network=NetworkModel(bandwidth_bytes_per_s=float("inf")),
            clock=TickClock(),
        )

    def test_speedup_near_two_hosts(self, result):
        # interleaved across 2 hosts with identical replayed costs, each
        # host gets exactly half the work at every even count
        for s in result.speedups():
            assert s == pytest.approx(2.0, abs=1e-9)
        assert result.mean_speedup == pytest.approx(2.0, abs=1e-9)

    def test_times_grow_with_fanout(self, result):
        assert result.nonoptimized_s == sorted(result.nonoptimized_s)
        assert result.optimized_s == sorted(result.optimized_s)

    def test_optimized_never_slower(self, result):
        for a, b in zip(result.nonoptimized_s, result.optimized_s):
            assert b <= a

    def test_relative_change_consistent(self, result):
        for rc, s in zip(result.relative_changes(), result.speedups()):
            assert rc == pytest.approx((s - 1) * 100)

    def test_render(self, result):
        assert "Figure 12" in result.to_table()
        assert "Optimized" in result.to_chart()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            run_scalability_experiment(counts=(2,), replicas=1)

    def test_four_replicas_speedup_near_four(self):
        # Enough queries per host that one noisy sample cannot skew a
        # host's total (the speedup is sum-of-costs / max-per-host).
        result = run_scalability_experiment(
            counts=(16,), repeats=5, rounds=2, replicas=4
        )
        assert result.mean_speedup == pytest.approx(4.0, abs=0.7)


class TestCachingExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_caching_experiment(GridScale.tiny(), num_queries=6)

    def test_rows_cover_sources(self, result):
        assert [r.source for r in result.rows] == ["HPL", "PRESTA-RMA", "SMG98"]

    def test_caching_never_slower_much(self, result):
        for row in result.rows:
            # At tiny scale the HPL/RMA means are sub-millisecond and
            # noise-dominated; the bound only guards against caching
            # being a systematic loss.  The paper-scale benchmark
            # asserts the tighter shape.
            assert row.speedup > 0.5

    def test_smg98_benefits_most(self, result):
        by = {r.source: r.speedup for r in result.rows}
        assert by["SMG98"] >= max(by["HPL"], by["PRESTA-RMA"]) * 0.7

    def test_render(self, result):
        assert "Table 5" in result.to_table()


class TestPaperTablesRunNoAggregate:
    """Counts, not timings: the getPR loops Tables 4 and 5 and Figure 12
    time run minidb statements, and not one of them reaches the aggregate
    stage, so a change confined to that stage cannot move those tables."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"statements": 0, "aggregates": 0}
        run, aggregate = SelectExecutor.run, SelectExecutor._aggregate

        def counted_run(executor):
            counts["statements"] += 1
            return run(executor)

        def counted_aggregate(executor, *args):
            counts["aggregates"] += 1
            return aggregate(executor, *args)

        monkeypatch.setattr(SelectExecutor, "run", counted_run)
        monkeypatch.setattr(SelectExecutor, "_aggregate", counted_aggregate)
        return counts

    def _read(self, counts, loop) -> tuple[int, int]:
        counts.update(statements=0, aggregates=0)
        loop()
        return counts["statements"], counts["aggregates"]

    @pytest.mark.parametrize("caching", [False, True])
    def test_table4_and_table5_loops(self, counts, caching):
        grid = build_grid(GridScale.tiny(), caching=caching)
        try:
            for source, queries in (("HPL", 100), ("PRESTA-RMA", 100), ("SMG98", 30)):
                loops = [lambda: _measure_arm(grid, source, queries, warmup=0)]
                if not caching:  # Table 4 runs with caching off
                    loops.append(lambda: measure_source(grid, source, queries))
                for loop in loops:
                    statements, aggregates = self._read(counts, loop)
                    # PRESTA-RMA is the text-file store: no SQL at all
                    assert (statements > 0) == (source != "PRESTA-RMA"), source
                    assert aggregates == 0, source
        finally:
            grid.cleanup()

    def test_figure12_loop(self, counts):
        statements, aggregates = self._read(counts, lambda: run_scalability_experiment(
            counts=(2, 4), repeats=2, rounds=2, clock=TickClock()
        ))
        assert statements > 0
        assert aggregates == 0


class TestPortTypeTables:
    def test_table1(self):
        table = render_table1()
        assert "Table 1" in table
        for op in ("getAppInfo", "getNumExecs", "getExecQueryParams", "getAllExecs", "getExecs"):
            assert op in table

    def test_table2(self):
        table = render_table2()
        for op in ("getInfo", "getFoci", "getMetrics", "getTypes", "getTimeStartEnd", "getPR"):
            assert op in table

    def test_table3(self):
        table = render_table3()
        for op in ("FindServiceData", "CreateService", "FindByHandle", "DeliverNotification"):
            assert op in table


class TestAblations:
    def test_serialization_grows_with_payload(self):
        result = run_serialization_ablation(payload_sizes=(1, 100), trials=3)
        assert result.soap_us[1] > result.soap_us[0]
        assert result.wire_bytes[1] > result.wire_bytes[0]
        assert "A1" in result.to_table()

    def test_network_contention_crossover(self):
        from repro.experiments import run_network_contention_ablation

        result = run_network_contention_ablation(
            payload_bytes=(100, 1_000_000), queries_per_execution=5
        )
        assert result.speedups[0] > 1.8
        assert result.speedups[-1] < 1.1
        assert result.crossover_bytes() == 1_000_000
        assert 0.0 <= result.bus_utilization[-1] <= 1.0
        assert "A4" in result.to_table()

    def test_network_contention_with_fast_network_never_crosses(self):
        from repro.experiments import run_network_contention_ablation
        from repro.simnet.network import NetworkModel

        infinite = NetworkModel(latency_s=0.0, bandwidth_bytes_per_s=1e15)
        result = run_network_contention_ablation(
            payload_bytes=(100, 1_000_000), network=infinite
        )
        assert all(s > 1.9 for s in result.speedups)
        assert result.crossover_bytes() is None
