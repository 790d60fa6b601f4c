"""FederationEngine.execute(stream=True): the bounded-memory query path.

The contract under test: a streamed raw query yields byte-identical rows
in byte-identical order to the bulk path, for any chunk size; global
operators (aggregates, ORDER BY) transparently fall back to the bulk
pipeline; member failures degrade the stream the way they degrade bulk
fan-outs; and only a fully drained, error-free stream is memoized in the
plan cache.  Satellite coverage rides along: per-execution stats deltas
on ``data_updated``.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.client import ExecutionBinding, PPerfGridClient
from repro.core.prcache import ByteBudgetLruCache
from repro.core.semantic import PerformanceResult
from repro.experiments.common import build_synthetic_grid
from repro.fedquery import FederationEngine, QueryError, naive_query
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper

from tests.leaks import live_cursors

RAW_QUERY = "SELECT m"


def _rows(metric: str, count: int, base: float) -> list[PerformanceResult]:
    return [
        PerformanceResult(
            metric, "/R", "synthetic", float(i), float(i + 1), base + i * 1.5
        )
        for i in range(count)
    ]


@pytest.fixture()
def fedgrid():
    a = InMemoryWrapper(
        "A",
        [
            InMemoryExecution("0", {"numprocs": "2"}, _rows("m", 10, 100.0)),
            InMemoryExecution("1", {"numprocs": "4"}, _rows("m", 10, 200.0)),
        ],
    )
    b = InMemoryWrapper(
        "B",
        [
            InMemoryExecution(
                "0", {"numprocs": "8"}, _rows("m", 10, 300.0) + _rows("n", 5, 0.0)
            )
        ],
    )
    grid = build_synthetic_grid({"A": a, "B": b})
    engine = grid.deploy_federation()
    # the cursor path: tiny chunks, below a read's rows
    engine.stream_chunk_rows = 5
    return grid, engine


def packs(rows) -> list[str]:
    return [row.pack() for row in rows]


class TestStreamedEqualsBulk:
    @pytest.mark.parametrize("chunk_rows", [1, 2, 7, 9])
    def test_byte_identical_for_any_chunk_size(self, fedgrid, chunk_rows):
        _, engine = fedgrid
        engine.stream_chunk_rows = chunk_rows
        with engine.execute(RAW_QUERY, stream=True) as streamed:
            streamed_rows = list(streamed)
        assert streamed.stats["chunkedCalls"] >= 1
        engine.invalidate_cache()
        bulk = engine.execute(RAW_QUERY)
        assert packs(streamed_rows) == packs(bulk.rows)
        assert len(streamed_rows) == 30

    def test_value_predicate_applies_client_side(self, fedgrid):
        _, engine = fedgrid
        text = "SELECT m WHERE value >= 300"
        streamed_rows = list(engine.execute(text, stream=True))
        engine.invalidate_cache()
        assert packs(streamed_rows) == packs(engine.execute(text).rows)
        assert all(row["value"] >= 300 for row in streamed_rows)

    def test_columns_and_completion_flags(self, fedgrid):
        _, engine = fedgrid
        streamed = engine.execute(RAW_QUERY, stream=True)
        assert streamed.complete is False
        rows = list(streamed)
        assert rows and streamed.complete is True
        assert list(streamed.columns) == list(rows[0].columns)

    def test_limit_early_stop_matches_bulk(self, fedgrid):
        _, engine = fedgrid
        text = "SELECT m LIMIT 3"
        streamed_rows = list(engine.execute(text, stream=True))
        assert len(streamed_rows) == 3
        engine.invalidate_cache()
        assert packs(streamed_rows) == packs(engine.execute(text).rows)


class TestMetricNamesThatTie:
    """Two metrics of one execution whose names read as one number
    (``inf`` and ``infinity``) or as NaN (``nan`` and ``NaN``) are two
    runs that ``ordering_key`` orders by their text: on every path, one
    metric's rows all come before the other's, a stream passing each
    run on a chunk at a time."""

    @pytest.mark.parametrize(
        "metrics", [("inf", "infinity"), ("nan", "NaN")], ids=["inf-infinity", "nan-NaN"]
    )
    def test_streamed_equals_bulk_equals_naive(self, metrics):
        wrapper = InMemoryWrapper(
            "A",
            [
                InMemoryExecution(
                    "0",
                    {},
                    [
                        PerformanceResult(metric, f"/R/{i % 3}", "t", float(i), float(i + 1), 1.0)
                        for metric in metrics
                        for i in range(6)
                    ],
                )
            ],
        )
        grid = build_synthetic_grid({"A": wrapper})
        engine = grid.deploy_federation()
        engine.stream_chunk_rows = 4
        text = f"SELECT {', '.join(metrics)}"
        streamed = packs(engine.execute(text, stream=True))
        engine.invalidate_cache()
        bulk = packs(engine.execute(text).rows)
        local = PPerfGridClient(grid.environment)
        local.register_local_wrapper(grid.sites["A"].factory_url, wrapper)
        naive = packs(naive_query(text, {"A": local.bind(grid.sites["A"].factory_url, "A")}))
        assert streamed == bulk == naive and len(streamed) == 12
        first, second = sorted(metrics)  # "NaN" < "nan", "inf" < "infinity"
        assert [row.split("|")[2] for row in streamed] == [f"metric={first}"] * 6 + [
            f"metric={second}"
        ] * 6
        grid.environment.close()


class TestTimesThatPackAlike:
    def test_a_stream_orders_rows_as_their_packed_times(self):
        """Starts under 1e-9 apart pack to one text (times travel to 9
        decimals): a member's sorted cursor orders those rows by what it
        sends, as bulk and the naive loop do, not by the store's floats."""
        rows = [
            PerformanceResult("m", "/R", "t", start, 1.0, value)
            for start, value in ((1e-10, 3.0), (0.0, 2.0), (3e-10, 1.0))
        ]
        wrapper = InMemoryWrapper("A", [InMemoryExecution("0", {}, rows)])
        grid = build_synthetic_grid({"A": wrapper})
        engine = grid.deploy_federation()
        engine.stream_chunk_rows = 1
        streamed = packs(engine.execute(RAW_QUERY, stream=True))
        engine.invalidate_cache()
        bulk = packs(engine.execute(RAW_QUERY).rows)
        naive = packs(naive_query(RAW_QUERY, engine.members()))
        assert streamed == bulk == naive
        values = [row.rsplit("|", 1)[1] for row in streamed]
        assert values == ["value=1.0", "value=2.0", "value=3.0"]
        engine.close()
        grid.environment.close()


class TestGlobalOperatorFallback:
    def test_aggregate_streams_bulk_rows(self, fedgrid):
        _, engine = fedgrid
        text = "SELECT count(m), max(m) GROUP BY app"
        streamed_rows = list(engine.execute(text, stream=True))
        engine.invalidate_cache()
        bulk = engine.execute(text)
        assert packs(streamed_rows) == packs(bulk.rows)
        assert {row["app"] for row in streamed_rows} == {"A", "B"}

    def test_fallback_probes_the_plan_cache_once(self, fedgrid):
        """The stream entry point and the bulk pipeline it falls back to
        are one query: one plan-cache lookup, not one each."""
        _, engine = fedgrid
        text = "SELECT count(m) GROUP BY app"
        rows = list(engine.execute(text, stream=True))
        assert engine.plan_cache.stats.misses == 1
        assert engine.plan_cache.stats.hits == 0
        repeat = engine.execute(text, stream=True)
        assert repeat.cached is True and packs(list(repeat)) == packs(rows)
        assert engine.plan_cache.stats.misses == 1
        assert engine.plan_cache.stats.hits == 1

    def test_order_by_streams_bulk_rows(self, fedgrid):
        _, engine = fedgrid
        text = "SELECT m ORDER BY value DESC LIMIT 5"
        streamed_rows = list(engine.execute(text, stream=True))
        engine.invalidate_cache()
        assert packs(streamed_rows) == packs(engine.execute(text).rows)
        values = [row["value"] for row in streamed_rows]
        assert values == sorted(values, reverse=True)


class TestStreamMemoization:
    def test_full_drain_is_memoized(self, fedgrid):
        _, engine = fedgrid
        list(engine.execute(RAW_QUERY, stream=True))
        hot = engine.execute(RAW_QUERY)
        assert hot.cached is True
        rehot = engine.execute(RAW_QUERY, stream=True)
        assert rehot.cached is True
        assert packs(list(rehot)) == packs(hot.rows)

    def test_limit_stop_is_memoized(self, fedgrid):
        _, engine = fedgrid
        text = "SELECT m LIMIT 4"
        list(engine.execute(text, stream=True))
        assert engine.execute(text).cached is True

    def test_partial_drain_not_memoized(self, fedgrid):
        _, engine = fedgrid
        with engine.execute(RAW_QUERY, stream=True) as streamed:
            next(streamed)
            next(streamed)
        assert streamed.closed is True
        assert engine.execute(RAW_QUERY).cached is False

    def test_memoize_byte_budget_respected(self, fedgrid):
        grid, _ = fedgrid
        # one 5-row chunk fits this plan cache's byte budget, the answer does not
        engine = FederationEngine(
            PPerfGridClient(grid.environment, grid.uddi_gsh),
            plan_cache=ByteBudgetLruCache(max_bytes=8192), stream_chunk_rows=5,
        )
        rows = list(engine.execute(RAW_QUERY, stream=True))
        assert len(rows) == 30  # drain still completes...
        assert engine.execute(RAW_QUERY).cached is False  # ...uncached
        engine.close()


class TestStreamDegradation:
    def test_mid_stream_member_failure_degrades(self, fedgrid, monkeypatch):
        grid, engine = fedgrid

        def broken(*args, **kwargs):
            raise RuntimeError("store connection lost")

        monkeypatch.setattr(grid.execution_service("B", "0"), "getPRChunked", broken)
        with engine.execute(RAW_QUERY, stream=True) as streamed:
            rows = list(streamed)
        # A's 20 rows survive; B's contribution is the degradation
        assert {row["app"] for row in rows} == {"A"}
        assert len(rows) == 20
        assert streamed.stats["errors"] == 1
        assert len(streamed.errors) == 1 and "store connection lost" in streamed.errors[0]
        # degraded results are never memoized
        assert engine.execute(RAW_QUERY).cached is False

    def test_all_members_failing_raises(self, fedgrid, monkeypatch):
        grid, engine = fedgrid

        def broken(*args, **kwargs):
            raise RuntimeError("down")

        for app, exec_id in (("A", "0"), ("A", "1"), ("B", "0")):
            monkeypatch.setattr(
                grid.execution_service(app, exec_id), "getPRChunked", broken
            )
        with pytest.raises(QueryError, match="member task"):
            list(engine.execute(RAW_QUERY, stream=True))


class TestQueryStreamOverSoap:
    def test_client_stream_matches_bulk(self, fedgrid):
        grid, engine = fedgrid
        with grid.client.query_stream(RAW_QUERY, max_rows=7) as it:
            streamed_rows = list(it)
        engine.invalidate_cache()
        assert packs(streamed_rows) == packs(engine.execute(RAW_QUERY).rows)

    def test_closing_client_iterator_releases_cursor(self, fedgrid):
        grid, _ = fedgrid
        it = grid.client.query_stream(RAW_QUERY, max_rows=2)
        next(it)
        it.close()
        # the server-side cursor is gone: further fetches fault, which the
        # closed iterator surfaces as plain exhaustion
        assert list(it) == []


class TestNothingLeftBehind:
    """Member cursors are paged on the thread that drains the stream:
    however a streamed query ends — drained, stopped by LIMIT, closed
    after one row, or with one member failing — it leaves no member
    cursor open and no thread running, whether the engine is iterated
    directly or through the federation cursor over SOAP."""

    @pytest.mark.parametrize("surface", ["engine", "client"])
    @pytest.mark.parametrize(
        "ending", ["drained", "limit", "closed-after-one-row", "member-raises"]
    )
    def test_no_member_cursor_and_no_thread_outlive_the_query(
        self, fedgrid, monkeypatch, surface, ending
    ):
        grid, engine = fedgrid
        if ending == "member-raises":

            def broken(*args, **kwargs):
                raise RuntimeError("store connection lost")

            monkeypatch.setattr(grid.execution_service("B", "0"), "getPRChunked", broken)
        text = "SELECT m LIMIT 3" if ending == "limit" else RAW_QUERY
        before = set(threading.enumerate())
        if surface == "engine":
            stream = engine.execute(text, stream=True)
        else:
            stream = grid.client.query_stream(text, max_rows=4)
        with stream:
            rows = [next(stream)] if ending == "closed-after-one-row" else list(stream)
        expected = {"drained": 30, "limit": 3, "closed-after-one-row": 1, "member-raises": 20}
        assert len(rows) == expected[ending]
        assert live_cursors(grid) == 0
        assert set(threading.enumerate()) <= before


class TestStatsDeltas:
    """Satellite: data_updated refreshes only the touched execution's
    statistics contribution instead of refetching the whole member."""

    def _update_a0(self, grid, value: float) -> None:
        wrapper = grid.sites["A"].wrapper
        wrapper.executions_data[0].results.append(
            PerformanceResult("m", "/R", "synthetic", 50.0, 51.0, value)
        )
        assert grid.execution_service("A", "0").data_updated("ingest") == 1

    def test_delta_applied_and_counted(self, fedgrid):
        grid, engine = fedgrid
        engine.execute(RAW_QUERY)  # caches member stats
        assert engine.coherence_stats()["statsDeltas"] == 0
        self._update_a0(grid, 999.0)
        assert engine.coherence_stats()["statsInvalidations"] >= 1
        fresh = engine.execute(RAW_QUERY)
        assert fresh.cached is False
        assert any(row["value"] == 999.0 for row in fresh.rows)
        assert engine.coherence_stats()["statsDeltas"] >= 1

    def test_delta_keeps_planning_consistent(self, fedgrid):
        """The delta-refreshed stats must plan exactly like a refetch:
        a value range that only exists after the update must not be
        skipped by stale statistics."""
        grid, engine = fedgrid
        text = "SELECT m WHERE value >= 5000"
        assert engine.execute(text).rows == []
        self._update_a0(grid, 9999.0)
        engine.execute(RAW_QUERY)  # applies the delta
        assert engine.coherence_stats()["statsDeltas"] >= 1
        result = engine.execute(text)
        assert [row["value"] for row in result.rows] == [9999.0]

    def test_second_update_uses_per_exec_baseline(self, fedgrid):
        grid, engine = fedgrid
        engine.execute(RAW_QUERY)
        self._update_a0(grid, 1.0)
        engine.execute(RAW_QUERY)
        first = engine.coherence_stats()["statsDeltas"]
        self._update_a0(grid, 2.0)
        engine.execute(RAW_QUERY)
        assert engine.coherence_stats()["statsDeltas"] > first

    def test_delta_failure_falls_back_to_refetch(self, fedgrid, monkeypatch):
        grid, engine = fedgrid
        engine.execute(RAW_QUERY)
        self._update_a0(grid, 1.0)
        engine.execute(RAW_QUERY)  # establishes the per-exec baseline
        before = engine.coherence_stats()["statsDeltas"]

        def broken(*args, **kwargs):
            raise RuntimeError("transport glitch")

        monkeypatch.setattr(ExecutionBinding, "get_stats", broken)
        self._update_a0(grid, 4242.0)
        result = engine.execute(RAW_QUERY)  # whole-member refetch fallback
        assert any(row["value"] == 4242.0 for row in result.rows)
        assert engine.coherence_stats()["statsDeltas"] == before
