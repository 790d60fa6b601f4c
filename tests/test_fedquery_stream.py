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
import time

import pytest

from repro.core.client import ExecutionBinding
from repro.core.semantic import PerformanceResult
from repro.experiments.common import build_synthetic_grid
from repro.fedquery import QueryError
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper

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
    # force the cursor path: every remote execution streams, tiny chunks
    engine.stream_threshold_rows = 0
    engine.stream_chunk_rows = 5
    return grid, engine


def packs(rows) -> list[str]:
    return [row.pack() for row in rows]


class TestStreamedEqualsBulk:
    @pytest.mark.parametrize("chunk_rows", [1, 2, 7, 64])
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
        _, engine = fedgrid
        engine.stream_memoize_max_bytes = 16  # a row is bigger than this
        rows = list(engine.execute(RAW_QUERY, stream=True))
        assert len(rows) == 30  # drain still completes...
        assert engine.execute(RAW_QUERY).cached is False  # ...uncached


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


class TestMemberStreamClose:
    """Satellite: ``close()`` wakes a blocked producer immediately.

    The old ``_enqueue`` retried a 50 ms ``queue.Full`` poll loop, so an
    early close slept out up to a full tick per member before the
    producer noticed.  The condition-signalled buffer wakes it at once.
    """

    def _thread_runner(self):
        """A plain daemon-thread runner (the engine passes the
        scheduler's stream lane); returns (runner, started threads)."""
        threads: list[threading.Thread] = []

        def runner(fn):
            thread = threading.Thread(target=fn, daemon=True)
            threads.append(thread)
            thread.start()

        return runner, threads

    def _blocked_stream(self):
        from repro.fedquery.stream import MemberStream

        producing = threading.Event()

        def produce(stop):
            for i in range(1000):
                producing.set()
                yield [f"row-{i}"]

        runner, threads = self._thread_runner()
        stream = MemberStream("m", produce, runner, chunk_depth=1)
        stream.start()
        assert producing.wait(timeout=5.0)
        return stream, threads[0]

    def test_close_wakes_blocked_producer_promptly(self):
        stream, producer = self._blocked_stream()
        time.sleep(0.05)  # let the producer block on the full window
        start = time.monotonic()
        stream.close()
        elapsed = time.monotonic() - start
        producer.join(timeout=2.0)
        assert not producer.is_alive()  # close waited the producer out
        assert elapsed < 0.5, f"close took {elapsed * 1e3:.0f} ms"

    def test_next_row_after_close_returns_none(self):
        stream, _ = self._blocked_stream()
        stream.close()
        assert stream.next_row() is None

    def test_consumer_blocked_on_empty_stream_woken_by_close(self):
        from repro.fedquery.stream import MemberStream

        release = threading.Event()

        def produce(stop):
            release.wait(timeout=10.0)
            yield []

        runner, _ = self._thread_runner()
        stream = MemberStream("m", produce, runner, chunk_depth=1)
        stream.start()
        got: list = []
        consumer = threading.Thread(
            target=lambda: got.append(stream.next_row()), daemon=True
        )
        consumer.start()
        time.sleep(0.05)  # consumer is parked on the empty buffer
        release.set()
        consumer.join(timeout=5.0)
        assert not consumer.is_alive()
        assert got == [None]
        stream.close()


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
