"""One member read under bulk tasks, stream producers and view maintenance.

Counts and identities only, never a timing, on a 2-member x 2-execution
synthetic federation whose executions record two metrics (so every
execution is two sub-query reads): the bindings' reader answers the same
records as an array and through a cursor; the engine's ``read`` does one
accounting whichever consumer sits on it; nothing a consumer does leaves
a cursor behind; and both result paths end in one failure-and-memoize
tail.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import pytest

from repro.core.client import (
    ArrayRead, ChunkedResultIterator, PPerfGridClient, default_accept_encodings,
)
from repro.core.semantic import PerformanceResult, pr_sort_key
from repro.experiments.common import build_synthetic_grid
from repro.fedquery import QueryError
from repro.fedquery import executor as executor_module
from repro.mapping.memory import InMemoryExecution, InMemoryExecutionWrapper, InMemoryWrapper
from repro.ogsi.container import GridEnvironment
from repro.ogsi.dispatch import ACCEPT_ENCODINGS_HEADER
from repro.soap.chunks import ENCODING_COLBATCH, ENCODING_XML
from repro.soap.rpc import decode_request

from tests import test_member_facts
from tests.leaks import live_cursors

MEMBERS, EXECUTIONS, ROWS, FOCI = 2, 2, 30, 3
METRICS = ("m", "n")
ALL_FOCI = [f"/rank/{i}" for i in range(FOCI)]
#: (execution, sub-query) reads behind one query over both metrics
READS = MEMBERS * EXECUTIONS * len(METRICS)
TOTAL = READS * ROWS
HEADER = ACCEPT_ENCODINGS_HEADER.encode()


class Wire(test_member_facts.Wire):
    """The recording transport of ``test_member_facts``, able to fail
    the *n*-th ``next`` it is asked to carry."""

    fail_next_at: int | None = None

    def send(self, endpoint_url: str, request: bytes) -> bytes:
        if self.fail_next_at is not None and decode_request(request).operation == "next":
            self.fail_next_at -= 1
            if self.fail_next_at == 0:
                self.fail_next_at = None
                raise ConnectionError("link dropped mid-drain")
        return super().send(endpoint_url, request)


def _wrappers() -> dict[str, InMemoryWrapper]:
    return {
        f"APP{m}": InMemoryWrapper(
            f"APP{m}",
            [
                InMemoryExecution(
                    str(e),
                    {"numprocs": str(2 ** e)},
                    [
                        PerformanceResult(
                            metric, f"/rank/{(i * 7) % FOCI}", "synthetic",
                            float(i), float(i + 1), (m * 11 + e * 5 + i * 13) % 97 / 4,
                        )
                        for metric in METRICS
                        for i in range(ROWS)
                    ],
                )
                for e in range(EXECUTIONS)
            ],
        )
        for m in range(MEMBERS)
    }


@pytest.fixture()
def federation():
    wrappers = _wrappers()
    environment = GridEnvironment()
    wire = environment.transport = Wire(environment.transport)
    grid = build_synthetic_grid(wrappers, environment)
    engine = grid.deploy_federation()
    yield grid, engine, wire, wrappers
    engine.close()
    environment.close()


def raw(k: int) -> str:
    """Both metrics, every row; the literal busts the plan cache."""
    return f"SELECT m, n WHERE value >= -{k}.5"


def payload(wrappers) -> int:
    """The packed length of every row, from the members' own data: the
    payloadBytes of a query that reads them all as per-row XML."""
    return sum(
        len(result.pack())
        for wrapper in wrappers.values()
        for execution in wrapper.executions_data
        for result in execution.results
    )


def packs(records) -> list[str]:
    return [record.pack() for record in records]


# ---------------------------------------------------------- the bindings' reader
class TestBindingReader:
    @pytest.mark.parametrize("ordered", [False, True])
    def test_array_and_cursor_are_the_same_records(self, federation, ordered):
        grid, _, wire, _ = federation
        execution = grid.bind("APP0").all_executions()[0]
        wire.take()
        array = execution.read("m", ALL_FOCI, ordered=ordered)
        array_received = wire.received()
        wire.take()
        cursor = execution.read("m", ALL_FOCI, cursor=True, max_rows=7, ordered=ordered)
        assert isinstance(array, ArrayRead) and isinstance(cursor, ChunkedResultIterator)
        drained = list(cursor)
        assert packs(drained) == packs(array) and len(array) == ROWS
        if ordered:
            assert packs(array) == packs(sorted(array, key=pr_sort_key))
        # each read counts the payload records it received; an XML one's
        # are the packed records
        expected_bytes = sum(map(len, packs(array)))
        assert array.bytes_fetched == array_received == expected_bytes
        assert cursor.bytes_fetched == wire.received() > 0
        if cursor.encoding == ENCODING_XML:
            assert cursor.bytes_fetched == expected_bytes
        assert array.rows_fetched == cursor.rows_fetched == ROWS
        array.close()  # a no-op with the cursor's name
        assert live_cursors(grid) == 0  # exhaustion closed the cursor

    def test_get_pr_is_the_array_the_reader_decoded(self, federation):
        grid, _, wire, _ = federation
        execution = grid.bind("APP1").all_executions()[1]
        assert packs(execution.get_pr("n", ALL_FOCI)) == packs(execution.read("n", ALL_FOCI))
        wire.take()
        buckets = execution.get_pr_agg("n", ALL_FOCI, group_by="focus")
        assert buckets.bytes_fetched == wire.received() == sum(map(len, packs(buckets)))
        assert len(buckets) == FOCI

    def test_an_aggregate_never_pages_through_a_cursor(self, federation):
        grid, _, wire, _ = federation
        execution = grid.bind("APP0").all_executions()[0]
        aggregate = (None, None, "")
        buckets = packs(execution.read("m", ALL_FOCI, aggregate=aggregate))
        wire.take()
        paged = execution.read("m", ALL_FOCI, aggregate=aggregate, cursor=True, max_rows=7)
        assert isinstance(paged, ArrayRead) and packs(paged) == buckets and len(buckets) == 1
        assert "getPRChunked" not in wire.take() and live_cursors(grid) == 0

    def test_the_local_reader_never_opens_a_cursor(self, federation):
        grid, _, wire, wrappers = federation
        client = PPerfGridClient(grid.environment)
        url = grid.sites["APP0"].factory_url
        client.register_local_wrapper(url, wrappers["APP0"])
        local = client.bind(url, "APP0").all_executions()[0]
        remote = grid.bind("APP0").all_executions()[0]
        wire.take()
        rows = local.read("m", ALL_FOCI, cursor=True, max_rows=4, ordered=True)
        assert isinstance(rows, ArrayRead) and not wire.take()
        assert packs(rows) == packs(remote.read("m", ALL_FOCI, ordered=True))
        assert rows.bytes_fetched == 0  # nothing crossed a wire
        assert packs(local.stream_pr("m", ALL_FOCI, ordered=True)) == packs(rows)

    def test_stream_pr_sizes_the_read_with_get_stats(self, federation, monkeypatch):
        grid, _, wire, _ = federation
        execution = grid.bind("APP0").all_executions()[0]
        execution.get_pr("m", ALL_FOCI)  # getTimeStartEnd is per call: keep it out of the counts
        bulk = packs(execution.get_pr("m", ALL_FOCI))
        wire.take()
        assert packs(execution.stream_pr("m", ALL_FOCI, max_rows=ROWS)) == bulk
        sent = wire.take()
        assert sent["getStats"] == sent["getPR"] == 1 and "getPRChunked" not in sent
        assert packs(execution.stream_pr("m", ALL_FOCI, max_rows=ROWS - 1)) == bulk
        sent = wire.take()
        assert sent["getStats"] == sent["getPRChunked"] == 1 and "getPR" not in sent
        # an estimate in hand spares the probe
        assert packs(execution.stream_pr("m", ALL_FOCI, estimated_rows=1)) == bulk
        assert "getStats" not in wire.take()

        def stats_down():
            raise RuntimeError("getStats unavailable")

        monkeypatch.setattr(execution, "get_stats", stats_down)
        assert packs(execution.stream_pr("m", ALL_FOCI, max_rows=10**6)) == bulk
        sent = wire.take()
        assert sent["getPRChunked"] == 1 and "getPR" not in sent


# ------------------------------------------------------- one reader, two pullers
class TestCursorOrArrayFromTheChunk:
    def test_a_read_that_fits_one_chunk_is_one_get_pr(self, federation):
        """Each read returns ROWS rows.  A chunk that holds them all makes
        every streamed read one ``getPR``; a chunk one row short makes it
        a cursor, and makes bulk's ``getPR`` advertise the columnar
        encoding (when the process offers it)."""
        grid, engine, wire, _ = federation
        engine.execute(raw(0))  # remember the members' facts
        offered = ENCODING_COLBATCH in default_accept_encodings()
        for k, (chunk_rows, large) in enumerate([(ROWS, False), (ROWS - 1, True)]):
            engine.stream_chunk_rows = chunk_rows
            wire.take()
            assert len(list(engine.execute(raw(2 * k + 1), stream=True))) == TOTAL
            sent = wire.take()
            if large:
                assert sent.get("getPRChunked") == READS and "getPR" not in sent
            else:
                assert sent.get("getPR") == READS and "getPRChunked" not in sent
            assert len(engine.execute(raw(2 * k + 2)).rows) == TOTAL
            requests = [q for _, q, _ in wire.log if decode_request(q).operation == "getPR"]
            assert len(requests) == READS
            assert [HEADER in q for q in requests] == [large and offered] * READS
            assert live_cursors(grid) == 0

    def test_bulk_reads_on_the_pool_a_stream_on_its_own_thread(self, federation):
        """A bulk raw query submits one task per execution to the fan-out
        pool; a streamed one pulls every read on the draining thread."""
        _, engine, _, _ = federation

        def submitted(stream: bool, k: int) -> int:
            before = engine.scheduler_stats()["submitted"]
            result = engine.execute(raw(k), stream=stream)
            assert len(list(result) if stream else result.rows) == TOTAL
            return engine.scheduler_stats()["submitted"] - before

        assert submitted(stream=False, k=1) == MEMBERS * EXECUTIONS
        assert submitted(stream=True, k=2) == 0


# ------------------------------------------------------------- one accounting
class TestOneAccounting:
    def test_bulk_and_streamed_count_the_same_reads(self, federation):
        grid, engine, wire, wrappers = federation

        def run(k: int, stream: bool):
            wire.take()
            result = engine.execute(raw(k), stream=stream)
            assert len(list(result) if stream else result.rows) == TOTAL
            return result, wire.received()

        bulk, bulk_received = run(1, stream=False)
        engine.stream_chunk_rows = ROWS - 1
        cursors, cursors_received = run(2, stream=True)
        engine.stream_chunk_rows = ROWS
        arrays, arrays_received = run(3, stream=True)
        for stats, received in (
            (bulk.stats, bulk_received), (cursors.stats, cursors_received),
            (arrays.stats, arrays_received),
        ):
            assert stats["records"] == TOTAL
            assert stats["payloadBytes"] == received
            assert stats["chunkedCalls"] + stats["bulkCalls"] == READS
        # the arrays are per-row XML, as are the cursors' chunks on the xml leg
        assert bulk.stats["payloadBytes"] == arrays.stats["payloadBytes"] == payload(wrappers)
        if ENCODING_COLBATCH not in default_accept_encodings():
            assert cursors.stats["payloadBytes"] == payload(wrappers)
        assert bulk.stats["bulkCalls"] == arrays.stats["bulkCalls"] == READS
        assert cursors.stats["chunkedCalls"] == READS
        assert live_cursors(grid) == 0

    @pytest.mark.parametrize("chunk_rows", [ROWS - 1, ROWS], ids=["member-cursors", "member-arrays"])
    def test_a_view_refresh_moves_its_counters_by_the_same_amounts(self, federation, chunk_rows):
        grid, engine, wire, wrappers = federation
        engine.stream_chunk_rows = chunk_rows
        wire.take()
        engine.views().create_view("SELECT m, n")
        before = engine.view_stats()
        assert before["deltaRowsFetched"] == TOTAL
        assert before["deltaBytesFetched"] == wire.received()
        wire.take()
        engine.views().on_update(None, None)
        after = engine.view_stats()
        assert after["deltaRowsFetched"] - before["deltaRowsFetched"] == TOTAL
        assert after["deltaBytesFetched"] - before["deltaBytesFetched"] == wire.received()
        # member arrays are per-row XML, as are member cursors on the xml leg
        if chunk_rows == ROWS or ENCODING_COLBATCH not in default_accept_encodings():
            assert before["deltaBytesFetched"] == payload(wrappers)
            assert after["deltaBytesFetched"] - before["deltaBytesFetched"] == payload(wrappers)
        sent = wire.take()
        assert sent["getPRChunked" if chunk_rows < ROWS else "getPR"] == READS
        assert live_cursors(grid) == 0

    def test_a_large_view_partition_honours_the_engines_chunk_rows(self, federation):
        grid, engine, wire, _ = federation
        engine.stream_chunk_rows = 10
        execution = grid.bind("APP0").all_executions()[0]
        wire.take()
        with execution.get_pr_chunked("m", ALL_FOCI, max_rows=10) as direct:
            assert len(list(direct)) == ROWS
        per_cursor = wire.take()["next"]
        assert per_cursor >= ROWS // 10
        engine.views().create_view("SELECT m, n")
        assert wire.take()["next"] == READS * per_cursor


# ------------------------------------------------------- nothing left behind
class TestNoCursorSurvivesItsConsumer:
    def test_a_stream_producer_that_raises_mid_read(self, federation, monkeypatch):
        grid, engine, *_ = federation
        engine.stream_chunk_rows = 4
        filtered = []

        def filter_values(chunk, predicates):
            # every third member chunk: each execution fails mid-read,
            # after rows of its first chunks went out
            filtered.append(chunk)
            if len(filtered) % 3 == 0:
                raise RuntimeError("consumer gave up mid-read")
            return real_filter_values(chunk, predicates)

        real_filter_values = executor_module.filter_values
        monkeypatch.setattr(executor_module, "filter_values", filter_values)
        with pytest.raises(QueryError, match=r"all 4 member task\(s\) failed"):
            list(engine.execute(raw(1), stream=True))
        assert live_cursors(grid) == 0

    def test_a_consumer_that_walks_away(self, federation):
        grid, engine, *_ = federation
        engine.stream_chunk_rows = 4
        streamed = engine.execute(raw(1), stream=True)
        next(streamed)
        streamed.close()
        assert live_cursors(grid) == 0
        assert engine.execute(raw(1)).cached is False  # a partial drain memoizes nothing

    @pytest.mark.parametrize("read", ["rows", "chunks"])
    def test_a_chunk_that_cannot_be_decoded(self, federation, read):
        """Read row by row or chunk by chunk, a stream that cannot be
        decoded cannot be resumed: its cursor goes with the error."""
        grid, _, _, wrappers = federation
        results = wrappers["APP0"].executions_data[0].results
        # a result type carrying the field separator tears the first record
        results[0] = replace(results[0], result_type="synthetic|torn")
        execution = grid.bind("APP0").all_executions()[0]
        cursor = execution.get_pr_chunked("m", ALL_FOCI, max_rows=4)
        with pytest.raises(ValueError):
            next(cursor) if read == "rows" else next(cursor.chunks())
        assert live_cursors(grid) == 0

    def test_a_bad_max_rows_opens_no_member_cursor(self, federation):
        grid, engine, wire, _ = federation
        execution = grid.bind("APP0").all_executions()[0]
        wire.take()
        with pytest.raises(ValueError, match="max_rows"):
            execution.get_pr_chunked("m", ALL_FOCI, max_rows=0)
        assert live_cursors(grid) == 0
        with pytest.raises(ValueError, match="max_rows"):
            execution.stream_pr("m", ALL_FOCI, max_rows=0, estimated_rows=10**6)
        engine.stream_chunk_rows = 0
        with pytest.raises(QueryError):
            list(engine.execute(raw(1), stream=True))
        assert live_cursors(grid) == 0
        assert "getPRChunked" not in wire.take()  # validated before the call

    def test_a_bad_max_rows_opens_no_federation_cursor(self, federation):
        grid, *_ = federation
        with pytest.raises(ValueError, match="max_rows"):
            grid.client.query_stream(raw(1), max_rows=0)
        fed = grid.environment.container_for("fed.pdx.edu:9090")
        assert not [path for path in fed.service_paths() if "/cursors/instances/" in path]

    def test_view_maintenance_whose_drain_fails_mid_read(self, federation):
        grid, engine, wire, _ = federation
        engine.stream_chunk_rows = 10
        view = engine.views().create_view("SELECT m, n")
        errors = engine.view_stats()["maintenanceErrors"]
        wire.fail_next_at = 2  # the second chunk of the first partition
        engine.views().on_update("APP0", "0")
        assert engine.view_stats()["maintenanceErrors"] == errors + 1
        assert live_cursors(grid) == 0
        assert len(view.rows) == TOTAL  # the epoch refresh rebuilt it whole


# ------------------------------------------------------ one cursor at a time
class TestOneMemberCursorAtATime:
    def test_the_first_row_opens_one_member_cursor(self, federation):
        grid, engine, wire, _ = federation
        engine.stream_chunk_rows = ROWS - 1
        wire.take()
        streamed = engine.execute(raw(1), stream=True)
        next(streamed)
        assert wire.take().get("getPRChunked") == 1
        assert len(list(streamed)) == TOTAL - 1
        assert wire.take().get("getPRChunked") == READS - 1
        assert live_cursors(grid) == 0

    def test_a_limit_the_first_run_satisfies_reads_nothing_more(self, federation):
        grid, engine, wire, _ = federation
        engine.stream_chunk_rows = 4
        wire.take()
        rows = list(engine.execute(f"{raw(1)} LIMIT 5", stream=True))
        sent = wire.take()
        assert sent.get("getPRChunked") == 1 and "getPR" not in sent
        assert sent.get("next") == 2  # two chunks of 4 rows cover the 5
        assert live_cursors(grid) == 0
        assert packs(rows) == packs(engine.execute(f"{raw(2)} LIMIT 5").rows)


# ------------------------------------------------ one failure-and-memoize tail
def run(engine, text: str, stream: bool):
    """Execute and drain; returns (result object, rows)."""
    result = engine.execute(text, stream=stream)
    return result, (list(result) if stream else result.rows)


@pytest.mark.parametrize("stream", [False, True], ids=["bulk", "streamed"])
class TestOneTail:
    def _break(self, grid, monkeypatch, members) -> None:
        def down(*args, **kwargs):
            raise RuntimeError("store connection lost")

        for member in members:
            for exec_id in map(str, range(EXECUTIONS)):
                service = grid.execution_service(member, exec_id)
                monkeypatch.setattr(service, "getPR", down)
                monkeypatch.setattr(service, "getPRChunked", down)

    @pytest.mark.parametrize("chunk_rows", [ROWS - 1, 10**6])
    def test_every_member_task_failing_is_a_query_error(
        self, federation, monkeypatch, stream, chunk_rows
    ):
        grid, engine, *_ = federation
        engine.stream_chunk_rows = chunk_rows
        self._break(grid, monkeypatch, ["APP0", "APP1"])
        with pytest.raises(QueryError, match=r"all 4 member task\(s\) failed: .*lost"):
            run(engine, raw(1), stream)

    def test_a_degraded_result_is_never_admitted(self, federation, monkeypatch, stream):
        grid, engine, *_ = federation
        self._break(grid, monkeypatch, ["APP1"])
        for _ in range(2):
            result, rows = run(engine, raw(1), stream)
            assert result.cached is False and len(result.errors) == EXECUTIONS
            assert result.stats["errors"] == EXECUTIONS
            assert {row["app"] for row in rows} == {"APP0"} and len(rows) == TOTAL // MEMBERS
        monkeypatch.undo()
        assert run(engine, raw(1), stream)[0].cached is False
        assert run(engine, raw(1), stream)[0].cached is True  # the clean one was

    def test_a_stats_degraded_result_is_never_admitted(self, federation, monkeypatch, stream):
        grid, engine, *_ = federation

        def stats_down():
            raise OSError("stats store on fire")

        monkeypatch.setattr(engine.members()["APP1"], "get_stats", stats_down)
        for _ in range(2):
            result, rows = run(engine, raw(1), stream)
            assert result.cached is False and not result.errors and len(rows) == TOTAL
            assert result.plan.stats_degraded is True
        monkeypatch.undo()
        assert run(engine, raw(1), stream)[0].cached is False
        assert run(engine, raw(1), stream)[0].cached is True


# ------------------------------------------------------- the member's PR cache
class TestPrCacheAdmission:
    @pytest.mark.parametrize("read", ["getPR", "getPRAgg", "ordered getPRChunked"])
    def test_an_answer_read_across_an_update_is_not_cached(self, federation, monkeypatch, read):
        """A row lands, and ``data_updated()`` runs, while a member reads
        an answer: that answer is served (it was read before the row), but
        never cached — the next read sees the row."""
        grid, _, _, wrappers = federation
        data = wrappers["APP0"].executions_data[0]
        service = grid.execution_service("APP0", data.exec_id)
        get_pr = InMemoryExecutionWrapper.get_pr
        raced = []

        def racing(wrapper, *args):
            answer = get_pr(wrapper, *args)
            if wrapper.data is data and not raced:
                raced.append(data.exec_id)
                data.results.append(replace(data.results[0], start=0.25, end=0.5))
                service.data_updated("a row landed mid-read")
            return answer

        monkeypatch.setattr(InMemoryExecutionWrapper, "get_pr", racing)
        execution = grid.bind("APP0").all_executions()[0]

        def rows() -> int:
            if read == "getPR":
                return len(execution.get_pr("m", ALL_FOCI))
            if read == "getPRAgg":
                return sum(bucket.count for bucket in execution.get_pr_agg("m", ALL_FOCI))
            return len(list(execution.get_pr_chunked("m", ALL_FOCI, max_rows=7, ordered=True)))

        assert rows() == ROWS and raced == [data.exec_id]
        assert rows() == ROWS + 1
        assert rows() == ROWS + 1 and service.cache.stats.hits >= 1  # the fresh answer is cached

    def test_no_stale_answer_survives_concurrent_updates(self, federation):
        """Readers race a writer that appends a row and announces it: a
        read after each announcement sees every row so far — no reader
        admitted what it read before the update (the generation's check
        and the admission hold one lock)."""
        grid, _, _, wrappers = federation
        data = wrappers["APP0"].executions_data[0]
        service = grid.execution_service("APP0", data.exec_id)
        args = ("m", ALL_FOCI, "0.0", "1000000.0", "")
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                service.getPR(*args)

        readers = [threading.Thread(target=reader, daemon=True) for _ in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        seen = []
        try:
            for thread in readers:
                thread.start()
            for _ in range(100):
                data.results.append(replace(data.results[0], start=0.25, end=0.5))
                service.data_updated("a row landed")
                seen.append(len(service.getPR(*args)))
        finally:
            stop.set()
            sys.setswitchinterval(switch)
            for thread in readers:
                thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in readers)
        assert seen == list(range(ROWS + 1, ROWS + 101))
