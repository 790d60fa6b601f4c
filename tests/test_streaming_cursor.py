"""Streaming result cursors: chunk envelope, ResultCursor service,
client-side chunked iteration, and the stats-driven bulk fallback.

Covers the ISSUE acceptance points at the execution level: byte-identical
results for every chunk size (one-chunk-lookahead done flags included),
soft-state TTL expiry via the container sweep, next()-after-close()
faulting, and a tracemalloc proof that a chunked drain of a large store
holds O(chunk) client/transfer memory while bulk getPR holds O(result).
"""

from __future__ import annotations

import tracemalloc
from functools import partial

import pytest

from repro.core.client import ChunkedResultIterator
from repro.core.semantic import PerformanceResult, pr_sort_key
from repro.experiments.common import build_synthetic_grid
from repro.fedquery.merge import read_rows
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper
from repro.ogsi.container import GridEnvironment
from repro.ogsi.cursor import ResultCursorService, deploy_cursor
from repro.simnet.clock import VirtualClock
from repro.soap import SoapFault
from repro.soap import colbatch
from repro.soap.chunks import (
    CHUNK_HEADER, ENCODING_COLBATCH, ENCODING_XML, ChunkError, decode_chunk, encode_chunk,
)
from repro.soap.colbatch import split_rows


class TestChunkEnvelope:
    def test_round_trip(self):
        payload = encode_chunk(3, ["a|b", "c|d"], done=False)
        assert payload[0] == f"{CHUNK_HEADER}|3|2|0"
        envelope = decode_chunk(payload)
        assert envelope.seq == 3
        assert envelope.rows == ("a|b", "c|d")
        assert envelope.done is False

    def test_done_flag(self):
        assert decode_chunk(encode_chunk(0, [], done=True)).done is True

    def test_bad_header_rejected(self):
        with pytest.raises(ChunkError):
            decode_chunk(["not-a-header", "row"])

    def test_row_count_mismatch_rejected(self):
        payload = encode_chunk(0, ["x"], done=True)
        with pytest.raises(ChunkError):
            decode_chunk(payload + ["extra-row"])

    def test_empty_payload_rejected(self):
        with pytest.raises(ChunkError):
            decode_chunk([])


@pytest.fixture()
def cursor_env():
    environment = GridEnvironment(clock=VirtualClock())
    container = environment.create_container("cursors.pdx.edu:9090")
    return environment, container


class TestResultCursorService:
    def rows(self, n):
        return [f"row-{i:04d}" for i in range(n)]

    def test_drain_in_chunks(self, cursor_env):
        environment, container = cursor_env
        gsh = deploy_cursor(container, "services/X", [self.rows(10)])
        stub = environment.stub_for_handle(gsh.url(), ResultCursorService.porttype)
        first = decode_chunk(list(stub.next(4)))
        assert first.seq == 0 and first.rows == tuple(self.rows(10)[:4])
        assert first.done is False
        second = decode_chunk(list(stub.next(4)))
        assert second.seq == 1 and not second.done
        third = decode_chunk(list(stub.next(4)))
        # 2 remaining rows: the lookahead lets the final chunk say done=1
        assert third.rows == tuple(self.rows(10)[8:]) and third.done is True

    def test_exact_multiple_needs_no_empty_tail(self, cursor_env):
        environment, container = cursor_env
        gsh = deploy_cursor(container, "services/X", [self.rows(8)])
        stub = environment.stub_for_handle(gsh.url(), ResultCursorService.porttype)
        decode_chunk(list(stub.next(4)))
        assert decode_chunk(list(stub.next(4))).done is True

    def test_close_destroys_instance(self, cursor_env):
        environment, container = cursor_env
        gsh = deploy_cursor(container, "services/X", [self.rows(4)])
        stub = environment.stub_for_handle(gsh.url(), ResultCursorService.porttype)
        stub.close()
        with pytest.raises(SoapFault, match="no service at"):
            stub.next(2)

    def test_ttl_expiry_reclaims_cursor(self, cursor_env):
        environment, container = cursor_env
        clock = environment.clock
        gsh = deploy_cursor(container, "services/X", [self.rows(6)], ttl=30.0)
        stub = environment.stub_for_handle(gsh.url(), ResultCursorService.porttype)
        clock.advance(20.0)
        stub.next(2)  # renews the soft-state lifetime
        clock.advance(20.0)
        assert environment.sweep_expired() == 0  # renewed at t=20 -> alive
        clock.advance(31.0)
        assert environment.sweep_expired() == 1
        with pytest.raises(SoapFault, match="no service at"):
            stub.next(2)

    def test_on_close_fires_exactly_once(self, cursor_env):
        _, container = cursor_env
        fired = []
        gsh = deploy_cursor(
            container, "services/X", iter(()), on_close=lambda: fired.append(1)
        )
        service = container.service_at(gsh.path)
        service.close()
        with pytest.raises(RuntimeError, match="destroyed"):
            service.Destroy()  # already destroyed; callback must not re-fire
        assert fired == [1]

    def test_bad_max_rows_faults(self, cursor_env):
        environment, container = cursor_env
        gsh = deploy_cursor(container, "services/X", [self.rows(2)])
        stub = environment.stub_for_handle(gsh.url(), ResultCursorService.porttype)
        with pytest.raises(SoapFault):
            stub.next(0)


class TestChunkSources:
    """A cursor re-slices its source's chunks — row texts or token
    columns, of any sizes — to each ``next(maxRows)``."""

    @staticmethod
    def source(rows, max_rows, columnar):
        """*rows* in chunks of 0, 1, maxRows-1, maxRows and maxRows+1
        rows, then the rest."""
        chunks, at = [], 0
        for size in (0, 1, max_rows - 1, max_rows, max_rows + 1, len(rows)):
            part, at = rows[at : at + size], at + size
            chunks.append(split_rows(part) if columnar else part)
        return chunks

    @pytest.mark.parametrize("max_rows", [1, 3, 4])
    @pytest.mark.parametrize("columnar", [False, True], ids=["texts", "columns"])
    @pytest.mark.parametrize("encoding", [ENCODING_XML, ENCODING_COLBATCH])
    def test_uneven_chunks(self, cursor_env, max_rows, columnar, encoding):
        environment, container = cursor_env
        rows = [f"m|/rank/{i % 3}|t|{i}.000000000-{i + 1}.000000000|{i / 4!r}" for i in range(13)]
        rows[5] = "m|/rank/a|b|torn|0.0-1.0|2.0"  # an exception row mid-source
        gsh = deploy_cursor(
            container, "services/X", self.source(rows, max_rows, columnar), encoding=encoding
        )
        stub = environment.stub_for_handle(gsh.url(), ResultCursorService.porttype)
        envelopes = [decode_chunk(list(stub.next(max_rows)))]
        while not envelopes[-1].done:
            envelopes.append(decode_chunk(list(stub.next(max_rows))))
        assert [row for envelope in envelopes for row in envelope.rows] == rows
        assert len(envelopes) == -(-len(rows) // max_rows)
        assert [len(envelope.rows) for envelope in envelopes[:-1]] == [max_rows] * (len(envelopes) - 1)
        assert {envelope.encoding for envelope in envelopes} == {encoding}
        sdes = container.service_at(gsh.path).service_data
        assert [sdes.get(name).values for name in ("rowsServed", "chunksServed", "done")] == [
            [str(len(rows))], [str(len(envelopes))], ["1"]
        ]

    @pytest.mark.parametrize("source", [[], [[]], [[], split_rows([])]], ids=["none", "empty", "both"])
    def test_no_rows_is_one_done_chunk(self, cursor_env, source):
        environment, container = cursor_env
        gsh = deploy_cursor(container, "services/X", source, encoding=ENCODING_COLBATCH)
        stub = environment.stub_for_handle(gsh.url(), ResultCursorService.porttype)
        envelope = decode_chunk(list(stub.next(4)))
        assert (envelope.seq, len(envelope.rows), envelope.done) == (0, 0, True)

    def test_column_chunks_are_framed_from_their_columns(self, cursor_env, monkeypatch):
        """No row of a columnar source is split again, and the bytes are
        those of the same rows as texts."""
        environment, container = cursor_env
        rows = [f"a={i}|b=/x/{i % 5}|c={i * 0.5!r}" for i in range(40)]
        payloads = {}
        for columnar in (False, True):
            gsh = deploy_cursor(
                container, "services/X", self.source(rows, 16, columnar), encoding=ENCODING_COLBATCH
            )
            stub = environment.stub_for_handle(gsh.url(), ResultCursorService.porttype)
            if columnar:
                monkeypatch.setattr(colbatch, "split_rows", None)  # any split would raise
            payloads[columnar] = [list(stub.next(16)) for _ in range(3)]
        assert payloads[True] == payloads[False]


class TestChunkedResultIterator:
    def test_yields_all_rows_and_autocloses(self, cursor_env):
        environment, container = cursor_env
        rows = [f"r{i}" for i in range(23)]
        gsh = deploy_cursor(container, "services/X", [rows])
        it = ChunkedResultIterator(environment, gsh.url(), max_rows=5)
        assert list(it) == rows
        assert it.chunks_fetched == 5
        # exhaustion closed the server-side instance
        assert container.has_service(gsh) is False

    def test_early_close_releases_cursor(self, cursor_env):
        environment, container = cursor_env
        gsh = deploy_cursor(container, "services/X", ([f"r{i}"] for i in range(100)))
        with ChunkedResultIterator(environment, gsh.url(), max_rows=10) as it:
            assert next(it) == "r0"
        assert container.has_service(gsh) is False
        assert list(it) == []  # closed iterator is simply exhausted

    def test_sequence_gap_detected(self, cursor_env):
        environment, container = cursor_env
        gsh = deploy_cursor(container, "services/X", [[f"r{i}" for i in range(9)]])
        it = ChunkedResultIterator(environment, gsh.url(), max_rows=3)
        next(it)
        # another consumer steals a chunk out from under this iterator
        environment.stub_for_handle(gsh.url(), ResultCursorService.porttype).next(3)
        with pytest.raises(ChunkError, match="expected 1"):
            for _ in it:
                pass

    @pytest.mark.parametrize(
        "good, decoder",
        [
            (PerformanceResult("m", "/f", "t", 0.0, 1.0, 4.5).pack(), partial(map, PerformanceResult.unpack)),
            ("app=A|value=1.5", read_rows),
        ],
        ids=["per-row", "by-column"],
    )
    def test_rejected_row_releases_cursor(self, cursor_env, good, decoder):
        """A stream that cannot be decoded cannot be resumed: the
        server-side cursor goes now, not at the TTL sweep, and the
        decoder's own exception is what the caller sees — raised at the
        row that holds it, after the rows before it."""
        environment, container = cursor_env
        gsh = deploy_cursor(
            container, "services/X", [[good, "not a record", *[good] * 50]]
        )
        it = ChunkedResultIterator(
            environment, gsh.url(), max_rows=10, decoder=decoder
        )
        next(it)
        with pytest.raises(ValueError, match="not a record"):
            next(it)
        assert container.has_service(gsh) is False
        assert list(it) == []  # closed iterator is simply exhausted

    def test_decoder_applied(self, cursor_env):
        environment, container = cursor_env
        pr = PerformanceResult("m", "/f", "t", 0.0, 1.0, 4.5)
        gsh = deploy_cursor(container, "services/X", [[pr.pack()]])
        it = ChunkedResultIterator(
            environment, gsh.url(), decoder=partial(map, PerformanceResult.unpack)
        )
        assert list(it) == [pr]


def _synthetic_rows(n: int) -> list[PerformanceResult]:
    return [
        PerformanceResult(
            "m", f"/rank/{i % 7}", "synthetic", float(i), float(i + 1), float(i * 3 % 97)
        )
        for i in range(n)
    ]


FOCI = [f"/rank/{i}" for i in range(7)]


def _bind_app(grid, name):
    for org in grid.client.discover_organizations("%"):
        for service in org.services():
            if service.name == name:
                return grid.client.bind(service)
    raise KeyError(f"no published application {name!r}")


@pytest.fixture(scope="module")
def chunk_grid():
    wrapper = InMemoryWrapper(
        "CHUNKY", [InMemoryExecution("0", {"numprocs": "4"}, _synthetic_rows(1000))]
    )
    grid = build_synthetic_grid({"CHUNKY": wrapper})
    binding = _bind_app(grid, "CHUNKY").all_executions()[0]
    return grid, binding


class TestExecutionChunkedTransfer:
    @pytest.mark.parametrize("max_rows", [1, 2, 7, 64, 100000])
    def test_chunked_matches_bulk_for_every_chunk_size(self, chunk_grid, max_rows):
        _, binding = chunk_grid
        bulk = binding.get_pr("m", FOCI)
        with binding.get_pr_chunked("m", FOCI, max_rows=max_rows) as it:
            streamed = list(it)
        assert [pr.pack() for pr in streamed] == [pr.pack() for pr in bulk]

    @pytest.mark.parametrize("max_rows", [1, 7, 64])
    def test_ordered_cursor_is_canonically_sorted(self, chunk_grid, max_rows):
        _, binding = chunk_grid
        expected = sorted(binding.get_pr("m", FOCI), key=pr_sort_key)
        with binding.get_pr_chunked("m", FOCI, max_rows=max_rows, ordered=True) as it:
            streamed = list(it)
        assert [pr.pack() for pr in streamed] == [pr.pack() for pr in expected]

    def test_stream_pr_uses_bulk_below_threshold(self, chunk_grid, monkeypatch):
        _, binding = chunk_grid

        def no_cursor(*args, **kwargs):
            raise AssertionError("small result must not open a cursor")

        monkeypatch.setattr(binding, "get_pr_chunked", no_cursor)
        # getStats says 1000 rows for m: one chunk of 1000 holds them
        rows = list(binding.stream_pr("m", FOCI, max_rows=1000))
        assert len(rows) == 1000

    def test_stream_pr_uses_cursor_above_threshold(self, chunk_grid, monkeypatch):
        _, binding = chunk_grid
        bulk = binding.get_pr("m", FOCI)

        def no_bulk(*args, **kwargs):
            raise AssertionError("above-threshold result must stream")

        monkeypatch.setattr(binding, "get_pr", no_bulk)
        rows = list(binding.stream_pr("m", FOCI, max_rows=999))
        assert [pr.pack() for pr in rows] == [pr.pack() for pr in bulk]

    def test_stream_pr_unknown_size_streams(self, chunk_grid, monkeypatch):
        """Stats probe failing -> unknown size -> stream (bulk is the
        memory risk, the cursor costs only round trips)."""
        _, binding = chunk_grid

        def stats_down():
            raise RuntimeError("getStats unavailable")

        def no_bulk(*args, **kwargs):
            raise AssertionError("unknown-size result must stream")

        monkeypatch.setattr(binding, "get_stats", stats_down)
        monkeypatch.setattr(binding, "get_pr", no_bulk)
        rows = list(binding.stream_pr("m", FOCI, max_rows=10**6))
        assert len(rows) == 1000


class TestBoundedMemoryDrain:
    """The headline property: chunked transfer keeps the *transfer path*
    memory flat in the result size while bulk is O(result)."""

    N_ROWS = 2_000

    @pytest.fixture(scope="class")
    def sized_bindings(self):
        """Execution bindings over N and 4N rows, smaller first."""
        sizes = (self.N_ROWS, 4 * self.N_ROWS)
        wrapper = InMemoryWrapper(
            "BIG", [InMemoryExecution(str(n), {}, _synthetic_rows(n)) for n in sizes]
        )
        app = _bind_app(build_synthetic_grid({"BIG": wrapper}), "BIG")
        return [app.query_executions("execid", str(n))[0] for n in sizes]

    @staticmethod
    def _peak(drain, binding) -> tuple[int, int]:
        """(peak traced bytes above the starting level, rows drained)."""
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        count = drain(binding)
        return tracemalloc.get_traced_memory()[1] - base, count

    def test_chunked_peak_is_multiples_below_bulk(self, sized_bindings):
        def streamed(binding):
            return sum(
                1 for _ in binding.stream_pr("m", FOCI, max_rows=256)
            )

        def bulk(binding):
            return len(binding.get_pr("m", FOCI))

        # untraced warm-up: one-time allocations (stubs, codec caches)
        # must not be charged to the first measured drain
        streamed(sized_bindings[0])
        tracemalloc.start()
        try:
            # streamed arms first: a bulk call populates the server-side
            # PR cache, which would otherwise be charged to them
            peaks = {
                arm.__name__: [self._peak(arm, b) for b in sized_bindings]
                for arm in (streamed, bulk)
            }
        finally:
            tracemalloc.stop()
        for arm_peaks in peaks.values():
            assert [count for _, count in arm_peaks] == [self.N_ROWS, 4 * self.N_ROWS]
        (streamed_n, _), (streamed_4n, _) = peaks["streamed"]
        (bulk_n, _), (bulk_4n, _) = peaks["bulk"]
        # the shape, not a ratio between arms: four times the rows leave
        # the streamed peak where it was and multiply the bulk peak
        assert streamed_4n <= 1.25 * streamed_n, peaks
        assert bulk_4n >= 3 * bulk_n, peaks
