"""Wire-encoding negotiation by one request header: the capability
matrix, compatibility in both directions, and the protocol errors.

Counts and bytes only, never a timing.  The request that creates a
cursor — ``getPRChunked`` at a member, ``queryChunked`` at the
federation — carries the ``acceptEncodings`` header that the client's
``PPG_ACCEPT_ENCODINGS`` list gives (none when that list is ``xml``);
the responder deploys the cursor in its pick, and every chunk carries
that one encoding.  Covered: a capable client against a capable member,
an xml-pinned member and a member that ignores the header; a client
pinned to xml; an old client that still sends ``negotiate`` to a new
cursor; and the protocol errors — a chunk in an encoding nobody
advertised, a mid-stream switch, a sequence gap — each a
:class:`ChunkError` that destroys the server-side cursor eagerly rather
than leaving it to the TTL sweep.  Mixed federations stay byte-identical
to bulk.
"""

from __future__ import annotations

import re

import pytest

from repro.core import client as client_mod
from repro.core import execution as execution_module
from repro.core.client import ChunkedResultIterator, default_accept_encodings
from repro.core.semantic import UNDEFINED_TYPE, PerformanceResult
from repro.experiments.common import build_synthetic_grid
from repro.fedquery.executor import FederationEngine
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper
from repro.ogsi.container import GridEnvironment
from repro.ogsi.cursor import RESULT_CURSOR_PORTTYPE, ResultCursorService, deploy_cursor
from repro.ogsi.dispatch import ACCEPT_ENCODINGS_HEADER
from repro.simnet.clock import VirtualClock
from repro.soap import SoapFault
from repro.soap.chunks import (
    ENCODING_COLBATCH,
    ENCODING_XML,
    WIRE_ENCODINGS,
    ChunkError,
    encode_chunk,
)
from repro.soap.rpc import decode_request
from repro.wsdl.porttype import Operation, Parameter, PortType

from tests import test_member_facts
from tests.leaks import live_cursors

ROWS = [
    f"time_spent|/Code/MPI/MPI_{op}|vampir|{i * 0.5:.9f}-{i * 0.5 + 1:.9f}|{i * 0.125!r}"
    for i, op in enumerate(["Send", "Recv", "Wait", "Bcast"] * 25)
]
HEADER = ACCEPT_ENCODINGS_HEADER.encode()
CAPABLE = ",".join(WIRE_ENCODINGS)
CHUNK_ROWS = 64
#: a chunk header on the wire: the xml form has four fields, a colbatch one five
XML_CHUNK = re.compile(rb">#chunk\|\d+\|\d+\|[01]<")
COLBATCH_CHUNK = re.compile(rb">#chunk\|\d+\|\d+\|[01]\|colbatch<")

#: the cursor interface a client built before the header still declares:
#: the ``negotiate`` handshake it sends before the first ``next``
OLD_CLIENT_CURSOR_PORTTYPE = PortType(
    name=RESULT_CURSOR_PORTTYPE.name,
    namespace=RESULT_CURSOR_PORTTYPE.namespace,
    operations=(
        *RESULT_CURSOR_PORTTYPE.operations,
        Operation("negotiate", (Parameter("acceptEncodings", "xsd:string"),), "xsd:string"),
    ),
)


@pytest.fixture()
def cursor_env():
    environment = GridEnvironment(clock=VirtualClock())
    container = environment.create_container("wire.pdx.edu:9090")
    return environment, container


@pytest.fixture()
def capable(monkeypatch):
    """The client advertises every encoding this build speaks, whatever
    the process pins."""
    monkeypatch.setenv("PPG_ACCEPT_ENCODINGS", CAPABLE)


def _member_rows(n: int, salt: int) -> list[PerformanceResult]:
    return [
        PerformanceResult(
            "m",
            f"/rank/{(i + salt) % 9}",
            "synthetic",
            float(i),
            float(i + 1),
            float((i * 7 + salt) % 83) / 8,
        )
        for i in range(n)
    ]


FOCI = [f"/rank/{i}" for i in range(9)]


@pytest.fixture()
def member():
    """One 300-row member behind a federation, every message recorded."""
    environment = GridEnvironment()
    wire = environment.transport = test_member_facts.Wire(environment.transport)
    grid = build_synthetic_grid(
        {
            "ALPHA": InMemoryWrapper(
                "ALPHA", [InMemoryExecution("0", {"numprocs": "4"}, _member_rows(300, 1))]
            )
        },
        environment,
    )
    grid.deploy_federation()
    yield grid, wire
    grid.fed_engine.close()
    environment.close()


def sent(wire) -> list[tuple[str, bytes, bytes]]:
    """(operation, request, response) of every message since the last call."""
    log = [(decode_request(q).operation, q, r) for _, q, r in wire.log]
    del wire.log[:]
    return log


def drain_member(grid, wire):
    """(expected rows, drained rows, iterator, messages) of one ordered
    getPRChunked drain of ALPHA, CHUNK_ROWS at a time."""
    execution = grid.bind("ALPHA").all_executions()[0]
    start, end = execution.time_range()
    expected = [r.pack() for r in execution.read("m", FOCI, start, end, ordered=True)]
    sent(wire)
    with execution.get_pr_chunked(
        "m", FOCI, start, end, max_rows=CHUNK_ROWS, ordered=True
    ) as iterator:
        rows = [r.pack() for r in iterator]
    return expected, rows, iterator, sent(wire)


def cursor_traffic(log) -> dict[str, int]:
    ops = [op for op, _, _ in log]
    return {op: ops.count(op) for op in ops}


#: 300 rows, 64 at a time: one create, five chunks, one close
ONE_DRAIN = {"getPRChunked": 1, "next": 5, "close": 1}


class TestNegotiationMatrix:
    @pytest.mark.usefixtures("capable")
    def test_capable_client_capable_server_picks_colbatch(self, member):
        grid, wire = member
        expected, rows, iterator, log = drain_member(grid, wire)
        assert rows == expected and len(rows) == 300
        assert iterator.encoding == ENCODING_COLBATCH
        assert cursor_traffic(log) == ONE_DRAIN  # no negotiate round trip
        (create,) = [q for op, q, _ in log if op == "getPRChunked"]
        assert HEADER in create
        assert all(COLBATCH_CHUNK.search(r) for op, _, r in log if op == "next")

    @pytest.mark.usefixtures("capable")
    def test_capable_client_xml_only_server_falls_back(self, member):
        """A member pinned to ``wire_encodings=("xml",)`` — the
        pre-colbatch member — answers the header with xml."""
        grid, wire = member
        grid.execution_service("ALPHA", "0").wire_encodings = (ENCODING_XML,)
        expected, rows, iterator, log = drain_member(grid, wire)
        assert rows == expected and iterator.encoding == ENCODING_XML
        assert cursor_traffic(log) == ONE_DRAIN
        assert all(XML_CHUNK.search(r) for op, _, r in log if op == "next")

    @pytest.mark.usefixtures("capable")
    def test_capable_client_legacy_server_falls_back(self, member, monkeypatch):
        """A member that predates the header never reads it: its cursor
        serves xml, which the client always accepts."""
        grid, wire = member
        monkeypatch.setattr(execution_module, "answer_encoding", lambda offered: ENCODING_XML)
        expected, rows, iterator, log = drain_member(grid, wire)
        assert rows == expected and iterator.encoding == ENCODING_XML
        assert cursor_traffic(log) == ONE_DRAIN

    def test_xml_only_client_capable_server_stays_xml(self, member, monkeypatch):
        monkeypatch.setenv("PPG_ACCEPT_ENCODINGS", ENCODING_XML)
        grid, wire = member
        expected, rows, iterator, log = drain_member(grid, wire)
        assert rows == expected and iterator.encoding == ENCODING_XML
        assert cursor_traffic(log) == ONE_DRAIN
        (create,) = [q for op, q, _ in log if op == "getPRChunked"]
        assert HEADER not in create
        assert all(XML_CHUNK.search(r) for op, _, r in log if op == "next")

    def test_env_override_pins_default_to_xml(self, member, monkeypatch):
        """``PPG_ACCEPT_ENCODINGS=xml``: no request creating a cursor
        carries the header — at the client or inside the federation —
        and every chunk on every hop is xml."""
        monkeypatch.setenv("PPG_ACCEPT_ENCODINGS", ENCODING_XML)
        assert default_accept_encodings() == (ENCODING_XML,)
        grid, wire = member
        grid.fed_engine.stream_chunk_rows = CHUNK_ROWS  # the member drains a cursor too
        bulk = [row.pack() for row in grid.client.query("SELECT m WHERE value >= -1.5")]
        sent(wire)
        with grid.client.query_stream("SELECT m WHERE value >= -2.5", max_rows=CHUNK_ROWS) as it:
            assert [row.pack() for row in it] == bulk
        assert it.encoding == ENCODING_XML
        log = sent(wire)
        creating = [q for op, q, _ in log if op in ("getPRChunked", "queryChunked")]
        assert len(creating) == 2 and all(HEADER not in q for q in creating)
        chunks = [r for op, _, r in log if op == "next"]
        assert chunks and all(XML_CHUNK.search(r) for r in chunks)
        monkeypatch.delenv("PPG_ACCEPT_ENCODINGS")
        assert default_accept_encodings() == WIRE_ENCODINGS

    def test_an_old_client_gets_xml_from_a_new_cursor(self, member):
        """A client built before the header opens its cursor without one,
        then sends ``negotiate``: the new cursor has no such operation, the
        container faults it, and the old client's fallback drains xml —
        byte for byte the chunks it always drained."""
        grid, wire = member
        execution = grid.bind("ALPHA").all_executions()[0]
        start, end = execution.time_range()
        expected = [r.pack() for r in execution.read("m", FOCI, start, end, ordered=True)]
        sent(wire)
        handle = execution.stub.getPRChunked(
            "m", FOCI, repr(start), repr(end), UNDEFINED_TYPE, True
        )
        old = grid.environment.stub_for_handle(handle, OLD_CLIENT_CURSOR_PORTTYPE)
        with pytest.raises(SoapFault, match="has no operation 'negotiate'"):
            old.negotiate(CAPABLE)
        seq = 0
        while True:
            rows = expected[seq * CHUNK_ROWS:(seq + 1) * CHUNK_ROWS]
            done = (seq + 1) * CHUNK_ROWS >= len(expected)
            assert list(old.next(CHUNK_ROWS)) == encode_chunk(seq, rows, done)
            if done:
                break
            seq += 1
        old.close()
        log = sent(wire)
        assert [op for op, _, _ in log][:2] == ["getPRChunked", "negotiate"]
        assert HEADER not in log[0][1]
        assert live_cursors(grid) == 0

    def test_an_unadvertised_encoding_is_refused_and_destroyed(self, member, monkeypatch):
        """A member that answers in an encoding the creating request did
        not advertise: the first chunk is a ChunkError, and the cursor is
        destroyed with it."""
        monkeypatch.setenv("PPG_ACCEPT_ENCODINGS", ENCODING_XML)
        monkeypatch.setattr(
            execution_module, "answer_encoding", lambda offered: ENCODING_COLBATCH
        )
        grid, _ = member
        execution = grid.bind("ALPHA").all_executions()[0]
        iterator = execution.get_pr_chunked("m", FOCI, max_rows=CHUNK_ROWS)
        assert live_cursors(grid) == 1
        with pytest.raises(ChunkError, match="did not advertise"):
            next(iterator)
        assert live_cursors(grid) == 0

    @pytest.mark.usefixtures("capable")
    def test_mid_stream_encoding_switch_rejected_and_closed(self, cursor_env):
        environment, container = cursor_env
        gsh = deploy_cursor(container, "services/X", [ROWS], encoding=ENCODING_COLBATCH)
        iterator = ChunkedResultIterator(environment, gsh.url(), max_rows=16)
        next(iterator)
        assert iterator.encoding == ENCODING_COLBATCH
        # the server flips encodings mid-drain (a protocol violation)
        container.service_at(gsh.path)._encoding = ENCODING_XML
        with pytest.raises(ChunkError, match="switched encoding mid-stream"):
            list(iterator)
        assert container.has_service(gsh) is False


class TestDestroyOnGap:
    def test_sequence_gap_destroys_cursor_eagerly(self, cursor_env):
        """Regression: a seq gap used to leave the server-side cursor
        alive until the TTL sweep; it must be destroyed with the
        ChunkError now."""
        environment, container = cursor_env
        gsh = deploy_cursor(container, "services/X", [ROWS])
        iterator = ChunkedResultIterator(environment, gsh.url(), max_rows=16)
        next(iterator)
        # another consumer steals a chunk out from under this iterator
        environment.stub_for_handle(
            gsh.url(), ResultCursorService.porttype
        ).next(16)
        with pytest.raises(ChunkError, match="expected 1"):
            list(iterator)
        assert container.has_service(gsh) is False, (
            "cursor must be destroyed eagerly on a sequence gap, "
            "not linger until the TTL sweep"
        )
        assert iterator._closed is True


@pytest.fixture(scope="module")
def mixed_grid():
    grid = build_synthetic_grid(
        {
            "ALPHA": InMemoryWrapper(
                "ALPHA", [InMemoryExecution("0", {"numprocs": "4"}, _member_rows(700, 1))]
            ),
            "BETA": InMemoryWrapper(
                "BETA", [InMemoryExecution("0", {"numprocs": "8"}, _member_rows(700, 5))]
            ),
        }
    )
    grid.deploy_federation()
    return grid


class RecordingIterator(ChunkedResultIterator):
    """ChunkedResultIterator that logs the encoding each cursor's first
    chunk pinned."""

    log: list[str] = []

    def _fetch(self) -> None:
        super()._fetch()
        if self.chunks_fetched == 1:
            RecordingIterator.log.append(self.encoding)


@pytest.mark.usefixtures("capable")
class TestMixedFederationStreaming:
    def test_mixed_member_encodings_stay_byte_identical(self, mixed_grid, monkeypatch):
        """One member pinned to XML rows, the other columnar-capable:
        the k-way streamed merge must still reproduce the bulk bytes,
        with both encodings actually exercised on the wire."""
        engine = FederationEngine(
            client_mod.PPerfGridClient(mixed_grid.environment, mixed_grid.uddi_gsh),
            stream_chunk_rows=13,
        )
        text = "SELECT m FROM ALPHA, BETA"
        bulk = mixed_grid.fed_engine.execute(text)
        # bind (and deploy) this engine's execution instances, then pin
        # every BETA-side execution service to the legacy XML rows
        engine.execute(text)
        site = mixed_grid.sites["BETA"]
        pinned = 0
        for container in [site.container, *site.replica_containers]:
            for path in container.service_paths():
                service = container.service_at(path)
                if hasattr(service, "wire_encodings"):
                    service.wire_encodings = (ENCODING_XML,)
                    pinned += 1
        assert pinned, "no BETA execution services found to pin"

        # the warm-up memoized the result; force the streamed run back
        # onto the wire
        engine.invalidate_cache()
        monkeypatch.setattr(client_mod, "ChunkedResultIterator", RecordingIterator)
        RecordingIterator.log = []
        with engine.execute(text, stream=True) as streamed:
            streamed_rows = list(streamed)
        assert [r.pack() for r in streamed_rows] == [r.pack() for r in bulk.rows]
        assert ENCODING_XML in RecordingIterator.log, "pinned member must serve xml"
        assert ENCODING_COLBATCH in RecordingIterator.log, (
            "capable member must serve colbatch"
        )

    def test_query_stream_matrix_through_federation_service(self, mixed_grid):
        """queryChunked end to end: the federation endpoint's cursor
        answers the header with colbatch by default and serves
        byte-identical rows when pinned to xml."""
        client = mixed_grid.client
        text = "SELECT m FROM ALPHA WHERE focus = '/rank/3'"
        bulk = [row.pack() for row in client.query(text)]
        assert bulk

        with client.query_stream(text, max_rows=11) as iterator:
            streamed = [row.pack() for row in iterator]
        assert iterator.encoding == ENCODING_COLBATCH
        assert streamed == bulk

        fed_container = mixed_grid.environment.container_for("fed.pdx.edu:9090")
        fed_service = fed_container.service_at("services/FederatedQuery")
        fed_service.wire_encodings = (ENCODING_XML,)
        try:
            with client.query_stream(text, max_rows=11) as iterator:
                streamed = [row.pack() for row in iterator]
            assert iterator.encoding == ENCODING_XML
            assert streamed == bulk
        finally:
            fed_service.wire_encodings = WIRE_ENCODINGS
