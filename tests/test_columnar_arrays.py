"""Negotiated columnar answers for one-shot ``getPR`` / ``query`` arrays.

Counts and bytes only, never a timing.  A caller that expects a large
answer advertises the encodings it accepts in one ``acceptEncodings``
SOAP header; the responder answers with one ``done=1`` colbatch chunk
when that is shorter than the rows, else with the very array an
unadvertised call gets.  Checked here: the rows a caller receives are
byte-identical either way on every store flavour; a request without the
header is answered with exactly the bytes it always was; the shorter-only
rule, pinned members and header-blind responders; a malformed chunk
degrades one member task and memoizes nothing; the member PR cache keeps
the framed form beside its rows; and the engine's counters do not depend
on the encoding.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import execution as execution_module
from repro.core.client import ChunkedResultIterator
from repro.core.semantic import PerformanceResult
from repro.experiments.common import GridScale, build_grid, build_synthetic_grid
from repro.fedquery import QueryError
from repro.fedquery.executor import FederationEngine
from repro.fedquery.service import FEDERATED_QUERY_PORTTYPE
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper
from repro.ogsi.container import GridEnvironment
from repro.ogsi.dispatch import (
    ACCEPT_ENCODINGS_HEADER,
    ServiceGate,
    accept_encodings_headers,
    answer_encoding,
    dispatch_frame,
)
from repro.soap import colbatch
from repro.soap.chunks import (
    ENCODING_COLBATCH,
    ENCODING_XML,
    WIRE_ENCODINGS,
    ChunkError,
    encode_chunk,
)
from repro.soap.rpc import decode_request

from tests import test_member_facts

MEMBERS, EXECUTIONS, ROWS, FOCI = 2, 2, 300, 5
ALL_FOCI = [f"/rank/{i}" for i in range(FOCI)]
HEADER = ACCEPT_ENCODINGS_HEADER.encode()
XML_ONLY = (ENCODING_XML,)


def rows(n: int, salt: int) -> list[PerformanceResult]:
    return [
        PerformanceResult(
            "m", f"/rank/{(i * 7 + salt) % FOCI}", "synthetic",
            i * 0.25, i * 0.25 + 1.0, ((i * 13 + salt) % 97) / 8,
        )
        for i in range(n)
    ]


def wrappers(n: int = ROWS) -> dict[str, InMemoryWrapper]:
    return {
        f"G{m}": InMemoryWrapper(
            f"G{m}",
            [
                InMemoryExecution(str(e), {"numprocs": str(2 ** e)}, rows(n, m * 3 + e))
                for e in range(EXECUTIONS)
            ],
        )
        for m in range(MEMBERS)
    }


@pytest.fixture(autouse=True)
def capable(monkeypatch):
    """Callers advertise every encoding this build speaks, whatever the
    process pins; a test that wants xml sets the variable itself."""
    monkeypatch.setenv("PPG_ACCEPT_ENCODINGS", ",".join(WIRE_ENCODINGS))


@pytest.fixture()
def federation():
    environment = GridEnvironment()
    wire = environment.transport = test_member_facts.Wire(environment.transport)
    grid = build_synthetic_grid(wrappers(), environment)
    engine = grid.deploy_federation()
    yield grid, engine, wire
    engine.close()
    environment.close()


def packs(records) -> list[str]:
    return [record.pack() for record in records]


def sent(wire) -> list[tuple[str, bytes, bytes]]:
    """(operation, request, response) of every message since the last call."""
    log = [(decode_request(request).operation, request, response)
           for _, request, response in wire.log]
    del wire.log[:]
    return log


def count_encode_batch(monkeypatch) -> list[int]:
    calls = [0]
    real = colbatch.encode_batch

    def counting(batch_rows, *args):
        calls[0] += 1
        return real(batch_rows, *args)

    monkeypatch.setattr(colbatch, "encode_batch", counting)
    return calls


def engine_for(grid) -> FederationEngine:
    """A bulk engine on which every raw read is large (so it advertises)."""
    from repro.core.client import PPerfGridClient

    return FederationEngine(
        PPerfGridClient(grid.environment, grid.uddi_gsh), stream_chunk_rows=1
    )


# ------------------------------------------------------------- byte identity
@pytest.fixture(scope="module")
def three_stores():
    grid = build_grid(GridScale.tiny())
    # recorded from here on: every stub the tests build sends through it
    grid.environment.transport = test_member_facts.Wire(grid.environment.transport)
    yield grid
    grid.cleanup()


@pytest.mark.parametrize("app", ["HPL", "SMG98", "PRESTA-RMA"])
def test_framed_rows_equal_xml_rows_on_every_store(three_stores, app):
    binding = three_stores.bind(app)
    wire = three_stores.environment.transport
    encodings = set()
    for execution in binding.all_executions():
        foci = execution.foci()
        for metric in execution.metrics():
            wire.take()
            xml = execution.read(metric, foci)
            assert xml.bytes_fetched == wire.received() == sum(map(len, packs(xml)))
            wire.take()
            framed = execution.read(metric, foci, columnar=True)
            assert framed.bytes_fetched == wire.received()
            assert packs(framed) == packs(xml) and xml.encoding == ENCODING_XML
            encodings.add(framed.encoding)
    # HPL answers one row per execution: never worth a chunk
    assert (ENCODING_COLBATCH in encodings) == (app != "HPL")


def test_framed_rows_equal_xml_rows_on_synthetic_members(federation):
    grid, _, wire = federation
    for app in grid.sites:
        for execution in grid.bind(app).all_executions():
            xml = execution.read("m", ALL_FOCI, ordered=True)
            framed = execution.read("m", ALL_FOCI, ordered=True, columnar=True)
            assert packs(framed) == packs(xml) and len(xml) == ROWS
            assert framed.encoding == ENCODING_COLBATCH
    answers = [response for op, _, response in sent(wire) if op == "getPR"]
    framed_bytes = sum(len(r) for r in answers if b"#chunk|0|" in r)
    xml_bytes = sum(len(r) for r in answers if b"#chunk|0|" not in r)
    assert framed_bytes * 4 < xml_bytes  # the same rows, each hop under a quarter


# ------------------------------------------------------ unadvertised: as ever
#: sha256 of the getPR request and response (300 rows) and of the
#: federated query response (600 rows) without the header, captured
#: before the header existed
GOLDEN_GET_PR = (
    "dac119f2f07053fdd9f32593d532174ea0a1dfee37a3dcf67b85d4fc04ffc37a",
    "b7dbb5cf20bb633ca202a5d8e17433907e7ee70abc821f5e811f0f2a4ca48202",
)
GOLDEN_QUERY = "fd46e9c5e8367d13a4f7e8126ed7647c3debe29ab52313294b6bcf910909763a"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_a_request_without_the_header_is_answered_as_it_always_was(federation):
    grid, _, wire = federation
    execution = grid.bind("G0").all_executions()[1]
    execution.get_pr("m", ALL_FOCI)  # the PR cache is warm either way
    sent(wire)
    assert len(execution.get_pr("m", ALL_FOCI)) == ROWS  # get_pr never advertises
    ((request, response),) = [(q, r) for op, q, r in sent(wire) if op == "getPR"]
    assert HEADER not in request
    assert (sha256(request), sha256(response)) == GOLDEN_GET_PR
    stub = grid.environment.stub_for_handle(grid.fed_gsh, FEDERATED_QUERY_PORTTYPE)
    assert len(stub.query("SELECT m WHERE value >= 2.0")) > ROWS
    (response,) = [r for op, _, r in sent(wire) if op == "query"]
    assert sha256(response) == GOLDEN_QUERY


# ------------------------------------------------------ the shorter-only rule
def test_a_one_row_answer_stays_xml_when_advertised(federation):
    grid, _, wire = federation
    execution = grid.bind("G1").all_executions()[0]
    start, end = execution.time_range()
    one = execution.read("m", ALL_FOCI, start, start + 1.0, columnar=True)
    assert len(one) == 1 and one.encoding == ENCODING_XML
    ((request, response),) = [(q, r) for op, q, r in sent(wire) if op == "getPR"]
    assert HEADER in request and b"#chunk" not in response


def test_the_client_query_always_advertises_and_frames_only_large_answers(
    federation, monkeypatch
):
    monkeypatch.delenv("PPG_ACCEPT_ENCODINGS", raising=False)
    grid, _, wire = federation
    large = grid.client.query("SELECT m WHERE value >= 0.5")
    small = grid.client.query("SELECT count(m) GROUP BY app")
    answers = [(q, r) for op, q, r in sent(wire) if op == "query"]
    assert len(answers) == 2 and all(HEADER in request for request, _ in answers)
    assert [b"#chunk|0|" in response for _, response in answers] == [True, False]
    stub = grid.environment.stub_for_handle(grid.fed_gsh, FEDERATED_QUERY_PORTTYPE)
    assert packs(large) == stub.query("SELECT m WHERE value >= 0.5")
    assert packs(small) == stub.query("SELECT count(m) GROUP BY app")


# ------------------------------------------- pinned and header-blind members
def test_a_member_pinned_to_xml_answers_xml(federation):
    grid, _, wire = federation
    execution = grid.bind("G0").all_executions()[0]
    expected = packs(execution.read("m", ALL_FOCI))
    grid.execution_service("G0", "0").wire_encodings = XML_ONLY
    pinned = execution.read("m", ALL_FOCI, columnar=True)
    assert packs(pinned) == expected and pinned.encoding == ENCODING_XML
    assert all(b"#chunk" not in r for op, _, r in sent(wire) if op == "getPR")


def test_a_responder_that_ignores_the_header_is_decoded_transparently(
    federation, monkeypatch
):
    grid, _, _ = federation
    execution = grid.bind("G0").all_executions()[0]
    expected = packs(execution.read("m", ALL_FOCI))
    # a member that predates the header never asks what the request accepts
    monkeypatch.setattr(execution_module, "answer_encoding", lambda offered: ENCODING_XML)
    answer = execution.read("m", ALL_FOCI, columnar=True)
    assert packs(answer) == expected and answer.encoding == ENCODING_XML


def test_the_header_is_scoped_to_the_one_request_dispatched():
    """A nested dispatch on the same thread sees its own request's
    header (here: none), never its caller's; outside dispatch, none."""
    outer = accept_encodings_headers(WIRE_ENCODINGS)
    assert answer_encoding(WIRE_ENCODINGS) == ENCODING_XML
    with dispatch_frame(ServiceGate(), outer):
        assert answer_encoding(WIRE_ENCODINGS) == ENCODING_COLBATCH
        assert answer_encoding(XML_ONLY) == ENCODING_XML  # a pinned responder
        with dispatch_frame(ServiceGate(), []):
            assert answer_encoding(WIRE_ENCODINGS) == ENCODING_XML
        assert answer_encoding(WIRE_ENCODINGS) == ENCODING_COLBATCH
    assert answer_encoding(WIRE_ENCODINGS) == ENCODING_XML
    assert accept_encodings_headers(XML_ONLY) == []


# ------------------------------------------------------------ protocol errors
def corrupt(answer: list[str]) -> list[str]:
    """A framed answer with one column record damaged."""
    assert answer[0].startswith("#chunk|0|")
    return [*answer[:2], "dict|-|x|!!", *answer[3:]]


def test_a_malformed_framed_answer_raises_chunk_error(federation, monkeypatch):
    grid, _, _ = federation
    execution = grid.bind("G1").all_executions()[1]
    service = grid.execution_service("G1", "1")
    honest = service.getPR
    monkeypatch.setattr(service, "getPR", lambda *args: corrupt(honest(*args)))
    with pytest.raises(ChunkError):
        execution.read("m", ALL_FOCI, columnar=True)
    # a chunk nobody advertised for is as much a protocol error
    monkeypatch.setattr(
        service, "getPR", lambda *args: encode_chunk(0, ["m|/a|t|0.0-1.0|1.0"], True, ENCODING_COLBATCH)
    )
    with pytest.raises(ChunkError, match="accepted"):
        execution.read("m", ALL_FOCI)


def test_a_malformed_framed_answer_degrades_one_task_and_memoizes_nothing(
    federation, monkeypatch
):
    grid, _, _ = federation
    engine = engine_for(grid)
    text = "SELECT m WHERE value >= 0.5"
    clean = engine.execute(text)
    engine.invalidate_cache()
    service = grid.execution_service("G1", "1")
    honest = service.getPR
    monkeypatch.setattr(service, "getPR", lambda *args: corrupt(honest(*args)))
    for _ in range(2):
        degraded = engine.execute(text)
        assert degraded.cached is False  # never admitted
        assert degraded.stats["errors"] == 1 and len(degraded.errors) == 1
        assert "ChunkError" in degraded.errors[0]
        assert len(degraded.rows) < len(clean.rows)
    monkeypatch.undo()
    assert packs(engine.execute(text).rows) == packs(clean.rows)
    engine.close()


def test_every_member_sending_malformed_chunks_is_a_query_error(federation, monkeypatch):
    grid, _, _ = federation
    engine = engine_for(grid)
    for app in grid.sites:
        for exec_id in map(str, range(EXECUTIONS)):
            service = grid.execution_service(app, exec_id)
            monkeypatch.setattr(
                service, "getPR", lambda *args, honest=service.getPR: corrupt(honest(*args))
            )
    with pytest.raises(QueryError, match=r"all 4 member task\(s\) failed"):
        engine.execute("SELECT m")
    engine.close()


# ------------------------------------------------------------ the cache memo
def test_the_member_cache_keeps_the_framed_form(federation, monkeypatch):
    grid, _, _ = federation
    execution = grid.bind("G0").all_executions()[1]
    service = grid.execution_service("G0", "1")
    encoded = count_encode_batch(monkeypatch)

    def read():
        return execution.read("m", ALL_FOCI, columnar=True)

    first = read()
    assert first.encoding == ENCODING_COLBATCH and encoded == [1]
    entries = len(service.cache)
    second = read()
    assert packs(second) == packs(first) and encoded == [1]  # a hit encodes nothing
    assert len(service.cache) == entries
    # the framed form lives in the rows' store, under their key prefixed
    framed_keys = [key for key in service.cache.entries if key.startswith("colbatch: ")]
    assert [key[len("colbatch: "):] in service.cache.entries for key in framed_keys] == [True]
    service.data_updated("new rows")
    assert len(service.cache) == 0
    third = read()
    assert packs(third) == packs(first) and encoded == [2]


def test_an_unadvertised_read_never_encodes(federation, monkeypatch):
    grid, _, _ = federation
    execution = grid.bind("G0").all_executions()[0]
    encoded = count_encode_batch(monkeypatch)
    execution.read("m", ALL_FOCI)
    execution.get_pr("m", ALL_FOCI)
    monkeypatch.setenv("PPG_ACCEPT_ENCODINGS", ENCODING_XML)
    execution.read("m", ALL_FOCI, columnar=True)
    assert encoded == [0]


# ------------------------------------------------------ the engine's counters
def test_counters_do_not_depend_on_the_encoding(federation, monkeypatch):
    grid, _, wire = federation
    text = "SELECT m WHERE value >= 0.5"
    results = {}
    packed = sum(len(result.pack()) for wrapper in wrappers().values()
                 for execution in wrapper.executions_data for result in execution.results)
    for leg, accepted in (("xml", XML_ONLY), ("negotiated", WIRE_ENCODINGS)):
        monkeypatch.setenv("PPG_ACCEPT_ENCODINGS", ",".join(accepted))
        engine = engine_for(grid)
        engine.execute(text.replace("0.5", "0.25"))  # remember the members' facts
        sent(wire)
        results[leg] = engine.execute(text)
        # each leg counts the payload records its member reads received
        assert results[leg].stats["payloadBytes"] == wire.received()
        log = sent(wire)
        get_pr = [(q, r) for op, q, r in log if op == "getPR"]
        advertised = [HEADER in q for q, _ in get_pr]
        framed = [b"#chunk|0|" in r for _, r in get_pr]
        assert advertised == framed == [leg == "negotiated"] * MEMBERS * EXECUTIONS
        engine.close()
    xml, negotiated = results["xml"], results["negotiated"]
    assert packs(negotiated.rows) == packs(xml.rows)
    for key in ("calls", "records", "bulkCalls", "chunkedCalls", "errors"):
        assert negotiated.stats[key] == xml.stats[key], key
    # per-row XML arrays carry the packed records; a columnar chunk less
    assert xml.stats["payloadBytes"] == packed > negotiated.stats["payloadBytes"]
    assert xml.stats["bulkCalls"] == MEMBERS * EXECUTIONS


def test_a_small_bulk_read_and_a_large_streamed_read_do_not_advertise(federation):
    """No array request advertises here: a small bulk read's ``getPR``
    carries no header, and a large streamed read sends no ``getPR`` —
    its cursors carry the header on the ``getPRChunked`` creating them."""
    grid, engine, wire = federation
    engine.stream_chunk_rows = ROWS  # small: a read fits one chunk
    assert len(engine.execute("SELECT m WHERE value >= 0.5").rows) > ROWS
    assert all(HEADER not in q for op, q, _ in sent(wire) if op == "getPR")
    engine.stream_chunk_rows = 64
    streamed = engine.execute("SELECT m WHERE value >= 0.25", stream=True)
    assert len(list(streamed)) > ROWS
    log = sent(wire)
    creating = [q for op, q, _ in log if op == "getPRChunked"]
    assert len(creating) == MEMBERS * EXECUTIONS and all(HEADER in q for q in creating)
    assert "getPR" not in [op for op, _, _ in log]


def test_the_environment_pins_the_default_advertisement(federation, monkeypatch):
    """``PPG_ACCEPT_ENCODINGS=xml``: no header is sent, every array is XML."""
    monkeypatch.setenv("PPG_ACCEPT_ENCODINGS", ENCODING_XML)
    grid, _, wire = federation
    engine = engine_for(grid)
    engine.execute("SELECT m")
    grid.client.query("SELECT m WHERE value >= 0.5")
    log = sent(wire)
    assert {"getPR", "query"} <= {op for op, _, _ in log}
    assert all(HEADER not in q and b"#chunk" not in r for _, q, r in log)
    engine.close()


def test_cursors_are_unchanged(federation):
    """``columnar`` sizes a ``getPR``; a cursor advertises regardless."""
    grid, _, _ = federation
    execution = grid.bind("G1").all_executions()[0]
    with execution.read("m", ALL_FOCI, cursor=True, columnar=True, max_rows=64) as cursor:
        assert isinstance(cursor, ChunkedResultIterator)
        assert packs(cursor) == packs(execution.read("m", ALL_FOCI))
    assert cursor.encoding == ENCODING_COLBATCH
