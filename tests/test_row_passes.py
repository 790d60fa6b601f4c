"""One parse, one order key, one render per raw row per hop — as counts.

Nothing here reads a clock.  Each pass over a row has one seam, and the
tests count what goes through it on a 2-member x 2-execution x 50-row
synthetic federation driven through the SOAP surface:

* a result row becomes text only in ``repro.fedquery.merge._render``
  (one ``ResultRow``: ``pack()`` memoises it, ``unpack`` seeds the memo)
  or ``DecodedBatch.rows`` (a token-column answer's rows, each joined
  once from its tokens — at the federation, or by a client reading a
  colbatch answer);
* a ``PerformanceResult`` becomes text only in ``PerformanceResult.pack``;
* a text cell enters ``float()`` only in ``repro.core.semantic._text_key``,
  whose ``cache_info().misses`` is the number of classifications made;
* ``ResultRow`` and ``PerformanceResult`` objects are counted as they are
  built, and apart — with the rows joined — while the FederatedQuery
  service answers: a bulk raw answer goes from the members' columns to
  the client's without one, and so does a stream over colbatch member
  cursors and a plan-cache hit;
* ``ResultRow.unpack`` calls are counted: the client's column reader
  builds a colbatch answer's rows without one.

Beside the counts, two differentials keep the faster paths honest: the
column reader (``merge.read_rows``) against ``ResultRow.unpack`` row for
row, and the response envelope writer against ``encode_value`` as it
stood before arrays were classified once (kept verbatim below), byte for
byte.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import client as client_module
from repro.core import semantic
from repro.core.semantic import PerformanceResult
from repro.experiments.common import build_synthetic_grid
from repro.fedquery import FederatedQueryService, ResultRow, merge
from repro.fedquery.merge import read_rows
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper
from repro.ogsi.container import GridEnvironment
from repro.soap import colbatch, encoding
from repro.soap.colbatch import DecodedBatch, decode_columns, encode_batch, split_rows
from repro.soap.encoding import SoapEncodingError, decode_value
from repro.soap.rpc import decode_response, encode_response
from repro.xmlkit import Element, QName
from tests import reference_soap, test_member_facts

MEMBERS, EXECUTIONS, ROWS, FOCI = 2, 2, 50, 5
TOTAL = MEMBERS * EXECUTIONS * ROWS
#: member executions a raw query over every execution reads
READS = MEMBERS * EXECUTIONS


def _wrappers() -> dict[str, InMemoryWrapper]:
    return {
        f"APP{m}": InMemoryWrapper(
            f"APP{m}",
            [
                InMemoryExecution(
                    str(e),
                    {},
                    [
                        PerformanceResult(
                            "m", f"/rank/{i % FOCI}", "synthetic",
                            float(i), float(i + 1), (m * 7 + e * 3 + i * 13) % 101 / 4,
                        )
                        for i in range(ROWS)
                    ],
                )
                for e in range(EXECUTIONS)
            ],
        )
        for m in range(MEMBERS)
    }


class Passes:
    """Counters on the seams, plus every result the engine produced."""

    def __init__(self, monkeypatch, engine) -> None:
        self.renders = 0
        self.pr_renders = 0
        self.unpacks = 0
        #: row objects built, by class name — and of them, and of the
        #: rows joined ("joined"), those while the FederatedQuery service
        #: answered a query
        self.built: Counter = Counter()
        self.served: Counter = Counter()
        self.results: list = []
        render, join, pr_pack, execute, unpack = (
            merge._render, DecodedBatch.rows.func, PerformanceResult.pack, engine.execute,
            ResultRow.unpack,
        )
        serve = FederatedQueryService.query

        def counted_render(columns, values):
            self.renders += 1
            return render(columns, values)

        def counted_join(batch):
            texts = join(batch)
            self.renders += len(texts)
            return texts

        def counted_serve(service, text):
            before, renders = Counter(self.built), self.renders
            try:
                return serve(service, text)
            finally:
                self.served.update(self.built - before)
                self.served.update(joined=self.renders - renders)
                self.served -= Counter()  # a zero count is no entry

        joined = cached_property(counted_join)
        joined.__set_name__(DecodedBatch, "rows")

        for cls in (ResultRow, PerformanceResult):
            def counted_init(obj, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                self.built[_name] += 1
                _init(obj, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted_init)

        def counted_pr_pack(result):
            self.pr_renders += 1
            return pr_pack(result)

        def counted_unpack(text):
            self.unpacks += 1
            return unpack(text)

        def recorded_execute(*args, **kwargs):
            self.results.append(execute(*args, **kwargs))
            return self.results[-1]

        monkeypatch.setattr(merge, "_render", counted_render)
        monkeypatch.setattr(DecodedBatch, "rows", joined)
        monkeypatch.setattr(PerformanceResult, "pack", counted_pr_pack)
        monkeypatch.setattr(FederatedQueryService, "query", counted_serve)
        monkeypatch.setattr(engine, "execute", recorded_execute)
        monkeypatch.setattr(ResultRow, "unpack", staticmethod(counted_unpack))

    def reset(self) -> None:
        self.renders = self.pr_renders = self.unpacks = 0
        self.built.clear()
        self.served.clear()
        semantic._text_key.cache_clear()

    @property
    def classifications(self) -> int:
        return semantic._text_key.cache_info().misses


@pytest.fixture()
def federation(monkeypatch):
    wrappers = _wrappers()
    environment = GridEnvironment()
    # the recording transport: grid.environment.transport.received()
    environment.transport = test_member_facts.Wire(environment.transport)
    grid = build_synthetic_grid(wrappers, environment)
    engine = grid.deploy_federation()
    #: the packed length of every row, from the members' own data: the
    #: payloadBytes of a query that reads them all as per-row XML
    payload = sum(
        len(result.pack())
        for wrapper in wrappers.values()
        for execution in wrapper.executions_data
        for result in execution.results
    )
    passes = Passes(monkeypatch, engine)
    # the members' PR caches answer every later getPR: a PerformanceResult
    # rendered after this is rendered by the federation, not by a member
    assert len(grid.client.query("SELECT m WHERE value >= -900000.5")) == TOTAL
    passes.reset()
    yield grid, engine, passes, payload
    engine.close()
    grid.environment.close()


def _distinct_texts(rows) -> int:
    return len({value for row in rows for value in row.values if isinstance(value, str)})


def _bulk_raw_query(federation, monkeypatch, columnar: bool):
    """One bulk raw query through the client, its members answering
    colbatch (*columnar*, every read advertising) or per-row XML, and the
    counts that do not depend on which."""
    grid, engine, passes, payload = federation
    monkeypatch.setenv("PPG_ACCEPT_ENCODINGS", "colbatch,xml")
    if columnar:
        engine.stream_chunk_rows = ROWS - 1
    encodings: Counter = Counter()
    unframe = client_module.unframe_answer

    def counted_unframe(items, accepted):
        rows, encoding = unframe(items, accepted)
        encodings[encoding] += 1
        return rows, encoding

    monkeypatch.setattr(client_module, "unframe_answer", counted_unframe)
    wire = grid.environment.transport
    wire.take()
    rows = grid.client.query("SELECT m WHERE value >= -1.5")
    # every member answer, and the client's own, arrived as the leg says
    members = MEMBERS * EXECUTIONS
    assert encodings == (
        Counter(colbatch=members + 1) if columnar else Counter(xml=members, colbatch=1)
    )
    assert len(rows) == TOTAL
    # the client's, reading the colbatch answer: the federation renders
    # the answer's columns once, for the wire and the plan cache alike,
    # and joins none of its rows (``served`` has no "joined")
    assert passes.renders == TOTAL
    assert passes.pr_renders == 0
    # the client reads the colbatch answer's rows column by column
    assert passes.unpacks == 0
    assert 0 < passes.classifications <= _distinct_texts(rows)
    stats = passes.results[-1].stats
    assert stats["payloadBytes"] == wire.received() and stats["bulkCalls"] == members
    if not columnar:  # per-row XML arrays: the packed records
        assert stats["payloadBytes"] == payload
    return passes


class TestBulk:
    def test_one_render_per_row_and_none_of_a_member_record(self, federation, monkeypatch):
        passes = _bulk_raw_query(federation, monkeypatch, columnar=False)
        # an XML record is parsed once, then transposed: no ResultRow at
        # the federation, the client's one per row the only ones built
        assert passes.served == Counter(PerformanceResult=TOTAL)
        assert passes.built == Counter(PerformanceResult=TOTAL, ResultRow=TOTAL)

    def test_colbatch_members_in_no_row_object_at_the_federation(self, federation, monkeypatch):
        passes = _bulk_raw_query(federation, monkeypatch, columnar=True)
        # members' columns in, the answer's columns out
        assert passes.served == Counter()
        assert passes.built == Counter(ResultRow=TOTAL)

    def test_plan_cache_hit_renders_nothing(self, federation):
        grid, _, passes, _ = federation
        text = "SELECT m WHERE value >= -2.5"
        first = grid.client.query(text)
        passes.reset()
        second = grid.client.query(text)
        assert passes.results[-1].cached is True
        # the stored columns are encoded as they are: the federation
        # builds no ResultRow and joins no row; the client's decoder joins
        # and parses each row once
        assert passes.served == Counter()
        assert (passes.renders, passes.pr_renders) == (TOTAL, 0)
        assert passes.built == Counter(ResultRow=TOTAL) and passes.unpacks == 0
        assert [row.pack() for row in second] == [row.pack() for row in first]
        # a cached answer drained through a cursor is the same stored columns
        passes.reset()
        streamed = list(grid.client.query_stream(text))
        assert passes.results[-1].cached is True
        assert (passes.renders, passes.pr_renders) == (TOTAL, 0)
        assert passes.built == Counter(ResultRow=TOTAL) and passes.unpacks == 0
        assert [row.pack() for row in streamed] == [row.pack() for row in first]

    def test_aggregate_rows_render_once(self, federation):
        grid, _, passes, _ = federation
        rows = grid.client.query("SELECT count(m), mean(m) WHERE value >= -3.5 GROUP BY focus")
        assert len(rows) == FOCI
        # the groups are rendered as columns, and once per hop as row
        # texts: the short answer goes out as one colbatch+pfx chunk (its
        # count column one fxp record behind "count(m)="), which beats
        # per-row XML only once the rows are measured, so the federation
        # joins each row once to measure it and the client's read once
        assert passes.renders == 2 * FOCI and passes.served["joined"] == FOCI
        assert passes.pr_renders == 0


class TestStreamed:
    @pytest.mark.parametrize("cursors", [True, False], ids=["member-cursors", "member-bulk"])
    def test_one_render_per_row_on_a_drained_stream(self, federation, cursors):
        grid, engine, passes, payload = federation
        engine.stream_chunk_rows = 16 if cursors else ROWS
        wire = grid.environment.transport
        wire.take()
        stream = grid.client.query_stream("SELECT m WHERE value >= -4.5", max_rows=32)
        rows = list(stream)
        assert len(rows) == TOTAL
        # the client counts the answer's payload records as received
        assert stream.bytes_fetched == wire.received(federation=True) > 0
        # the client's, reading colbatch chunks: the memoize cap counts
        # the columns and the plan cache stores them, the cursor frames
        # them, and the federation joins no row; the client reads each
        # chunk column by column
        assert passes.renders == TOTAL and passes.unpacks == 0
        # a cold member cursor renders each result it serves, once, into
        # its PR cache; the federation renders none to count its bytes
        assert passes.pr_renders == (TOTAL if cursors else 0)
        assert 0 < passes.classifications <= _distinct_texts(rows)
        stats = passes.results[-1].stats
        assert stats["chunkedCalls" if cursors else "bulkCalls"] == MEMBERS * EXECUTIONS
        assert stats["payloadBytes"] == wire.received()
        if not cursors:  # per-row XML arrays: the packed records
            assert stats["payloadBytes"] == payload
        # member chunks stay columns through the federation: the client's
        # rows are the only ones built (an XML array's records are parsed)
        expected = Counter(ResultRow=TOTAL)
        if not cursors:
            expected.update(PerformanceResult=TOTAL)
        assert passes.built == expected
        assert [row.pack() for row in rows] == [
            row.pack() for row in grid.client.query("SELECT m WHERE value >= -5.5")
        ]

    def test_a_warm_drain_renders_nothing_at_the_members(self, federation):
        """Member cursors over the same reads answer from the members' PR
        caches: a second drain renders no result, and an update renders
        exactly the updated execution's results again."""
        grid, engine, passes, _ = federation
        engine.stream_chunk_rows = 16
        services = [
            grid.execution_service(f"APP{m}", str(e))
            for m in range(MEMBERS)
            for e in range(EXECUTIONS)
        ]

        def drain(k: int) -> list[str]:
            passes.reset()
            text = f"SELECT m WHERE value >= -{k}.5"
            return [row.pack() for row in grid.client.query_stream(text, max_rows=32)]

        def hits() -> int:
            return sum(service.cache.stats.hits for service in services)

        cold = drain(6)
        assert passes.pr_renders == TOTAL
        before = hits()
        assert drain(7) == cold
        assert passes.pr_renders == 0 and hits() - before == READS
        grid.execution_service("APP0", "0").data_updated("nothing new")
        assert drain(8) == cold
        assert passes.pr_renders == ROWS


class TestViews:
    @pytest.mark.parametrize("cursors", [True, False], ids=["member-cursors", "member-bulk"])
    def test_raw_view_counts_the_bytes_it_received(self, federation, cursors):
        grid, engine, passes, payload = federation
        if cursors:
            engine.stream_chunk_rows = ROWS - 1
        wire = grid.environment.transport
        wire.take()
        view_id = grid.client.create_view("SELECT m")
        assert grid.client.view_stats()["deltaBytesFetched"] == wire.received()
        if not cursors:  # per-row XML arrays: the packed records
            assert grid.client.view_stats()["deltaBytesFetched"] == payload
        assert grid.client.view_stats()["deltaRowsFetched"] == TOTAL
        assert passes.pr_renders == (TOTAL if cursors else 0)
        passes.reset()
        _, rows = grid.client.get_view(view_id)
        assert len(rows) == TOTAL and passes.renders == TOTAL
        grid.client.get_view(view_id)
        assert passes.renders == TOTAL  # the view's rows keep their text

    def test_aggregate_view_counts_the_buckets_it_received(self, federation):
        grid, engine, _, _ = federation
        wire = grid.environment.transport
        wire.take()
        grid.client.create_view("SELECT count(m), sum(m) GROUP BY focus")
        received = wire.received()
        buckets = [
            record
            for binding in engine.members().values()
            for execution in binding.all_executions()
            for record in execution.get_pr_agg("m", execution.foci(), group_by="focus")
        ]
        stats = grid.client.view_stats()
        assert stats["deltaRowsFetched"] == len(buckets) == MEMBERS * EXECUTIONS * FOCI
        assert stats["deltaBytesFetched"] == received == sum(len(r.pack()) for r in buckets)


# ------------------------------------------- numbers stay numbers, counted

class _CountedFloat(float):
    """``float`` as ``merge`` sees it: each call is a token parsed."""

    calls = 0

    def __new__(cls, text):
        _CountedFloat.calls += 1
        return float(text)


def _count_parses(monkeypatch) -> dict[str, int]:
    """Counters on the text encoder's number parsers, and ``float()`` in
    the client's column reader."""
    calls: Counter = Counter()
    for name in ("_fxp_series", "_try_spn", "_try_f64"):
        def counted(*args, _real=getattr(colbatch, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(colbatch, name, counted)
    monkeypatch.setattr(merge, "float", _CountedFloat, raising=False)
    _CountedFloat.calls = 0
    return calls


class TestNumbersStayNumbers:
    def test_a_warm_member_drain_parses_no_token(self, federation, monkeypatch):
        """A warm ordered member cursor slices its cached numbers and
        encodes each chunk from them: the text encoder's parsers run for
        the cold read's one coding of the entry, never for a drain."""
        grid, _, _, _ = federation
        monkeypatch.setenv("PPG_ACCEPT_ENCODINGS", "colbatch,xml")
        execution = grid.bind("APP1").all_executions()[1]
        foci = execution.foci()

        def drain() -> list[str]:
            return [r.pack() for r in execution.get_pr_chunked("m", foci, ordered=True, max_rows=16)]

        calls = _count_parses(monkeypatch)
        cold = drain()
        assert len(cold) == ROWS and calls["_fxp_series"] > 0
        calls.clear()
        assert drain() == cold and drain() == cold
        assert calls == Counter()

    def test_the_client_parses_no_number_over_the_named_record(self, monkeypatch):
        """Over ``colbatch+pfx`` an answer's start, end and value columns
        (values too distinct for a dictionary, as on the e2e raw
        workloads) arrive as ``fxp`` and ``f64`` numbers, which the client
        reads as they are — a bulk answer and a drained stream alike; over
        plain colbatch each of those cells is a token parsed back."""
        rows = 300
        grid = build_synthetic_grid({
            f"APP{m}": InMemoryWrapper(f"APP{m}", [InMemoryExecution("0", {}, [
                PerformanceResult("m", f"/rank/{i % FOCI}", "synthetic", float(i), float(i + 1),
                                  i * 0.37 + m / 8)
                for i in range(rows)
            ])])
            for m in range(MEMBERS)
        })
        engine = grid.deploy_federation()
        engine.stream_chunk_rows = 64
        try:
            _count_parses(monkeypatch)
            monkeypatch.setenv("PPG_ACCEPT_ENCODINGS", "colbatch+pfx,colbatch,xml")
            bulk = grid.client.query("SELECT m WHERE value >= -11.5")
            streamed = list(grid.client.query_stream("SELECT m WHERE value >= -12.5"))
            assert bulk == streamed and len(bulk) == MEMBERS * rows
            assert _CountedFloat.calls == 0
            monkeypatch.setenv("PPG_ACCEPT_ENCODINGS", "colbatch,xml")
            assert grid.client.query("SELECT m WHERE value >= -13.5") == bulk
            assert _CountedFloat.calls == 3 * MEMBERS * rows
        finally:
            engine.close()
            grid.environment.close()


# --------------------------------------------- column reader, row for row

def _outcome(read, texts):
    """The rows *read* yields for *texts* up to its first ValueError, and
    that error."""
    rows, error = [], None
    try:
        # repr: a nan cell equals itself here, and 1 differs from 1.0
        for row in read(texts):
            rows.append((row.columns, repr(row.values), row.pack()))
    except ValueError as exc:
        error = str(exc)
    return rows, error


def _unpack_each(texts):
    return map(ResultRow.unpack, texts)


def _same_as_unpack(texts: list[str]) -> None:
    """The column reader over *texts* — as row texts, as the token columns
    they split into, and as those columns through the colbatch wire —
    and over each text alone, equals ``ResultRow.unpack`` row by row."""
    expected = _outcome(_unpack_each, texts)
    assert _outcome(read_rows, texts) == expected
    assert _outcome(read_rows, split_rows(texts)) == expected
    assert _outcome(read_rows, decode_columns(encode_batch(texts))) == expected
    assert _outcome(read_rows, decode_columns(encode_batch(texts, named=True))) == expected
    for text in texts:
        assert _outcome(read_rows, [text]) == _outcome(_unpack_each, [text]), text


RAW = "app=A|exec=1|metric=m|focus=/rank/3|type=synthetic|start=1.0|end=2.0|value=0.25"
AGG = "numprocs=16|count(m)=7|mean(m)=1.5e-07|max(m)=inf"


class TestUnpackerEqualsUnpack:
    def test_raw_rows(self):
        _same_as_unpack([RAW, RAW.replace("0.25", "nan"), RAW.replace("A|", "B=|"), RAW])

    def test_aggregate_rows(self):
        _same_as_unpack([AGG, AGG.replace("=7", "=0"), AGG.replace("16", "")])

    def test_shape_switches_mid_way(self):
        _same_as_unpack([RAW, RAW, AGG, AGG, RAW, "k=v", AGG, "k=", "=v", RAW])

    @pytest.mark.parametrize(
        "bad",
        [
            "novalue",
            "",
            RAW.replace("focus=", "focus"),  # no '=' in a column's later cell
            RAW.replace("focus=", "locus="),  # wrong name, still a valid row
            RAW.replace("value=0.25", "value=abc"),
            RAW.replace("start=1.0", "start="),
            RAW.rsplit("|", 1)[0],  # short
            RAW + "|extra=1",  # long
            RAW + "|",
            RAW.replace("|", "||", 1),
            AGG.replace("=7", "=7.0"),  # a count that is not an int
            AGG.replace("=7", "=x"),
        ],
    )
    def test_malformed_field_after_a_remembered_shape(self, bad):
        shape = AGG if bad.startswith("numprocs") else RAW
        _same_as_unpack([shape, bad, shape, bad])
        _same_as_unpack([bad, shape])

    def test_seeded_fuzz(self, oracle_seed):
        rng = random.Random(0x0A55E5 + oracle_seed)
        columns = ["app", "exec", "focus", "start", "end", "value", "count(m)", "mean(m)", "a(b", ""]
        cells = ["", "A", "1", "1.5", "nan", "-inf", "x=y", "7", "1e3", " 2 ", "0x10", "é"]
        runs: list[list[str]] = []
        while sum(map(len, runs)) < 4_000:
            shape = rng.sample(columns, rng.randint(1, 5))
            run = []
            for _ in range(rng.randint(1, 6)):
                fields = [f"{column}={rng.choice(cells)}" for column in shape]
                roll = rng.random()
                if roll < 0.1:
                    fields[rng.randrange(len(fields))] = rng.choice(["", "bare", "=", "value"])
                elif roll < 0.15:
                    fields.append(f"{rng.choice(columns)}={rng.choice(cells)}")
                elif roll < 0.2:
                    fields.pop()
                run.append("|".join(fields))
            runs.append(run)
        for run in runs:  # one answer per run, and the whole corpus as one
            expected = _outcome(_unpack_each, run)
            assert _outcome(read_rows, run) == expected
            assert _outcome(read_rows, decode_columns(encode_batch(run))) == expected
        _same_as_unpack([text for run in runs for text in run])

    def test_parsed_rows_keep_the_text_they_came_from(self):
        parsed = ResultRow.unpack(RAW)
        assert parsed.pack() is RAW and next(read_rows([RAW])).pack() is RAW
        # the kept text is no part of the row's identity
        built = ResultRow(parsed.columns, parsed.values)
        assert built == parsed and hash(built) == hash(parsed) and "_packed" not in repr(parsed)
        assert built.pack() == RAW


class TestColumnReader:
    """The answers the column reader must read as ``ResultRow.unpack``
    reads each row, whether or not its columns hold."""

    @pytest.mark.parametrize(
        "texts",
        [
            [],
            [RAW, "an exception row", RAW.replace("=1.0", "=3.0"), "ragged|row"],
            [RAW, "a=b|c"],  # an exception row that unpack rejects
            [RAW.replace("/rank/3", "a=b=c"), RAW],  # a value holding '='
            [RAW, RAW.replace("exec=1", "metric=1")],  # a later cell naming another column
            [AGG, AGG.replace("=7", "=12"), AGG.replace("=16", "=32")],  # a count(...) int column
            ["app=A|start=1.0", "app=A|start=-0.0", "app=B|start=1"],
        ],
        ids=["empty", "exception-rows", "bad-exception-row", "equals-in-value",
             "later-cell-names-another-column", "count-int-column", "numbers"],
    )
    def test_equals_unpack(self, texts):
        _same_as_unpack(texts)

    def test_xml_row_texts_are_read_as_they_arrived(self, monkeypatch):
        """An answer that came as per-row XML is the row texts: split into
        columns, and each row keeps the text it arrived as — nothing
        joined, nothing unpacked."""
        texts = [RAW.replace("start=1.0", f"start={i}.5") for i in range(40)]
        joins = []
        monkeypatch.setattr(DecodedBatch, "rows", property(lambda batch: joins.append(batch)))
        rows = list(read_rows(texts))
        assert [row.pack() for row in rows] == texts and not joins
        assert all(row.pack() is text for row, text in zip(rows, texts))
        assert [row["start"] for row in rows] == [i + 0.5 for i in range(40)]


# ------------------------------------- the envelope writer, byte for byte

_XSI_TYPE, _XSI_NIL, _ARRAY_TYPE = encoding._XSI_TYPE, encoding._XSI_NIL, reference_soap._ARRAY_TYPE_ATTR
_NS = "urn:ppg"


def _reference_encode(name: str, value: object) -> Element:
    """``encode_value`` as it stood: the general ``Element`` constructor,
    and every array item classified once for ``arrayType`` and once more
    to be encoded."""
    el = Element(QName("", name))
    wire = encoding._wire_name_for(value)
    el.attrs[_XSI_TYPE] = wire
    if value is None:
        el.attrs[_XSI_NIL] = "true"
    elif wire == "xsd:boolean":
        el.children.append("true" if value else "false")
    elif wire == "xsd:double":
        el.children.append(repr(float(value)))
    elif wire == "enc:Array":
        items = list(value)
        kinds = {encoding._wire_name_for(item) for item in items if item is not None}
        item_type = kinds.pop() if len(kinds) == 1 else "xsd:anyType"
        el.attrs[_ARRAY_TYPE] = f"{item_type}[{len(items)}]"
        for item in items:
            el.children.append(_reference_encode("item", item))
    elif wire == "tns:struct":
        for key, item in value.items():
            if not isinstance(key, str) or not key:
                raise SoapEncodingError("struct keys must be non-empty strings")
            el.children.append(_reference_encode(key, item))
    else:
        el.children.append(str(value))
    return el


def _reference_response(value: object) -> bytes:
    """The response envelope around ``_reference_encode("return", value)``,
    built and written as an element tree."""
    entry = Element(QName(_NS, "opResponse"), nsdecls={"tns": _NS})
    entry.append(_reference_encode("return", value))
    return reference_soap.build_envelope(entry).to_bytes()


class _Tagged(str):
    """A ``str`` subclass: encoded as the plain string it wraps."""


_xml_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs", "Cc")), max_size=12
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    _xml_text,
    _xml_text.map(_Tagged),
    st.sampled_from(["", "<&>", "a|b=c", 2**31 - 1, 2**31, -(2**31) - 1]),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.from_regex(r"[a-z][a-z0-9]{0,6}", fullmatch=True), inner, max_size=4),
    ),
    max_leaves=16,
)


class TestEncodeAgainstReference:
    @given(_values)
    @settings(max_examples=400, deadline=None)
    def test_same_bytes(self, value):
        encoded = encode_response(_NS, "op", value)
        assert encoded == _reference_response(value)
        # what goes out comes back the same through the one-text-child read
        assert repr(decode_response(encoded).value) == repr(
            decode_value(_reference_encode("return", value))
        )

    @pytest.mark.parametrize(
        "value",
        [
            [],
            ["a", "", "b"],
            [None, None],
            ["a", None, "b"],
            [True, 1],
            [1, 2**31],
            [2**31, 2**40],
            [1.0, 2],
            [["a"], [], [1, "b"]],
            [{"k": ["v"]}, {}],
            {"rows": ["x=1|y=2"], "n": 1, "nil": None},
            [_Tagged("t"), "u"],
            ("a", "b"),
        ],
    )
    def test_named_shapes(self, value):
        assert encode_response(_NS, "op", value) == _reference_response(value)

    def test_items_share_nothing_mutable(self):
        """The writer keeps nothing in the values it writes: one list, three
        times an item, is written alike each time and left as it was."""
        shared = ["a", None]
        value = [shared, {"k": shared}, shared]
        encoded = encode_response(_NS, "op", value)
        assert encoded == _reference_response(value) and shared == ["a", None]
        assert encoded.count(b'<item ns1:type="xsd:string">a</item>') == 3

    def test_struct_key_still_checked(self):
        with pytest.raises(SoapEncodingError):
            encode_response(_NS, "op", [{"": 1}])

    def test_decode_reads_every_text_shape(self):
        def item(*children):
            return Element(QName("", "item"), attrs={_XSI_TYPE: "xsd:string"}, children=children)

        assert decode_value(item()) == ""
        assert decode_value(item("a")) == "a"
        assert decode_value(item("a", "b")) == "ab"
        assert decode_value(item("a", Element(QName("", "x"), children=["no"]), "b")) == "ab"
        assert decode_value(item(Element(QName("", "x")))) == ""
