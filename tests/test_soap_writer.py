"""The text envelope writer against the element-tree encoder it replaced.

``repro.soap.rpc`` writes every request, response and fault straight to
text.  ``tests/reference_soap.py`` is the encoder as it stood: each message
built as an ``Element`` tree and walked by the xmlkit writer.  Two oracles
hold the writer to it:

* a seeded differential over random envelopes — nested arrays and
  structs, nils, signed zeros, NaN and infinities, the 32-bit int edges,
  the characters the writer escapes, non-ASCII text, empty containers,
  header elements that use up ``ns<N>`` numbers before the body, and
  namespaces equal to XSI, SOAP-ENC, SOAP-ENV and ``""`` — compared byte
  for byte, errors by type and message;
* every message of a live session (the wire-level ``client.query``
  oracle's corpus on both encodings, a streamed drain, a view, an
  application's ``getStats`` and a fault), captured through a
  :class:`~repro.simnet.transport.RecordingTransport`, decoded and
  re-encoded through the reference: a fixed point.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import pytest

from repro.core.client import default_accept_encodings
from repro.core.semantic import PPERFGRID_NS
from repro.fedquery import parse_query
from repro.simnet.transport import RecordingTransport
from repro.soap import SoapFault, decode_value, parse_envelope
from repro.soap.chunks import ENCODING_XML
from repro.soap.encoding import ENC_NS, XSI_NS
from repro.soap.envelope import SOAP_ENV_NS
from repro.soap.rpc import encode_fault, encode_request, encode_response
from repro.xmlkit import Element, QName
from tests import reference_soap as reference
from tests.test_fedquery_oracle import N_QUERIES, make_query, oracle_env, pin_leg  # noqa: F401

ENVELOPES = 20_000

XML_NS = "http://www.w3.org/XML/1998/namespace"
NAMESPACES = [PPERFGRID_NS, "urn:x", "", XSI_NS, ENC_NS, SOAP_ENV_NS, XML_NS, 'urn:a&b"<c>']
NAMES = ["v", "metric", "foci", "return", "item", "é", "a.b-c", "_"]
CHARS = "ab |=/&<>\"'\n\t\r;é平✓ "


class _Text(str):
    """A ``str`` subclass: written as the plain string it wraps."""


class _Int(int):
    """An ``int`` subclass: written by its value."""


def text(rng: random.Random) -> str:
    return rng.choice(
        ["", "]]>", "<&>", '"\n\t', "time_spent|/Code/MPI|vampir|0.5-1.5|0.125"]
        + ["".join(rng.choice(CHARS) for _ in range(rng.randint(1, 12)))] * 4
    )


def scalar(rng: random.Random, kind: str | None = None) -> object:
    kind = kind or rng.choice(["none", "bool", "int", "float", "str", "str", "sub"])
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.choice(
            [0, 1, -1, 2**31 - 1, 2**31, -(2**31), -(2**31) - 1, 2**63, -(2**63) - 1,
             rng.randint(-(2**40), 2**40), _Int(rng.randint(-9, 9))]
        )  # fmt: skip
    if kind == "float":
        return rng.choice(
            [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-308, 1.7976931348623157e308,
             rng.uniform(-1e6, 1e6), float(rng.randint(-99, 99)), 0.1 + 0.2]
        )  # fmt: skip
    if kind == "sub":
        return _Text(text(rng))
    return text(rng)


def value(rng: random.Random, depth: int = 0) -> object:
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        return scalar(rng)
    if roll < 0.8:
        if rng.random() < 0.5:  # one item kind, nils among them: arrayType names it
            kind = rng.choice(["bool", "int", "float", "str"])
            items = [scalar(rng, kind if rng.random() < 0.85 else "none") for _ in range(rng.randint(0, 6))]
        else:
            items = [value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.2 else items
    return {rng.choice(NAMES): value(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def header(rng: random.Random) -> Element:
    """A header entry: none, some or all of its namespaces undeclared."""
    uri = rng.choice(["", "urn:h", "urn:h", XSI_NS, ENC_NS, SOAP_ENV_NS, "urn:g"])
    nsdecls = {"h": uri} if uri and rng.random() < 0.3 else {}
    attrs = {}
    if rng.random() < 0.4:
        attrs[QName(rng.choice(["", "urn:k", XSI_NS, ENC_NS]), "k")] = text(rng)
    el = Element(QName(uri, rng.choice(["acceptEncodings", "clientId", "Signature"])), attrs=attrs, nsdecls=nsdecls)
    for _ in range(rng.randint(0, 2)):
        el.append(Element(QName(rng.choice(["", "urn:h", "urn:i"]), "Digest"), children=[text(rng)]))
    if rng.random() < 0.5:
        el.append(text(rng))
    return el


def poison(rng: random.Random, good: object) -> object:
    """*good* with one unencodable value or bad struct key planted in it."""
    bad = rng.choice(["value", "key"])
    planted = (
        rng.choice([object(), {1, 2}, b"bytes", 1j])
        if bad == "value"
        else {rng.choice([1, "", None, ("t",)]): scalar(rng)}
    )
    return rng.choice([[good, planted], {"ok": good, "bad": planted}, [[planted]], planted])


def outcome(encode, *args, **kwargs):
    try:
        return ("encoded", encode(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))


def case(rng: random.Random):
    """One envelope: (kind, positional args, keyword args) for both encoders."""
    roll = rng.random()
    if roll < 0.15:
        fault = SoapFault(
            rng.choice(["Client", "Server", "soapenv:Server", "a&b", ""]), text(rng),
            text(rng) if rng.random() < 0.7 else "",
        )  # fmt: skip
        return "fault", (fault,), {}
    namespace = rng.choice(NAMESPACES)
    headers = [header(rng) for _ in range(rng.choice([0, 0, 1, 2, 3]))] or None
    if roll < 0.55:
        params = [value(rng) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.05:
            params = [poison(rng, p) for p in params] or [poison(rng, None)]
        names = None if rng.random() < 0.3 else [rng.choice(NAMES) for _ in params]
        if names is not None and rng.random() < 0.03:
            names = names[:-1] if names else ["extra"]
        return "request", (namespace, rng.choice(["getPR", "op"]), params, names), {"headers": headers}
    result = value(rng)
    if rng.random() < 0.05:
        result = poison(rng, result)
    kwargs = {"headers": headers, "is_void": rng.random() < 0.1}
    return "response", (namespace, rng.choice(["getPR", "next"]), result), kwargs


ENCODERS = {
    "request": (encode_request, reference.encode_request),
    "response": (encode_response, reference.encode_response),
    "fault": (encode_fault, reference.encode_fault),
}


class TestWriterAgainstReference:
    def test_random_envelopes(self, oracle_seed):
        rng = random.Random(0x50A9 + oracle_seed)
        seen = {"request": 0, "response": 0, "fault": 0, "raised": 0, "void": 0}
        for number in range(ENVELOPES):
            kind, args, kwargs = case(rng)
            ours, theirs = ENCODERS[kind]
            expected = outcome(theirs, *args, **kwargs)
            assert outcome(ours, *args, **kwargs) == expected, (number, kind, args, kwargs)
            seen[kind] += 1
            seen["raised"] += expected[0] == "raised"
            seen["void"] += kwargs.get("is_void", False)
        # every branch of the differential ran, refusals included
        assert min(seen.values()) > 100, seen

    @pytest.mark.parametrize(
        "bad, error",
        [
            ({1: "x"}, "struct keys must be non-empty strings"),
            ([{"": 1}], "struct keys must be non-empty strings"),
            ({"k": [None, {None: 2}]}, "struct keys must be non-empty strings"),
            (object(), "cannot encode value of type object"),
            ([1, [2, {3}]], "cannot encode value of type set"),
            ({"k": b"x"}, "cannot encode value of type bytes"),
        ],
    )
    def test_the_same_refusals(self, bad, error):
        for kind, args in (("request", (PPERFGRID_NS, "op", [1, bad])), ("response", (PPERFGRID_NS, "op", bad))):
            ours, theirs = ENCODERS[kind]
            assert outcome(ours, *args) == outcome(theirs, *args)
            assert outcome(ours, *args)[2] == error

    def test_a_name_count_mismatch(self):
        args = (PPERFGRID_NS, "op", [1, 2], ["only-one"])
        assert outcome(encode_request, *args) == outcome(reference.encode_request, *args)
        assert outcome(encode_request, *args)[1] is ValueError

    def test_headers_use_up_prefix_numbers_before_the_body(self):
        headers = [Element(QName("urn:h", "h"), children=[Element(QName("urn:i", "i"))])]
        data = encode_request(PPERFGRID_NS, "op", [[1]], ["v"], headers=headers)
        assert data == reference.encode_request(PPERFGRID_NS, "op", [[1]], ["v"], headers=headers)
        assert b'<v xmlns:ns3="http://www.w3.org/2001/XMLSchema-instance" xmlns:ns4=' in data

    def test_declarations_inherit_and_siblings_declare_their_own(self):
        body = encode_response("urn:x", "op", {"a": ["x", ""], "b": [[]]}).split(b"<soapenv:Body>")[1]
        assert body == (
            b'<tns:opResponse xmlns:tns="urn:x">'
            b'<return xmlns:ns1="http://www.w3.org/2001/XMLSchema-instance" ns1:type="tns:struct">'
            b'<a xmlns:ns2="http://schemas.xmlsoap.org/soap/encoding/" ns1:type="enc:Array" ns2:arrayType="xsd:string[2]">'
            b'<item ns1:type="xsd:string">x</item><item ns1:type="xsd:string"></item></a>'
            b'<b xmlns:ns3="http://schemas.xmlsoap.org/soap/encoding/" ns1:type="enc:Array" ns3:arrayType="enc:Array[1]">'
            b'<item ns1:type="enc:Array" ns3:arrayType="xsd:anyType[0]"/></b>'
            b"</return></tns:opResponse></soapenv:Body></soapenv:Envelope>"
        )  # fmt: skip

    @pytest.mark.parametrize("namespace", [XSI_NS, ENC_NS])
    def test_tns_is_the_prefix_of_its_own_namespace(self, namespace):
        for args in ((namespace, "op", [None, [1]]), (namespace, "op", [{}])):
            assert encode_request(*args) == reference.encode_request(*args)
        assert b" tns:" in encode_request(namespace, "op", [[1]])


# ------------------------------------------------------ the traffic it sends


def reencode(request: bytes, response: bytes) -> tuple[bytes, bytes]:
    """*request* and *response* decoded, then encoded again by the reference."""
    env = parse_envelope(request)
    entry = env.first_body_entry()
    children = list(entry.iter_elements())
    again = reference.encode_request(
        entry.tag.namespace, entry.tag.local, [decode_value(child) for child in children],
        [child.tag.local for child in children], headers=env.headers,
    )  # fmt: skip
    env = parse_envelope(response)
    entry = env.first_body_entry()
    if SoapFault.is_fault(entry):
        return again, reference.encode_fault(SoapFault.from_element(entry))
    assert entry.tag.local.endswith("Response")
    ret = entry.find("return")
    answer = reference.encode_response(
        entry.tag.namespace, entry.tag.local[: -len("Response")],
        None if ret is None else decode_value(ret), is_void=ret is None, headers=env.headers,
    )  # fmt: skip
    return again, answer


@pytest.fixture(scope="module")
def traffic(oracle_env, oracle_seed):
    """Every (endpoint, request, response) of a session that runs the
    wire-level ``client.query`` corpus on both encodings, a streamed drain
    per encoding, a view, an application's ``getStats`` and a fault."""
    grid, client, engine = oracle_env.grid, oracle_env.grid.client, oracle_env.engine
    loopback = grid.environment.transport
    send = loopback.send
    # every stub holds the loopback transport: record beneath them all
    wire = RecordingTransport(SimpleNamespace(send=send))
    loopback.send = wire.send
    try:
        for encoding in ("negotiated", "xml"):
            with pytest.MonkeyPatch.context() as monkeypatch:
                pin_leg(monkeypatch, encoding)
                for seed in range(N_QUERIES):
                    text = make_query(random.Random(7000 + seed + 1_000_000 * oracle_seed), oracle_env)
                    engine.plan_cache.remove(parse_query(text).fingerprint())
                    client.query(text)
                with client.query_stream("SELECT bandwidth_mbps FROM PRESTA-RMA", max_rows=64) as rows:
                    assert list(rows)
        view_id = client.create_view("SELECT count(gflops), max(gflops) GROUP BY numprocs")
        assert client.get_view(view_id)[1]
        assert grid.bind("SMG98").get_stats()
        with pytest.raises(SoapFault):
            client.query("SELECT nosuch FROM NOPE")
    finally:
        loopback.send = send
    return wire.log


class TestTrafficIsAFixedPoint:
    def test_every_message_reencodes_to_its_bytes(self, traffic):
        shapes = dict.fromkeys([b"<soapenv:Fault>", b":getStats ", b":getView ", b":queryChunked "], 0)
        if default_accept_encodings() != (ENCODING_XML,):  # xml alone is never advertised
            shapes[b"<acceptEncodings>"] = 0
        for number, (url, request, response) in enumerate(traffic):
            assert reencode(request, response) == (request, response), (number, url)
            for shape in shapes:
                shapes[shape] += shape in request or shape in response
        assert len(traffic) > 1000 and min(shapes.values()) > 0, (len(traffic), shapes)
