"""The scanning parser and the memoised writer against the codec they replaced.

``tests/reference_xmlkit.py`` is the character-at-a-time parser and the
stack-walking writer as they stood; this suite holds ``repro.xmlkit`` to
"same trees, same bytes, same rejections" against it:

* a seeded mutation fuzz over SOAP-, WSDL- and colbatch-chunk-shaped seeds
  (same accept/reject, same error text and offset, equal trees);
* hypothesis-generated trees serialised by both writers, byte for byte;
* one message of every shape the system sends, captured off a live grid,
  for which parse -> serialise is a fixed point.

Two behaviours changed on purpose with the rewrite, and ``_FixedReference``
below is the complete list: the oracle for the fuzz is the old parser with
exactly these two overrides.

1. Character references.  The old reader trusted ``int()`` and ``chr()``:
   it took ``&# 65;``, ``&#6_5;`` and ``&#+65;`` for ``A``, produced NUL and
   lone surrogates, and let ``&#xFFFFFFFF;`` escape as ``OverflowError``.
   Now only ``[0-9]+`` / ``[xX][0-9A-Fa-f]+`` naming an XML 1.0 ``Char`` is
   accepted; anything else is ``XmlParseError`` at the ``&``.
2. Prolog.  ``<?xml`` must be followed by whitespace to be the XML
   declaration; ``<?xml-stylesheet ...?>`` is a processing instruction and
   is rejected like any other.

(Bytes input is a third change — non-UTF-8 bytes and a non-UTF-8 declared
encoding are ``XmlParseError`` — pinned by ``TestBytesInput``; the fuzz
feeds ``str``.)
"""

from __future__ import annotations

import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.semantic import EXECUTION_PORTTYPE
from repro.experiments.common import GridScale, build_grid
from repro.ogsi.porttypes import NOTIFICATION_SINK_PORTTYPE
from repro.soap import SoapFault
from repro.soap.chunks import ENCODING_COLBATCH, ENCODING_XML, encode_chunk
from repro.soap.rpc import encode_fault, encode_request, encode_response
from repro.wsdl.document import generate_wsdl
from repro.xmlkit import Document, Element, QName, XmlParseError, parse, serialize
from repro.xmlkit import parser as xml_parser
from repro.xmlkit.parser import clear_memo
from repro.xmlkit.writer import serialize_bytes
from tests import reference_xmlkit as reference

FUZZ_CASES = 24_000


def _is_xml_char(code: int) -> bool:
    return (
        code in (0x9, 0xA, 0xD)
        or 0x20 <= code <= 0xD7FF
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    )


class _FixedReference(reference._Parser):
    """The old parser plus the two deliberate behaviour changes, nothing else."""

    def read_reference(self) -> str:
        semi = self.text.find(";", self.pos)
        body = self.text[self.pos : semi]
        if semi != -1 and len(body) <= 10 and body.startswith("#"):
            digits, base, allowed = body[1:], 10, "0123456789"
            if body[1:2] in ("x", "X"):
                digits, base, allowed = body[2:], 16, "0123456789abcdefABCDEF"
            strict = bool(digits) and all(c in allowed for c in digits)
            if not strict or not _is_xml_char(int(digits, base)):
                raise XmlParseError(f"bad character reference &{body};", self.pos - 1)
        return super().read_reference()

    def startswith(self, literal: str) -> bool:
        if literal == "<?xml":
            return self.text[self.pos : self.pos + 6] in ("<?xml ", "<?xml\t", "<?xml\r", "<?xml\n")
        return super().startswith(literal)


def reference_parse(text: str) -> Document:
    return _FixedReference(text).parse_document()


def tree(el: Element):
    return (
        el.tag,
        dict(el.attrs),
        dict(el.nsdecls),
        [child if isinstance(child, str) else tree(child) for child in el.children],
    )


def outcome(parser, text):
    """What *parser* makes of *text*, in a form two parsers can be compared on."""
    try:
        doc = parser(text)
    except XmlParseError as exc:
        return ("rejected", str(exc))
    return ("accepted", doc.version, doc.encoding, tree(doc.root))


# ------------------------------------------------------------------ fuzz seeds

ROWS = [
    f"time_spent|/Code/MPI/MPI_{op}|vampir|{i * 0.5:.9f}-{i * 0.5 + 1:.9f}|{i * 0.125!r}"
    for i, op in enumerate(["Send", "Recv", "Wait", "Bcast"] * 3)
]
NS = "http://pperfgrid.cs.pdx.edu/2004"

HAND_WRITTEN = [
    # every construct of the accepted language in one document, non-ASCII names included
    '<?xml version="1.0" encoding="utf-8"?>\n<!-- prolog -->\n'
    '<räksmörgås xmlns="urn:d" xmlns:p="urn:p" xmlns:π="urn:π" a = "1"\n\tb=\'two\'>'
    "t&amp;&#65;&#x42;&lt;<![CDATA[x<y&z]]>tail<!-- c -->"
    '<p:b p:k="v&quot;" π:λ="μ">é<c xmlns=""><d/></c></p:b><π:ü ñ="ö"/> \n</räksmörgås>\n<!-- end -->\n',
    '<a xmlns:p="urn:1"><b xmlns:p="urn:2" x="&#9;&#10;"><p:c p:y=\'"\'/></b><p:d>&apos;&gt;</p:d></a>',
    "<r xmlns='urn:r'><![CDATA[]]><x.y-z _a='1' b.c-d='2'/>²½<:e/>一</r>",
]


def fuzz_seeds() -> list[str]:
    soap = [
        encode_response(NS, "getPR", ROWS),
        encode_response(NS, "getPRAgg", ["|12|4.8553|0.125|9.5", "/Code/MPI|3|1.0|0.5|1.5"]),
        encode_request(NS, "getPR", ["time_spent", ["/Code/MPI/MPI_Send", "/Mes<sages"], None, {"k": 1, "x": 2.5}]),
        encode_response(NS, "next", encode_chunk(0, ROWS, True, ENCODING_COLBATCH)),
        encode_response(NS, "next", encode_chunk(3, ROWS[:4], False, ENCODING_XML)),
        encode_fault(SoapFault("soapenv:Server", "unknown application(s) ['NOPE'] <&>", "QueryError")),
    ]
    # the smallest port type: a mutation costs one old-parser pass over its seed
    wsdl = generate_wsdl(NOTIFICATION_SINK_PORTTYPE, "ppg://hpl.pdx.edu:8080/services/sink/1")
    return [message.decode("utf-8") for message in soap] + [wsdl] + HAND_WRITTEN


TOKENS = list("<>/&;#\"'= \n\t:!?-[]xX0123456789aé²_.") + [
    "<!--", "-->", "<![CDATA[", "]]>", "&#", "&#x", "&amp;", "&lt;", "xmlns", "xmlns:", "xmlns=",
    "<?xml ", "<?xml", "?>", "<!DOCTYPE", "</", "/>", "=\"", "='",
]  # fmt: skip


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        i = rng.randrange(len(text) + 1)
        if roll < 0.35:  # insert a token
            text = text[:i] + rng.choice(TOKENS) + text[i:]
        elif roll < 0.6:  # delete a short span
            text = text[:i] + text[i + rng.randint(1, 4) :]
        elif roll < 0.75:  # duplicate a span in place
            j = i + rng.randint(1, 12)
            text = text[:j] + text[i:j] + text[j:]
        elif roll < 0.9 and text:  # copy a span from elsewhere
            j = rng.randrange(len(text))
            text = text[:i] + text[j : j + rng.randint(1, 24)] + text[i:]
        else:  # overwrite one character
            text = text[:i] + rng.choice(TOKENS) + text[i + 1 :]
    return text


def byte_mutations(rng: random.Random, seeds: list[bytes], cases: int) -> list[bytes]:
    out = []
    for _ in range(cases):
        data = bytearray(rng.choice(seeds))
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(data))
            data[i : i + rng.randint(0, 2)] = bytes(rng.randrange(256) for _ in range(rng.randint(0, 3)))
        out.append(bytes(data))
    return out


class TestParserAgainstReference:
    def test_seeds_parse_to_equal_trees(self):
        for seed in fuzz_seeds():
            expected = outcome(reference.parse, seed)
            assert expected[0] == "accepted"
            assert outcome(parse, seed) == expected

    def test_mutation_fuzz(self, oracle_seed):
        rng = random.Random(0xD1FF + oracle_seed)
        seeds = fuzz_seeds()
        accepted = 0
        for case in range(FUZZ_CASES):
            text = mutate(rng, rng.choice(seeds))
            expected = outcome(reference_parse, text)
            accepted += expected[0] == "accepted"
            assert outcome(parse, text) == expected, f"case {case}: {text!r}"
        # the fuzz is only a differential test if both verdicts are exercised
        assert FUZZ_CASES * 0.1 < accepted < FUZZ_CASES * 0.9

    @pytest.mark.parametrize(
        "text",
        [
            # names: str.isalpha / str.isalnum decide, not the XML 1.0 tables
            "<é/>", "<é ü='1'>ñ</é>", "<²a/>", "<a²/>", "<a ²x='1'/>", "<a x²='1'/>", "<a></²a>",
            "<一/>", "<a x='1' ²y='2' x='3'/>", "<a x='1' x='2' ²y='2'/>", "<:a/>", "<a:/>",
            "<a xmlns='u'><:b/></a>", "<a xmlns:p='u'><p:/></a>", "<p:a:b xmlns:p='u'/>",
            "<a p:x:y='1' xmlns:p='u'/>", "<a xmlns:='u'><b/></a>", "<a xmlns:p=''><p:b/></a>",
            "<xml:a/>", "<a xml:lang='en'/>", "<a xmlns:xml='u'><xml:b/></a>",
            # namespace declarations and duplicates
            "<a xmlns='u' xmlns='v'/>", "<a xmlns:p='u' xmlns:p='v'><p:b/></a>",
            "<a xmlns:p='u' xmlns:q='u' p:x='1' q:x='2'/>", "<a x='1' x='2'/>",
            "<a x='&bad;' x='2' x='3'/>", "<a xmlns='u'><b xmlns=''><c/></b><d/></a>",
            "<a xmlns:p='u'><b xmlns:p='v'><p:c p:k='1'/></b><p:d p:k='2'/></a>", "<p:a/>",
            # attribute syntax
            "<a x='1'y='2'/>", "<a x ='1'/>", "<a x= '1'/>", "<a x\n=\n'1'\n/>", "<a x='1' />",
            "<a x='1' / >", "<a/ >", "<a x=1/>", "<a x/>", "<a x=/>", "<a x='/>", "<a x='<'/>",
            "<a x='&bad; <'/>", '<a x="&bad;', "<a x='a&amp;b'/>", "<a x='&' y=';'/>",
            "<a x='&a\"b;'/>", "<a x=\"&a'b;\"/>", '<a x="&a"b;"/>', "<a x='1' x='2' =/>",
            "<a x='1' 'y'/>", "<a 'x'/>", "<a =/>", "<a x='\r\n\t'/>",
            # references
            "<a>& <b/> ;</a>", "<a>&<b/>;</a>", "<a>&lt</a>", "<a>&lt;&gt;&amp;&apos;&quot;</a>",
            "<a>&#65;&#x41;&#X41;</a>", "<a>&#0000000065;</a>", "<a>&#000000065;</a>",
            "<a>&;</a>", "<a>x&</a>", "<a>&amp</a>", "<a>&#9;&#10;&#13;&#x10FFFF;&#xE000;</a>",
            # CDATA, comments, markup the subset refuses
            "<a><![CDATA[]]></a>", "<a>x<![CDATA[]]></a>", "<a><![CDATA[a]]b]]></a>",
            "<a><![CDATA[</a>", "<a><![CDATA</a>", "<a>x<!-- -->y</a>", "<a><!--></a>",
            "<a><!---></a>", "<a><!----></a>", "<a><!-- </a>", "<a><!x></a>",
            "<a><!DOCTYPE x></a>", "<a><?pi?></a>", "<a><?xml version='1.0'?></a>",
            # document level
            "", " ", "<", "<!-- c --><a/><!-- d -->", "<!-- c <a/>", "<a/><!-- d", "<a/>&",
            "<!DOCTYPE a><a/>", "<?pi?><a/>", "<a/><?pi?>", "  <?xml version='1.0'?><a/>",
            "<?xml version='1.1' encoding='latin-1'?><a/>", "<?xml version='1.0'", "<?xml ?><a/>",
            '<?xml\tversion="1.0"?><a/>', "<?xml version=1.0?><a/>", "\ufeff<a/>", "<a/><b/>",
            # element structure
            "<a", "<a ", "<a/", "<a>", "<a></a", "<a></a >", "<a></a\n>", "<a></ a>", "<a></ab>",
            "<ab></a>", "<a></a>x", "<a><b></a></b>", "<a>t<b/>u<c>v</c>w</a>", "<a>\r\n</a>",
            "<a><b", "<a><b ", "<a><b x", "<a><b x=", "<a><b x='", "<a></", "<a><", "<a>x",
            "<p:a xmlns:p='u'>x", "<a>" * 40 + "</a>" * 40,
        ],
    )  # fmt: skip
    def test_edge_of_the_accepted_language(self, text):
        assert outcome(parse, text) == outcome(reference.parse, text)

    def test_nesting_is_not_bounded_by_the_recursion_limit(self):
        doc = parse("<a>" * 5000 + "x" + "</a>" * 5000)
        depth, el = 1, doc.root
        while isinstance(el.children[0], Element):
            depth, el = depth + 1, el.children[0]
        assert (depth, el.children) == (5000, ["x"])


class TestCharacterReferences:
    @pytest.mark.parametrize(
        "body",
        ["#xFFFFFFFF", "# 65", "#x 41", "#6_5", "#+65", "#-0", "#٦٥", "#0", "#xD800", "#xDFFF",
         "#xFFFE", "#xFFFF", "#x110000", "#8", "#x1F", "#", "#x", "#X", "#xZZ", "#65x"],
    )  # fmt: skip
    def test_rejected_at_the_ampersand(self, body):
        for text, at in ((f"<a>ab&{body};</a>", 5), (f"<a x='1&{body};'/>", 7)):
            with pytest.raises(XmlParseError, match="bad character reference") as caught:
                parse(text)
            assert caught.value.pos == at

    def test_every_xml_char_is_accepted(self):
        doc = parse("<a x='&#x9;&#xA;'>&#9;&#10;&#13;&#32;&#xD7FF;&#xE000;&#xFFFD;&#x10000;&#X10ffff;</a>")
        assert doc.root.text() == "\t\n\r \ud7ff\ue000\ufffd\U00010000\U0010ffff"
        assert doc.root.get("x") == "\t\n"
        assert parse(serialize_bytes(doc)).root.text() == doc.root.text()


class TestProlog:
    @pytest.mark.parametrize(
        "text", ['<?xml-stylesheet href="x"?><a/>', "<?xml?><a/>", "<?xmlversion='1.0'?><a/>", " <?xmlx ?><a/>"]
    )
    def test_only_xml_then_whitespace_is_the_declaration(self, text):
        with pytest.raises(XmlParseError, match="processing instructions are not supported") as caught:
            parse(text)
        assert caught.value.pos == len(text) - len(text.lstrip())

    def test_str_input_keeps_its_declared_encoding(self):
        assert parse("<?xml version='1.0' encoding='latin-1'?><a>é</a>").encoding == "latin-1"


class TestBytesInput:
    def test_declared_utf8_and_ascii_are_accepted(self):
        assert parse("<?xml version='1.0' encoding='UTF-8'?><a>é</a>".encode()).root.text() == "é"
        assert parse(b"<?xml version='1.0' encoding='us-ascii'?><a>e</a>").encoding == "us-ascii"
        assert parse("<a>é</a>".encode()).encoding == "utf-8"

    @pytest.mark.parametrize("label", ["latin-1", "ISO-8859-1", "utf-16", "cp1252"])
    def test_another_declared_encoding_is_rejected(self, label):
        data = f"<?xml version='1.0' encoding='{label}'?><a>e</a>".encode("ascii")
        with pytest.raises(XmlParseError, match=label):
            parse(data)

    def test_undecodable_bytes_carry_the_byte_offset(self):
        with pytest.raises(XmlParseError, match="UTF-8") as caught:
            parse("<a>é".encode() + b"\xe9</a>")
        assert caught.value.pos == 5  # 'é' is two bytes

    def test_nothing_but_xml_parse_error_escapes(self, oracle_seed):
        rng = random.Random(0xB17E5 + oracle_seed)
        seeds = [seed.encode("utf-8") for seed in fuzz_seeds()]
        for data in byte_mutations(rng, seeds, 3000):
            try:
                doc = parse(data)
            except XmlParseError:
                continue
            # what was accepted can go back on the wire under the label it carries
            assert doc.encoding.lower() in ("utf-8", "us-ascii")
            serialize_bytes(doc)


# ----------------------------------------------------------- writer, byte for byte

_URIS = ["urn:a", "urn:b", "urn:c", "http://www.w3.org/XML/1998/namespace"]
_PREFIXES = ["", "p", "q", "ns1", "ns2", "ns3", "xml"]
_locals = st.sampled_from(["a", "b", "item", "é", "x.y-z", "_"])
_qnames = st.builds(QName, st.sampled_from(["", *_URIS]), _locals)
_chardata = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=12
) | st.sampled_from(["<&>", '"\n\t', "]]>", ""])
# an element may declare any prefix, the default one included, and may undeclare it ("")
_nsdecls = st.dictionaries(st.sampled_from(_PREFIXES), st.sampled_from(["", *_URIS]), max_size=3)


@st.composite
def _trees(draw, depth=0):
    children = []
    if depth < 4:
        children = draw(st.lists(_chardata | _trees(depth=depth + 1), max_size=4))
    return Element(
        draw(_qnames),
        attrs=draw(st.dictionaries(_qnames, _chardata, max_size=3)),
        children=children,
        nsdecls=draw(_nsdecls),
    )


class TestWriterAgainstReference:
    @given(_trees(), st.sampled_from([None, 0, 2]), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_same_bytes(self, el, indent, as_document):
        node = Document(el, version="1.1", encoding="UTF-8") if as_document else el
        assert serialize(node, indent=indent) == reference.serialize(node, indent=indent)

    def test_generated_prefix_shadows_a_declared_one(self):
        # ns1 is taken by the caller; the first generated prefix is ns1 all the same
        root = Element(QName("urn:a", "r"), nsdecls={"ns1": "urn:b"})
        root.append(Element(QName("urn:b", "c"), attrs={QName("urn:b", "k"): "v"}))
        assert serialize(root) == reference.serialize(root)
        assert serialize(root) == '<ns1:r xmlns:ns1="urn:a"><ns2:c xmlns:ns2="urn:b" ns2:k="v"/></ns1:r>'

    def test_attribute_skips_the_default_prefix_and_children_reuse_its_prefix(self):
        root = Element(QName("urn:a", "r"), attrs={QName("urn:a", "k"): "1"}, nsdecls={"": "urn:a"})
        root.append(Element(QName("urn:a", "c"), attrs={QName("urn:a", "k"): "2"}))
        assert serialize(root) == reference.serialize(root)
        assert serialize(root) == '<r xmlns="urn:a" xmlns:ns1="urn:a" ns1:k="1"><c ns1:k="2"/></r>'

    def test_inner_declaration_shadows_outer_prefix(self):
        root = Element(QName("urn:a", "r"), nsdecls={"p": "urn:a", "q": "urn:a"})
        inner = root.append(Element(QName("urn:b", "i"), nsdecls={"p": "urn:b"}))
        inner.append(Element(QName("urn:a", "leaf")))
        assert serialize(root) == reference.serialize(root)
        assert serialize(root) == '<p:r xmlns:p="urn:a" xmlns:q="urn:a"><p:i xmlns:p="urn:b"><q:leaf/></p:i></p:r>'

    @given(st.text(alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_escaping(self, value):
        from repro.xmlkit import escape_attr, escape_text

        assert escape_text(value) == reference.escape_text(value)
        assert escape_attr(value) == reference.escape_attr(value)


# -------------------------------------------------- every shape the system sends


@pytest.fixture(scope="module")
def traffic():
    """Every request and response of a short session that touches each kind of hop."""
    grid = build_grid(GridScale.tiny())
    log: list[bytes] = []
    transport = grid.environment.transport
    send = transport.send

    def recording_send(endpoint_url: str, request: bytes) -> bytes:
        response = send(endpoint_url, request)
        log.extend((request, response))
        return response

    transport.send = recording_send  # type: ignore[method-assign]
    try:
        execution = grid.bind("SMG98").all_executions()[0]
        execution.get_pr("time_spent", ["/Code/MPI/MPI_Allreduce"])
        grid.deploy_federation()
        client = grid.client
        client.query("SELECT count(gflops), mean(gflops) FROM HPL GROUP BY numprocs")
        client.query("SELECT gflops FROM HPL")
        for encoding in (ENCODING_COLBATCH, ENCODING_XML):
            with pytest.MonkeyPatch.context() as env:
                env.setenv("PPG_ACCEPT_ENCODINGS", encoding)
                with client.query_stream(
                    "SELECT bandwidth_mbps FROM PRESTA-RMA", max_rows=64
                ) as rows:
                    assert list(rows)
        with pytest.raises(SoapFault):
            client.query("SELECT nosuch FROM NOPE")
        grid.execution_service("HPL", "1").data_updated("appended")
        execution.stub.FindServiceData("wsdl")
    finally:
        transport.send = send  # type: ignore[method-assign]
        grid.cleanup()
    return log


def childless(message: bytes) -> bytes:
    """*message* as it reads back: an empty ``xsd:string`` is written
    ``<x ...></x>`` (one empty text child) and parsed childless, so ``<x .../>``."""
    return re.sub(rb"<([\w:]+)( [^<>]*)?></\1>", rb"<\1\2/>", message)


SHAPES = {
    "getPR array response": rb":getPRResponse .*enc:Array",
    "getPRAgg request": rb":getPRAgg ",
    "getPRAgg response": rb":getPRAggResponse ",
    "colbatch chunk": rb":nextResponse .*>#chunk\|\d+\|\d+\|[01]\|colbatch<",
    "xml chunk": rb":nextResponse .*>#chunk\|\d+\|\d+\|[01]<",
    "fault": rb"<soapenv:Fault>",
    "notification": rb":DeliverNotification ",
    "subscription": rb":SubscribeToNotificationTopic ",
    "federated answer": rb":queryResponse ",
    "member statistics": rb":getStatsResponse ",
}


class TestCapturedMessages:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_parse_then_serialise_is_a_fixed_point(self, traffic, shape):
        matching = [message for message in traffic if re.search(SHAPES[shape], message)]
        assert matching, f"the session sent no {shape}"
        for message in matching[:3]:
            doc = parse(message)
            assert serialize_bytes(doc) == childless(message)
            assert tree(doc.root) == tree(reference.parse(message).root)
            assert reference.serialize(doc) == serialize(doc)

    def test_whole_session(self, traffic):
        assert len(traffic) > 100
        for message in traffic:
            assert serialize_bytes(parse(message)) == childless(message)

    def test_generated_wsdl(self):
        wsdl = generate_wsdl(EXECUTION_PORTTYPE, "ppg://hpl.pdx.edu:8080/services/HPL/Execution/1")
        doc = parse(wsdl)
        assert serialize(doc, indent=2) == wsdl
        assert tree(doc.root) == tree(reference.parse(wsdl).root)
        assert reference.serialize(doc, indent=2) == wsdl


class TestStartTagMemo:
    """The start-tag memo outlives a :func:`parse` call and is shared by
    every thread: a tag met cold (memo emptied) and warm (memoised by an
    earlier message) must parse to the same tree, or fail with the same
    error at the same offset, as the reference."""

    def test_seeds_and_captured_messages_cold_and_warm(self, traffic):
        messages = fuzz_seeds() + [message.decode("utf-8") for message in traffic]
        for text in messages:
            expected = outcome(reference.parse, text)
            clear_memo()
            assert outcome(parse, text) == expected, ("cold", text)
            assert outcome(parse, text) == expected, ("warm", text)
        for message in traffic:  # the whole session again, every tag memoised
            assert serialize_bytes(parse(message)) == childless(message)

    def test_mutation_fuzz_cold_then_warm_twice(self, oracle_seed):
        rng = random.Random(0x3E30 + oracle_seed)
        seeds = fuzz_seeds()
        cases = [mutate(rng, rng.choice(seeds)) for _ in range(FUZZ_CASES)]
        expected = [outcome(reference_parse, text) for text in cases]
        for case, (text, want) in enumerate(zip(cases, expected)):
            clear_memo()
            assert outcome(parse, text) == want, ("cold", case, text)
        for memo in ("warming", "warm"):
            for case, (text, want) in enumerate(zip(cases, expected)):
                assert outcome(parse, text) == want, (memo, case, text)

    def test_nothing_but_xml_parse_error_escapes_cold_or_warm(self, oracle_seed):
        rng = random.Random(0x3E31 + oracle_seed)
        cases = byte_mutations(rng, [seed.encode("utf-8") for seed in fuzz_seeds()], 1500)
        for memo in ("cold", "warm"):
            for data in cases:
                if memo == "cold":
                    clear_memo()
                try:
                    serialize_bytes(parse(data))
                except XmlParseError:
                    pass

    def test_the_key_holds_the_parent_frame(self):
        declared = "<r xmlns:p='urn:p'><a p:x=\"1\"></a></r>"
        undeclared = "<r><a p:x=\"1\"></a></r>"
        clear_memo()
        cold = outcome(parse, undeclared)
        assert cold[0] == "rejected" and "undeclared namespace prefix 'p'" in cold[1]
        assert parse(declared).root.children[0].attrs == {QName("urn:p", "x"): "1"}
        assert outcome(parse, undeclared) == cold
        # another binding of p is another frame; the same bindings are one frame
        rebound = parse("<r xmlns:p='urn:q'><a p:x=\"1\"></a></r>")
        assert rebound.root.children[0].attrs == {QName("urn:q", "x"): "1"}
        clear_memo()
        parse(declared)
        parse("<s xmlns:p='urn:p'><a p:x=\"1\"></a></s>")
        assert sorted(text for _, text in xml_parser._TAGS) == [
            '<a p:x="1">', "<r xmlns:p='urn:p'>", "<s xmlns:p='urn:p'>"
        ]

    def test_a_hit_hands_out_dicts_of_its_own(self):
        text = "<r xmlns:p='urn:p'><a p:x='1'/></r>"
        expected = tree(reference.parse(text).root)
        clear_memo()
        for _ in range(2):  # a miss, then a hit
            doc = parse(text)
            for el in (doc.root, doc.root.children[0]):
                el.attrs.clear()
                el.nsdecls["q"] = "urn:q"
            assert tree(parse(text).root) == expected

    def test_a_value_holding_gt(self):
        text = (
            "<r><a x='1' y='2'/><a x='1' y='>'/><a x='1' y='>'/>"
            "<a x='1>' y='2'/><a x='1' y='2'/></r>"
        )
        clear_memo()
        for _ in range(2):
            doc = parse(text)
            assert tree(doc.root) == tree(reference.parse(text).root)
        values = [child.attrs[QName("", "y")] for child in doc.root.children]
        assert values == ["2", ">", ">", "2", "2"]
        assert all(text.count("'") % 2 == 0 for _, text in xml_parser._TAGS)

    def test_the_memo_stays_within_its_bounds(self):
        clear_memo()
        entries, chars = xml_parser._MEMO_ENTRIES, xml_parser._MEMO_TAG_CHARS
        parse("<r>" + "".join(f"<a i='{i}'/>" for i in range(entries + 100)) + "</r>")
        parse("<r>" + "".join(f"<a xmlns:p='urn:{i}'/>" for i in range(entries + 100)) + "</r>")
        value = "v" * 10_000
        for _ in range(2):
            element = parse(f"<r><a x='{value}'/></r>").root.children[0]
            assert element.attrs == {QName("", "x"): value}
        assert 0 < len(xml_parser._TAGS) <= entries
        assert 0 < len(xml_parser._FRAMES) <= entries
        assert max(len(text) for _, text in xml_parser._TAGS) <= chars
        assert not any(value in text for _, text in xml_parser._TAGS)

    def test_threads_parse_as_one_thread_does(self, traffic):
        # the last document holds more distinct tags than the memo: it is
        # emptied while the other threads read and fill it
        tags = "".join(f"<a i='{i}'/>" for i in range(xml_parser._MEMO_ENTRIES + 100))
        overflow = f"<r>{tags}</r>"
        messages = [message.decode("utf-8") for message in traffic] + fuzz_seeds() + [overflow]
        clear_memo()
        expected = [tree(parse(text).root) for text in messages]
        clear_memo()
        results: list = [None] * 4

        def rotated(items: list, k: int) -> list:
            cut = k * len(items) // 4
            return (items[cut:] + items[:cut]) * 3

        def work(k: int) -> None:
            results[k] = [tree(parse(text).root) for text in rotated(messages, k)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(4):
            assert results[k] == rotated(expected, k)
