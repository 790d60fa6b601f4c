"""Tests for SOAP encoding, envelopes, faults, and RPC documents."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soap import (
    SoapEncodingError,
    SoapFault,
    SoapMessageError,
    XsdType,
    decode_request,
    decode_response,
    decode_value,
    encode_request,
    encode_response,
    parse_envelope,
    python_type_for,
    xsd_type_for,
)
from repro.soap.rpc import encode_fault
from repro.xmlkit import Element


class TestTypeInference:
    @pytest.mark.parametrize(
        "value, wire",
        [
            ("s", XsdType.STRING),
            (1, XsdType.INT),
            (2**40, XsdType.LONG),
            (-(2**40), XsdType.LONG),
            (1.5, XsdType.DOUBLE),
            (True, XsdType.BOOLEAN),
            (None, XsdType.ANY),
            ([1, 2], XsdType.ARRAY),
            ((1, 2), XsdType.ARRAY),
            ({"a": 1}, XsdType.STRUCT),
        ],
    )
    def test_xsd_type_for(self, value, wire):
        assert xsd_type_for(value) is wire

    def test_unencodable_type_raises(self):
        with pytest.raises(SoapEncodingError):
            xsd_type_for(object())

    def test_python_type_for_known(self):
        assert python_type_for("xsd:string") is str
        assert python_type_for("xsd:anyType") is None

    def test_python_type_for_unknown_raises(self):
        with pytest.raises(SoapEncodingError):
            python_type_for("xsd:nonsense")


def roundtrip(value: object) -> object:
    """*value* written into a response envelope, parsed and decoded."""
    return decode_response(encode_response("urn:t", "op", value)).value


class TestValueRoundtrip:
    @pytest.mark.parametrize(
        "value",
        [
            "hello",
            "",
            "with | pipes & <angles>",
            0,
            -42,
            2**40,
            1.5,
            -0.0,
            True,
            False,
            None,
            [],
            ["a", "b"],
            [1, None, "mixed"],
            {"name": "HPL", "count": 3, "nested": {"x": 1.0}},
            [["nested"], ["arrays", "here"]],
        ],
    )
    def test_roundtrip(self, value):
        decoded = roundtrip(value)
        if isinstance(value, tuple):
            value = list(value)
        assert decoded == value

    def test_bool_not_decoded_as_int(self):
        assert roundtrip(True) is True

    def test_missing_xsi_type_raises(self):
        with pytest.raises(SoapEncodingError):
            decode_value(Element("v", children=["1"]))

    def test_bad_literals_raise(self):
        el = parse_envelope(encode_response("urn:t", "op", 1)).first_body_entry().find("return")
        el.children = ["not-an-int"]
        with pytest.raises(SoapEncodingError):
            decode_value(el)

    def test_struct_key_must_be_string(self):
        with pytest.raises(SoapEncodingError):
            encode_response("urn:t", "op", {1: "x"})

    @given(st.lists(st.text(max_size=30), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_string_array_roundtrip_property(self, values):
        assert roundtrip(values) == values

    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-(2**60), max_value=2**60),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=20),
            ),
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.dictionaries(
                    st.from_regex(r"[a-z][a-z0-9]{0,6}", fullmatch=True), inner, max_size=4
                ),
            ),
            max_leaves=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_any_value_roundtrip_property(self, value):
        assert roundtrip(value) == value


class TestEnvelope:
    def test_roundtrip_with_headers(self):
        header = Element("token", children=["abc"])
        parsed = parse_envelope(encode_request("urn:t", "body-entry", [], headers=[header]))
        assert len(parsed.headers) == 1
        assert parsed.headers[0].text() == "abc"
        assert parsed.first_body_entry().tag.local == "body-entry"

    def test_empty_body_raises_on_access(self):
        from repro.soap.envelope import SoapEnvelope

        env = SoapEnvelope()
        with pytest.raises(SoapMessageError):
            env.first_body_entry()

    def test_non_envelope_root_rejected(self):
        with pytest.raises(SoapMessageError):
            parse_envelope(b"<not-an-envelope/>")

    def test_malformed_xml_rejected(self):
        with pytest.raises(SoapMessageError):
            parse_envelope(b"<oops")


class TestRpc:
    def test_request_roundtrip(self):
        data = encode_request("urn:ppg", "getExecs", ["numprocs", "16"], ["attribute", "value"])
        req = decode_request(data)
        assert req.namespace == "urn:ppg"
        assert req.operation == "getExecs"
        assert req.params == ["numprocs", "16"]

    def test_request_param_name_count_mismatch(self):
        with pytest.raises(ValueError):
            encode_request("urn:x", "op", [1, 2], ["only-one"])

    def test_response_roundtrip(self):
        data = encode_response("urn:ppg", "getExecs", ["g1", "g2"])
        resp = decode_response(data)
        assert resp.operation == "getExecs"
        assert resp.value == ["g1", "g2"]
        assert not resp.is_void

    def test_void_response(self):
        data = encode_response("urn:ppg", "Destroy", None, is_void=True)
        resp = decode_response(data)
        assert resp.is_void and resp.value is None

    def test_non_response_entry_rejected(self):
        data = encode_request("urn:x", "op", [])
        with pytest.raises(SoapMessageError):
            decode_response(data)

    def test_fault_raises_client_side(self):
        data = encode_fault(SoapFault("Client", "no such op", "KeyError"))
        with pytest.raises(SoapFault) as exc_info:
            decode_response(data)
        assert exc_info.value.code == "Client"
        assert exc_info.value.fault_message == "no such op"
        assert exc_info.value.detail == "KeyError"


class TestFaults:
    def test_fault_element_roundtrip(self):
        fault = SoapFault("Server", "boom", "RuntimeError")
        parsed = SoapFault.from_element(parse_envelope(encode_fault(fault)).first_body_entry())
        assert parsed.code == "Server"
        assert parsed.fault_message == "boom"
        assert parsed.detail == "RuntimeError"

    def test_from_exception_wraps(self):
        from repro.soap import fault_from_exception

        fault = fault_from_exception(ValueError("bad"), caller_error=True)
        assert fault.code == "Client"
        assert fault.detail == "ValueError"

    def test_from_exception_passes_faults_through(self):
        from repro.soap import fault_from_exception

        original = SoapFault("Client", "x")
        assert fault_from_exception(original) is original

    def test_is_fault(self):
        fault = parse_envelope(encode_fault(SoapFault("Client", "x"))).first_body_entry()
        assert SoapFault.is_fault(fault)
        assert not SoapFault.is_fault(Element("x"))
