"""The element-tree SOAP encoder, kept verbatim as the differential oracle.

This is ``encode_value`` / ``_encode`` (``repro.soap.encoding``),
``SoapEnvelope.to_element`` / ``to_bytes`` with ``build_envelope``
(``repro.soap.envelope``), ``SoapFault.to_element`` (``repro.soap.faults``)
and the three ``encode_*`` functions (``repro.soap.rpc``) exactly as they
stood before ``repro.soap.rpc`` wrote envelopes as text: every message was
first built as an ``Element`` tree and then walked by the xmlkit writer.
``tests/test_soap_writer.py`` holds the text writer to "same bytes, same
errors" against this module.  Do not fix bugs here: every difference is a
regression in ``src/``.
"""

from __future__ import annotations

from repro.soap.encoding import (
    _ANY,
    _ARRAY,
    _BOOLEAN,
    _DOUBLE,
    _STRUCT,
    _XSI_NIL,
    _XSI_TYPE,
    ENC_NS,
    SoapEncodingError,
    _wire_name_for,
)
from repro.soap.envelope import _BODY, _ENVELOPE, _HEADER, SOAP_ENV_NS, SoapEnvelope
from repro.soap.faults import _FAULT, SoapFault
from repro.xmlkit import Document, Element, QName, serialize

# ------------------------------------------------------------ encoding.py

_ARRAY_TYPE_ATTR = QName(ENC_NS, "arrayType")


def encode_value(name: str, value: object) -> Element:
    """Encode a Python value as an element named *name* with ``xsi:type``."""
    return _encode(QName("", name), value, _wire_name_for(value))


_ITEM = QName("", "item")
_new_element = Element.__new__


def _encode(tag: QName, value: object, wire: str) -> Element:
    """:func:`encode_value` once the value's wire type is known."""
    # Element() would copy the three containers it is handed.
    el = _new_element(Element)
    el.tag = tag
    el.attrs = {_XSI_TYPE: wire}
    el.children = children = []
    el.nsdecls = {}
    if value is None:
        el.attrs[_XSI_NIL] = "true"
    elif wire == _BOOLEAN:
        children.append("true" if value else "false")
    elif wire == _DOUBLE:
        children.append(repr(float(value)))  # type: ignore[arg-type]
    elif wire == _ARRAY:
        items = list(value)  # type: ignore[call-overload]
        # classified once: the kinds that name the arrayType are the
        # kinds the items are encoded with
        kinds = [_wire_name_for(item) for item in items]
        distinct = set(kinds) - {_ANY}  # None items do not vote
        item_type = distinct.pop() if len(distinct) == 1 else _ANY
        el.attrs[_ARRAY_TYPE_ATTR] = f"{item_type}[{len(items)}]"
        children.extend([_encode(_ITEM, item, kind) for item, kind in zip(items, kinds)])
    elif wire == _STRUCT:
        for key, item in value.items():  # type: ignore[attr-defined]
            if not isinstance(key, str) or not key:
                raise SoapEncodingError("struct keys must be non-empty strings")
            children.append(encode_value(key, item))
    else:  # string, int, long
        children.append(str(value))
    return el


# ------------------------------------------------------------ envelope.py


class ReferenceEnvelope(SoapEnvelope):
    """:class:`SoapEnvelope` with the two methods that built and wrote it."""

    def to_element(self) -> Element:
        env = Element(_ENVELOPE)
        env.declare("soapenv", SOAP_ENV_NS)
        if self.headers:
            header = env.subelement(_HEADER)
            header.children.extend(self.headers)
        body = env.subelement(_BODY)
        body.children.extend(self.body_entries)
        return env

    def to_bytes(self) -> bytes:
        doc = Document(self.to_element())
        return serialize(doc).encode("utf-8")


def build_envelope(body_entry: Element, headers: list[Element] | None = None) -> ReferenceEnvelope:
    """Build an envelope around one body entry."""
    return ReferenceEnvelope(headers=list(headers or []), body_entries=[body_entry])


# -------------------------------------------------------------- faults.py


def fault_to_element(self: SoapFault) -> Element:
    """``SoapFault.to_element``."""
    el = Element(_FAULT)
    el.subelement("faultcode", f"soapenv:{self.code}")
    el.subelement("faultstring", self.fault_message)
    if self.detail:
        detail = el.subelement("detail")
        detail.subelement("exception", self.detail)
    return el


# ----------------------------------------------------------------- rpc.py


def encode_request(
    namespace: str,
    operation: str,
    params: list[object],
    param_names: list[str] | None = None,
    headers: list[Element] | None = None,
) -> bytes:
    """Encode a call into envelope bytes."""
    names = param_names or [f"arg{i}" for i in range(len(params))]
    if len(names) != len(params):
        raise ValueError(f"{operation}: {len(params)} params but {len(names)} names")
    entry = Element(QName(namespace, operation))
    entry.declare("tns", namespace)
    for name, value in zip(names, params):
        entry.children.append(encode_value(name, value))
    return build_envelope(entry, headers=headers).to_bytes()


def encode_response(
    namespace: str,
    operation: str,
    value: object,
    *,
    is_void: bool = False,
    headers: list[Element] | None = None,
) -> bytes:
    """Encode a successful result into envelope bytes."""
    entry = Element(QName(namespace, operation + "Response"))
    entry.declare("tns", namespace)
    if not is_void:
        entry.children.append(encode_value("return", value))
    return build_envelope(entry, headers=headers).to_bytes()


def encode_fault(fault: SoapFault) -> bytes:
    """Encode a fault into envelope bytes."""
    return build_envelope(fault_to_element(fault)).to_bytes()
