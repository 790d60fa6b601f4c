"""Typed value encoding (SOAP section-5 style, simplified).

Supported wire types and their Python mappings:

==================  ==================
XSD / SOAP-ENC      Python
==================  ==================
``xsd:string``      ``str``
``xsd:int``         ``int``
``xsd:long``        ``int``
``xsd:double``      ``float``
``xsd:boolean``     ``bool``
``xsd:anyType``     ``None`` (nil only)
``enc:Array``       ``list`` (homogeneous)
``tns:struct``      ``dict[str, value]``
==================  ==================

Values carry an ``xsi:type`` attribute so the decoder is self-describing,
mirroring Apache Axis's default RPC/encoded style.
"""

from __future__ import annotations

from enum import Enum

from repro.xmlkit import Element, QName

XSD_NS = "http://www.w3.org/2001/XMLSchema"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"
ENC_NS = "http://schemas.xmlsoap.org/soap/encoding/"

_XSI_TYPE = QName(XSI_NS, "type")
_XSI_NIL = QName(XSI_NS, "nil")
_ARRAY_TYPE_ATTR = QName(ENC_NS, "arrayType")


class SoapEncodingError(ValueError):
    """Raised when a value cannot be encoded or decoded."""


class XsdType(str, Enum):
    """Wire-level type names used in ``xsi:type`` attributes."""

    STRING = "xsd:string"
    INT = "xsd:int"
    LONG = "xsd:long"
    DOUBLE = "xsd:double"
    BOOLEAN = "xsd:boolean"
    ANY = "xsd:anyType"
    ARRAY = "enc:Array"
    STRUCT = "tns:struct"


# The wire names as plain strings: ``XsdType.X.value`` is a descriptor call
# and an enum member hashes in Python, too slow for once-per-array-item paths.
# (Unpacked in the members' declaration order.)
_STRING, _INT, _LONG, _DOUBLE, _BOOLEAN, _ANY, _ARRAY, _STRUCT = (t.value for t in XsdType)
_PYTHON_TYPES: dict[str, type | None] = {
    _STRING: str,
    _INT: int,
    _LONG: int,
    _DOUBLE: float,
    _BOOLEAN: bool,
    _ANY: None,
    _ARRAY: list,
    _STRUCT: dict,
}


def _wire_name_for(value: object) -> str:
    if value is None:
        return _ANY
    if isinstance(value, bool):  # bool before int: bool is an int subclass
        return _BOOLEAN
    if isinstance(value, int):
        return _INT if -(2**31) <= value < 2**31 else _LONG
    if isinstance(value, float):
        return _DOUBLE
    if isinstance(value, str):
        return _STRING
    if isinstance(value, (list, tuple)):
        return _ARRAY
    if isinstance(value, dict):
        return _STRUCT
    raise SoapEncodingError(f"cannot encode value of type {type(value).__name__}")


def xsd_type_for(value: object) -> XsdType:
    """Infer the wire type for a Python value."""
    return XsdType(_wire_name_for(value))


def python_type_for(wire: str) -> type | None:
    """Python type for a wire type string (``None`` for nil/any)."""
    if wire not in _PYTHON_TYPES:
        raise SoapEncodingError(f"unknown wire type {wire!r}")
    return _PYTHON_TYPES[wire]


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


def decode_value(el: Element) -> object:
    """Decode an element produced by :func:`encode_value`."""
    nil = el.attrs.get(_XSI_NIL)
    if nil in ("true", "1"):
        return None
    wire = el.attrs.get(_XSI_TYPE)
    if wire is None:
        raise SoapEncodingError(f"element <{el.tag.local}> is missing xsi:type")
    children = el.children
    # the common item: one text chunk, no join to run
    text = children[0] if len(children) == 1 and type(children[0]) is str else el.text()
    try:
        if wire == _BOOLEAN:
            if text not in ("true", "false", "1", "0"):
                raise SoapEncodingError(f"bad boolean literal {text!r}")
            return text in ("true", "1")
        if wire == _INT or wire == _LONG:
            return int(text)
        if wire == _DOUBLE:
            return float(text)
        if wire == _STRING:
            return text
        if wire == _ARRAY:
            return [decode_value(c) for c in el.iter_elements()]
        if wire == _STRUCT:
            out: dict[str, object] = {}
            for child in el.iter_elements():
                out[child.tag.local] = decode_value(child)
            return out
        if wire == _ANY:
            return None
    except ValueError as exc:
        raise SoapEncodingError(f"bad {wire} literal {text!r}") from exc
    raise SoapEncodingError(f"unknown wire type {wire!r}")
