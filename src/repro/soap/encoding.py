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
from typing import Iterator

from repro.xmlkit import Element, QName, escape_text

XSD_NS = "http://www.w3.org/2001/XMLSchema"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"
ENC_NS = "http://schemas.xmlsoap.org/soap/encoding/"

_XSI_TYPE = QName(XSI_NS, "type")
_XSI_NIL = QName(XSI_NS, "nil")


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


def _text(value: object, wire: str) -> str:
    """A scalar's element text, escaped as the writer escapes text."""
    if wire == _BOOLEAN:
        return "true" if value else "false"
    if wire == _DOUBLE:
        return repr(float(value))  # type: ignore[arg-type]
    return escape_text(str(value))  # string, int, long


def write_value(
    out: list[str], name: str, value: object, wire: str, xsi: str | None, enc: str | None,
    fresh: Iterator[int],
) -> None:
    """Append *value* (wire type *wire*) as ``<name>``.  *xsi* and *enc* are the
    XSI and SOAP-ENC prefixes in scope, ``None`` where none is; as the xmlkit
    writer does, a missing one is declared here as the next ``ns<N>`` from
    *fresh*, before the attributes, and this element's children inherit it."""
    decls = ""
    if xsi is None:
        xsi = f"ns{next(fresh)}"
        decls = f' xmlns:{xsi}="{XSI_NS}"'
    if value is None:
        out.append(f'<{name}{decls} {xsi}:type="{_ANY}" {xsi}:nil="true"/>')
    elif wire == _ARRAY:
        items = list(value)  # type: ignore[call-overload]
        # classified once: the kinds that name the arrayType are the
        # kinds the items are written with
        kinds = [_wire_name_for(item) for item in items]
        distinct = set(kinds) - {_ANY}  # None items do not vote
        item_type = distinct.pop() if len(distinct) == 1 else _ANY
        if enc is None:
            enc = f"ns{next(fresh)}"
            decls += f' xmlns:{enc}="{ENC_NS}"'
        head = f'<{name}{decls} {xsi}:type="{_ARRAY}" {enc}:arrayType="{item_type}[{len(items)}]"'
        out.append(head + (">" if items else "/>"))  # no children: it closes itself
        for item, kind in zip(items, kinds):
            if item is None or kind == _ARRAY or kind == _STRUCT:
                write_value(out, "item", item, kind, xsi, enc, fresh)
            else:
                out.append(f'<item {xsi}:type="{kind}">{_text(item, kind)}</item>')
        if items:
            out.append(f"</{name}>")
    elif wire == _STRUCT:
        out.append(f'<{name}{decls} {xsi}:type="{_STRUCT}"' + (">" if value else "/>"))
        for key, item in value.items():  # type: ignore[attr-defined]
            if not isinstance(key, str) or not key:
                raise SoapEncodingError("struct keys must be non-empty strings")
            write_value(out, key, item, _wire_name_for(item), xsi, enc, fresh)
        if value:
            out.append(f"</{name}>")
    else:
        out.append(f'<{name}{decls} {xsi}:type="{wire}">{_text(value, wire)}</{name}>')


def decode_value(el: Element) -> object:
    """Decode a parsed element that :func:`write_value` wrote."""
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
