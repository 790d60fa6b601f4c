"""XML serialization.

The writer assigns namespace prefixes deterministically: declarations made
explicitly on elements (``Element.declare``) are honored; any namespace in
use without an in-scope declaration gets a generated ``ns<N>`` prefix
declared at the element that first needs it.  Deterministic output matters
here because byte counts feed the Table 4 "bytes transferred" column.

Prefix lookup is a dict probe, not a walk of the scope stack: each
*namespace frame* carries a ``uri -> prefix`` memo for tags and one for
attributes, computed once when an element declares (or is given) a prefix
and shared, untouched, by every descendant that declares none.  Apart
from the constant root frame (the ``xml`` prefix), frames live for one
:func:`serialize` call.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator

from repro.xmlkit.model import Document, Element

_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\n": "&#10;", "\t": "&#9;"}
)
_TEXT_SPECIAL = re.compile("[&<>]").search
_ATTR_SPECIAL = re.compile('[&<>"\n\t]').search


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    return value.translate(_TEXT_ESCAPES) if _TEXT_SPECIAL(value) else value


def escape_attr(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return value.translate(_ATTR_ESCAPES) if _ATTR_SPECIAL(value) else value


_Frame = tuple[dict[str, str], dict[str, str], dict[str, str]]


def _frame(own: dict[str, str], outer: dict[str, str]) -> _Frame:
    """The namespace frame of an element that declares *own* inside *outer*.

    Returns ``(bindings, tag_prefix, attr_prefix)``.  ``bindings`` maps each
    in-scope prefix to its uri, innermost declaration first with shadowed
    outer prefixes dropped; the other two map a uri to the first prefix in
    that order bound to it — attributes never take the default prefix.
    """
    bindings = dict(own)
    for prefix, uri in outer.items():
        if prefix not in bindings:
            bindings[prefix] = uri
    tag_prefix: dict[str, str] = {}
    attr_prefix: dict[str, str] = {}
    for prefix, uri in bindings.items():
        tag_prefix.setdefault(uri, prefix)
        if prefix:
            attr_prefix.setdefault(uri, prefix)
    return bindings, tag_prefix, attr_prefix


_ROOT_FRAME = _frame({"xml": "http://www.w3.org/XML/1998/namespace"}, {})  # never mutated


def serialize(node: Element | Document, *, indent: int | None = None) -> str:
    """Serialize an element or document to a string.

    ``indent``: when given, pretty-print with that many spaces per level.
    Pretty-printing inserts whitespace only between element children (never
    inside mixed content), so data round-trips.
    """
    if isinstance(node, Document):
        header = f'<?xml version="{node.version}" encoding="{node.encoding}"?>'
        body = serialize(node.root, indent=indent)
        return header + ("\n" if indent is not None else "") + body
    parts: list[str] = []
    _write_element(node, _ROOT_FRAME, itertools.count(1), parts, indent, 0)
    return "".join(parts)


def serialize_children(
    children: list[Element], nsdecls: dict[str, str], fresh: Iterator[int]
) -> str:
    """Serialize *children* inside a root element declaring *nsdecls*, drawing
    generated prefixes from *fresh*, a counter the caller's own text shares."""
    frame = _frame(nsdecls, _ROOT_FRAME[0])
    parts: list[str] = []
    for child in children:
        _write_element(child, frame, fresh, parts, None, 1)
    return "".join(parts)


def serialize_bytes(node: Element | Document) -> bytes:
    """Serialize compactly and encode to UTF-8 (the on-wire form)."""
    return serialize(node).encode("utf-8")


def _write_element(
    el: Element,
    frame: _Frame,
    fresh: Iterator[int],
    parts: list[str],
    indent: int | None,
    depth: int,
) -> None:
    own = el.nsdecls
    if own:
        frame = _frame(own, frame[0])
    bindings, tag_prefix, attr_prefix = frame
    generated: dict[str, str] = {}  # uri -> ns<N> prefix declared here for want of one in scope

    tag = el.tag.local
    uri = el.tag.namespace
    if uri:
        prefix = tag_prefix.get(uri)
        if prefix is None:
            prefix = generated[uri] = f"ns{next(fresh)}"
        if prefix:
            tag = f"{prefix}:{tag}"
    attr_parts = ""
    for key, value in el.attrs.items():
        name = key.local
        uri = key.namespace
        if uri:
            prefix = attr_prefix.get(uri) or generated.get(uri)
            if prefix is None:
                prefix = generated[uri] = f"ns{next(fresh)}"
            name = f"{prefix}:{name}"
        attr_parts += f' {name}="{escape_attr(value)}"'
    inner = frame  # what the children see
    if generated:
        # A generated prefix overrides a same-named declaration of this element.
        own = {**own, **{prefix: uri for uri, prefix in generated.items()}}
        inner = None  # built for the first element child: a leaf never pays for it
    decl_parts = ""
    for prefix, uri in own.items():
        if prefix:
            decl_parts += f' xmlns:{prefix}="{escape_attr(uri)}"'
        else:
            decl_parts += f' xmlns="{escape_attr(uri)}"'

    children = el.children
    if not children:
        parts.append(f"<{tag}{decl_parts}{attr_parts}/>")
        return
    parts.append(f"<{tag}{decl_parts}{attr_parts}>")
    pretty = indent is not None and all(isinstance(c, Element) for c in children)
    for child in children:
        if isinstance(child, str):
            parts.append(escape_text(child))
        else:
            if inner is None:
                inner = _frame(own, bindings)
            if pretty:
                parts.append("\n" + " " * (indent * (depth + 1)))  # type: ignore[operator]
            _write_element(child, inner, fresh, parts, indent, depth + 1)
    if pretty:
        parts.append("\n" + " " * (indent * depth))  # type: ignore[operator]
    parts.append(f"</{tag}>")
