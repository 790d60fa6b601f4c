"""The pre-scanner xmlkit codec, kept verbatim as the differential oracle.

This is the character-at-a-time ``_Parser`` and the stack-walking
``_PrefixScope`` / ``_write_element`` writer exactly as they stood in
``src/repro/xmlkit`` before the scanning parser and the memoised writer
replaced them.  ``tests/test_xmlkit_differential.py`` holds the new codec
to "same trees, same bytes" against this module.  Do not fix bugs here:
the two deliberate behaviour changes (strict character references; prolog
and bytes-input handling) are listed in that test file, and every other
difference is a regression in ``src/``.
"""

from __future__ import annotations

from repro.xmlkit.model import Document, Element, QName
from repro.xmlkit.parser import XmlParseError

# ---------------------------------------------------------------- parser

_PREDEFINED = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}
_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:-.")


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.n = len(text)

    # ------------------------------------------------------------- helpers
    def error(self, message: str) -> XmlParseError:
        return XmlParseError(message, self.pos)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < self.n else ""

    def startswith(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def expect(self, literal: str) -> None:
        if not self.startswith(literal):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def skip_ws(self) -> None:
        while self.pos < self.n and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def read_name(self) -> str:
        start = self.pos
        if self.pos >= self.n or not _is_name_start(self.text[self.pos]):
            raise self.error("expected a name")
        self.pos += 1
        while self.pos < self.n and _is_name_char(self.text[self.pos]):
            self.pos += 1
        return self.text[start : self.pos]

    def read_reference(self) -> str:
        """Read an entity/char reference; cursor sits just past '&'."""
        semi = self.text.find(";", self.pos)
        if semi == -1 or semi - self.pos > 10:
            raise self.error("unterminated entity reference")
        body = self.text[self.pos : semi]
        self.pos = semi + 1
        if body.startswith("#x") or body.startswith("#X"):
            try:
                return chr(int(body[2:], 16))
            except ValueError:
                raise self.error(f"bad character reference &{body};") from None
        if body.startswith("#"):
            try:
                return chr(int(body[1:]))
            except ValueError:
                raise self.error(f"bad character reference &{body};") from None
        if body in _PREDEFINED:
            return _PREDEFINED[body]
        raise self.error(f"unknown entity &{body};")

    # ------------------------------------------------------------- grammar
    def parse_document(self) -> Document:
        version, encoding = "1.0", "utf-8"
        self.skip_ws()
        if self.startswith("<?xml"):
            version, encoding = self.parse_declaration()
        self.skip_misc()
        if self.pos >= self.n or self.peek() != "<":
            raise self.error("expected root element")
        root = self.parse_element(scope=[{"xml": "http://www.w3.org/XML/1998/namespace"}])
        self.skip_misc()
        if self.pos != self.n:
            raise self.error("trailing content after root element")
        return Document(root, version=version, encoding=encoding)

    def parse_declaration(self) -> tuple[str, str]:
        self.expect("<?xml")
        end = self.text.find("?>", self.pos)
        if end == -1:
            raise self.error("unterminated XML declaration")
        body = self.text[self.pos : end]
        self.pos = end + 2
        version = _pseudo_attr(body, "version") or "1.0"
        encoding = _pseudo_attr(body, "encoding") or "utf-8"
        return version, encoding

    def skip_misc(self) -> None:
        """Skip whitespace and comments between markup at document level."""
        while True:
            self.skip_ws()
            if self.startswith("<!--"):
                self.skip_comment()
            elif self.startswith("<!DOCTYPE"):
                raise self.error("DOCTYPE is not supported")
            elif self.startswith("<?"):
                raise self.error("processing instructions are not supported")
            else:
                return

    def skip_comment(self) -> None:
        self.expect("<!--")
        end = self.text.find("-->", self.pos)
        if end == -1:
            raise self.error("unterminated comment")
        self.pos = end + 3

    def parse_element(self, scope: list[dict[str, str]]) -> Element:
        self.expect("<")
        raw_name = self.read_name()
        raw_attrs: list[tuple[str, str]] = []
        nsdecls: dict[str, str] = {}
        while True:
            before = self.pos
            self.skip_ws()
            if self.startswith("/>") or self.startswith(">"):
                break
            if self.pos == before:
                raise self.error("expected whitespace before attribute")
            attr_name = self.read_name()
            self.skip_ws()
            self.expect("=")
            self.skip_ws()
            value = self.read_attr_value()
            if attr_name == "xmlns":
                nsdecls[""] = value
            elif attr_name.startswith("xmlns:"):
                nsdecls[attr_name[6:]] = value
            else:
                if any(existing == attr_name for existing, _ in raw_attrs):
                    raise self.error(f"duplicate attribute {attr_name!r}")
                raw_attrs.append((attr_name, value))

        scope.append(nsdecls)
        try:
            tag = self.resolve(raw_name, scope, is_attr=False)
            attrs: dict[QName, str] = {}
            for name, value in raw_attrs:
                qn = self.resolve(name, scope, is_attr=True)
                if qn in attrs:
                    raise self.error(f"duplicate attribute {qn}")
                attrs[qn] = value
            element = Element(tag, attrs=attrs, nsdecls=nsdecls)

            if self.startswith("/>"):
                self.pos += 2
                return element
            self.expect(">")
            self.parse_content(element, scope)
            # parse_content consumed up to '</'
            close_name = self.read_name()
            if close_name != raw_name:
                raise self.error(f"mismatched close tag </{close_name}> for <{raw_name}>")
            self.skip_ws()
            self.expect(">")
            return element
        finally:
            scope.pop()

    def parse_content(self, parent: Element, scope: list[dict[str, str]]) -> None:
        """Parse children until the start of this element's close tag ('</' consumed)."""
        text_parts: list[str] = []

        def flush() -> None:
            if text_parts:
                parent.children.append("".join(text_parts))
                text_parts.clear()

        while True:
            if self.pos >= self.n:
                raise self.error(f"unterminated element <{parent.tag.local}>")
            ch = self.peek()
            if ch == "<":
                if self.startswith("</"):
                    flush()
                    self.pos += 2
                    return
                if self.startswith("<!--"):
                    self.skip_comment()
                    continue
                if self.startswith("<![CDATA["):
                    self.pos += 9
                    end = self.text.find("]]>", self.pos)
                    if end == -1:
                        raise self.error("unterminated CDATA section")
                    text_parts.append(self.text[self.pos : end])
                    self.pos = end + 3
                    continue
                if self.startswith("<?"):
                    raise self.error("processing instructions are not supported")
                flush()
                parent.children.append(self.parse_element(scope))
                continue
            if ch == "&":
                self.pos += 1
                text_parts.append(self.read_reference())
                continue
            # Plain character run.
            start = self.pos
            while self.pos < self.n and self.text[self.pos] not in "<&":
                self.pos += 1
            text_parts.append(self.text[start : self.pos])

    def read_attr_value(self) -> str:
        quote = self.peek()
        if quote not in ('"', "'"):
            raise self.error("expected quoted attribute value")
        self.pos += 1
        parts: list[str] = []
        while True:
            if self.pos >= self.n:
                raise self.error("unterminated attribute value")
            ch = self.text[self.pos]
            if ch == quote:
                self.pos += 1
                return "".join(parts)
            if ch == "<":
                raise self.error("'<' not allowed in attribute value")
            if ch == "&":
                self.pos += 1
                parts.append(self.read_reference())
                continue
            start = self.pos
            while self.pos < self.n and self.text[self.pos] not in (quote, "<", "&"):
                self.pos += 1
            parts.append(self.text[start : self.pos])

    def resolve(self, raw: str, scope: list[dict[str, str]], *, is_attr: bool) -> QName:
        prefix, sep, local = raw.partition(":")
        if not sep:
            if is_attr:
                return QName("", raw)  # unprefixed attrs are in no namespace
            uri = self._lookup("", scope) or ""
            return QName(uri, raw)
        if ":" in local:
            raise self.error(f"invalid name {raw!r}")
        uri = self._lookup(prefix, scope)
        if uri is None:
            raise self.error(f"undeclared namespace prefix {prefix!r}")
        return QName(uri, local)

    @staticmethod
    def _lookup(prefix: str, scope: list[dict[str, str]]) -> str | None:
        for frame in reversed(scope):
            if prefix in frame:
                return frame[prefix]
        return None


def _pseudo_attr(body: str, name: str) -> str | None:
    """Extract ``name="value"`` from an XML-declaration body."""
    idx = body.find(name)
    if idx == -1:
        return None
    eq = body.find("=", idx)
    if eq == -1:
        return None
    rest = body[eq + 1 :].lstrip()
    if not rest or rest[0] not in "'\"":
        return None
    quote = rest[0]
    end = rest.find(quote, 1)
    if end == -1:
        return None
    return rest[1:end]


def parse(data: str | bytes) -> Document:
    """Parse an XML document from a string or UTF-8 bytes."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return _Parser(data).parse_document()


# ---------------------------------------------------------------- writer

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\n": "&#10;", "\t": "&#9;"}


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    if not any(c in value for c in "&<>"):
        return value
    out = []
    for ch in value:
        out.append(_TEXT_ESCAPES.get(ch, ch))
    return "".join(out)


def escape_attr(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    if not any(c in value for c in '&<>"\n\t'):
        return value
    out = []
    for ch in value:
        out.append(_ATTR_ESCAPES.get(ch, ch))
    return "".join(out)


class _PrefixScope:
    """Tracks in-scope prefix->uri bindings while writing."""

    def __init__(self) -> None:
        # Stack of dicts; lookups walk from innermost out.
        self._stack: list[dict[str, str]] = [{"xml": "http://www.w3.org/XML/1998/namespace"}]
        self._counter = 0

    def push(self, decls: dict[str, str]) -> None:
        self._stack.append(dict(decls))

    def pop(self) -> None:
        self._stack.pop()

    def uri_for_prefix(self, prefix: str) -> str | None:
        for frame in reversed(self._stack):
            if prefix in frame:
                return frame[prefix]
        return None

    def prefix_for_uri(self, uri: str, *, allow_default: bool) -> str | None:
        """Innermost prefix bound to *uri* that is not shadowed."""
        seen_prefixes: set[str] = set()
        for frame in reversed(self._stack):
            for prefix, bound in frame.items():
                if prefix in seen_prefixes:
                    continue
                seen_prefixes.add(prefix)
                if bound == uri and (allow_default or prefix != ""):
                    return prefix
        return None

    def fresh_prefix(self) -> str:
        self._counter += 1
        return f"ns{self._counter}"

    def declare_here(self, prefix: str, uri: str) -> None:
        self._stack[-1][prefix] = uri


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
    scope = _PrefixScope()
    parts: list[str] = []
    _write_element(node, scope, parts, indent, 0)
    return "".join(parts)


def serialize_bytes(node: Element | Document) -> bytes:
    """Serialize compactly and encode to UTF-8 (the on-wire form)."""
    return serialize(node).encode("utf-8")


def _qname_str(name: QName, scope: _PrefixScope, extra_decls: dict[str, str], *, is_attr: bool) -> str:
    """Render a QName, generating a declaration in *extra_decls* if needed."""
    if not name.namespace:
        return name.local
    # Attributes cannot use the default (empty) prefix.
    prefix = scope.prefix_for_uri(name.namespace, allow_default=not is_attr)
    if prefix is None:
        for p, uri in extra_decls.items():
            if uri == name.namespace and (not is_attr or p != ""):
                prefix = p
                break
    if prefix is None:
        prefix = scope.fresh_prefix()
        extra_decls[prefix] = name.namespace
    return f"{prefix}:{name.local}" if prefix else name.local


def _write_element(
    el: Element,
    scope: _PrefixScope,
    parts: list[str],
    indent: int | None,
    depth: int,
) -> None:
    scope.push(el.nsdecls)
    extra_decls: dict[str, str] = {}
    tag = _qname_str(el.tag, scope, extra_decls, is_attr=False)
    attr_parts: list[str] = []
    for key in el.attrs:
        rendered = _qname_str(key, scope, extra_decls, is_attr=True)
        attr_parts.append(f' {rendered}="{escape_attr(el.attrs[key])}"')
    # Register generated declarations so children can reuse them.
    for prefix, uri in extra_decls.items():
        scope.declare_here(prefix, uri)
    decl_parts: list[str] = []
    for prefix, uri in {**el.nsdecls, **extra_decls}.items():
        if prefix:
            decl_parts.append(f' xmlns:{prefix}="{escape_attr(uri)}"')
        else:
            decl_parts.append(f' xmlns="{escape_attr(uri)}"')

    open_tag = f"<{tag}{''.join(decl_parts)}{''.join(attr_parts)}"
    if not el.children:
        parts.append(open_tag + "/>")
        scope.pop()
        return
    parts.append(open_tag + ">")

    only_elements = all(isinstance(c, Element) for c in el.children)
    pretty = indent is not None and only_elements
    for child in el.children:
        if isinstance(child, str):
            parts.append(escape_text(child))
        else:
            if pretty:
                parts.append("\n" + " " * (indent * (depth + 1)))  # type: ignore[operator]
            _write_element(child, scope, parts, indent, depth + 1)
    if pretty:
        parts.append("\n" + " " * (indent * depth))  # type: ignore[operator]
    parts.append(f"</{tag}>")
    scope.pop()
