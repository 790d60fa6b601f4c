"""Scanning XML parser.

Supports the subset of XML 1.0 needed by SOAP/WSDL payloads and the XML
data stores: elements, attributes, character data, the five predefined
entities plus numeric character references, CDATA sections, comments
(skipped), and namespace resolution.  DOCTYPE and processing instructions
other than the XML declaration are rejected — accepting them would widen
the attack surface for no benefit to the reproduction.

The reader is one loop over an explicit element stack, so nesting depth is
bounded by memory, not by the interpreter's recursion limit.  It consumes
one compiled-regex match per new start tag (name plus every attribute), one
``str.find`` per text run and a direct string compare per close tag; only
a tag the regex refuses is walked piece by piece, to word its error.
Prefixed names are resolved once per *namespace frame* and :func:`parse`
call: an element that declares no namespace shares its parent's frame.

Start tags are remembered across calls.  Frames are interned — one id per
distinct set of in-scope bindings, from a counter, never reused — and the
memo maps ``(parent frame id, text from "<" to the first ">")`` to what the
tag parsed to.  A hit copies two dicts and skips the regex, the attribute
loop and name resolution, so the envelope and ``<item>`` tags every message
repeats cost one lookup each.  Only a tag that parsed without error and
ends at its first ``>`` is stored, at most ``_MEMO_ENTRIES`` tags of at
most ``_MEMO_TAG_CHARS`` characters (about 1 MB); a full memo starts over.
Plain dict operations keep it safe to share between threads (threads
storing at the same moment may each pass the bound by one entry).
"""

from __future__ import annotations

import itertools
import re

from repro.xmlkit.model import Document, Element, QName


class XmlParseError(ValueError):
    """Raised when input is not well-formed (for our subset)."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


_PREDEFINED = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}

# A name starts with ``str.isalpha`` or one of ``_:`` and continues with
# ``str.isalnum`` or one of ``_:-.``.  ``\w`` is exactly isalnum-or-underscore,
# but ``[^\W\d]`` still admits the non-decimal numerics (``²``, ``½``, ``Ⅷ``)
# that isalpha refuses, so non-ASCII documents re-check each first character.
_NAME = r"(?:[^\W\d]|:)[\w:.\-]*"
_WS = r"[ \t\r\n]"
_VALUE = r"""(?:"[^<"]*"|'[^<']*')"""
_START_TAG = re.compile(rf"<({_NAME})((?:{_WS}+{_NAME}{_WS}*={_WS}*{_VALUE})*){_WS}*(/?)>").match
_ATTR = re.compile(rf"""{_WS}+({_NAME}){_WS}*={_WS}*(?:"([^<"]*)"|'([^<']*)')""").match
_NAME_AT = re.compile(_NAME).match
_SKIP_WS = re.compile(rf"{_WS}*").match
_XML_DECL = re.compile(rf"<\?xml{_WS}").match
_CHAR_REF = re.compile(r"#(?:([0-9]+)|[xX]([0-9A-Fa-f]+))").fullmatch

_MEMO_ENTRIES = 4096
_MEMO_TAG_CHARS = 512
# start-tag text keyed on its parent frame's id -> (tag, attrs, nsdecls, empty, closer, frame)
_TAGS: dict[tuple[int, str], tuple] = {}
# in-scope bindings -> their frame, (id, prefix -> uri)
_FRAMES: dict[frozenset, tuple[int, dict[str, str]]] = {}
_FRAME_IDS = itertools.count(1)
_ROOT_FRAME = (0, {"xml": "http://www.w3.org/XML/1998/namespace"})


def clear_memo() -> None:
    """Forget every remembered start tag and interned frame; no id is handed out twice."""
    _TAGS.clear()
    _FRAMES.clear()


def _frame(ns: dict[str, str]) -> tuple[int, dict[str, str]]:
    """The interned frame of the bindings *ns* (an id drawn for bindings
    already interned is dropped, never reused)."""
    if len(_FRAMES) >= _MEMO_ENTRIES:
        _FRAMES.clear()
    return _FRAMES.setdefault(frozenset(ns.items()), (next(_FRAME_IDS), ns))


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in "_:"


def _is_xml_char(code: int) -> bool:
    """XML 1.0 production [2] ``Char``."""
    return (
        0x20 <= code <= 0xD7FF
        or code in (0x9, 0xA, 0xD)
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    )


def _unescape(text: str, start: int, end: int) -> str:
    """``text[start:end]`` with entity and character references replaced.

    The closing ``;`` is looked for in the whole document, not just up to
    *end*: a reference that runs past the text run or attribute value
    swallows markup and is reported as the unknown entity it then is.
    """
    parts: list[str] = []
    pos = start
    while True:
        amp = text.find("&", pos, end)
        if amp == -1:
            parts.append(text[pos:end])
            return "".join(parts)
        parts.append(text[pos:amp])
        semi = text.find(";", amp + 1)
        if semi == -1 or semi - amp > 11:
            raise XmlParseError("unterminated entity reference", amp + 1)
        body = text[amp + 1 : semi]
        pos = semi + 1
        char = _PREDEFINED.get(body)
        if char is None:
            if not body.startswith("#"):
                raise XmlParseError(f"unknown entity &{body};", pos)
            ref = _CHAR_REF(body)
            code = -1 if ref is None else int(ref[1]) if ref[1] else int(ref[2], 16)
            if not _is_xml_char(code):
                raise XmlParseError(f"bad character reference &{body};", amp)
            char = chr(code)
        parts.append(char)


def _name_at(text: str, pos: int) -> str:
    match = _NAME_AT(text, pos)
    if match is None or not _is_name_start(text[pos]):
        raise XmlParseError("expected a name", pos)
    return match[0]


def _attribute_error(text: str, pos: int) -> XmlParseError:
    """Why no further attribute, ``>`` or ``/>`` could be read at *pos*."""
    after_ws = _SKIP_WS(text, pos).end()
    if after_ws == pos:
        return XmlParseError("expected whitespace before attribute", pos)
    pos = _SKIP_WS(text, after_ws + len(_name_at(text, after_ws))).end()
    if not text.startswith("=", pos):
        return XmlParseError("expected '='", pos)
    pos = _SKIP_WS(text, pos + 1).end()
    quote = text[pos : pos + 1]
    if quote not in ('"', "'"):
        return XmlParseError("expected quoted attribute value", pos)
    stops = (text.find(quote, pos + 1), text.find("<", pos + 1))
    stop = min((i for i in stops if i != -1), default=len(text))
    _unescape(text, pos + 1, stop)  # a bad reference before the stop is met first
    if stop == len(text):
        return XmlParseError("unterminated attribute value", stop)
    return XmlParseError("'<' not allowed in attribute value", stop)


def _close_tag_end(text: str, pos: int, raw_name: str) -> int:
    """Offset of the ``>`` of the close tag whose name starts at *pos*."""
    name = _name_at(text, pos)
    pos += len(name)
    if name != raw_name:
        raise XmlParseError(f"mismatched close tag </{name}> for <{raw_name}>", pos)
    pos = _SKIP_WS(text, pos).end()
    if not text.startswith(">", pos):
        raise XmlParseError("expected '>'", pos)
    return pos


def _comment_end(text: str, pos: int) -> int:
    """Offset just past the comment that opens at *pos*."""
    end = text.find("-->", pos + 4)
    if end == -1:
        raise XmlParseError("unterminated comment", pos + 4)
    return end + 3


def _resolve(raw: str, frame: tuple, names: dict, pos: int, *, is_attr: bool) -> QName:
    """*raw* in *frame*, memoised in *names* for one :func:`parse` call."""
    qname = names.get((frame[0], is_attr, raw))
    if qname is not None:
        return qname
    ns = frame[1]
    prefix, sep, local = raw.partition(":")
    if not sep:
        # Unprefixed attributes are in no namespace.
        qname = QName("" if is_attr else ns.get("", ""), raw)
    elif ":" in local:
        raise XmlParseError(f"invalid name {raw!r}", pos)
    elif (uri := ns.get(prefix)) is None:
        raise XmlParseError(f"undeclared namespace prefix {prefix!r}", pos)
    else:
        qname = QName(uri, local)
    names[(frame[0], is_attr, raw)] = qname
    return qname


def _start_tag(text: str, pos: int, frame: tuple, names: dict, check_names: bool) -> tuple:
    """Read the start tag at *pos* in *frame*: its memo entry and the offset after it."""
    match = _START_TAG(text, pos)
    if match is not None:
        raw, blob, empty = match.groups()
        if check_names and not _is_name_start(raw[0]):
            raise XmlParseError("expected a name", pos + 1)
        tag_end = match.end()
        at_close = tag_end - 1 - len(empty)
        attrs_end = pos + 1 + len(raw) + len(blob)
    else:
        # Read what is well-formed, then say what is not: a duplicate or a
        # bad reference among the good attributes is reported first.
        raw = _name_at(text, pos + 1)
        attrs_end = pos + 1 + len(raw)
        while (attr := _ATTR(text, attrs_end)) is not None:
            attrs_end = attr.end()
        blob = text[pos + 1 + len(raw) : attrs_end]
    raw_attrs: dict[str, str] = {}
    nsdecls: dict[str, str] = {}
    if blob:
        at = attrs_end - len(blob)
        while at < attrs_end:
            attr = _ATTR(text, at)
            name, value, single_quoted = attr.groups()
            at = attr.end()
            if check_names and not _is_name_start(name[0]):
                raise XmlParseError("expected a name", attr.start(1))
            if value is None:
                value = single_quoted
            if "&" in value:
                value = _unescape(text, at - 1 - len(value), at - 1)
            if name == "xmlns":
                nsdecls[""] = value
            elif name.startswith("xmlns:"):
                nsdecls[name[6:]] = value
            elif name in raw_attrs:
                raise XmlParseError(f"duplicate attribute {name!r}", at)
            else:
                raw_attrs[name] = value
    if match is None:
        raise _attribute_error(text, attrs_end)

    if nsdecls:
        frame = _frame({**frame[1], **nsdecls})
    tag = _resolve(raw, frame, names, at_close, is_attr=False)
    attrs: dict[QName, str] = {}
    for name, value in raw_attrs.items():
        key = _resolve(name, frame, names, at_close, is_attr=True)
        held = len(attrs)
        attrs[key] = value
        if len(attrs) == held:  # one QName hash, not the two of `in` then store
            raise XmlParseError(f"duplicate attribute {key}", at_close)
    return (tag, attrs, nsdecls, empty, f"</{raw}>", frame), tag_end


def _parse_element(text: str, pos: int) -> tuple[Element, int]:
    """Parse the element whose ``<`` is at *pos*; returns it and the offset after it."""
    n = len(text)
    find = text.find
    startswith = text.startswith
    new_element = Element.__new__
    check_names = not text.isascii()
    frame = _ROOT_FRAME  # (id, in-scope prefix -> uri)
    names: dict[tuple, QName] = {}  # (frame id, is_attr, raw name) -> QName
    top: list[Element | str] = []
    children = top  # of the open element
    closer = ""  # "</raw-name>" of the open element
    stack: list[tuple] = []  # (children, closer, frame to restore or None) per open element
    pending: list[str] = []  # runs of the text node being read

    while True:
        # ------------------------------------------------------------ the start tag at pos
        gt = find(">", pos)
        key = (frame[0], text[pos : gt + 1]) if 0 < gt - pos < _MEMO_TAG_CHARS else None
        entry = _TAGS.get(key)  # type: ignore[arg-type]
        if entry is not None:
            tag_end = gt + 1
        else:
            entry, tag_end = _start_tag(text, pos, frame, names, check_names)
            if key is not None and tag_end == gt + 1:  # no ">" inside a value
                if len(_TAGS) >= _MEMO_ENTRIES:
                    _TAGS.clear()
                _TAGS[key] = entry
        tag, attrs, nsdecls, empty, tag_closer, child = entry
        outer = None
        if child is not frame:
            outer, frame = frame, child
        # Element() would copy the three containers it is handed; the memo's
        # two dicts are copied as they are, without hashing a QName again.
        element = new_element(Element)
        element.tag = tag
        element.attrs = attrs.copy()
        element.children = []
        element.nsdecls = nsdecls.copy()
        if pending:
            children.append("".join(pending))
            pending.clear()
        children.append(element)
        pos = tag_end
        if not empty:
            stack.append((children, closer, outer))
            children = element.children
            closer = tag_closer
        elif outer is not None:
            frame = outer

        # ------------------------------------- content, up to the next start tag or the end
        while stack:
            lt = find("<", pos)
            if lt != pos:
                stop = n if lt == -1 else lt
                chunk = text[pos:stop]
                pending.append(_unescape(text, pos, stop) if "&" in chunk else chunk)
                if lt == -1:
                    local = closer[2:-1].rpartition(":")[2]
                    raise XmlParseError(f"unterminated element <{local}>", n)
                pos = lt
            kind = text[pos + 1 : pos + 2]
            if kind == "/":
                if startswith(closer, pos):
                    pos += len(closer)
                else:
                    pos = _close_tag_end(text, pos + 2, closer[2:-1]) + 1
                if pending:
                    children.append("".join(pending))
                    pending.clear()
                children, closer, outer = stack.pop()
                if outer is not None:
                    frame = outer
            elif kind == "?":
                raise XmlParseError("processing instructions are not supported", pos)
            elif kind != "!":
                break
            elif startswith("<!--", pos):
                pos = _comment_end(text, pos)
            elif startswith("<![CDATA[", pos):
                end = find("]]>", pos + 9)
                if end == -1:
                    raise XmlParseError("unterminated CDATA section", pos + 9)
                pending.append(text[pos + 9 : end])
                pos = end + 3
            else:
                break
        else:
            return top[0], pos  # type: ignore[return-value]


def _skip_misc(text: str, pos: int) -> int:
    """Skip whitespace and comments between markup at document level."""
    while True:
        pos = _SKIP_WS(text, pos).end()
        if text.startswith("<!--", pos):
            pos = _comment_end(text, pos)
        elif text.startswith("<!DOCTYPE", pos):
            raise XmlParseError("DOCTYPE is not supported", pos)
        elif text.startswith("<?", pos):
            raise XmlParseError("processing instructions are not supported", pos)
        else:
            return pos


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
    """Parse an XML document from a string or UTF-8 bytes.

    Bytes must be UTF-8 and may not declare another encoding: the writer
    would re-label what it re-encodes.  Nothing but :class:`XmlParseError`
    is raised for ``str`` or ``bytes`` input, whatever it holds.
    """
    from_bytes = isinstance(data, bytes)
    if from_bytes:
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise XmlParseError(f"input is not UTF-8 ({exc.reason})", exc.start) from None
    text: str = data  # type: ignore[assignment]
    version, encoding = "1.0", "utf-8"
    pos = _SKIP_WS(text, 0).end()
    if _XML_DECL(text, pos):
        end = text.find("?>", pos + 5)
        if end == -1:
            raise XmlParseError("unterminated XML declaration", pos + 5)
        body = text[pos + 5 : end]
        version = _pseudo_attr(body, "version") or "1.0"
        encoding = _pseudo_attr(body, "encoding") or "utf-8"
        if from_bytes and encoding.lower() not in ("utf-8", "us-ascii"):
            raise XmlParseError(f"bytes input declares encoding {encoding!r}, not UTF-8", pos)
        pos = end + 2
    pos = _skip_misc(text, pos)
    if not text.startswith("<", pos):
        raise XmlParseError("expected root element", pos)
    root, pos = _parse_element(text, pos)
    pos = _skip_misc(text, pos)
    if pos != len(text):
        raise XmlParseError("trailing content after root element", pos)
    return Document(root, version=version, encoding=encoding)
