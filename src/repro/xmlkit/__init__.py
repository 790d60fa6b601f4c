"""Minimal XML substrate used by the SOAP / WSDL / data-store layers.

The thesis's Grid-services stack (Globus GT3.2 on Apache Axis) spends its
"overhead" time marshalling calls to XML, shipping bytes, and parsing them
back.  To make that overhead *real* in this reproduction rather than a
constant plugged into a model, this package implements an XML document
model, a serializing writer, a scanning parser, and an XPath
subset from scratch.

Public API
----------
``Element``          mutable element-tree node with namespace support
``Document``         a root element plus an XML declaration
``QName``            qualified name (namespace URI + local part)
``serialize``        element/document -> str
``parse``            str/bytes -> Document
``XmlParseError``    raised on malformed input
``xpath_select``     evaluate an XPath subset expression against an Element
``escape_text`` / ``escape_attr``  low-level escaping helpers
"""

from repro.xmlkit.model import Document, Element, QName
from repro.xmlkit.parser import XmlParseError, parse
from repro.xmlkit.writer import escape_attr, escape_text, serialize
from repro.xmlkit.xpath import XPathError, xpath_select

__all__ = [
    "Document",
    "Element",
    "QName",
    "XmlParseError",
    "XPathError",
    "escape_attr",
    "escape_text",
    "parse",
    "serialize",
    "xpath_select",
]
