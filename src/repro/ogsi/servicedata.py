"""Service Data Elements (SDEs).

Every Grid service carries a set of named data elements describing it —
handle, interfaces, creation time, plus service-specific entries (an
Execution instance exposes its metrics, foci, types, and time range as
SDEs).  ``FindServiceData`` queries them either **by name** or, per the
thesis's future-work §7, with an **XPath** expression over the XML
rendering of the set (GT3.2's WS Information Services style).

An SDE is either a value — the introspection entries every deployment
sets — or a zero-argument producer run on every read, for anything a
service derives from its own state: the way an MDS2 GRIS runs its
information providers when a query asks, so no write path pays to keep
copies nobody reads current.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

from repro.xmlkit import Element, XPathError, serialize, xpath_select

SDE_NS = "http://www.gridforum.org/namespaces/2003/03/serviceData"

#: what an SDE holds: its values, or a producer of them
SdeSource = Union[list[str], str, Callable[[], Union[list[str], str]]]


@dataclass
class ServiceDataElement:
    """One named SDE holding a list of string values."""

    name: str
    values: list[str] = field(default_factory=list)

    def to_element(self) -> Element:
        el = Element("serviceDataElement")
        el.set("name", self.name)
        for value in self.values:
            el.subelement("value", value)
        return el


def _as_list(values: list[str] | str) -> list[str]:
    return [values] if isinstance(values, str) else list(values)


class ServiceDataSet:
    """The SDE collection of one service."""

    def __init__(self) -> None:
        self._sources: dict[str, SdeSource] = {}

    def set(self, name: str, values: SdeSource) -> None:
        """Publish *values* under *name*: a value, or a zero-argument
        producer of one that every read (name, XPath, ``to_xml``) runs."""
        self._sources[name] = values if callable(values) else _as_list(values)

    def get(self, name: str) -> ServiceDataElement | None:
        source = self._sources.get(name)
        if source is None:
            return None
        return ServiceDataElement(name, _as_list(source() if callable(source) else source))

    def names(self) -> list[str]:
        return sorted(self._sources)

    def __contains__(self, name: str) -> bool:
        return name in self._sources

    def remove(self, name: str) -> None:
        self._sources.pop(name, None)

    def to_element(self) -> Element:
        root = Element("serviceData")
        for name in self.names():
            root.children.append(self.get(name).to_element())  # type: ignore[union-attr]
        return root

    def to_xml(self) -> str:
        return serialize(self.to_element())

    # --------------------------------------------------------------- query
    def query(self, expression: str) -> str:
        """Evaluate a FindServiceData query and return an XML result string.

        Two query dialects, distinguished by prefix:

        * ``name:<sde-name>`` — return that SDE's XML (empty
          ``<serviceDataResult/>`` when absent);
        * ``xpath:<expr>`` — evaluate the XPath subset against the
          ``<serviceData>`` document; element results are embedded,
          string results become ``<value>`` children.

        A bare expression (no prefix) is treated as a name query, which
        matches how the thesis's clients use FindServiceData today.
        """
        result = Element("serviceDataResult")
        if expression.startswith("xpath:"):
            expr = expression[len("xpath:") :]
            try:
                hits = xpath_select(self.to_element(), expr)
            except XPathError as exc:
                raise ValueError(f"bad XPath query: {exc}") from exc
            for hit in hits:
                if isinstance(hit, Element):
                    result.children.append(hit)
                else:
                    result.subelement("value", hit)
            return serialize(result)
        name = expression[len("name:") :] if expression.startswith("name:") else expression
        sde = self.get(name)
        if sde is not None:
            result.children.append(sde.to_element())
        return serialize(result)
