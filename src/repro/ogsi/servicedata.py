"""Service Data Elements (SDEs).

Every Grid service carries a set of named data elements describing it —
handle, interfaces, creation time, plus service-specific entries (an
Execution instance exposes its metrics, foci, types, and time range as
SDEs).  ``FindServiceData`` queries them either **by name** or, per the
thesis's future-work §7, with an **XPath** expression over the XML
rendering of the set (GT3.2's WS Information Services style).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.xmlkit import Element, XPathError, serialize, xpath_select

SDE_NS = "http://www.gridforum.org/namespaces/2003/03/serviceData"


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


class ServiceDataSet:
    """The SDE collection of one service."""

    def __init__(self) -> None:
        self._elements: dict[str, ServiceDataElement] = {}
        #: name -> producer of an SDE nobody has read yet
        self._deferred: dict[str, Callable[[], list[str] | str]] = {}

    def set(self, name: str, values: list[str] | str) -> ServiceDataElement:
        if isinstance(values, str):
            values = [values]
        sde = ServiceDataElement(name, list(values))
        self._elements[name] = sde
        self._deferred.pop(name, None)
        return sde

    def set_deferred(self, name: str, produce: Callable[[], list[str] | str]) -> None:
        """Declare an SDE whose values are computed by the first read of it.

        For values that cost more to render than most instances are ever
        asked for — every service publishes its WSDL, few are asked for it.
        """
        self._elements.pop(name, None)
        self._deferred[name] = produce

    def get(self, name: str) -> ServiceDataElement | None:
        produce = self._deferred.get(name)
        if produce is not None:
            return self.set(name, produce())
        return self._elements.get(name)

    def names(self) -> list[str]:
        return sorted({*self._elements, *self._deferred})

    def remove(self, name: str) -> None:
        self._elements.pop(name, None)
        self._deferred.pop(name, None)

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
