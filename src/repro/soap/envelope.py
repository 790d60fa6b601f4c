"""SOAP envelope parsing (:mod:`repro.soap.rpc` writes envelopes as text)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xmlkit import Element, QName, parse

SOAP_ENV_NS = "http://schemas.xmlsoap.org/soap/envelope/"

_ENVELOPE = QName(SOAP_ENV_NS, "Envelope")
_HEADER = QName(SOAP_ENV_NS, "Header")
_BODY = QName(SOAP_ENV_NS, "Body")


class SoapMessageError(ValueError):
    """Raised when bytes do not form a valid SOAP envelope."""


@dataclass
class SoapEnvelope:
    """A parsed SOAP message.

    ``headers``: header entry elements (e.g. GSI signatures, routing info).
    ``body_entries``: body entry elements (RPC call or response or fault).
    """

    headers: list[Element] = field(default_factory=list)
    body_entries: list[Element] = field(default_factory=list)

    def first_body_entry(self) -> Element:
        if not self.body_entries:
            raise SoapMessageError("SOAP body is empty")
        return self.body_entries[0]


def parse_envelope(data: bytes | str) -> SoapEnvelope:
    """Parse raw bytes into a :class:`SoapEnvelope`, validating structure."""
    try:
        doc = parse(data)
    except ValueError as exc:
        raise SoapMessageError(f"malformed XML: {exc}") from exc
    root = doc.root
    if root.tag != _ENVELOPE:
        raise SoapMessageError(f"root element is {root.tag}, expected soapenv:Envelope")
    headers: list[Element] = []
    body: Element | None = None
    for child in root.iter_elements():
        if child.tag == _HEADER:
            headers = list(child.iter_elements())
        elif child.tag == _BODY:
            if body is not None:
                raise SoapMessageError("multiple soapenv:Body elements")
            body = child
        else:
            raise SoapMessageError(f"unexpected envelope child {child.tag}")
    if body is None:
        raise SoapMessageError("missing soapenv:Body")
    return SoapEnvelope(headers=headers, body_entries=list(body.iter_elements()))
