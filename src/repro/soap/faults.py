"""SOAP fault representation and mapping to/from Python exceptions."""

from __future__ import annotations

from repro.xmlkit import Element, QName
from repro.soap.envelope import SOAP_ENV_NS

_FAULT = QName(SOAP_ENV_NS, "Fault")


class SoapFault(Exception):
    """A SOAP fault, raised client-side when a response carries one.

    ``code``: ``"Client"`` (caller error) or ``"Server"`` (service error).
    ``detail``: optional service-specific diagnostic string (e.g. the
    remote exception type).
    """

    def __init__(self, code: str, message: str, detail: str = "") -> None:
        super().__init__(f"{code}: {message}" + (f" [{detail}]" if detail else ""))
        self.code = code
        self.fault_message = message
        self.detail = detail

    @staticmethod
    def is_fault(el: Element) -> bool:
        return el.tag == _FAULT

    @staticmethod
    def from_element(el: Element) -> "SoapFault":
        if el.tag != _FAULT:
            raise ValueError(f"not a Fault element: {el.tag}")
        code_el = el.find("faultcode")
        msg_el = el.find("faultstring")
        code = (code_el.text() if code_el is not None else "Server").split(":")[-1]
        message = msg_el.text() if msg_el is not None else "unknown fault"
        detail = ""
        detail_el = el.find("detail")
        if detail_el is not None:
            exc_el = detail_el.find("exception")
            detail = exc_el.text() if exc_el is not None else detail_el.all_text()
        return SoapFault(code, message, detail)


def fault_from_exception(exc: BaseException, *, caller_error: bool = False) -> SoapFault:
    """Wrap a service-side exception as a fault.

    Faults raised by the service as :class:`SoapFault` pass through
    unchanged so services can signal Client-class faults deliberately.
    """
    if isinstance(exc, SoapFault):
        return exc
    code = "Client" if caller_error else "Server"
    return SoapFault(code, str(exc) or type(exc).__name__, detail=type(exc).__name__)
