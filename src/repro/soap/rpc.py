"""RPC call / response documents (RPC/encoded style).

A request body entry is ``<{service-ns}opName>`` containing one encoded
element per parameter, in order.  A response body entry is
``<{service-ns}opNameResponse>`` containing a single ``<return>`` element
(or nothing for void), or a SOAP fault.  Envelopes are written as text:
the bytes the xmlkit writer makes of the same message as an element tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.soap.encoding import ENC_NS, XSI_NS, _wire_name_for, decode_value, write_value
from repro.soap.envelope import SOAP_ENV_NS, SoapMessageError, parse_envelope
from repro.soap.faults import SoapFault
from repro.xmlkit import Element, escape_attr, escape_text
from repro.xmlkit.writer import serialize_children

_HEAD = f'<?xml version="1.0" encoding="utf-8"?><soapenv:Envelope xmlns:soapenv="{SOAP_ENV_NS}">'
_TAIL = "</soapenv:Body></soapenv:Envelope>"
_SCOPE = {"soapenv": SOAP_ENV_NS}  # what the Envelope declares for the headers


@dataclass
class RpcRequest:
    """A decoded RPC invocation."""

    namespace: str
    operation: str
    params: list[object]
    headers: list[Element]


@dataclass
class RpcResponse:
    """A decoded RPC result (``value`` is None for void operations)."""

    namespace: str
    operation: str
    value: object
    is_void: bool


def encode_request(
    namespace: str,
    operation: str,
    params: list[object],
    param_names: list[str] | None = None,
    headers: list[Element] | None = None,
) -> bytes:
    """Encode a call into envelope bytes."""
    names = param_names or [f"arg{i}" for i in range(len(params))]
    if len(names) != len(params):
        raise ValueError(f"{operation}: {len(params)} params but {len(names)} names")
    return _envelope(namespace, operation, names, params, headers)


def decode_request(data: bytes) -> RpcRequest:
    """Decode envelope bytes into an :class:`RpcRequest`."""
    env = parse_envelope(data)
    entry = env.first_body_entry()
    if SoapFault.is_fault(entry):
        raise SoapFault.from_element(entry)
    params = [decode_value(child) for child in entry.iter_elements()]
    return RpcRequest(
        namespace=entry.tag.namespace,
        operation=entry.tag.local,
        params=params,
        headers=env.headers,
    )


def encode_response(
    namespace: str,
    operation: str,
    value: object,
    *,
    is_void: bool = False,
    headers: list[Element] | None = None,
) -> bytes:
    """Encode a successful result into envelope bytes."""
    names, values = ((), ()) if is_void else (("return",), (value,))
    return _envelope(namespace, operation + "Response", names, values, headers)


def encode_fault(fault: SoapFault) -> bytes:
    """Encode a fault into envelope bytes."""
    detail = fault.detail and f"<detail><exception>{escape_text(fault.detail)}</exception></detail>"
    return (
        f"{_HEAD}<soapenv:Body><soapenv:Fault>"
        f"<faultcode>{escape_text(f'soapenv:{fault.code}')}</faultcode>"
        f"<faultstring>{escape_text(fault.fault_message)}</faultstring>{detail}"
        f"</soapenv:Fault>{_TAIL}"
    ).encode("utf-8")


def _envelope(namespace, local, names, values, headers) -> bytes:
    """The envelope whose body entry ``{namespace}local`` declares ``tns``
    and holds *values* as elements named *names*."""
    fresh = itertools.count(1)  # one ns<N> counter for the whole document, headers first
    header = ""
    if headers:
        header = f"<soapenv:Header>{serialize_children(headers, _SCOPE, fresh)}</soapenv:Header>"
    tag = f"tns:{local}" if namespace else local
    entry = f'{_HEAD}{header}<soapenv:Body><{tag} xmlns:tns="{escape_attr(namespace)}"'
    if not names:
        return f"{entry}/>{_TAIL}".encode("utf-8")
    out = [entry + ">"]
    # tns, declared on the entry, is the attribute prefix of its own namespace
    xsi, enc = ("tns" if namespace == XSI_NS else None), ("tns" if namespace == ENC_NS else None)
    for name, value in zip(names, values):
        write_value(out, name, value, _wire_name_for(value), xsi, enc, fresh)
    out.append(f"</{tag}>{_TAIL}")
    return "".join(out).encode("utf-8")


def decode_response(data: bytes) -> RpcResponse:
    """Decode envelope bytes into an :class:`RpcResponse`.

    Raises :class:`SoapFault` if the body carries a fault — this is the
    client half of the architecture-adapter conversion.
    """
    env = parse_envelope(data)
    entry = env.first_body_entry()
    if SoapFault.is_fault(entry):
        raise SoapFault.from_element(entry)
    if not entry.tag.local.endswith("Response"):
        raise SoapMessageError(f"unexpected response entry <{entry.tag.local}>")
    operation = entry.tag.local[: -len("Response")]
    ret = entry.find("return")
    if ret is None:
        return RpcResponse(entry.tag.namespace, operation, None, is_void=True)
    return RpcResponse(entry.tag.namespace, operation, decode_value(ret), is_void=False)
