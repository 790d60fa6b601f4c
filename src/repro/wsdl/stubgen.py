"""Dynamic client stubs — the client half of the Architecture Adapter.

``make_stub(porttype, endpoint, transport)`` returns an object whose
attributes are the PortType's operations.  Calling one encodes the
arguments to a SOAP request, sends the bytes through the transport,
decodes the response, and returns the native value — exactly the
marshalling/encoding/routing conversion the thesis describes (§4.5), and
the path timed as "total query time" in Table 4.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.simnet.transport import Transport
from repro.soap.encoding import SoapEncodingError
from repro.soap.rpc import decode_response, encode_request
from repro.wsdl.porttype import Operation, PortType
from repro.xmlkit import Element


class StubError(TypeError):
    """Raised for argument-count/type errors caught client-side."""


#: the Python types a scalar parameter's wire type admits
_EXPECTED: dict[str, type | tuple[type, ...]] = {
    "xsd:string": str, "xsd:int": int, "xsd:long": int,
    "xsd:double": (int, float), "xsd:boolean": bool,
}


def _check_arg(op: Operation, index: int, value: object) -> None:
    param = op.parameters[index]
    base = param.wire_type[:-2] if param.wire_type.endswith("[]") else param.wire_type
    is_array = param.wire_type.endswith("[]")
    if value is None:
        return  # nils are representable for any type
    if is_array:
        if not isinstance(value, (list, tuple)):
            raise StubError(
                f"{op.name}: parameter {param.name!r} expects an array, got {type(value).__name__}"
            )
        return
    expected = _EXPECTED.get(base)
    if expected is None:
        return  # anyType / struct: accept anything encodable
    if isinstance(value, bool) and expected is not bool:
        raise StubError(f"{op.name}: parameter {param.name!r} expects {base}, got bool")
    if not isinstance(value, expected):
        raise StubError(
            f"{op.name}: parameter {param.name!r} expects {base}, got {type(value).__name__}"
        )


class ClientStub:
    """A bound proxy for one service instance.

    Operations appear as callables; ``stub.getExecs("numprocs", "16")``
    performs the remote call.  ``headers_provider`` (optional) supplies
    SOAP header elements per call — used by the GSI security layer to
    sign requests.
    """

    def __init__(
        self,
        porttype: PortType,
        endpoint_url: str,
        transport: Transport,
        headers_provider: Callable[[str, bytes], list[Element]] | None = None,
    ) -> None:
        self._porttype = porttype
        self._endpoint = endpoint_url
        self._transport = transport
        self._headers_provider = headers_provider
        self._ops = {op.name: op for op in porttype.all_operations()}

    @property
    def endpoint_url(self) -> str:
        return self._endpoint

    @property
    def porttype(self) -> PortType:
        return self._porttype

    def operation_names(self) -> list[str]:
        return sorted(self._ops)

    def invoke(
        self, operation: str, *args: object, headers: Sequence[Element] = ()
    ) -> object:
        """Call *operation*; *headers* ride this request after the provider's."""
        op = self._ops.get(operation)
        if op is None:
            raise StubError(
                f"PortType {self._porttype.name!r} has no operation {operation!r}"
            )
        if len(args) != len(op.parameters):
            raise StubError(
                f"{operation} takes {len(op.parameters)} argument(s), got {len(args)}"
            )
        for i, value in enumerate(args):
            _check_arg(op, i, value)
        if self._headers_provider is not None:
            # Providers may need the payload; give them a provisional encoding.
            provisional = encode_request(
                self._porttype.namespace, operation, list(args), op.param_names
            )
            headers = [*self._headers_provider(operation, provisional), *headers]
        request = encode_request(
            self._porttype.namespace, operation, list(args), op.param_names, headers=headers
        )
        response_bytes = self._transport.send(self._endpoint, request)
        response = decode_response(response_bytes)
        if response.operation != operation:
            raise SoapEncodingError(
                f"response for {response.operation!r} does not match request {operation!r}"
            )
        if op.returns == "void" and not response.is_void:
            raise SoapEncodingError(f"{operation} is void but returned a value")
        return response.value

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        if name not in self._ops:
            raise AttributeError(
                f"PortType {self._porttype.name!r} has no operation {name!r}"
            )

        def call(*args: object) -> object:
            return self.invoke(name, *args)

        call.__name__ = name
        # kept as an attribute: the next lookup finds it before __getattr__
        return self.__dict__.setdefault(name, call)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClientStub {self._porttype.name} @ {self._endpoint}>"


def make_stub(
    porttype: PortType,
    endpoint_url: str,
    transport: Transport,
    headers_provider: Callable[[str, bytes], list[Element]] | None = None,
) -> ClientStub:
    """Create a :class:`ClientStub` (mirrors WSDL2Java stub generation)."""
    return ClientStub(porttype, endpoint_url, transport, headers_provider)
