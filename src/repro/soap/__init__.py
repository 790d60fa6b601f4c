"""SOAP 1.1-style messaging substrate.

Implements the message layer the thesis attributes its Grid-services
overhead to: envelope construction/parsing, typed value encoding for RPC
parameters and results, and fault handling.  Every remote call in this
reproduction really does run
``native call -> typed encode -> XML serialize -> bytes -> XML parse ->
typed decode -> native dispatch`` in both directions, so the overhead
measured in Table 4 is incurred, not modeled.
"""

from repro.soap.encoding import (
    SoapEncodingError,
    XsdType,
    decode_value,
    python_type_for,
    xsd_type_for,
)
from repro.soap.envelope import (
    SOAP_ENV_NS,
    SoapEnvelope,
    SoapMessageError,
    parse_envelope,
)
from repro.soap.chunks import (
    CHUNK_HEADER,
    ENCODING_COLBATCH,
    ENCODING_XML,
    WIRE_ENCODINGS,
    ChunkEnvelope,
    ChunkError,
    decode_chunk,
    encode_chunk,
)
from repro.soap.colbatch import (
    COLBATCH_VERSION,
    decode_batch,
    encode_batch,
)
from repro.soap.faults import SoapFault, fault_from_exception
from repro.soap.rpc import (
    RpcRequest,
    RpcResponse,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)

__all__ = [
    "CHUNK_HEADER",
    "COLBATCH_VERSION",
    "ENCODING_COLBATCH",
    "ENCODING_XML",
    "WIRE_ENCODINGS",
    "ChunkEnvelope",
    "ChunkError",
    "SOAP_ENV_NS",
    "decode_batch",
    "encode_batch",
    "RpcRequest",
    "RpcResponse",
    "SoapEncodingError",
    "SoapEnvelope",
    "SoapFault",
    "SoapMessageError",
    "XsdType",
    "decode_chunk",
    "decode_request",
    "decode_response",
    "decode_value",
    "encode_chunk",
    "encode_request",
    "encode_response",
    "fault_from_exception",
    "parse_envelope",
    "python_type_for",
    "xsd_type_for",
]
