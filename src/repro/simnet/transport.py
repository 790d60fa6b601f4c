"""Transport boundary between client stubs and service containers.

Everything above this layer (stubs, SOAP, dispatch) is identical whether
messages cross a real network or not; the transport only moves bytes from
an endpoint string to a registered handler and back.  The loopback
transport is the workhorse for Tables 4/5 — real serialization, real
parsing, real dispatch, with byte counts recorded per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from repro.simnet.metrics import Recorder

#: A service container's ingress: request bytes -> response bytes.
RequestHandler = Callable[[str, bytes], bytes]


class TransportError(RuntimeError):
    """Raised when an endpoint cannot be reached."""


@dataclass(frozen=True)
class Endpoint:
    """Parsed endpoint URL: ``http://<authority>/<path>``.

    The authority names a container (a "host:port"); the path names a
    deployed service or service instance within it.
    """

    authority: str
    path: str

    @staticmethod
    def parse(url: str) -> "Endpoint":
        for scheme in ("http://", "https://", "ppg://"):
            if url.startswith(scheme):
                rest = url[len(scheme) :]
                break
        else:
            raise TransportError(f"unsupported endpoint URL {url!r}")
        authority, _, path = rest.partition("/")
        if not authority:
            raise TransportError(f"endpoint URL {url!r} has no authority")
        return Endpoint(authority=authority, path=path)

    def url(self) -> str:
        return f"http://{self.authority}/{self.path}"


class Transport(Protocol):
    """Moves one request to an endpoint and returns the response bytes."""

    def send(self, endpoint_url: str, request: bytes) -> bytes:  # pragma: no cover
        ...


class LoopbackTransport:
    """In-process transport: routes by authority to registered handlers.

    Handlers receive ``(path, request_bytes)`` and return response bytes.
    A :class:`Recorder` (optional) accumulates byte counts and a
    ``transport.calls`` counter; per-call overhead is whatever the real
    serialize/parse work costs — nothing is modeled.
    """

    def __init__(self, recorder: Recorder | None = None) -> None:
        self._handlers: dict[str, RequestHandler] = {}
        self.recorder = recorder

    def bind(self, authority: str, handler: RequestHandler) -> None:
        if authority in self._handlers:
            raise TransportError(f"authority {authority!r} already bound")
        self._handlers[authority] = handler

    def unbind(self, authority: str) -> None:
        self._handlers.pop(authority, None)

    def authorities(self) -> list[str]:
        return sorted(self._handlers)

    def send(self, endpoint_url: str, request: bytes) -> bytes:
        endpoint = Endpoint.parse(endpoint_url)
        handler = self._handlers.get(endpoint.authority)
        if handler is None:
            raise TransportError(f"no container bound at {endpoint.authority!r}")
        if self.recorder is not None:
            self.recorder.record_bytes("sent", len(request))
            self.recorder.incr("transport.calls")
        response = handler(endpoint.path, request)
        if self.recorder is not None:
            self.recorder.record_bytes("received", len(response))
        return response


class RecordingTransport:
    """Wraps another transport, logging (endpoint, request, response) tuples.

    Used by tests and by the notification examples to observe traffic
    without disturbing it.
    """

    def __init__(self, inner: Transport) -> None:
        self.inner = inner
        self.log: list[tuple[str, bytes, bytes]] = []

    def send(self, endpoint_url: str, request: bytes) -> bytes:
        response = self.inner.send(endpoint_url, request)
        self.log.append((endpoint_url, request, response))
        return response
