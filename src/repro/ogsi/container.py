"""Service container and grid environment (the Axis/Tomcat analog).

The container is the server half of the Architecture Adapter pattern:
its ingress takes ``(path, request-bytes)``, parses the SOAP envelope,
validates the operation against the target service's PortType, invokes
the native method, and serializes the result (or a fault) back to bytes.

Dispatch is serialized **per service**, not per container: each deployed
path gets its own :class:`~repro.ogsi.dispatch.ServiceGate`, so requests
to different services proceed concurrently while one stateful instance
still sees one request at a time.  Nothing queues or sheds at the
ingress: it only counts requests in flight, so teardown can wait for
them to answer.  Load is spread by replica placement (the Manager), and
federated fan-out is queued fairly per tenant by the engine's
scheduler.  Lifetime sweeps run
when :meth:`~ServiceContainer.sweep_expired` is called, on the caller's
thread; they take each victim's gate (and re-check expiry under it), so
a sweep can never destroy a service mid-dispatch.

A :class:`GridEnvironment` groups containers, wires them to a shared
transport and clock, and builds client stubs — the whole "grid" of one
PPerfGrid session lives in one environment object.  It starts no thread
of its own.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.ogsi.dispatch import DispatchCore, dispatch_frame
from repro.ogsi.gsh import GridServiceHandle, GshError
from repro.ogsi.porttypes import GRID_SERVICE_PORTTYPE
from repro.ogsi.service import GridServiceBase, ServiceState
from repro.simnet.clock import Clock, RealClock
from repro.simnet.host import SimHost
from repro.simnet.lru import LruStore
from repro.simnet.metrics import Recorder
from repro.simnet.transport import LoopbackTransport, Transport
from repro.soap.faults import SoapFault, fault_from_exception
from repro.soap.rpc import decode_request, encode_fault, encode_response
from repro.wsdl.document import parse_wsdl
from repro.wsdl.porttype import Operation, PortType
from repro.wsdl.stubgen import ClientStub, make_stub
from repro.xmlkit import Element, parse as parse_xml

#: optional security check: (headers, request_bytes) -> None or raise
SecurityVerifier = Callable[[list[Element], bytes], None]


class ContainerError(RuntimeError):
    """Deployment/routing errors inside a container."""


class ServiceContainer:
    """Hosts Grid services under one authority (one "host:port")."""

    def __init__(
        self,
        authority: str,
        environment: "GridEnvironment",
        host: SimHost | None = None,
    ) -> None:
        self.authority = authority
        self.environment = environment
        self.host = host
        self._services: dict[str, GridServiceBase] = {}
        self._instance_counters: dict[str, int] = {}
        #: guards the service/counter maps only — never held across a
        #: service method call or any SOAP work
        self._services_lock = threading.Lock()
        self._core = DispatchCore()
        self.verifier: SecurityVerifier | None = None
        # Ingress accounting: *handled* requests reached a service method;
        # *rejected* ones never routed (malformed envelope, unknown path/
        # operation, bad arity, failed verification).  Only the sum is
        # "traffic".  *inflight* counts requests between ingress and
        # answer, nested dispatches included; wait_idle waits for zero.
        self.requests_handled = 0
        self.requests_rejected = 0
        self.inflight = 0
        self._counters = threading.Condition()

    @property
    def clock(self) -> Clock:
        return self.environment.clock

    # ---------------------------------------------------------- deployment
    def deploy(self, path: str, service: GridServiceBase) -> GridServiceHandle:
        """Deploy a persistent service at *path*; returns its GSH."""
        with self._services_lock:
            if path in self._services:
                raise ContainerError(
                    f"path {path!r} already deployed on {self.authority}"
                )
            gsh = GridServiceHandle(self.authority, path)
            self._services[path] = service
        service.on_deployed(self, gsh)
        return gsh

    def deploy_instance(self, factory_path: str, instance: GridServiceBase) -> GridServiceHandle:
        """Deploy a transient instance under a factory's path."""
        with self._services_lock:
            count = self._instance_counters.get(factory_path, 0) + 1
            self._instance_counters[factory_path] = count
        path = f"{factory_path}/instances/{count}"
        return self.deploy(path, instance)

    def deploy_monitor(self, path: str = "services/container-monitor", sources=None):
        """Deploy a :class:`~repro.ogsi.monitor.ContainerMonitorService`
        publishing this container's ingress counters as SDEs.

        ``sources`` (name -> zero-arg stats provider) merge extra
        counter dicts into the surface as ``<name>.<key>`` entries —
        e.g. the federation engine's fan-out scheduler gauges.
        """
        from repro.ogsi.monitor import ContainerMonitorService

        return self.deploy(path, ContainerMonitorService(self, sources=sources))

    def remove_service(self, gsh: GridServiceHandle) -> None:
        with self._services_lock:
            self._services.pop(gsh.path, None)
        self._core.discard(gsh.path)

    def has_service(self, gsh: GridServiceHandle) -> bool:
        with self._services_lock:
            service = self._services.get(gsh.path)
        return service is not None and service.state is ServiceState.ACTIVE

    def service_at(self, path: str) -> GridServiceBase | None:
        with self._services_lock:
            return self._services.get(path)

    def service_count(self) -> int:
        with self._services_lock:
            return len(self._services)

    def service_paths(self) -> list[str]:
        with self._services_lock:
            return sorted(self._services)

    def sweep_expired(self) -> int:
        """Destroy instances whose termination time has passed.

        Each victim is destroyed under its own dispatch gate, with the
        expiry re-checked once the gate is held: an in-flight ``next()``
        that renews a cursor's TTL wins over a concurrent sweep, and a
        service mid-dispatch is never destroyed under the caller.
        """
        now = self.clock.now()
        with self._services_lock:
            candidates = [
                (path, svc)
                for path, svc in self._services.items()
                if svc.state is ServiceState.ACTIVE and svc.is_expired(now)
            ]
        swept = 0
        for path, service in candidates:
            gate = self._core.gate_for(path)
            gate.acquire()
            try:
                if service.sweep(now):
                    swept += 1
            finally:
                gate.release()
        return swept

    # ------------------------------------------------------------- ingress
    def handle_request(self, path: str, request: bytes) -> bytes:
        """The container ingress: bytes in, bytes out, faults on errors."""
        with self._counters:
            self.inflight += 1
        try:
            return self._dispatch(path, request)
        finally:
            with self._counters:
                self.inflight -= 1
                if self.inflight == 0:
                    self._counters.notify_all()  # wake wait_idle

    def wait_idle(self, timeout: float = 5.0) -> bool:
        """Block until no request is in flight (True on success).

        ``GridEnvironment.close()`` is this wait, once per container, so
        teardown returns only after every in-flight request has answered.
        """
        with self._counters:
            return self._counters.wait_for(lambda: self.inflight == 0, timeout=timeout)

    def _dispatch(self, path: str, request: bytes) -> bytes:
        routed = False
        try:
            rpc = decode_request(request)
        except SoapFault as fault:
            self._count_rejected()
            return encode_fault(fault)
        except Exception as exc:
            self._count_rejected()
            return encode_fault(fault_from_exception(exc, caller_error=True))
        try:
            if self.verifier is not None:
                self.verifier(rpc.headers, request)
            with self._services_lock:
                service = self._services.get(path)
            if service is None or service.state is not ServiceState.ACTIVE:
                raise SoapFault("Client", f"no service at {self.authority}/{path}")
            operation = self._find_operation(service, rpc.operation)
            if len(rpc.params) != len(operation.parameters):
                raise SoapFault(
                    "Client",
                    f"{rpc.operation} takes {len(operation.parameters)} "
                    f"argument(s), got {len(rpc.params)}",
                )
            method = getattr(service, rpc.operation, None)
            if method is None:
                raise SoapFault(
                    "Server",
                    f"{type(service).__name__} declares but does not implement "
                    f"{rpc.operation}",
                )
            gate = self._core.gate_for(path)
            with dispatch_frame(gate, rpc.headers):
                # Re-check under the gate: a sweep or Destroy may have won
                # the race while this request waited its turn.
                if service.state is not ServiceState.ACTIVE:
                    raise SoapFault(
                        "Client", f"no service at {self.authority}/{path}"
                    )
                routed = True
                with self._counters:
                    self.requests_handled += 1
                result = method(*rpc.params)
                # Encode under the gate too: services may return views of
                # state (cached PR lists) that the next dispatch mutates.
                return encode_response(
                    rpc.namespace,
                    rpc.operation,
                    result,
                    is_void=operation.returns == "void",
                )
        except SoapFault as fault:
            if not routed:
                self._count_rejected()
            return encode_fault(fault)
        except Exception as exc:
            if not routed:
                self._count_rejected()
            return encode_fault(fault_from_exception(exc))

    def _count_rejected(self) -> None:
        with self._counters:
            self.requests_rejected += 1

    def stats(self) -> dict[str, int]:
        """Ingress counters (the container-monitor SDEs)."""
        services = self.service_count()
        with self._counters:
            return {
                "requestsHandled": self.requests_handled,
                "requestsRejected": self.requests_rejected,
                "inflight": self.inflight,
                # the ingress never queues or sheds; benchmarks/e2e/layers.py reads both
                "requestsShed": 0,
                "peakQueueDepth": 0,
                "services": services,
            }

    @staticmethod
    def _find_operation(service: GridServiceBase, name: str) -> Operation:
        if service.porttype.has_operation(name):
            return service.porttype.operation(name)
        if GRID_SERVICE_PORTTYPE.has_operation(name):
            return GRID_SERVICE_PORTTYPE.operation(name)
        raise SoapFault(
            "Client",
            f"PortType {service.porttype.name!r} has no operation {name!r}",
        )


#: default stub-pool entry lifetime: long enough to amortize bind work
#: across a burst of calls, short enough that a re-published GSH cannot
#: be answered by a stale binding for long
DEFAULT_STUB_TTL_S = 30.0
DEFAULT_STUB_POOL_CAPACITY = 512


class StubPool:
    """Keyed, TTL'd cache of bound client stubs.

    Binding a stub validates the handle and (on the dynamic path)
    fetches and parses the service's WSDL; repeated calls to the same
    GSH paid that on every construction.  The pool is an
    :class:`~repro.simnet.lru.LruStore` keyed by ``(handle, porttype)``
    whose entries expire ``ttl`` seconds — on *clock*, the environment's
    — after they were bound (expiry forces a liveness re-validation
    through the normal bind); it is invalidated wholesale on
    ``refresh_members()`` and per handle on bind faults.  Stubs are
    stateless operation tables, safe to share across threads;
    identity-stamped stubs (a ``headers_provider``) are never pooled.
    """

    def __init__(
        self,
        ttl: float = DEFAULT_STUB_TTL_S,
        capacity: int = DEFAULT_STUB_POOL_CAPACITY,
        clock: Clock | None = None,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._store = LruStore(
            max_entries=capacity, max_age=ttl, clock=clock or RealClock()
        )

    def get(self, key: tuple[str, str]) -> ClientStub | None:
        return self._store.get(key)

    def put(self, key: tuple[str, str], stub: ClientStub) -> None:
        self._store.put(key, stub)

    def invalidate(self, handle: str) -> int:
        """Drop every pooled stub bound to *handle* (bind-fault path)."""
        return self._store.remove_where(lambda key: key[0] == handle)

    def clear(self) -> int:
        return self._store.remove_where(lambda key: True)

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> dict[str, int]:
        counters = self._store.stats
        return {
            "entries": len(self._store),
            "hits": counters.hits,
            "misses": counters.misses,
            "expirations": counters.expirations,
            "evictions": counters.evictions,
            "invalidations": counters.invalidations,
        }


class GridEnvironment:
    """One grid: shared clock, transport, a set of containers."""

    def __init__(self, clock: Clock | None = None, recorder: Recorder | None = None) -> None:
        self.clock: Clock = clock or RealClock()
        self.recorder = recorder if recorder is not None else Recorder(self.clock)
        self.transport: Transport = LoopbackTransport(self.recorder)
        self._containers: dict[str, ServiceContainer] = {}
        #: makes "is an authority bound? bind it" one step
        self._containers_lock = threading.RLock()
        #: shared TTL'd stub cache for the pooled bind helpers
        self.stub_pool = StubPool(clock=self.clock)

    def create_container(
        self,
        authority: str,
        host: SimHost | None = None,
    ) -> ServiceContainer:
        with self._containers_lock:
            if authority in self._containers:
                raise ContainerError(f"a container is already bound at {authority!r}")
            container = ServiceContainer(authority, self, host=host)
            self._containers[authority] = container
            # The loopback transport routes by authority to the container ingress.
            self.transport.bind(authority, container.handle_request)  # type: ignore[attr-defined]
        return container

    def container_for(self, authority: str) -> ServiceContainer | None:
        return self._containers.get(authority)

    def ensure_container(self, authority: str) -> ServiceContainer:
        """The container at *authority*, created with the defaults if none
        is — in one step, so racing first callers share one container."""
        with self._containers_lock:
            return self._containers.get(authority) or self.create_container(authority)

    def containers(self) -> list[ServiceContainer]:
        return [self._containers[a] for a in sorted(self._containers)]

    def close(self, drain_timeout: float = 5.0) -> None:
        """Wait for every container's in-flight dispatches to drain (at
        most *drain_timeout* seconds each).  Idempotent; the environment
        stays usable afterwards.  The grid runs no thread of its own, so
        there is nothing else to stop.
        """
        for container in self._containers.values():
            container.wait_idle(timeout=drain_timeout)

    # ---------------------------------------------------------------- stubs
    def stub_for_handle(
        self,
        handle: str | GridServiceHandle,
        porttype: PortType,
        headers_provider=None,
    ) -> ClientStub:
        """Bind a stub to the service a GSH names (the Figure 1 'bind' step)."""
        gsh = handle if isinstance(handle, GridServiceHandle) else GridServiceHandle.parse(handle)
        container = self._containers.get(gsh.authority)
        if container is None or not container.has_service(gsh):
            raise GshError(f"handle {gsh} does not resolve to a live service")
        return make_stub(porttype, gsh.endpoint_url(), self.transport, headers_provider)

    def stub_for_endpoint(
        self, endpoint_url: str, porttype: PortType, headers_provider=None
    ) -> ClientStub:
        return make_stub(porttype, endpoint_url, self.transport, headers_provider)

    def pooled_stub_for_handle(
        self,
        handle: str | GridServiceHandle,
        porttype: PortType,
        headers_provider=None,
    ) -> ClientStub:
        """:meth:`stub_for_handle` through the TTL'd :class:`StubPool`.

        A hit skips handle validation and stub construction entirely;
        expiry re-validates through the normal bind.  A bind fault
        drops every pooled stub for the handle before propagating, so a
        dead service's cached bindings never outlive the failure.
        Identity-stamped stubs (``headers_provider``) bypass the pool.
        """
        if headers_provider is not None:
            return self.stub_for_handle(handle, porttype, headers_provider)
        return self._pooled(
            handle, porttype.name, lambda: self.stub_for_handle(handle, porttype)
        )

    def pooled_stub_from_wsdl(
        self, handle: str | GridServiceHandle, headers_provider=None
    ) -> ClientStub:
        """:meth:`stub_from_wsdl` through the pool — the expensive path.

        The dynamic bind fetches and parses the service's WSDL on every
        call; pooling keys it under ``(handle, "@wsdl")`` so repeated
        dynamic binds to one GSH pay the parse once per TTL window.
        """
        if headers_provider is not None:
            return self.stub_from_wsdl(handle, headers_provider)
        return self._pooled(handle, "@wsdl", lambda: self.stub_from_wsdl(handle))

    def _pooled(
        self, handle: str | GridServiceHandle, porttype_name: str, bind
    ) -> ClientStub:
        url = handle.url() if isinstance(handle, GridServiceHandle) else str(handle)
        key = (url, porttype_name)
        stub = self.stub_pool.get(key)
        if stub is None:
            try:
                stub = bind()
            except GshError:
                self.stub_pool.invalidate(url)
                raise
            self.stub_pool.put(key, stub)
        return stub

    def stub_from_wsdl(
        self, handle: str | GridServiceHandle, headers_provider=None
    ) -> ClientStub:
        """Bind with no compile-time PortType knowledge (Figure 1 flow).

        Fetches the service's published WSDL through the GridService
        PortType (always available), parses it, and builds the stub from
        the parsed interface — the analog of WSDL2Java stub generation.
        """
        bootstrap = self.stub_for_handle(handle, GRID_SERVICE_PORTTYPE, headers_provider)
        result_xml = bootstrap.FindServiceData("wsdl")
        root = parse_xml(result_xml).root
        sde = root.find("serviceDataElement")
        if sde is None:
            raise GshError(f"service {handle} publishes no WSDL service data")
        value = sde.find("value")
        wsdl_text = value.text() if value is not None else ""
        porttype, endpoint = parse_wsdl(wsdl_text)
        return make_stub(porttype, endpoint, self.transport, headers_provider)

    def sweep_expired(self) -> int:
        """Run lifetime sweeps on every container, on the caller's thread."""
        return sum(c.sweep_expired() for c in self._containers.values())
