"""Grid service base class.

A :class:`GridServiceBase` owns a GSH, a lifetime, and a
:class:`~repro.ogsi.servicedata.ServiceDataSet`, and implements the three
GridService operations of Table 3.  Concrete services define additional
PortTypes and implement their operations as plain methods with matching
names; the container dispatches by name after validating against the
declared PortType.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import TYPE_CHECKING

from repro.ogsi.gsh import GridServiceHandle
from repro.ogsi.porttypes import GRID_SERVICE_PORTTYPE
from repro.ogsi.servicedata import ServiceDataSet
from repro.wsdl.document import generate_wsdl
from repro.wsdl.porttype import PortType

if TYPE_CHECKING:  # pragma: no cover
    from repro.ogsi.container import ServiceContainer


class ServiceState(Enum):
    ACTIVE = "active"
    DESTROYED = "destroyed"


class GridServiceBase:
    """Base for every deployed service and service instance.

    Subclasses set :attr:`porttype` (their primary PortType; the container
    additionally accepts GridService operations for any service).  After
    deployment the container assigns :attr:`gsh`, :attr:`container`, and
    seeds the introspection SDEs.
    """

    #: the service-specific PortType; GridService ops are always available
    porttype: PortType = GRID_SERVICE_PORTTYPE

    def __init__(self) -> None:
        self.gsh: GridServiceHandle | None = None
        self.container: "ServiceContainer | None" = None
        self.state = ServiceState.ACTIVE
        self.service_data = ServiceDataSet()
        #: absolute clock time after which the instance may be reclaimed
        self.termination_time: float = math.inf
        self.created_at: float = 0.0

    # ------------------------------------------------------- container API
    def on_deployed(self, container: "ServiceContainer", gsh: GridServiceHandle) -> None:
        """Called by the container once the service has an address."""
        self.container = container
        self.gsh = gsh
        self.created_at = container.clock.now()
        self.service_data.set("handle", gsh.url())
        self.service_data.set("reference", gsh.endpoint_url())
        self.service_data.set("primaryKey", gsh.path)
        interfaces = [self.porttype.name] + [b.name for b in self.porttype.extends]
        if "GridService" not in interfaces:
            interfaces.append("GridService")
        self.service_data.set("interfaces", interfaces)
        self.service_data.set("createdAt", repr(self.created_at))
        # The service's WSDL document, published as an SDE so clients can
        # bind dynamically (the Figure 1 "download WSDL, generate stubs"
        # step) instead of relying on compile-time PortType knowledge.
        # Rendered when first asked for, then remembered: a ~3.6 KB
        # serialisation per deployed instance, transient cursors
        # included, is mostly unread and never changes.
        self.service_data.set(
            "wsdl", functools.cache(lambda: generate_wsdl(self.porttype, gsh.endpoint_url()))
        )

    def on_destroyed(self) -> None:
        """Hook for subclasses to release resources; default does nothing."""

    def require_active(self) -> None:
        if self.state is not ServiceState.ACTIVE:
            raise RuntimeError(f"service {self.gsh} has been destroyed")

    def is_expired(self, now: float) -> bool:
        return now >= self.termination_time

    def sweep(self, now: float) -> bool:
        """Destroy this instance if it is (still) expired at *now*.

        Called by the container's lifetime sweep *under the service's
        dispatch gate*; the re-check matters because a dispatch that ran
        while the sweep waited (e.g. a cursor ``next``) may have renewed
        the termination time, and renewals win over sweeps.
        """
        if self.state is not ServiceState.ACTIVE or not self.is_expired(now):
            return False
        self.Destroy()
        return True

    # -------------------------------------------- GridService operations
    def FindServiceData(self, queryExpression: str) -> str:
        """Query this service's SDEs (name or ``xpath:`` dialect)."""
        self.require_active()
        return self.service_data.query(queryExpression)

    def SetTerminationTime(self, terminationTime: float) -> float:
        """Set the absolute termination time; returns the effective value.

        A non-positive value means "no expiry" (stored as +inf).
        """
        self.require_active()
        self.termination_time = math.inf if terminationTime <= 0 else float(terminationTime)
        return 0.0 if math.isinf(self.termination_time) else self.termination_time

    def Destroy(self) -> None:
        """Terminate this instance and detach it from its container."""
        self.require_active()
        self.state = ServiceState.DESTROYED
        self.on_destroyed()
        if self.container is not None and self.gsh is not None:
            self.container.remove_service(self.gsh)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} gsh={self.gsh} state={self.state.value}>"
