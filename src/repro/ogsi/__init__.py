"""OGSI-style Grid services core (the GT3.2 stand-in).

Implements the conventions that make a Web service a *Grid* service in
the thesis's sense (§3.2, Table 3):

* unique, stateful **service instances** created by Factories and
  addressed by **Grid Service Handles** (GSHs);
* the **GridService** PortType every service implements
  (``FindServiceData`` / ``SetTerminationTime`` / ``Destroy``);
* **Registry** (soft-state registration), **HandleMap** (GSH -> endpoint
  resolution), and **NotificationSource/Sink** PortTypes;
* a hosting **container** (the Axis/Tomcat analog) that turns request
  bytes into native dispatch and back — the server half of the
  Architecture Adapter pattern.
"""

from repro.ogsi.gsh import GridServiceHandle, GshError
from repro.ogsi.porttypes import (
    FACTORY_PORTTYPE,
    GRID_SERVICE_PORTTYPE,
    HANDLE_MAP_PORTTYPE,
    NOTIFICATION_SINK_PORTTYPE,
    NOTIFICATION_SOURCE_PORTTYPE,
    OGSI_NS,
    REGISTRY_PORTTYPE,
    ogsi_porttype_table,
)
from repro.ogsi.servicedata import ServiceDataElement, ServiceDataSet
from repro.ogsi.service import GridServiceBase, ServiceState
from repro.ogsi.cursor import (
    DEFAULT_CURSOR_TTL,
    RESULT_CURSOR_PORTTYPE,
    ResultCursorService,
    deploy_cursor,
)
from repro.ogsi.factory import FactoryService
from repro.ogsi.registry import RegistryService
from repro.ogsi.handlemap import HandleMapService
from repro.ogsi.notification import (
    NotificationSinkBase,
    NotificationSourceMixin,
    PullNotificationSink,
    Subscription,
)
from repro.ogsi.dispatch import ServiceGate, client_id_headers, suspend_dispatch
from repro.ogsi.monitor import CONTAINER_MONITOR_PORTTYPE, ContainerMonitorService
from repro.ogsi.container import ContainerError, GridEnvironment, ServiceContainer

__all__ = [
    "CONTAINER_MONITOR_PORTTYPE",
    "ContainerError",
    "ContainerMonitorService",
    "ServiceGate",
    "client_id_headers",
    "suspend_dispatch",
    "DEFAULT_CURSOR_TTL",
    "FACTORY_PORTTYPE",
    "FactoryService",
    "GRID_SERVICE_PORTTYPE",
    "GridEnvironment",
    "GridServiceBase",
    "GridServiceHandle",
    "GshError",
    "HANDLE_MAP_PORTTYPE",
    "HandleMapService",
    "NOTIFICATION_SINK_PORTTYPE",
    "NOTIFICATION_SOURCE_PORTTYPE",
    "NotificationSinkBase",
    "NotificationSourceMixin",
    "OGSI_NS",
    "PullNotificationSink",
    "REGISTRY_PORTTYPE",
    "RESULT_CURSOR_PORTTYPE",
    "RegistryService",
    "ResultCursorService",
    "ServiceContainer",
    "ServiceDataElement",
    "ServiceDataSet",
    "ServiceState",
    "Subscription",
    "deploy_cursor",
    "ogsi_porttype_table",
]
