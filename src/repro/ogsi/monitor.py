"""ContainerMonitor: a service publishing one container's load as SDEs.

The ingress counters — the in-flight count and the
``requestsHandled`` / ``requestsRejected`` split — need a Services Layer
surface so remote operators can read them the same way they read any
other service data.  Deploy one per container with
:meth:`~repro.ogsi.container.ServiceContainer.deploy_monitor`; the SDEs
are refreshed from the live counters on every read, so a plain
``FindServiceData("inflight")`` always answers with current state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from repro.ogsi.service import GridServiceBase
from repro.wsdl.porttype import Operation, PortType

if TYPE_CHECKING:  # pragma: no cover
    from repro.ogsi.container import ServiceContainer

#: PPerfGrid extension namespace for the monitor PortType
MONITOR_NS = "http://pperfgrid.cs.pdx.edu/2004/monitor"

CONTAINER_MONITOR_PORTTYPE = PortType(
    name="ContainerMonitor",
    namespace=MONITOR_NS,
    doc=(
        "Read-only view of a container's ingress counters, published as "
        "service data."
    ),
    operations=(
        Operation(
            "getContainerStats",
            (),
            "xsd:string[]",
            doc=(
                "Return every container counter as a 'name=value' record: "
                "requestsHandled/requestsRejected, inflight, the deployed-"
                "service count, and requestsShed/peakQueueDepth (always 0: "
                "the ingress never queues or sheds)."
            ),
        ),
    ),
)


def _flatten(prefix: str, value, out: dict) -> None:
    """Flatten nested stats dicts into dotted scalar names."""
    if isinstance(value, Mapping):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}", value[key], out)
    else:
        out[prefix] = value


class ContainerMonitorService(GridServiceBase):
    """SDE/operation surface over :meth:`ServiceContainer.stats`.

    ``sources`` attaches extra named stats providers — e.g. the
    federation engine's fan-out scheduler — whose dicts are flattened
    into dotted SDE names (``fanoutScheduler.queueDepth``,
    ``fanoutScheduler.tenants.alpha.completed``) so the same FindServiceData
    surface covers them.  A provider that raises contributes a single
    ``<name>.error=1`` record instead of breaking the whole refresh.

    The counter names follow the tenants, so they cannot be producers
    registered once: every read republishes them, and the set it
    publishes replaces the last one wholesale.
    """

    porttype = CONTAINER_MONITOR_PORTTYPE

    def __init__(
        self,
        target: "ServiceContainer",
        sources: Mapping[str, Callable[[], Mapping]] | None = None,
    ) -> None:
        super().__init__()
        self._target = target
        self._sources: dict[str, Callable[[], Mapping]] = dict(sources or {})
        #: the counter names the last refresh published
        self._published: set[str] = set()

    def _refresh(self) -> dict:
        stats: dict = dict(self._target.stats())
        for name, provider in self._sources.items():
            try:
                _flatten(name, provider(), stats)
            except Exception:
                stats[f"{name}.error"] = 1
        for name in self._published - stats.keys():
            self.service_data.remove(name)
        for name, value in stats.items():
            self.service_data.set(name, str(value))
        self._published = set(stats)
        return stats

    # --------------------------------------------------------- operations
    def FindServiceData(self, queryExpression: str) -> str:
        self.require_active()
        self._refresh()
        return super().FindServiceData(queryExpression)

    def getContainerStats(self) -> list[str]:
        self.require_active()
        stats = self._refresh()
        return [f"{name}={stats[name]}" for name in sorted(stats)]
