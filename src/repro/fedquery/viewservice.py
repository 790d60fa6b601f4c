"""The ViewRegistry Grid service.

Exposes the engine's :class:`~repro.fedquery.views.ViewMaintainer` as an
OGSI PortType: clients register any supported federated query as a
standing materialized view (``createView``), read its current rows and
(epoch, version) header (``getView``), and — the push half — subscribe a
NotificationSink to ``view-delta/<viewId>``, over which every applied
change arrives as an encoded, versioned
:class:`~repro.fedquery.views.ViewDelta` (``subscribeView``).
"""

from __future__ import annotations

from repro.core.semantic import PPERFGRID_NS
from repro.fedquery.executor import FederationEngine
from repro.fedquery.views import MaterializedView, ViewDelta
from repro.ogsi.notification import NotificationSourceMixin
from repro.ogsi.porttypes import GRID_SERVICE_PORTTYPE, NOTIFICATION_SOURCE_PORTTYPE
from repro.ogsi.service import GridServiceBase, ServiceState
from repro.wsdl.porttype import Operation, Parameter, PortType

VIEW_REGISTRY_PORTTYPE = PortType(
    name="ViewRegistry",
    namespace=PPERFGRID_NS,
    doc=(
        "Standing federated queries maintained as materialized views: "
        "data-update notifications from member stores fold in as "
        "partition deltas instead of invalidating, and subscribers "
        "receive every change as a versioned view delta."
    ),
    operations=(
        Operation(
            "createView",
            (Parameter("queryText", "xsd:string"),),
            "xsd:string",
            doc=(
                "Register a federated query as a materialized view and "
                "compute its initial rows. Returns the view id."
            ),
        ),
        Operation(
            "dropView",
            (Parameter("viewId", "xsd:string"),),
            "xsd:int",
            doc="Stop maintaining a view. Returns 1 if it existed, else 0.",
        ),
        Operation(
            "getView",
            (Parameter("viewId", "xsd:string"),),
            "xsd:string[]",
            doc=(
                "The view's consistent snapshot: six header records "
                "(viewId|..., epoch|..., version|..., shape|..., "
                "query|..., rows|<count>) followed by one packed result "
                "row per record, in the view's canonical order."
            ),
        ),
        Operation(
            "listViews",
            (),
            "xsd:string[]",
            doc=(
                "One record per registered view: "
                "viewId|shape|epoch=..|version=..|rows=.."
            ),
        ),
        Operation(
            "subscribeView",
            (
                Parameter("viewId", "xsd:string"),
                Parameter("sinkHandle", "xsd:string"),
            ),
            "xsd:string",
            doc=(
                "Subscribe a NotificationSink to the view's delta topic "
                "(view-delta/<viewId>); every applied change is pushed "
                "as an encoded versioned ViewDelta. Returns the "
                "subscription id."
            ),
        ),
        Operation(
            "viewStats",
            (),
            "xsd:string[]",
            doc=(
                "View-maintenance counters as 'name|value' records "
                "(views, created, dropped, deltasApplied, "
                "deltaRowsFetched, deltaBytesFetched, scopedRecomputes, "
                "epochRefreshes, noopUpdates, pushedDeltas, "
                "maintenanceErrors)."
            ),
        ),
    ),
    extends=(GRID_SERVICE_PORTTYPE, NOTIFICATION_SOURCE_PORTTYPE),
)


class ViewRegistryService(GridServiceBase, NotificationSourceMixin):
    """One view-registry endpoint backed by a federation engine."""

    porttype = VIEW_REGISTRY_PORTTYPE

    def __init__(self, engine: FederationEngine) -> None:
        super().__init__()
        self._init_notification_source()
        self.engine = engine
        self.maintainer = engine.views()
        self.maintainer.add_listener(self._push_delta)

    def on_deployed(self, container, gsh) -> None:
        super().on_deployed(container, gsh)
        self.service_data.set("viewStats", self.viewStats)

    def _push_delta(self, view: MaterializedView, delta: ViewDelta) -> None:
        if self.container is None or self.state is not ServiceState.ACTIVE:
            return
        self.notify(f"view-delta/{view.view_id}", delta.encode())

    # --------------------------------------------------------- operations
    def createView(self, queryText: str) -> str:
        self.require_active()
        # a view is only live if the coherence sink feeds the maintainer
        if not self.engine.coherence.listening and self.container is not None:
            self.engine.enable_coherence(self.container)
        return self.maintainer.create_view(queryText).view_id

    def dropView(self, viewId: str) -> int:
        self.require_active()
        return 1 if self.maintainer.drop_view(viewId) else 0

    def getView(self, viewId: str) -> list[str]:
        self.require_active()
        view = self.maintainer.get_view(viewId)
        packed = view.packed_rows()
        return [
            f"viewId|{view.view_id}",
            f"epoch|{view.epoch}",
            f"version|{view.version}",
            f"shape|{view.shape.kind}",
            f"query|{view.text}",
            f"rows|{len(packed)}",
            *packed,
        ]

    def listViews(self) -> list[str]:
        self.require_active()
        return [view.describe() for view in self.maintainer.views()]

    def subscribeView(self, viewId: str, sinkHandle: str) -> str:
        self.require_active()
        self.maintainer.get_view(viewId)  # raises for unknown views
        return self.SubscribeToNotificationTopic(
            f"view-delta/{viewId}", sinkHandle, 0.0
        )

    def viewStats(self) -> list[str]:
        self.require_active()
        return [f"{k}|{v}" for k, v in sorted(self.maintainer.stats().items())]
