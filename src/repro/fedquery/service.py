"""The FederatedQuery Grid service.

Exposes the federation engine as an OGSI PortType, so any SOAP client
can run declarative queries over every published Application without
binding them one by one — the natural extension of the thesis's "single
interface to heterogeneous stores" to a *single interface to the whole
federation*.
"""

from __future__ import annotations

from repro.core.semantic import PPERFGRID_NS
from repro.fedquery.executor import FederationEngine
from repro.ogsi.cursor import deploy_cursor
from repro.ogsi.dispatch import answer_encoding
from repro.ogsi.porttypes import GRID_SERVICE_PORTTYPE
from repro.ogsi.service import GridServiceBase
from repro.soap.chunks import ANSWER_ENCODINGS, frame_answer
from repro.wsdl.porttype import Operation, Parameter, PortType

FEDERATED_QUERY_PORTTYPE = PortType(
    name="FederatedQuery",
    namespace=PPERFGRID_NS,
    doc=(
        "Declarative queries over the federation of published "
        "Applications: predicates push down to the member stores, "
        "sub-queries fan out in parallel, and whole-query results are "
        "memoized on a canonical query fingerprint."
    ),
    operations=(
        Operation(
            "query",
            (Parameter("queryText", "xsd:string"),),
            "xsd:string[]",
            doc=(
                "Plan and execute a federated query (SELECT ... FROM ... "
                "WHERE ... GROUP BY ...). Returns one string per result "
                "row, each a '|'-delimited list of column=value fields."
            ),
        ),
        Operation(
            "queryChunked",
            (Parameter("queryText", "xsd:string"),),
            "xsd:string",
            doc=(
                "Plan and execute a federated query through a "
                "ResultCursor: returns the GSH of a cursor whose "
                "next(maxRows)/close() operations drain the result "
                "incrementally, in exactly the order 'query' returns it. "
                "Member rows flow chunk by chunk with bounded memory at "
                "every hop; closing the cursor (or letting its soft-state "
                "lifetime lapse) releases the member streams."
            ),
        ),
        Operation(
            "explainPlan",
            (Parameter("queryText", "xsd:string"),),
            "xsd:string[]",
            doc=(
                "Compile a federated query with the cost model and "
                "return the cost-annotated plan: per-member modes "
                "(raw/aggregate/mixed) with estimated record and byte "
                "volumes, members skipped because statistics prove they "
                "cannot contribute, the federation-wide effective mode, "
                "and the estimated transfer total."
            ),
        ),
        Operation(
            "getCacheStats",
            (),
            "xsd:string[]",
            doc=(
                "Plan-cache counters as 'name|value' records: hits, "
                "misses, evictions, lookups, hitRate, entries."
            ),
        ),
        Operation(
            "invalidateCache",
            (),
            "xsd:int",
            doc=(
                "Drop all memoized query results (e.g. after a member "
                "data store is updated). Returns the number of entries "
                "dropped."
            ),
        ),
        Operation(
            "subscribeUpdates",
            (),
            "xsd:int",
            doc=(
                "Deploy a NotificationSink next to the engine and "
                "subscribe it to every member Execution's data-update "
                "topic, so a store update invalidates exactly the cached "
                "plans that read it. Idempotent; returns the number of "
                "new subscriptions made."
            ),
        ),
        Operation(
            "coherenceStats",
            (),
            "xsd:string[]",
            doc=(
                "Cache-coherence counters as 'name|value' records: "
                "subscriptions, notifications, invalidations, "
                "fullClears, memberClears, staleDiscards, "
                "statsInvalidations, statsDeltas, trackedPlans, "
                "factsRemembered, factHits, factReads, staleHandles."
            ),
        ),
    ),
    extends=(GRID_SERVICE_PORTTYPE,),
)


class FederatedQueryService(GridServiceBase):
    """One federation endpoint backed by a :class:`FederationEngine`."""

    porttype = FEDERATED_QUERY_PORTTYPE

    def __init__(self, engine: FederationEngine) -> None:
        super().__init__()
        self.engine = engine
        #: wire encodings queryChunked cursors and query answers may serve
        #: (chosen per request; ``("xml",)`` pins per-row transfers)
        self.wire_encodings: tuple[str, ...] = ANSWER_ENCODINGS

    def on_deployed(self, container, gsh) -> None:
        super().on_deployed(container, gsh)
        self.service_data.set("planCacheStats", self.getCacheStats)
        self.service_data.set("coherenceStats", self.coherenceStats)

    # --------------------------------------------------------- operations
    def query(self, queryText: str) -> list[str]:
        self.require_active()
        (answer,) = self.engine.execute(queryText).wire_chunks()
        return frame_answer(answer, answer_encoding(self.wire_encodings))

    def queryChunked(self, queryText: str) -> str:
        """Streamed query: deploy a ResultCursor over the engine's
        streamed execution and hand back its GSH.

        The cursor's source is the streamed answer's chunks of token
        columns, framed without joining a row, so member chunks are
        pulled only as the client drains — closing the cursor
        early (or expiry) closes the member reads with it.  The request's
        ``acceptEncodings`` header is read before planning.
        """
        self.require_active()
        encoding = answer_encoding(self.wire_encodings)
        if self.container is None:
            raise RuntimeError("FederatedQuery service is not deployed")
        streamed = self.engine.execute(queryText, stream=True)
        assert self.gsh is not None
        gsh = deploy_cursor(
            self.container,
            self.gsh.path,
            streamed.wire_chunks(),
            on_close=streamed.close,
            encoding=encoding,
        )
        return gsh.url()

    def explainPlan(self, queryText: str) -> list[str]:
        self.require_active()
        return self.engine.explain(queryText).splitlines()

    def getCacheStats(self) -> list[str]:
        self.require_active()
        return self.engine.plan_cache.stat_records()

    def invalidateCache(self) -> int:
        self.require_active()
        return self.engine.invalidate_cache()

    def subscribeUpdates(self) -> int:
        self.require_active()
        if self.container is None:
            raise RuntimeError("FederatedQuery service is not deployed")
        return self.engine.enable_coherence(self.container)

    def coherenceStats(self) -> list[str]:
        self.require_active()
        return [f"{k}|{v}" for k, v in sorted(self.engine.coherence_stats().items())]
