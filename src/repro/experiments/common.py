"""Shared experiment scaffolding: build a grid with the three data sources.

Mirrors the thesis's testbed (§6.1-§6.3): the HPL and SMG98 stores in
relational databases, PRESTA RMA in flat text files, all published
through one UDDI registry.  ``GridScale`` controls dataset sizes so unit
tests stay fast while benchmarks run at paper proportions.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field

from repro.core.client import PPerfGridClient
from repro.core.prcache import NullCache, UnboundedCache
from repro.core.session import PPerfGridSite, SiteConfig
from repro.datastores.generators.hpl import generate_hpl
from repro.datastores.generators.presta import generate_presta
from repro.datastores.generators.smg98 import generate_smg98
from repro.datastores.textfiles import TextFileStore
from repro.fedquery.executor import FederationEngine
from repro.fedquery.service import FederatedQueryService
from repro.fedquery.viewservice import ViewRegistryService
from repro.mapping.rdbms import HplRdbmsWrapper, Smg98RdbmsWrapper
from repro.mapping.textfile import PrestaTextWrapper
from repro.ogsi.container import GridEnvironment
from repro.uddi.proxy import UddiClient
from repro.uddi.registry_server import UddiRegistryServer


@dataclass(frozen=True)
class GridScale:
    """Dataset sizes for one grid build."""

    hpl_executions: int = 124
    smg98_executions: int = 30
    smg98_intervals: int = 12000
    smg98_messages: int = 2000
    presta_executions: int = 32
    seed: int = 7

    @staticmethod
    def tiny() -> "GridScale":
        """Unit-test scale: everything small."""
        return GridScale(
            hpl_executions=12,
            smg98_executions=3,
            smg98_intervals=400,
            smg98_messages=100,
            presta_executions=4,
        )

    @staticmethod
    def paper() -> "GridScale":
        """Benchmark scale (paper proportions)."""
        return GridScale()


@dataclass
class Grid:
    """What every wired grid carries: a registry, a client, one site per
    published member and, once deployed, a federation endpoint."""

    environment: GridEnvironment
    uddi: UddiClient
    uddi_gsh: str
    client: PPerfGridClient
    sites: dict[str, PPerfGridSite] = field(default_factory=dict)
    #: set by deploy_federation()
    fed_gsh: str | None = None
    fed_engine: object | None = None
    views_gsh: str | None = None

    def site(self, name: str) -> PPerfGridSite:
        return self.sites[name]

    def deploy_federation(
        self,
        authority: str = "fed.pdx.edu:9090",
        coherence: bool = True,
    ):
        """Deploy a FederatedQuery service over this grid's members.

        The federation endpoint is itself a Grid-service *client* of the
        member Applications: it gets its own PPerfGridClient against the
        registry, and the site Managers feed its fan-out sizing.  The
        grid's main client is pointed at the deployed service, so
        ``grid.client.query(...)`` works afterwards.  With ``coherence``
        (the default) the service also subscribes to every member
        Execution's data-update topic, so store updates invalidate
        exactly the cached plans that read them.  Returns the engine
        (useful for local, in-process execution in tests).
        """
        engine = FederationEngine(
            PPerfGridClient(self.environment, self.uddi_gsh),
            managers={name: site.manager for name, site in self.sites.items()},
        )
        container = self.environment.ensure_container(authority)
        service = FederatedQueryService(engine)
        gsh = container.deploy("services/FederatedQuery", service)
        self.fed_gsh = gsh.url()
        self.fed_engine = engine
        self.client.use_federation(self.fed_gsh)
        views_service = ViewRegistryService(engine)
        views_gsh = container.deploy("services/FederatedQuery/views", views_service)
        self.views_gsh = views_gsh.url()
        self.client.use_views(self.views_gsh)
        # the federation container's monitor surfaces scheduler state as SDEs
        container.deploy_monitor(
            "services/FederatedQuery/monitor",
            sources={"fanoutScheduler": engine.scheduler_stats},
        )
        if coherence:
            service.subscribeUpdates()
        return engine

    def execution_service(self, site_name: str, exec_id: str):
        """The live ExecutionService instance for *exec_id*, or None.

        Lets tests and demos trigger ``data_updated()`` on the
        publisher-side service (the instance the Manager memoized), the
        way a streaming ingest tool co-located with the store would.
        """
        site = self.sites[site_name]
        for container in [site.container, *site.replica_containers]:
            for path in container.service_paths():
                service = container.service_at(path)
                if getattr(service, "exec_id", None) == exec_id:
                    return service
        return None

    def bind(self, app_name: str):
        """Bind the client to one published application by name."""
        for org in self.client.discover_organizations("%"):
            for service in org.services():
                if service.name == app_name:
                    return self.client.bind(service)
        raise KeyError(f"no published application {app_name!r}")

    def cleanup(self) -> None:
        """Release what the grid holds outside the process (nothing here)."""


@dataclass(kw_only=True)
class TestGrid(Grid):
    """A fully wired grid: three sites, registry, client."""

    hpl_site: PPerfGridSite
    smg98_site: PPerfGridSite
    presta_site: PPerfGridSite
    scale: GridScale
    #: holds the presta temp directory alive for the grid's lifetime
    _tempdir: tempfile.TemporaryDirectory | None = None

    def cleanup(self) -> None:
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None


@dataclass
class SyntheticGrid(Grid):
    """A grid publishing explicit in-memory datasets (tests/benches).

    Same wiring as :class:`TestGrid` — UDDI registry, one site per
    member, a federation endpoint — but every member is an
    :class:`repro.mapping.memory.InMemoryWrapper`, so tests control the
    exact Performance Results (and therefore the exact statistics) each
    member publishes.
    """


def build_synthetic_grid(
    wrappers: dict[str, object], environment: GridEnvironment | None = None
) -> SyntheticGrid:
    """Publish *wrappers* (app name -> ApplicationWrapper) as a grid.

    Each member gets its own site container (``<name>.mem.pdx.edu``),
    all published under one UDDI organization; call
    ``deploy_federation()`` on the result to query them federatedly.
    Pass a pre-built *environment* to control the clock or transport
    (e.g. a :class:`~repro.simnet.transport.RecordingTransport` — it
    must be installed before any container binds, which this supports).
    """
    environment = environment or GridEnvironment()
    registry_container = environment.create_container("registry.mem.pdx.edu:9090")
    uddi_gsh = registry_container.deploy("services/uddi", UddiRegistryServer())
    uddi = UddiClient.connect(environment, uddi_gsh)
    org_key = uddi.publish_organization(
        "Synthetic Federation", "synthetic@pdx.edu", "explicit in-memory datasets"
    )
    grid = SyntheticGrid(
        environment=environment,
        uddi=uddi,
        uddi_gsh=uddi_gsh.url(),
        client=PPerfGridClient(environment, uddi_gsh.url()),
    )
    for index, (name, wrapper) in enumerate(sorted(wrappers.items())):
        site = PPerfGridSite(
            environment,
            SiteConfig(authority=f"mem{index}.pdx.edu:8080", app_name=name),
            wrapper,
        )
        site.publish(uddi, org_key, f"synthetic member {name}")
        grid.sites[name] = site
    return grid


def build_grid(
    scale: GridScale | None = None,
    *,
    caching: bool = True,
    timed_mapping: bool = True,
) -> TestGrid:
    """Build the standard three-source grid.

    ``caching=False`` gives every Execution instance a NullCache (the
    Table 4 / Table 5 "caching off" arm).
    """
    scale = scale or GridScale.paper()
    environment = GridEnvironment()
    registry_container = environment.create_container("registry.pdx.edu:9090")
    uddi_gsh = registry_container.deploy("services/uddi", UddiRegistryServer())
    uddi = UddiClient.connect(environment, uddi_gsh)
    org_key = uddi.publish_organization(
        "Portland State University", "pperfdb@cs.pdx.edu", "PPerfDB group test data"
    )

    cache_factory = UnboundedCache if caching else NullCache

    def config(authority: str, app: str) -> SiteConfig:
        return SiteConfig(
            authority=authority,
            app_name=app,
            timed_mapping=timed_mapping,
            cache_factory=cache_factory,
        )

    hpl_db = generate_hpl(seed=scale.seed, num_executions=scale.hpl_executions).to_database()
    hpl_site = PPerfGridSite(
        environment, config("hpl.pdx.edu:8080", "HPL"), HplRdbmsWrapper(hpl_db)
    )
    hpl_site.publish(uddi, org_key, "HPL runs in PostgreSQL-style RDBMS")

    smg_db = generate_smg98(
        seed=scale.seed + 1,
        num_executions=scale.smg98_executions,
        intervals_per_execution=scale.smg98_intervals,
        messages_per_execution=scale.smg98_messages,
    ).to_database()
    smg98_site = PPerfGridSite(
        environment, config("smg98.pdx.edu:8080", "SMG98"), Smg98RdbmsWrapper(smg_db)
    )
    smg98_site.publish(uddi, org_key, "SMG98 Vampir trace, 5-table RDBMS")

    tempdir = tempfile.TemporaryDirectory(prefix="pperfgrid-presta-")
    presta = generate_presta(seed=scale.seed + 2, num_executions=scale.presta_executions)
    presta.write_files(tempdir.name)
    presta_site = PPerfGridSite(
        environment,
        config("presta.pdx.edu:8080", "PRESTA-RMA"),
        PrestaTextWrapper(TextFileStore(tempdir.name)),
    )
    presta_site.publish(uddi, org_key, "PRESTA RMA flat ASCII text files")

    client = PPerfGridClient(environment, uddi_gsh.url())
    grid = TestGrid(
        environment=environment,
        uddi=uddi,
        uddi_gsh=uddi_gsh.url(),
        hpl_site=hpl_site,
        smg98_site=smg98_site,
        presta_site=presta_site,
        client=client,
        scale=scale,
        _tempdir=tempdir,
    )
    grid.sites = {"HPL": hpl_site, "SMG98": smg98_site, "PRESTA-RMA": presta_site}
    return grid
