"""Site deployment helper: wire one published dataset end to end.

A "site" in the thesis is an organization publishing one Application
dataset: a container on some host runs an Application Factory, an
Execution Factory, and the (internal) Manager; the factory URL is
published to the UDDI registry.  :class:`PPerfGridSite` performs that
wiring, including replica Execution Factories on additional hosts for
the scalability experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.application import ApplicationService
from repro.core.execution import ExecutionService
from repro.core.manager import ManagerService
from repro.core.prcache import PrCache, default_pr_cache
from repro.mapping.base import ApplicationWrapper, TimedExecutionWrapper
from repro.ogsi.container import GridEnvironment, ServiceContainer
from repro.ogsi.factory import FactoryService
from repro.ogsi.gsh import GridServiceHandle
from repro.simnet.host import SimHost
from repro.uddi.proxy import UddiClient

#: builds a fresh PR cache per Execution instance
CacheFactory = Callable[[], PrCache]


@dataclass
class SiteConfig:
    """Configuration for one site."""

    authority: str  # e.g. "siteA:8080"
    app_name: str  # e.g. "HPL"
    #: relative lifetime granted to created instances (None = immortal)
    instance_lifetime: float | None = None
    #: whether Mapping-Layer getPR calls are timed into the recorder
    timed_mapping: bool = True
    cache_factory: CacheFactory = field(default=default_pr_cache)


class PPerfGridSite:
    """One deployed dataset: factories + Manager on one (or more) hosts."""

    def __init__(
        self,
        environment: GridEnvironment,
        config: SiteConfig,
        wrapper: ApplicationWrapper,
        host: SimHost | None = None,
    ) -> None:
        self.environment = environment
        self.config = config
        self.wrapper = wrapper
        container = environment.container_for(config.authority)
        self.container: ServiceContainer = container or environment.create_container(
            config.authority, host=host
        )
        base = f"services/{config.app_name}"

        self.execution_factory = FactoryService(
            self._execution_builder(self.wrapper),
            instance_lifetime=config.instance_lifetime,
        )
        self.execution_factory_gsh = self.container.deploy(
            f"{base}/ExecutionFactory", self.execution_factory
        )

        self.manager = ManagerService([self.execution_factory_gsh.url()])
        self.manager_gsh = self.container.deploy(f"{base}/Manager", self.manager)

        self.application_factory = FactoryService(
            self._application_builder(),
            instance_lifetime=config.instance_lifetime,
        )
        self.application_factory_gsh = self.container.deploy(
            f"{base}/ApplicationFactory", self.application_factory
        )
        self.replica_containers: list[ServiceContainer] = []

    # ------------------------------------------------------------ builders
    def _execution_builder(self, wrapper: ApplicationWrapper):
        def build(params: list[str]) -> ExecutionService:
            if not params:
                raise ValueError("Execution factory needs the execution id")
            exec_id = params[0]
            exec_wrapper = wrapper.execution(exec_id)
            if self.config.timed_mapping:
                exec_wrapper = TimedExecutionWrapper(exec_wrapper, self.environment.recorder)
            return ExecutionService(exec_wrapper, exec_id, cache=self.config.cache_factory())

        return build

    def _application_builder(self):
        def build(params: list[str]) -> ApplicationService:
            return ApplicationService(self.wrapper, self.manager_gsh.url())

        return build

    # ------------------------------------------------------------ replicas
    def add_replica(
        self,
        authority: str,
        host: SimHost | None = None,
        wrapper: ApplicationWrapper | None = None,
    ) -> GridServiceHandle:
        """Deploy a replica Execution Factory on another host.

        ``wrapper`` defaults to the site's wrapper (a replicated data
        store would normally have its own wrapper over the local copy;
        passing one models that).
        """
        container = self.environment.container_for(authority)
        if container is None:
            container = self.environment.create_container(authority, host=host)
        self.replica_containers.append(container)
        replica_factory = FactoryService(
            self._execution_builder(wrapper or self.wrapper),
            instance_lifetime=self.config.instance_lifetime,
        )
        suffix = len(self.replica_containers)
        gsh = container.deploy(
            f"services/{self.config.app_name}/ExecutionFactory-replica{suffix}",
            replica_factory,
        )
        self.manager.add_replica(gsh.url())
        return gsh

    # ---------------------------------------------------------- publishing
    def publish(self, uddi: UddiClient, org_key: str, description: str = "") -> str:
        """Publish this site's Application factory to the UDDI registry."""
        return uddi.publish_service(
            org_key,
            self.config.app_name,
            self.application_factory_gsh.url(),
            description or f"{self.config.app_name} performance data at {self.config.authority}",
        )

    @property
    def factory_url(self) -> str:
        return self.application_factory_gsh.url()
