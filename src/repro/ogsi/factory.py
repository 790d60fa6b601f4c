"""The Factory PortType.

A Factory is a persistent (non-transient) Grid service that creates
transient service instances on demand.  In PPerfGrid, each published
Application dataset deploys an Application Factory and an Execution
Factory; instances are created when clients (or the Manager) call
``CreateService`` — "creation of a Grid service instance is a relatively
expensive operation" (§5.3.1.4), which this reproduction preserves by
routing creation through the full container path.
"""

from __future__ import annotations

from typing import Callable

from repro.ogsi.porttypes import FACTORY_PORTTYPE
from repro.ogsi.service import GridServiceBase

#: builds a fresh (undeployed) service instance from creation parameters
InstanceBuilder = Callable[[list[str]], GridServiceBase]


class FactoryService(GridServiceBase):
    """A Factory that delegates instance construction to a builder callable.

    ``instance_lifetime``: default relative lifetime (seconds) granted to
    created instances; ``None`` means no expiry.  The created instance is
    deployed into the factory's own container under
    ``<factory-path>/instances/<n>``.
    """

    porttype = FACTORY_PORTTYPE

    def __init__(
        self,
        builder: InstanceBuilder,
        instance_lifetime: float | None = None,
    ) -> None:
        super().__init__()
        self.builder = builder
        self.instance_lifetime = instance_lifetime
        self.created_count = 0

    def on_deployed(self, container, gsh) -> None:
        super().on_deployed(container, gsh)
        self.service_data.set("instancesCreated", lambda: str(self.created_count))

    def CreateService(self, creationParameters: list[str]) -> str:
        """Create one instance; returns its GSH as a string."""
        self.require_active()
        if self.container is None or self.gsh is None:
            raise RuntimeError("factory is not deployed")
        instance = self.builder(list(creationParameters or []))
        gsh = self.container.deploy_instance(self.gsh.path, instance)
        if self.instance_lifetime is not None:
            instance.termination_time = self.container.clock.now() + self.instance_lifetime
        self.created_count += 1
        return gsh.url()
