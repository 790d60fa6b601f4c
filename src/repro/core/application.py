"""The Application Grid service (thesis §5.3.1, Table 1).

The Application instance answers metadata queries from its wrapper and
turns execution-record queries into Execution service instances by way
of the Manager (Figure 5's flow: wrapper -> Manager -> Execution
Factory -> GSHs back to the client).
"""

from __future__ import annotations

from repro.core.semantic import APPLICATION_PORTTYPE, MANAGER_PORTTYPE
from repro.mapping.base import ApplicationWrapper
from repro.ogsi.gsh import GridServiceHandle
from repro.ogsi.service import GridServiceBase


class ApplicationService(GridServiceBase):
    """One Application semantic object exposed as a Grid service."""

    porttype = APPLICATION_PORTTYPE

    def __init__(self, wrapper: ApplicationWrapper, manager_handle: str) -> None:
        super().__init__()
        self.wrapper = wrapper
        self.manager_handle = GridServiceHandle.parse(manager_handle)

    def on_deployed(self, container, gsh) -> None:
        super().on_deployed(container, gsh)
        self.service_data.set("appInfo", self.getAppInfo)

    def _manager_stub(self):
        if self.container is None:
            raise RuntimeError("Application service is not deployed")
        # The Manager is itself accessed as a Grid service (§5.3.1.4:
        # "Grid services need not be accessed only in the traditional
        # client-server model").
        return self.container.environment.stub_for_handle(
            self.manager_handle, MANAGER_PORTTYPE
        )

    # ----------------------------------------------- Table 1 operations
    def getAppInfo(self) -> list[str]:
        self.require_active()
        return [f"{name}|{value}" for name, value in self.wrapper.get_app_info()]

    def getNumExecs(self) -> int:
        self.require_active()
        return self.wrapper.get_num_execs()

    def getExecQueryParams(self) -> list[str]:
        self.require_active()
        params = self.wrapper.get_exec_query_params()
        return [f"{attr}|{'|'.join(values)}" for attr, values in sorted(params.items())]

    def getAllExecs(self) -> list[str]:
        self.require_active()
        keys = self.wrapper.get_all_exec_ids()
        return self._manager_stub().getExecs(keys)

    def getExecs(self, attribute: str, value: str) -> list[str]:
        self.require_active()
        keys = self.wrapper.get_exec_ids(attribute, value, "=")
        return self._manager_stub().getExecs(keys)

    def getExecsOp(self, attribute: str, value: str, operator: str) -> list[str]:
        """Extension: operator-qualified execution query (§2.2.3)."""
        self.require_active()
        keys = self.wrapper.get_exec_ids(attribute, value, operator or "=")
        return self._manager_stub().getExecs(keys)

    def getStats(self) -> list[str]:
        """Extension: application-wide store statistics (packed records).

        Computed on demand, not at deploy time: a Mapping Layer scans
        its rows once per call (a file parse per execution for text
        stores; SMG98 answers from SQL aggregates).  The first call also
        publishes the ``storeStats`` SDE, computed per read from then
        on, so FindServiceData clients see the same numbers.
        """
        self.require_active()
        if "storeStats" not in self.service_data:
            self.service_data.set("storeStats", self.getStats)
        return self.wrapper.get_stats().pack_records()
