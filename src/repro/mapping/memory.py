"""In-memory wrapper: explicit synthetic datasets for tests and benches.

Unlike the store-backed wrappers, the dataset is handed in as plain
Python objects, so tests can build federations with precisely known
contents (row counts, value ranges, foci) and check the cost model's
estimates against exact ground truth.  ``get_stats`` here is exact by
construction, and the backing lists are mutable so coherence tests can
grow a store and fire ``data_updated``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.semantic import (
    UNDEFINED_TYPE,
    PerformanceResult,
    StoreStats,
)
from repro.mapping.base import (
    ApplicationWrapper,
    ExecutionWrapper,
    MappingError,
    compare_attribute,
)


@dataclass
class InMemoryExecution:
    """One synthetic execution: attributes plus its Performance Results."""

    exec_id: str
    attrs: dict[str, str] = field(default_factory=dict)
    results: list[PerformanceResult] = field(default_factory=list)

    def time_span(self) -> tuple[float, float]:
        if not self.results:
            return (0.0, 0.0)
        return (
            min(result.start for result in self.results),
            max(result.end for result in self.results),
        )


class InMemoryWrapper(ApplicationWrapper):
    """Table 1 semantics over a list of :class:`InMemoryExecution`."""

    def __init__(
        self,
        name: str,
        executions: list[InMemoryExecution],
        result_type: str = "synthetic",
        description: str = "synthetic in-memory dataset",
    ) -> None:
        self.name = name
        self.executions_data = executions
        self.result_type = result_type
        self.description = description

    def _by_id(self) -> dict[str, InMemoryExecution]:
        return {execution.exec_id: execution for execution in self.executions_data}

    def get_app_info(self) -> list[tuple[str, str]]:
        return [
            ("name", self.name),
            ("description", self.description),
            ("executions", str(len(self.executions_data))),
        ]

    def get_exec_query_params(self) -> dict[str, list[str]]:
        values: dict[str, set[str]] = {}
        for execution in self.executions_data:
            for attr, value in execution.attrs.items():
                values.setdefault(attr, set()).add(value)
        return {attr: sorted(vals) for attr, vals in sorted(values.items())}

    def get_all_exec_ids(self) -> list[str]:
        return [execution.exec_id for execution in self.executions_data]

    def get_exec_ids(self, attribute: str, value: str, operator: str = "=") -> list[str]:
        self.check_operator(operator)
        attr = attribute.lower()
        out = []
        for execution in self.executions_data:
            if attr == "execid":
                stored: str | None = execution.exec_id
            else:
                stored = execution.attrs.get(attr)
            if stored is not None and compare_attribute(stored, value, operator):
                out.append(execution.exec_id)
        return out

    def execution(self, exec_id: str) -> "InMemoryExecutionWrapper":
        execution = self._by_id().get(exec_id)
        if execution is None:
            raise MappingError(f"no {self.name} execution {exec_id!r}")
        return InMemoryExecutionWrapper(execution)

    def get_stats(self) -> StoreStats:
        return StoreStats.merge(
            [_memory_stats(execution) for execution in self.executions_data]
        )


def _memory_stats(execution: InMemoryExecution) -> StoreStats:
    """Exact stats straight off the result list.

    The result list *is* the complete row set, so the per-metric
    sketches honour the tier-0 exactness contract by construction.
    """
    values: dict[str, list[float]] = {}
    foci: list[str] = []
    types: list[str] = []
    for result in execution.results:
        values.setdefault(result.metric, []).append(result.value)
        if result.focus not in foci:
            foci.append(result.focus)
        if result.result_type not in types:
            types.append(result.result_type)
    start, end = execution.time_span()
    return StoreStats.scanned(
        1,
        start,
        end,
        sorted(foci),
        sorted(types),
        dict(sorted(values.items())),
    )


class InMemoryExecutionWrapper(ExecutionWrapper):
    """Table 2 semantics over one :class:`InMemoryExecution`."""

    def __init__(self, execution: InMemoryExecution) -> None:
        self.data = execution

    def get_info(self) -> list[tuple[str, str]]:
        pairs = [("execid", self.data.exec_id)]
        pairs.extend(sorted(self.data.attrs.items()))
        return pairs

    def get_foci(self) -> list[str]:
        return sorted({result.focus for result in self.data.results})

    def get_metrics(self) -> list[str]:
        return sorted({result.metric for result in self.data.results})

    def get_types(self) -> list[str]:
        return sorted({result.result_type for result in self.data.results})

    def get_time_start_end(self) -> tuple[float, float]:
        return self.data.time_span()

    def get_pr(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
    ) -> list[PerformanceResult]:
        wanted = set(foci)
        return [
            result
            for result in self.data.results
            if result.metric == metric
            and result.focus in wanted
            and result.start >= start
            and result.end <= end
            and result_type in (UNDEFINED_TYPE, "", result.result_type)
        ]

    def iter_pr(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
    ) -> Iterator[PerformanceResult]:
        # Same filter as get_pr, but yielded row by row: an unordered
        # streaming cursor over a large synthetic store never holds more
        # than the chunk in flight.
        wanted = set(foci)
        for result in self.data.results:
            if (
                result.metric == metric
                and result.focus in wanted
                and result.start >= start
                and result.end <= end
                and result_type in (UNDEFINED_TYPE, "", result.result_type)
            ):
                yield result

    def get_stats(self) -> StoreStats:
        return _memory_stats(self.data)
