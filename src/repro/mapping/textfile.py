"""Text-file wrapper: PRESTA RMA in flat ASCII files (thesis §5.1/§6.1).

Every ``get_pr`` re-parses the execution's file through the custom parser
— the Data-Layer cost Table 4 measures for RMA.  Header-only reads keep
attribute discovery cheap, as the thesis's Java parser did.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.semantic import (
    UNDEFINED_TYPE,
    PerformanceResult,
    StoreStats,
)
from repro.datastores.textfiles import TextFileStore, TextStoreError
from repro.mapping.base import (
    ApplicationWrapper,
    ExecutionWrapper,
    MappingError,
    compare_attribute,
)

_HEADER_TO_ATTR = {
    "rundate": "rundate",
    "numprocs": "numprocs",
    "tasks_per_node": "tasks_per_node",
    "network": "network",
}


class PrestaTextWrapper(ApplicationWrapper):
    """PRESTA RMA over a :class:`TextFileStore`."""

    result_type = "presta"
    ATTRIBUTES = ("rundate", "numprocs", "tasks_per_node", "network")
    METRICS = ("latency_us", "bandwidth_mbps")

    def __init__(self, store: TextFileStore) -> None:
        self.store = store

    def get_app_info(self) -> list[tuple[str, str]]:
        return [
            ("name", "PRESTA-RMA"),
            (
                "description",
                "PRESTA MPI Bandwidth and Latency Benchmark - MPI-2 RMA/one-sided "
                "operations (flat ASCII text files)",
            ),
            ("executions", str(len(self.store.execution_ids()))),
        ]

    def get_exec_query_params(self) -> dict[str, list[str]]:
        values: dict[str, set[str]] = {attr: set() for attr in self.ATTRIBUTES}
        for execid in self.store.execution_ids():
            header = self.store.load_header_only(execid)
            for key, attr in _HEADER_TO_ATTR.items():
                if key in header:
                    values[attr].add(header[key])
        return {attr: sorted(vals) for attr, vals in values.items()}

    def get_all_exec_ids(self) -> list[str]:
        return [str(i) for i in self.store.execution_ids()]

    def get_exec_ids(self, attribute: str, value: str, operator: str = "=") -> list[str]:
        self.check_operator(operator)
        attr = attribute.lower()
        if attr == "execid":
            return [
                str(i)
                for i in self.store.execution_ids()
                if compare_attribute(str(i), value, operator)
            ]
        if attr not in self.ATTRIBUTES:
            raise MappingError(f"unknown attribute {attribute!r} for PRESTA")
        out: list[str] = []
        for execid in self.store.execution_ids():
            header = self.store.load_header_only(execid)
            stored = header.get(attr)
            if stored is not None and compare_attribute(stored, value, operator):
                out.append(str(execid))
        return out

    def execution(self, exec_id: str) -> "PrestaTextExecutionWrapper":
        try:
            execid = int(exec_id)
        except ValueError as exc:
            raise MappingError(f"bad PRESTA execution id {exec_id!r}") from exc
        if not self.store.has_execution(execid):
            raise MappingError(f"no PRESTA execution {exec_id!r}")
        return PrestaTextExecutionWrapper(self.store, execid)

    def get_stats(self) -> StoreStats:
        """One parse per file (the cheapest this Data Layer offers)."""
        return StoreStats.merge(
            [_presta_text_stats(self.store, execid) for execid in self.store.execution_ids()]
        )


def _presta_text_stats(store: TextFileStore, execid: int) -> StoreStats:
    """Exact per-execution stats from one file parse.

    ``get_pr`` renders one result per measurement row per metric, so the
    row count is the measurement count and ranges are exact column
    min/max — and the measurement columns are the complete row sets the
    per-metric sketches require.  Stats foci are the query foci
    (``/Op/<op>``), matching ``get_foci``, not the per-msgsize result
    foci.
    """
    execution = store.load(execid)
    ops = sorted({row[0] for row in execution.measurements})
    return StoreStats.scanned(
        1,
        execution.start_time,
        execution.end_time,
        [f"/Op/{op}" for op in ops],
        (PrestaTextWrapper.result_type,),
        {
            "bandwidth_mbps": [float(row[4]) for row in execution.measurements],
            "latency_us": [float(row[3]) for row in execution.measurements],
        },
    )


class PrestaTextExecutionWrapper(ExecutionWrapper):
    """One PRESTA run; parses the text file on each data query."""

    def __init__(self, store: TextFileStore, execid: int) -> None:
        self.store = store
        self.execid = execid

    def get_info(self) -> list[tuple[str, str]]:
        header = self.store.load_header_only(self.execid)
        return [(key, value) for key, value in sorted(header.items())]

    def get_foci(self) -> list[str]:
        execution = self.store.load(self.execid)
        ops = sorted({m[0] for m in execution.measurements})
        return [f"/Op/{op}" for op in ops]

    def get_metrics(self) -> list[str]:
        return sorted(PrestaTextWrapper.METRICS)

    def get_types(self) -> list[str]:
        return [PrestaTextWrapper.result_type]

    def get_time_start_end(self) -> tuple[float, float]:
        header = self.store.load_header_only(self.execid)
        try:
            return (float(header["start"]), float(header["end"]))
        except (KeyError, ValueError) as exc:
            raise MappingError(f"execution {self.execid} has a bad time header") from exc

    def get_pr(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
    ) -> list[PerformanceResult]:
        if result_type not in (UNDEFINED_TYPE, "", PrestaTextWrapper.result_type):
            return []
        if metric not in PrestaTextWrapper.METRICS:
            raise MappingError(f"unknown PRESTA metric {metric!r}")
        try:
            execution = self.store.load(self.execid)  # the per-query parse
        except TextStoreError as exc:
            raise MappingError(str(exc)) from exc
        lo = max(execution.start_time, start)
        hi = execution.end_time if end <= 0 else min(execution.end_time, end)
        metric_index = 3 if metric == "latency_us" else 4
        results: list[PerformanceResult] = []
        for focus in foci:
            if not focus.startswith("/Op/"):
                raise MappingError(f"unknown PRESTA focus {focus!r}")
            op = focus[len("/Op/") :]
            for row in execution.measurements:
                if row[0] != op:
                    continue
                results.append(
                    PerformanceResult(
                        metric,
                        f"{focus}/msgsize/{row[1]}",
                        "presta",
                        lo,
                        hi,
                        float(row[metric_index]),
                    )
                )
        return results

    def iter_pr(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
    ) -> Iterator[PerformanceResult]:
        """Lazy variant of :meth:`get_pr`, identical filter and order.

        The file parse is unavoidable (the store is a flat ASCII file),
        but results are rendered per row instead of materialized, so a
        streaming cursor holds the parsed measurements plus one chunk —
        not a second full PerformanceResult list.
        """
        if result_type not in (UNDEFINED_TYPE, "", PrestaTextWrapper.result_type):
            return
        if metric not in PrestaTextWrapper.METRICS:
            raise MappingError(f"unknown PRESTA metric {metric!r}")
        try:
            execution = self.store.load(self.execid)
        except TextStoreError as exc:
            raise MappingError(str(exc)) from exc
        lo = max(execution.start_time, start)
        hi = execution.end_time if end <= 0 else min(execution.end_time, end)
        metric_index = 3 if metric == "latency_us" else 4
        for focus in foci:
            if not focus.startswith("/Op/"):
                raise MappingError(f"unknown PRESTA focus {focus!r}")
            op = focus[len("/Op/") :]
            for row in execution.measurements:
                if row[0] != op:
                    continue
                yield PerformanceResult(
                    metric,
                    f"{focus}/msgsize/{row[1]}",
                    "presta",
                    lo,
                    hi,
                    float(row[metric_index]),
                )

    def get_stats(self) -> StoreStats:
        """Per-execution stats from one file parse."""
        return _presta_text_stats(self.store, self.execid)
