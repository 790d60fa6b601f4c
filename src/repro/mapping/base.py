"""Wrapper interfaces (the Mapping Layer contract).

``ApplicationWrapper`` mirrors Table 1, ``ExecutionWrapper`` mirrors
Table 2, both in native Python types; the Semantic Layer services do the
string packing/unpacking the wire format requires.

A wrapper object covers one *published dataset*; execution wrappers are
obtained per execution id via :meth:`ApplicationWrapper.execution`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator

from repro.core.semantic import (
    UNDEFINED_TYPE,
    AggregateRecord,
    PerformanceResult,
    StoreStats,
)
from repro.simnet.metrics import Recorder

#: comparison operators accepted by attribute queries
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")


class MappingError(ValueError):
    """Raised for unknown executions, attributes, metrics, or foci."""


class ApplicationWrapper(ABC):
    """Table 1 semantics against one data store."""

    #: the tool type of results in this store (e.g. "vampir")
    result_type: str = "unknown"

    @abstractmethod
    def get_app_info(self) -> list[tuple[str, str]]:
        """(name, value) pairs describing the application."""

    @abstractmethod
    def get_exec_query_params(self) -> dict[str, list[str]]:
        """attribute -> sorted unique values (as strings)."""

    @abstractmethod
    def get_all_exec_ids(self) -> list[str]:
        """Unique execution ids, sorted."""

    @abstractmethod
    def get_exec_ids(self, attribute: str, value: str, operator: str = "=") -> list[str]:
        """Execution ids whose *attribute* compares to *value*."""

    @abstractmethod
    def execution(self, exec_id: str) -> "ExecutionWrapper":
        """An execution wrapper for one id (raises MappingError if unknown)."""

    def get_num_execs(self) -> int:
        return len(self.get_all_exec_ids())

    def get_stats(self) -> StoreStats:
        """Application-level store statistics for the cost-based planner:
        per-metric row counts and ranges plus exact per-metric summaries.

        Generic fallback: merge per-execution stats.  Store-specific
        wrappers override this with one scan of the store's own rows,
        built through :meth:`StoreStats.scanned`; SMG98, whose values
        are derived, answers from SQL aggregates and publishes no
        sketch.  Overrides must honour the
        :class:`repro.core.semantic.StoreStats` soundness contract:
        ``rows == 0`` exact, value ranges conservative supersets, foci
        and types complete — or set ``complete=False``.
        """
        return StoreStats.merge(
            [self.execution(exec_id).get_stats() for exec_id in self.get_all_exec_ids()]
        )

    @staticmethod
    def check_operator(operator: str) -> None:
        if operator not in OPERATORS:
            raise MappingError(f"unsupported operator {operator!r} (use one of {OPERATORS})")


def compare_attribute(stored: str, value: str, operator: str) -> bool:
    """Attribute comparison: numeric when both sides parse as numbers."""
    try:
        a: float | str = float(stored)
        b: float | str = float(value)
    except ValueError:
        a, b = stored, value
    if operator == "=":
        return a == b
    if operator == "!=":
        return a != b
    if operator == "<":
        return a < b  # type: ignore[operator]
    if operator == "<=":
        return a <= b  # type: ignore[operator]
    if operator == ">":
        return a > b  # type: ignore[operator]
    if operator == ">=":
        return a >= b  # type: ignore[operator]
    raise MappingError(f"unsupported operator {operator!r}")


def reduce_results(
    results: Iterable[PerformanceResult],
    min_value: float | None,
    max_value: float | None,
    group_by: str,
) -> list[AggregateRecord]:
    """Fold *results*, in order, into value-filtered aggregate buckets:
    one bucket in all (``group_by == ""``) or one per result focus."""
    by_focus = group_by == "focus"
    return fold_values(
        ((result.focus if by_focus else "", result.value) for result in results),
        min_value, max_value,
    )


def fold_values(
    keyed: Iterable[tuple[str, float]], min_value: float | None, max_value: float | None
) -> list[AggregateRecord]:
    """Fold ``(group, value)`` pairs, in order, into value-filtered
    buckets; records come back sorted by group, non-empty groups only."""
    buckets: dict[str, list[float]] = {}
    for key, value in keyed:
        if min_value is not None and value < min_value:
            continue
        if max_value is not None and value > max_value:
            continue
        acc = buckets.get(key)
        if acc is None:
            buckets[key] = [1.0, value, value, value]
        else:
            acc[0] += 1.0
            acc[1] += value
            if value < acc[2]:
                acc[2] = value
            if value > acc[3]:
                acc[3] = value
    return [
        AggregateRecord(key, int(acc[0]), acc[1], acc[2], acc[3])
        for key, acc in sorted(buckets.items())
    ]


class ExecutionWrapper(ABC):
    """Table 2 semantics for one execution of one data store."""

    @abstractmethod
    def get_info(self) -> list[tuple[str, str]]:
        """(name, value) pairs describing the execution."""

    @abstractmethod
    def get_foci(self) -> list[str]:
        """All focus paths, sorted, no duplicates."""

    @abstractmethod
    def get_metrics(self) -> list[str]:
        """All metric names, sorted, no duplicates."""

    @abstractmethod
    def get_types(self) -> list[str]:
        """All tool types present, sorted, no duplicates."""

    @abstractmethod
    def get_time_start_end(self) -> tuple[float, float]:
        """(start, end) of the execution."""

    @abstractmethod
    def get_pr(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
    ) -> list[PerformanceResult]:
        """Performance Results matching the tuple (thesis §5.3.2.2).

        ``result_type`` of ``"UNDEFINED"`` matches any tool type.
        """

    def iter_pr(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
    ) -> Iterator[PerformanceResult]:
        """Incremental form of :meth:`get_pr`, for streaming cursors.

        Generic fallback: materializes :meth:`get_pr` and yields from it
        — correct everywhere, lazy nowhere.  Wrappers whose stores can
        scan incrementally override this so an unordered cursor holds
        O(1) rows server-side; the yielded order must match ``get_pr``.
        """
        yield from self.get_pr(metric, foci, start, end, result_type)

    def get_pr_aggregate(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
        min_value: float | None = None,
        max_value: float | None = None,
        group_by: str = "",
    ) -> list[AggregateRecord]:
        """Aggregate matching Performance Results at the store.

        Generic fallback: evaluates :meth:`get_pr` and reduces the rows
        in the Mapping Layer — still server-side, so only accumulator
        buckets cross the Services Layer.  RDBMS wrappers override this
        with real SQL ``WHERE``/``GROUP BY`` push-down.

        ``min_value``/``max_value`` filter rows by value (inclusive);
        ``group_by`` is ``""`` (one global bucket) or ``"focus"`` (one
        bucket per result focus).  Buckets are only emitted for non-empty
        groups — a query matching nothing returns no records.
        """
        if group_by not in ("", "focus"):
            raise MappingError(f"unsupported aggregate group_by {group_by!r}")
        return reduce_results(
            self.get_pr(metric, foci, start, end, result_type), min_value, max_value, group_by
        )

    def get_stats(self) -> StoreStats:
        """Store statistics for this execution (cost-based planner input).

        Generic fallback: exact by construction — it runs :meth:`get_pr`
        per metric over all foci and the full time window, and
        :meth:`StoreStats.scanned` counts what comes back, so the
        :class:`repro.core.semantic.StoreStats` soundness contract holds
        trivially and the same complete scan feeds the tier-0 sketches.
        Store wrappers override this with one scan of their own rows
        (one ``SELECT``, one file parse), or, for SMG98's derived
        values, with SQL aggregates and no sketch.
        """
        foci = self.get_foci()
        start, end = self.get_time_start_end()
        return StoreStats.scanned(
            1,
            start,
            end,
            foci,
            self.get_types(),
            {
                metric: [
                    result.value
                    for result in self.get_pr(metric, foci, 0.0, 1e30, UNDEFINED_TYPE)
                ]
                for metric in self.get_metrics()
            },
        )


class TimedExecutionWrapper(ExecutionWrapper):
    """Decorator recording Mapping-Layer query time into a recorder.

    This is the instrumentation point of the Table 4 experiment: "The
    Mapping Layer class call to getPR was timed to measure elapsed time
    for the local ... queries necessary to produce one Performance
    Result."
    """

    def __init__(self, inner: ExecutionWrapper, recorder: Recorder, timer_name: str = "mapping.getPR") -> None:
        self.inner = inner
        self.recorder = recorder
        self.timer_name = timer_name

    def get_info(self) -> list[tuple[str, str]]:
        return self.inner.get_info()

    def get_foci(self) -> list[str]:
        return self.inner.get_foci()

    def get_metrics(self) -> list[str]:
        return self.inner.get_metrics()

    def get_types(self) -> list[str]:
        return self.inner.get_types()

    def get_time_start_end(self) -> tuple[float, float]:
        return self.inner.get_time_start_end()

    def get_pr(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
    ) -> list[PerformanceResult]:
        with self.recorder.time(self.timer_name):
            return self.inner.get_pr(metric, foci, start, end, result_type)

    def iter_pr(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
    ) -> Iterator[PerformanceResult]:
        # Forward so the inner wrapper's lazy scan (if any) is used; the
        # timer covers iterator construction only — per-row draining is
        # client-paced and would misattribute wire wait to the store.
        with self.recorder.time(f"{self.timer_name}.iter"):
            return self.inner.iter_pr(metric, foci, start, end, result_type)

    def get_pr_aggregate(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
        min_value: float | None = None,
        max_value: float | None = None,
        group_by: str = "",
    ) -> list[AggregateRecord]:
        # Forward to the inner wrapper so its SQL push-down (if any) is
        # used; inheriting the default would silently aggregate in Python.
        with self.recorder.time(f"{self.timer_name}.agg"):
            return self.inner.get_pr_aggregate(
                metric, foci, start, end, result_type, min_value, max_value, group_by
            )

    def get_stats(self) -> StoreStats:
        # Forward so the inner wrapper's cheap native stats query (if
        # any) is used instead of the generic full-scan default.
        with self.recorder.time(f"{self.timer_name}.stats"):
            return self.inner.get_stats()
