"""Streaming merge of per-execution partial results.

Sub-query payloads arrive from the fan-out in completion order; the
merger folds each into per-group accumulators immediately (aggregate
queries) or appends projected rows (raw queries), so memory stays
proportional to the *output*, not to the number of executions touched.

count/sum/mean/min/max are all recoverable from the combinable
(count, total, min, max) accumulator, which is what makes partial
aggregation at the stores safe to merge here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from repro.core.semantic import AggregateRecord, PerformanceResult, ordering_key
from repro.fedquery.ast import Query, QueryError
from repro.fedquery.pushdown import matches_value

#: raw-mode output columns, in order
RAW_COLUMNS = ("app", "exec", "metric", "focus", "type", "start", "end", "value")

#: columns parsed back as floats when unpacking
_FLOAT_COLUMNS = frozenset({"start", "end", "value"})


@dataclass(frozen=True)
class ResultRow:
    """One output row: parallel (columns, values) tuples.

    Values are strings for group keys / identity columns and numbers for
    measurements and aggregates, so rows survive a ``pack``/``unpack``
    round trip through the SOAP string array unchanged.
    """

    columns: tuple[str, ...]
    values: tuple[object, ...]
    #: the wire form, once rendered (or the text this row was parsed
    #: from): every consumer of one row's text shares one render
    _packed: str | None = field(default=None, compare=False, repr=False)

    def as_dict(self) -> dict[str, object]:
        return dict(zip(self.columns, self.values))

    def __getitem__(self, column: str) -> object:
        try:
            return self.values[self.columns.index(column)]
        except ValueError as exc:
            raise KeyError(column) from exc

    def pack(self) -> str:
        """Wire form: ``col=value|col=value|...`` (floats via repr)."""
        packed = self._packed
        if packed is None:
            packed = _render(self.columns, self.values)
            object.__setattr__(self, "_packed", packed)
        return packed

    @staticmethod
    def unpack(text: str) -> "ResultRow":
        columns: list[str] = []
        values: list[object] = []
        for part in text.split("|"):
            column, sep, rendered = part.partition("=")
            if not sep:
                raise ValueError(f"bad ResultRow field {part!r} in {text!r}")
            columns.append(column)
            values.append(_parse_value(column, rendered))
        return ResultRow(tuple(columns), tuple(values), text)

    @staticmethod
    def unpacker() -> Callable[[str], "ResultRow"]:
        """An :meth:`unpack` for a run of rows that remembers the last
        row's shape: a row with the same column names is read by one
        compiled pattern and reuses the column tuple and the numeric
        columns' converters, instead of re-deriving each cell's type
        from its column name.  Anything else — a new shape, a malformed
        field — goes through :meth:`unpack` itself, which then raises
        or sets the shape to remember.
        """
        columns: tuple[str, ...] = ()
        match = re.compile("(?!)").fullmatch  # no shape yet: matches nothing
        numeric: list[tuple[int, type]] = []  # (position, int | float)

        def unpack(text: str) -> ResultRow:
            nonlocal columns, match, numeric
            found = match(text)
            if found is None:
                row = ResultRow.unpack(text)
                columns = row.columns
                # exactly what unpack accepts for these columns: as many
                # '|'-separated fields, each opening with its "column="
                match = re.compile(
                    r"\|".join(f"{re.escape(column)}=([^|]*)" for column in columns)
                ).fullmatch
                numeric = [
                    (position, type(value))
                    for position, value in enumerate(row.values)
                    if not isinstance(value, str)
                ]
                return row
            values: list[object] = list(found.groups())
            for position, convert in numeric:
                values[position] = convert(values[position])
            return ResultRow(columns, tuple(values), text)

        return unpack


def _render(columns: tuple[str, ...], values: tuple[object, ...]) -> str:
    """The one place a row becomes text (``ResultRow.pack`` memoises it)."""
    return "|".join(
        [
            f"{column}={value!r}" if isinstance(value, float) else f"{column}={value}"
            for column, value in zip(columns, values)
        ]
    )


def _parse_value(column: str, rendered: str) -> object:
    if column.startswith("count("):
        return int(rendered)
    if column in _FLOAT_COLUMNS or "(" in column:
        return float(rendered)
    return rendered


def raw_row(app: str, exec_id: str, result: PerformanceResult) -> ResultRow:
    """Project one Performance Result onto the raw-mode output columns."""
    return ResultRow(
        RAW_COLUMNS,
        (
            app,
            exec_id,
            result.metric,
            result.focus,
            result.result_type,
            result.start,
            result.end,
            result.value,
        ),
    )


class Accumulator:
    """Combinable partial aggregate for one (group, metric)."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = 0.0
        self.maximum = 0.0

    def add(self, value: float) -> None:
        if self.count == 0:
            self.minimum = value
            self.maximum = value
        else:
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
        self.count += 1
        self.total += value

    def absorb(self, record: "AggregateRecord | Accumulator") -> None:
        """Fold a getPRAgg bucket, or another accumulator (view re-merges), in."""
        if record.count <= 0:
            return
        if self.count == 0:
            self.minimum = record.minimum
            self.maximum = record.maximum
        else:
            if record.minimum < self.minimum:
                self.minimum = record.minimum
            if record.maximum > self.maximum:
                self.maximum = record.maximum
        self.count += record.count
        self.total += record.total

    def result(self, func: str) -> object:
        if func == "count":
            return self.count
        if func == "sum":
            return self.total
        if func == "mean":
            return self.total / self.count
        if func == "min":
            return self.minimum
        if func == "max":
            return self.maximum
        raise QueryError(f"unknown aggregate function {func!r}")


@dataclass(frozen=True)
class TaskContext:
    """Identity of the execution a payload came from."""

    app: str
    exec_id: str = ""
    info: dict[str, str] | None = None


class StreamingMerger:
    """Folds per-execution payloads into the final row set."""

    def __init__(self, query: Query) -> None:
        self.query = query
        #: group key tuple -> metric -> Accumulator
        self._groups: dict[tuple[str, ...], dict[str, Accumulator]] = {}
        self._raw_rows: list[ResultRow] = []

    # ------------------------------------------------------------ absorb
    def absorb(self, ctx: TaskContext, payloads) -> None:
        """Fold one execution's task result: ``(sub-query, records)``
        pairs, buckets or raw results by the sub-query's mode."""
        for sub, records in payloads:
            if sub.mode == "aggregate":
                self.absorb_aggregates(ctx, sub.metric, records)
            else:
                self.absorb_results(ctx, sub.metric, records)

    def absorb_aggregates(
        self, ctx: TaskContext, metric: str, records: list[AggregateRecord]
    ) -> None:
        """Fold getPRAgg buckets from one execution into the groups."""
        for record in records:
            if record.count <= 0:
                continue
            key = self._group_key(ctx, focus=record.group)
            if key is None:
                continue
            self._accumulator(key, metric).absorb(record)

    def absorb_results(
        self, ctx: TaskContext, metric: str, results: list[PerformanceResult]
    ) -> None:
        """Fold raw getPR rows: filter by value predicates, then reduce
        (aggregate query) or project (raw query)."""
        value_preds = self.query.predicates_on("value")
        if value_preds:
            results = [r for r in results if matches_value(r.value, value_preds)]
        if not self.query.is_aggregate:
            self._raw_rows.extend(
                [raw_row(ctx.app, ctx.exec_id, result) for result in results]
            )
            return
        for result in results:
            key = self._group_key(ctx, focus=result.focus)
            if key is not None:
                self._accumulator(key, metric).add(result.value)

    # -------------------------------------------------------------- keys
    def _group_key(self, ctx: TaskContext, focus: str) -> tuple[str, ...] | None:
        """The group tuple for one record (None drops the record —
        an execution lacking a grouping attribute contributes nothing)."""
        key: list[str] = []
        info = ctx.info or {}
        for name in self.query.group_by:
            if name == "app":
                key.append(ctx.app)
            elif name == "exec":
                key.append(ctx.exec_id)
            elif name == "focus":
                key.append(focus)
            else:
                stored = info.get(name)
                if stored is None:
                    return None
                key.append(stored)
        return tuple(key)

    def _accumulator(self, key: tuple[str, ...], metric: str) -> Accumulator:
        metrics = self._groups.get(key)
        if metrics is None:
            metrics = self._groups[key] = {}
        acc = metrics.get(metric)
        if acc is None:
            acc = metrics[metric] = Accumulator()
        return acc

    # ------------------------------------------------ partition snapshots
    def group_accumulators(self) -> dict[tuple[str, ...], dict[str, Accumulator]]:
        """Snapshot of the per-group accumulators.

        View maintenance keeps one snapshot per member execution and
        rebuilds the view output by re-merging all partitions — min/max
        are not invertible, so a refetch *replaces* a partition's snapshot
        instead of subtracting from a global state.
        """
        return {key: dict(metrics) for key, metrics in self._groups.items()}

    def absorb_groups(
        self, groups: dict[tuple[str, ...], dict[str, Accumulator]]
    ) -> None:
        """Fold another merger's group snapshot in (combinable merge)."""
        for key, metrics in groups.items():
            for metric, acc in metrics.items():
                self._accumulator(key, metric).absorb(acc)

    # ------------------------------------------------------------- output
    def rows(self) -> list[ResultRow]:
        """Materialize the (unordered) output rows."""
        if not self.query.is_aggregate:
            return list(self._raw_rows)
        columns = self.query.output_columns
        out: list[ResultRow] = []
        for key, metrics in self._groups.items():
            values: list[object] = list(key)
            complete = True
            for item in self.query.aggregates:
                acc = metrics.get(item.metric)
                if acc is None or acc.count == 0:
                    # a group never emits partial rows: it must have at
                    # least one matching result for every selected metric
                    complete = False
                    break
                values.append(acc.result(item.func))
            if complete:
                out.append(ResultRow(columns, tuple(values)))
        return out


def row_sort_key(row: ResultRow) -> tuple:
    """Whole-row canonical sort key (what :func:`order_rows` sorts by,
    and what the streaming k-way merge heaps member rows on).  The
    per-cell order lives in the semantic layer, so server-side cursor
    sorting (repro.core) and this client-side merge agree by construction."""
    return tuple(map(ordering_key, row.values))


def order_rows(rows: list[ResultRow], query: Query) -> list[ResultRow]:
    """Deterministic ordering + LIMIT.

    Rows are first sorted by every column (numeric-aware) so output is
    reproducible without an ORDER BY; an explicit ORDER BY then applies
    as the primary, stable key.
    """
    ordered = sorted(rows, key=row_sort_key)
    if query.order_by is not None:
        column = query.order_by
        ordered.sort(
            key=lambda r: ordering_key(r[column]), reverse=query.order_desc
        )
    if query.limit is not None:
        ordered = ordered[: query.limit]
    return ordered
