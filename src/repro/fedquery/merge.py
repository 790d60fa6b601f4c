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


# ---------------------------------------------------- approximate answers

#: wire marker for per-row error-bound records appended after packed rows
#: (unambiguous: a packed ResultRow's first field always contains ``=``
#: before any ``|``, so it can never start with this prefix)
BOUNDS_PREFIX = "@bounds|"


def pack_bounds(error_bounds: list[dict[str, tuple[float, float]]]) -> list[str]:
    """Bounds wire records: ``@bounds|row_index|label|lo|hi`` per cell."""
    records: list[str] = []
    for index, bounds in enumerate(error_bounds):
        for label, (low, high) in sorted(bounds.items()):
            records.append(f"{BOUNDS_PREFIX}{index}|{label}|{low!r}|{high!r}")
    return records


def split_bounds(
    packed: list[str],
) -> tuple[list[str], list[dict[str, tuple[float, float]]]]:
    """Separate packed rows from trailing ``@bounds`` records.

    Returns the row strings and one bounds dict per row (empty dict =
    every cell exact), in row order.
    """
    rows = [entry for entry in packed if not entry.startswith(BOUNDS_PREFIX)]
    bounds: list[dict[str, tuple[float, float]]] = [{} for _ in rows]
    for entry in packed:
        if not entry.startswith(BOUNDS_PREFIX):
            continue
        parts = entry.split("|")
        if len(parts) != 5:
            raise ValueError(f"bad bounds record {entry!r}")
        _, index_text, label, low, high = parts
        index = int(index_text)
        if not 0 <= index < len(rows):
            raise ValueError(f"bounds record {entry!r} references no row")
        bounds[index][label] = (float(low), float(high))
    return rows, bounds


class _IntervalCell:
    """Interval accumulator for one (group, metric) approximate cell.

    Mirrors :class:`Accumulator`, but every component is an interval:
    exact contributions (fan-out members) add zero-width, tier-0 sketch
    estimates add their :class:`~repro.fedquery.sketch.WindowEstimate`
    bounds.  Count and sum intervals add across members (sums of sound
    intervals stay sound); the value envelope and the exact extrema
    combine by min/max.
    """

    __slots__ = (
        "count_est", "count_lo", "count_hi",
        "sum_est", "sum_lo", "sum_hi",
        "value_lo", "value_hi", "minimum", "maximum", "touched",
    )

    def __init__(self) -> None:
        self.count_est = 0.0
        self.count_lo = 0.0
        self.count_hi = 0.0
        self.sum_est = 0.0
        self.sum_lo = 0.0
        self.sum_hi = 0.0
        self.value_lo = 0.0
        self.value_hi = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self.touched = False

    def _widen_envelope(self, low: float, high: float) -> None:
        if not self.touched:
            self.value_lo, self.value_hi = low, high
            self.touched = True
        else:
            self.value_lo = min(self.value_lo, low)
            self.value_hi = max(self.value_hi, high)

    def add_estimate(self, est) -> None:
        """Fold one member's WindowEstimate in."""
        if est.count_hi <= 0.0:
            return
        self.count_est += est.count_est
        self.count_lo += est.count_lo
        self.count_hi += est.count_hi
        self.sum_est += est.sum_est
        self.sum_lo += est.sum_lo
        self.sum_hi += est.sum_hi
        self._widen_envelope(est.value_lo, est.value_hi)
        if est.min_exact is not None and (
            self.minimum is None or est.min_exact < self.minimum
        ):
            self.minimum = est.min_exact
        if est.max_exact is not None and (
            self.maximum is None or est.max_exact > self.maximum
        ):
            self.maximum = est.max_exact

    def add_accumulator(self, acc: Accumulator) -> None:
        """Fold one member's exact accumulator in (zero-width)."""
        if acc.count <= 0:
            return
        count = float(acc.count)
        self.count_est += count
        self.count_lo += count
        self.count_hi += count
        self.sum_est += acc.total
        self.sum_lo += acc.total
        self.sum_hi += acc.total
        self._widen_envelope(acc.minimum, acc.maximum)
        if self.minimum is None or acc.minimum < self.minimum:
            self.minimum = acc.minimum
        if self.maximum is None or acc.maximum > self.maximum:
            self.maximum = acc.maximum

    @property
    def present(self) -> bool:
        """Does this metric's estimate keep the group in the output?
        Mirrors the exact merger's rule (count > 0) on the estimate."""
        return round(self.count_est) >= 1

    def cell(self, func: str) -> tuple[object, tuple[float, float]]:
        """(value, (lo, hi)) for one aggregate cell."""
        if func == "count":
            return int(round(self.count_est)), (self.count_lo, self.count_hi)
        if func == "sum":
            return self.sum_est, (self.sum_lo, self.sum_hi)
        if func == "mean":
            mean = self.sum_est / self.count_est
            low, high = self.value_lo, self.value_hi
            if self.count_lo >= 1.0:
                corners = [
                    self.sum_lo / self.count_lo, self.sum_lo / self.count_hi,
                    self.sum_hi / self.count_lo, self.sum_hi / self.count_hi,
                ]
                low = max(low, min(corners))
                high = min(high, max(corners))
                if low > high:  # float-drift guard
                    low, high = min(corners), max(corners)
            mean = max(low, min(mean, high))
            return mean, (low, high)
        if func == "min":
            assert self.minimum is not None
            return self.minimum, (self.minimum, self.minimum)
        if func == "max":
            assert self.maximum is not None
            return self.maximum, (self.maximum, self.maximum)
        raise QueryError(f"unknown aggregate function {func!r}")


class BoundsTracker:
    """Approximate-answer assembly for tier-0-capable aggregate plans.

    Collects tier-0 :class:`~repro.fedquery.sketch.WindowEstimate`
    partials and exact fan-out accumulators per (group, metric), then
    materializes rows with per-cell ``(lo, hi)`` error bounds.  Only
    used when the planner proved the query shape tier-0 eligible, so
    group keys are at most ``(app,)``.
    """

    def __init__(self, query: Query) -> None:
        self.query = query
        self._cells: dict[tuple[str, ...], dict[str, _IntervalCell]] = {}

    def _cell(self, key: tuple[str, ...], metric: str) -> _IntervalCell:
        metrics = self._cells.setdefault(key, {})
        cell = metrics.get(metric)
        if cell is None:
            cell = metrics[metric] = _IntervalCell()
        return cell

    def _key(self, app: str) -> tuple[str, ...]:
        return tuple(app if name == "app" else "" for name in self.query.group_by)

    def add_estimates(self, app: str, partials: tuple) -> None:
        """One tier-0 member's (metric, WindowEstimate) partials."""
        key = self._key(app)
        for metric, est in partials:
            self._cell(key, metric).add_estimate(est)

    def add_groups(
        self, groups: dict[tuple[str, ...], dict[str, Accumulator]]
    ) -> None:
        """Exact accumulators from the fan-out members' merger."""
        for key, metrics in groups.items():
            for metric, acc in metrics.items():
                self._cell(key, metric).add_accumulator(acc)

    def rows(self) -> tuple[list[ResultRow], dict[tuple[str, ...], dict[str, tuple[float, float]]]]:
        """(unordered rows, per-group per-label bounds).

        A group emits only when every selected metric's estimated count
        is at least one — the estimate-side mirror of the exact merger's
        all-metrics-present rule."""
        columns = self.query.output_columns
        out: list[ResultRow] = []
        bounds_by_key: dict[tuple[str, ...], dict[str, tuple[float, float]]] = {}
        for key, metrics in self._cells.items():
            values: list[object] = list(key)
            bounds: dict[str, tuple[float, float]] = {}
            complete = True
            for item in self.query.aggregates:
                cell = metrics.get(item.metric)
                if cell is None or not cell.present:
                    complete = False
                    break
                value, (low, high) = cell.cell(item.func)
                values.append(value)
                if low != high:
                    bounds[item.label] = (low, high)
            if complete:
                out.append(ResultRow(columns, tuple(values)))
                bounds_by_key[key] = bounds
        return out, bounds_by_key
