"""Semantic-layer data model and PortType definitions (Tables 1 and 2).

The thesis's wire conventions are preserved exactly:

* ``getAppInfo`` / ``getInfo`` return ``"name|value"`` strings;
* ``getExecQueryParams`` returns ``"name|v1|v2|..."`` strings;
* ``getAllExecs`` / ``getExecs`` return GSH strings;
* ``getPR`` returns Performance Results as strings, and the PR cache is
  keyed by a ``"metric | foci | type | start-end"`` parameter string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from repro.ogsi.porttypes import (
    GRID_SERVICE_PORTTYPE,
    NOTIFICATION_SOURCE_PORTTYPE,
)
from repro.wsdl.porttype import Operation, Parameter, PortType

PPERFGRID_NS = "http://pperfgrid.cs.pdx.edu/2004"

#: the thesis's placeholder when a query does not constrain the tool type
UNDEFINED_TYPE = "UNDEFINED"


@dataclass(frozen=True)
class PerformanceResult:
    """One performance measurement: one metric, one focus, one time span.

    ``type`` names the measurement tool that collected the data (e.g.
    ``"vampir"``, ``"hpl"``, ``"presta"``).
    """

    metric: str
    focus: str
    result_type: str
    start: float
    end: float
    value: float

    def pack(self) -> str:
        """Wire form: ``metric|focus|type|start-end|value``.

        Times are rendered fixed-point (they are offsets), so the span
        round-trips unambiguously: it is cut at the first ``-`` after its
        first character (:func:`_span`), a start of ``-0.0`` keeping its
        sign.
        """
        return (
            f"{self.metric}|{self.focus}|{self.result_type}|"
            f"{self.start:.9f}-{self.end:.9f}|{self.value!r}"
        )

    @staticmethod
    def unpack(text: str) -> "PerformanceResult":
        parts = text.split("|")
        if len(parts) != 5:
            raise ValueError(f"bad PerformanceResult record {text!r}")
        metric, focus, result_type, span, value = parts
        start_text, end_text = _span(span)
        try:
            return PerformanceResult(
                metric=metric,
                focus=focus,
                result_type=result_type,
                start=float(start_text),
                end=float(end_text),
                value=float(value),
            )
        except ValueError as exc:
            raise ValueError(f"bad PerformanceResult record {text!r}: {exc}") from exc


def _span(span: str) -> tuple[str, str]:
    """A ``start-end`` span's two texts, cut at the ``-`` after its first
    character."""
    cut = span.find("-", 1)
    if cut < 0:
        raise ValueError(f"bad time span {span!r}")
    return span[:cut], span[cut + 1:]


def pr_cache_key(metric: str, foci: list[str], start: str, end: str, result_type: str) -> str:
    """The thesis's cache-key format (§5.3.2.3)."""
    return f"{metric} | {';'.join(foci)} | {result_type} | {start}-{end}"


def ordering_key(value: object) -> tuple[int, float, str]:
    """Numeric-aware, type-stable sort key for one cell value.

    This is the canonical total order every deterministic result
    ordering in the system derives from: the federated bulk merge sorts
    whole rows by it, and streaming cursors sort server-side by it so a
    streamed answer's member runs arrive in the bulk ordering byte for
    byte.  Numbers order by value, then NaN, then non-numeric text by
    code point.  The last element is the cell's text — ``repr`` of a
    float, ``str`` of an int, a text as it is — so a float and its
    rendered token key alike, and it decides only what the number ties:
    ``01`` before ``1`` before ``1.0``, ``-0.0`` before ``0.0``, ``NaN``
    before ``nan``.  Two cells tie only when they render alike, so an
    answer is a function of its rows, never of the order they arrived in.
    """
    if isinstance(value, float):
        return (0, value, repr(value)) if value == value else (1, 0.0, "nan")
    if isinstance(value, int):
        return (0, float(value), str(value))
    return _text_key(str(value))


@lru_cache(maxsize=1024)
def _text_key(text: str) -> tuple[int, float, str]:
    """:func:`ordering_key` of a text cell.  Result columns repeat a
    handful of texts (app, metric, focus, type) on every row; the memo
    keeps each from re-entering ``float()`` — and the non-numeric ones
    from raising — for every row of every sort."""
    try:
        number = float(text)
    except ValueError:
        return (2, 0.0, text)
    return (0, number, text) if number == number else (1, 0.0, text)


def pr_sort_key(result: "PerformanceResult") -> tuple:
    """Canonical order of Performance Results within one (execution,
    metric) stream: the per-cell :func:`ordering_key` over the packed
    fields, matching the column order of a federated raw result row."""
    return (
        ordering_key(result.focus),
        ordering_key(result.result_type),
        ordering_key(result.start),
        ordering_key(result.end),
        ordering_key(result.value),
    )


def column_keys(column: Sequence) -> Sequence:
    """Sort keys for the cells of one single-typed column that order
    exactly as their :func:`ordering_key` does.  A float column is its
    own key unless it holds a NaN or a -0.0 (:func:`_orders_by_value`);
    a text column keys each cell on the rank of its distinct texts (each
    classified once); any other column is its cells' keys."""
    if column and isinstance(column[0], str):
        ranks = {cell: rank for rank, cell in enumerate(sorted(set(column), key=ordering_key))}
        return list(map(ranks.__getitem__, column))
    if column and isinstance(column[0], float) and _orders_by_value(column):
        return column
    return list(map(ordering_key, column))


def _orders_by_value(column: Sequence[float]) -> bool:
    """Whether a float column orders by value as by :func:`ordering_key`:
    it holds no NaN, which compares false both ways (a sum that is a
    number proves none; ``inf`` beside ``-inf`` takes the safe answer),
    and no -0.0, which equals 0.0 (each zero found by ``index``, then its
    sign read) — both scans at C speed."""
    total = sum(column)
    if total != total:
        return False
    i = -1
    try:
        while True:
            i = column.index(0.0, i + 1)
            if math.copysign(1.0, column[i]) < 0:
                return False
    except ValueError:
        return True


class ResultColumns:
    """Performance Results held column by column: what a raw ``getPR``
    answer decodes to without one object per row.  ``start``, ``end`` and
    ``value`` hold numbers, the other columns text; iterating yields
    :class:`PerformanceResult` objects, the per-row fallback."""

    def __init__(self, metric, focus, result_type, start, end, value) -> None:
        self.metric, self.focus, self.result_type = metric, focus, result_type
        self.start, self.end, self.value = start, end, value

    @classmethod
    def of(cls, results: Iterable[PerformanceResult]) -> "ResultColumns":
        """*results* transposed, once."""
        rows = [(r.metric, r.focus, r.result_type, r.start, r.end, r.value) for r in results]
        return cls(*[list(column) for column in zip(*rows)] or [[] for _ in range(6)])

    @classmethod
    def unpack(cls, fields: Sequence[Sequence[str]]) -> "ResultColumns":
        """From the packed records' five fields as columns (metric, focus,
        type, ``start-end`` span, value), each read as
        :meth:`PerformanceResult.unpack` reads it (``ValueError`` alike)."""
        metric, focus, result_type, spans, values = fields
        starts, ends = zip(*map(_span, spans)) if spans else ((), ())
        return cls(list(metric), list(focus), list(result_type),
                   list(map(float, starts)), list(map(float, ends)), list(map(float, values)))

    def columns(self) -> tuple[list, ...]:
        return (self.metric, self.focus, self.result_type, self.start, self.end, self.value)

    def __len__(self) -> int:
        return len(self.value)

    def __iter__(self) -> Iterator[PerformanceResult]:
        return map(PerformanceResult, *self.columns())

    def take(self, rows: Sequence[int]) -> "ResultColumns":
        """The rows at positions *rows*, in that order."""
        return ResultColumns(*([column[i] for i in rows] for column in self.columns()))

    def order(self) -> list[int]:
        """The row positions in :func:`pr_sort_key` order (stable)."""
        keys = list(zip(*map(column_keys, self.columns()[1:])))
        return sorted(range(len(keys)), key=keys.__getitem__)

    def sort(self) -> None:
        """Reorder the rows, stably, into :func:`pr_sort_key` order."""
        (self.metric, self.focus, self.result_type,
         self.start, self.end, self.value) = self.take(self.order()).columns()


@dataclass(frozen=True)
class AggregateRecord:
    """One server-side aggregation bucket (the ``getPRAgg`` wire unit).

    Instead of shipping every Performance Result to the client, a store
    can reduce them to combinable accumulator fields: ``count``, ``total``,
    ``minimum``, ``maximum``.  Any of count/sum/mean/min/max can be
    recovered from these after merging buckets across executions, which
    is what makes partial aggregation at the store safe.  ``group`` is
    the bucket key (``""`` for a global aggregate, a focus path when
    grouping by focus).
    """

    group: str
    count: int
    total: float
    minimum: float
    maximum: float

    def pack(self) -> str:
        """Wire form: ``group|count|total|min|max`` (group has no '|')."""
        return (
            f"{self.group}|{self.count}|{self.total!r}|"
            f"{self.minimum!r}|{self.maximum!r}"
        )

    @staticmethod
    def unpack(text: str) -> "AggregateRecord":
        parts = text.split("|")
        if len(parts) != 5:
            raise ValueError(f"bad AggregateRecord {text!r}")
        group, count, total, minimum, maximum = parts
        try:
            return AggregateRecord(
                group=group,
                count=int(count),
                total=float(total),
                minimum=float(minimum),
                maximum=float(maximum),
            )
        except ValueError as exc:
            raise ValueError(f"bad AggregateRecord {text!r}: {exc}") from exc


@dataclass(frozen=True)
class MetricStats:
    """Per-metric store statistics (the ``getStats`` wire unit).

    Soundness contract (the planner skips members based on these, so the
    bounds must be conservative):

    * ``rows`` may be an estimate, EXCEPT that ``rows == 0`` must be
      exact — a zero row count is a proof that ``getPR`` for this metric
      returns nothing.
    * ``[minimum, maximum]`` must be a superset of every value ``getPR``
      can ever return for this metric (including derived values such as
      per-focus sums); widening is safe, narrowing is not.
    """

    metric: str
    rows: int
    minimum: float
    maximum: float

    def pack(self) -> str:
        """Wire form: ``metric|name|rows|min|max``."""
        return f"metric|{self.metric}|{self.rows}|{self.minimum!r}|{self.maximum!r}"


# A MetricSketch rides the ``getStats`` wire path as an extra StoreStats
# record: one metric's exact whole-store summary, the global ``getPRAgg``
# bucket the store would answer.  A wrapper may emit one only when it was
# built from a *complete scan* of the metric's rows over all foci and the
# full time window (the row set ``getPR`` with no constraints returns):
# that exactness contract lets tier 0 answer whole sub-queries from the
# summary alone (repro.fedquery.sketch).


@dataclass(frozen=True)
class MetricSketch:
    """One metric's exact whole-store summary.

    ``count``/``total``/``minimum``/``maximum`` are exact over the
    metric's full row set (the builder contract): the four fields of the
    global ``getPRAgg`` bucket the store would answer for it.
    """

    metric: str
    count: int
    total: float
    minimum: float
    maximum: float

    @classmethod
    def from_values(cls, metric: str, values: list[float]) -> "MetricSketch":
        """The summary of a complete scan of the metric's values."""
        if not values:
            return cls(metric, 0, 0.0, 0.0, 0.0)
        return cls(metric, len(values), math.fsum(values), min(values), max(values))

    @classmethod
    def merge(cls, parts: list["MetricSketch"]) -> "MetricSketch":
        """The summary of disjoint row sets' union: counts and totals
        add, extrema take the min and max — exact, like its parts."""
        name = parts[0].metric if parts else ""
        live = [part for part in parts if part.count > 0]
        if not live:
            return cls(name, 0, 0.0, 0.0, 0.0)
        return cls(
            name,
            sum(part.count for part in live),
            math.fsum(part.total for part in live),
            min(part.minimum for part in live),
            max(part.maximum for part in live),
        )

    def record(self) -> AggregateRecord:
        """The summary as the store's global ``getPRAgg`` bucket."""
        return AggregateRecord("", self.count, self.total, self.minimum, self.maximum)

    def pack(self) -> str:
        """Wire form: ``sketch|metric|count|total|min|max``."""
        return (
            f"sketch|{self.metric}|{self.count}|{self.total!r}|"
            f"{self.minimum!r}|{self.maximum!r}"
        )

    @staticmethod
    def unpack(rest: str) -> "MetricSketch":
        parts = rest.split("|")
        if len(parts) != 5:
            raise ValueError(f"bad MetricSketch record {rest!r}")
        metric, count, total, minimum, maximum = parts
        return MetricSketch(metric, int(count), float(total), float(minimum), float(maximum))


def sketches_from_values(values: dict[str, list[float]]) -> tuple[MetricSketch, ...]:
    """One exact sketch per metric from complete per-metric value scans."""
    return tuple(
        MetricSketch.from_values(metric, metric_values)
        for metric, metric_values in sorted(values.items())
    )


@dataclass(frozen=True)
class StoreStats:
    """Statistics describing one store (execution- or application-level).

    Published by ``getStats`` / the ``storeStats`` SDE so the federated
    query planner can cost and, when provable, skip members.  The same
    conservativeness contract as :class:`MetricStats` applies:

    * ``foci`` and ``types`` must be complete (supersets are fine);
    * ``start``/``end`` describe time coverage but are *estimates only* —
      some stores ignore the time window in ``getPR``, so the planner
      never skips on the window;
    * ``complete=False`` marks stats that do not honour the contract;
      the planner then uses them for cost estimates only, never proofs.

    ``sketches`` carry optional mergeable :class:`MetricSketch`
    summaries riding the same wire records.  A sketch is a *stronger*
    promise than its ``MetricStats`` row: a store may only publish one
    built from a complete scan of the metric's rows (all foci, full
    window), because the tier-0 planner answers aggregates from it
    without touching the store.  Stores that cannot scan cheaply simply
    omit sketches and the planner falls back to push-down for them.
    """

    executions: int
    start: float
    end: float
    foci: tuple[str, ...]
    types: tuple[str, ...]
    metrics: tuple[MetricStats, ...]
    complete: bool = True
    sketches: tuple[MetricSketch, ...] = ()

    @classmethod
    def scanned(
        cls,
        executions: int,
        start: float,
        end: float,
        foci,
        types,
        values: dict[str, list[float]],
    ) -> "StoreStats":
        """Stats from a store's complete per-metric value scan.

        *values* maps each metric, in the store's own metric order, to
        every value ``get_pr`` returns for it over all foci and the full
        window.  Each metric's sketch is built from those values and its
        ``MetricStats`` row (rows, min, max) is read off that sketch, so
        the row and the sketch cannot disagree.
        """
        sketches = sketches_from_values(values)
        by_metric = {sketch.metric: sketch for sketch in sketches}
        in_store_order = [by_metric[metric] for metric in values]
        return cls(
            executions=executions,
            start=start,
            end=end,
            foci=tuple(foci),
            types=tuple(types),
            metrics=tuple(
                MetricStats(sketch.metric, sketch.count, sketch.minimum, sketch.maximum)
                for sketch in in_store_order
            ),
            sketches=sketches,
        )

    def metric(self, name: str) -> MetricStats | None:
        for stats in self.metrics:
            if stats.metric == name:
                return stats
        return None

    def sketch(self, name: str):
        for sketch in self.sketches:
            if sketch.metric == name:
                return sketch
        return None

    def pack_records(self) -> list[str]:
        """Wire form: one ``kind|...`` record per line of the stats."""
        records = [
            f"executions|{self.executions}",
            f"time|{self.start:.9f}|{self.end:.9f}",
            "foci|" + "|".join(self.foci),
            "types|" + "|".join(self.types),
            f"complete|{1 if self.complete else 0}",
        ]
        records.extend(stats.pack() for stats in self.metrics)
        records.extend(sketch.pack() for sketch in self.sketches)
        return records

    @staticmethod
    def unpack_records(records: list[str]) -> "StoreStats":
        executions = 0
        start, end = 0.0, 0.0
        foci: tuple[str, ...] = ()
        types: tuple[str, ...] = ()
        metrics: list[MetricStats] = []
        complete = True
        sketches: list[MetricSketch] = []
        for record in records:
            kind, _, rest = record.partition("|")
            try:
                if kind == "executions":
                    executions = int(rest)
                elif kind == "time":
                    start_text, _, end_text = rest.partition("|")
                    start, end = float(start_text), float(end_text)
                elif kind == "foci":
                    foci = tuple(part for part in rest.split("|") if part)
                elif kind == "types":
                    types = tuple(part for part in rest.split("|") if part)
                elif kind == "complete":
                    complete = rest.strip() not in ("0", "")
                elif kind == "metric":
                    name, rows, minimum, maximum = rest.split("|")
                    metrics.append(
                        MetricStats(
                            metric=name,
                            rows=int(rows),
                            minimum=float(minimum),
                            maximum=float(maximum),
                        )
                    )
                elif kind == "sketch":
                    sketches.append(MetricSketch.unpack(rest))
                else:
                    raise ValueError(f"unknown stats record kind {kind!r}")
            except ValueError as exc:
                raise ValueError(f"bad StoreStats record {record!r}: {exc}") from exc
        return StoreStats(
            executions=executions,
            start=start,
            end=end,
            foci=foci,
            types=types,
            metrics=tuple(metrics),
            complete=complete,
            sketches=tuple(sketches),
        )

    @classmethod
    def merge(cls, parts: list["StoreStats"]) -> "StoreStats":
        """Combine per-execution stats into application-level stats.

        Counts add; time/value ranges and foci/types union; the merge is
        ``complete`` only if every part is.  A metric keeps a merged
        sketch only when *every* part reporting rows for it carries one
        — a partial sketch would silently undercount, and tier-0 treats
        a present sketch as the metric's complete row set.
        """
        if not parts:
            return cls(0, 0.0, 0.0, (), (), ())
        foci: list[str] = []
        types: list[str] = []
        by_metric: dict[str, MetricStats] = {}
        for part in parts:
            for focus in part.foci:
                if focus not in foci:
                    foci.append(focus)
            for type_name in part.types:
                if type_name not in types:
                    types.append(type_name)
            for stats in part.metrics:
                seen = by_metric.get(stats.metric)
                if seen is None:
                    by_metric[stats.metric] = stats
                elif stats.rows:
                    if not seen.rows:
                        by_metric[stats.metric] = stats
                    else:
                        by_metric[stats.metric] = MetricStats(
                            metric=stats.metric,
                            rows=seen.rows + stats.rows,
                            minimum=min(seen.minimum, stats.minimum),
                            maximum=max(seen.maximum, stats.maximum),
                        )
                # stats.rows == 0 contributes nothing: keep the seen entry.
        sketches: list[MetricSketch] = []
        for name in by_metric:
            live = [
                part for part in parts
                if (entry := part.metric(name)) is not None and entry.rows
            ]
            part_sketches = [part.sketch(name) for part in live]
            if live and all(sketch is not None for sketch in part_sketches):
                sketches.append(MetricSketch.merge(part_sketches))
        spanned = [part for part in parts if part.executions]
        return cls(
            executions=sum(part.executions for part in parts),
            start=min((part.start for part in spanned), default=0.0),
            end=max((part.end for part in spanned), default=0.0),
            foci=tuple(foci),
            types=tuple(types),
            metrics=tuple(by_metric.values()),
            complete=all(part.complete for part in parts),
            sketches=tuple(sketches),
        )


def pr_agg_cache_key(
    metric: str,
    foci: list[str],
    start: str,
    end: str,
    result_type: str,
    min_value: str,
    max_value: str,
    group_by: str,
) -> str:
    """Cache key for server-side aggregate queries (distinct key space)."""
    base = pr_cache_key(metric, foci, start, end, result_type)
    return f"agg: {base} | {min_value},{max_value} | {group_by}"


APPLICATION_PORTTYPE = PortType(
    name="Application",
    namespace=PPERFGRID_NS,
    doc="A program for which performance data is stored (thesis Table 1).",
    operations=(
        Operation(
            "getAppInfo",
            (),
            "xsd:string[]",
            doc=(
                "Returns general information about the application, possibly "
                "including application name, version, etc. Returns an array of "
                "string values, each element of which should contain a name and "
                "a value delimited by the '|' character."
            ),
        ),
        Operation(
            "getNumExecs",
            (),
            "xsd:int",
            doc=(
                "Returns the number of unique executions available for the "
                "application as an integer."
            ),
        ),
        Operation(
            "getExecQueryParams",
            (),
            "xsd:string[]",
            doc=(
                "Returns a list of attributes that describe executions, "
                "arguments or run data, for example. Each attribute has "
                "associated with it a set of values, representing all unique "
                "possible values for that attribute. Returns an array of string "
                "values, each element of which should contain a name and a set "
                "of values delimited by the '|' character."
            ),
        ),
        Operation(
            "getAllExecs",
            (),
            "xsd:string[]",
            doc=(
                "Returns an array of Grid Service Handles (GSHs) representing "
                "an Execution service instance for each unique execution "
                "record. Returns an array of string values, each element of "
                "which should be a properly formatted GSH."
            ),
        ),
        Operation(
            "getExecs",
            (
                Parameter("attribute", "xsd:string"),
                Parameter("value", "xsd:string"),
            ),
            "xsd:string[]",
            doc=(
                "Returns an array of Grid Service Handles (GSHs) representing "
                "an Execution service instance for each execution record "
                "matching the attribute and value passed as parameters. Returns "
                "an array of string values, each element of which should be a "
                "properly formatted GSH."
            ),
        ),
        # Extension beyond Table 1 (OBSERVER-style operator queries, §2.2.3).
        Operation(
            "getExecsOp",
            (
                Parameter("attribute", "xsd:string"),
                Parameter("value", "xsd:string"),
                Parameter("operator", "xsd:string"),
            ),
            "xsd:string[]",
            doc=(
                "Extension: like getExecs but with a comparison operator "
                "(=, !=, <, <=, >, >=) applied to the attribute value."
            ),
        ),
        # Extension beyond Table 1: store statistics for the cost-based
        # federated query planner.
        Operation(
            "getStats",
            (),
            "xsd:string[]",
            doc=(
                "Extension: returns store statistics for the application's "
                "executions — execution count, per-metric row counts and "
                "value ranges, focus cardinality, and time-window coverage "
                "— as packed StoreStats records, plus per-metric exact "
                "summaries.  Used by the federated query cost model to "
                "choose raw/aggregate/skip per member and by the tier-0 "
                "planner to answer aggregates with zero round-trips."
            ),
        ),
    ),
    extends=(GRID_SERVICE_PORTTYPE,),
)

EXECUTION_PORTTYPE = PortType(
    name="Execution",
    namespace=PPERFGRID_NS,
    doc="A single run of an Application (thesis Table 2).",
    operations=(
        Operation(
            "getInfo",
            (),
            "xsd:string[]",
            doc=(
                "Returns general information about the Execution. Returns an "
                "array of string values, each element of which should contain "
                "a name and a value delimited by the '|' character."
            ),
        ),
        Operation(
            "getFoci",
            (),
            "xsd:string[]",
            doc=(
                "Returns a list of all possible unique focus values for the "
                "Execution (no duplicates) as an array of strings. Foci refer "
                "to the nodes of the resource hierarchy (e.g. /Process/27 or "
                "/Code/MPI/MPI_Comm_rank)."
            ),
        ),
        Operation(
            "getMetrics",
            (),
            "xsd:string[]",
            doc=(
                "Returns a list of all possible unique metric values for the "
                "Execution (no duplicates) as an array of strings. Metric "
                "refers to the measurements recorded in the dataset (e.g. "
                "func_calls, msg_deliv_time)."
            ),
        ),
        Operation(
            "getTypes",
            (),
            "xsd:string[]",
            doc=(
                "Returns a list of all possible unique type values for the "
                "Execution (no duplicates) as an array of strings. Type refers "
                "to the performance tool used to collect the data."
            ),
        ),
        Operation(
            "getTimeStartEnd",
            (),
            "xsd:string[]",
            doc=(
                "Returns a list of two values, the first representing the "
                "start time of the Execution and the second representing the "
                "end time of the Execution, as an array of strings."
            ),
        ),
        Operation(
            "getPR",
            (
                Parameter("metric", "xsd:string"),
                Parameter("foci", "xsd:string[]"),
                Parameter("startTime", "xsd:string"),
                Parameter("endTime", "xsd:string"),
                Parameter("resultType", "xsd:string"),
            ),
            "xsd:string[]",
            doc=(
                "Returns a list of Performance Results that meet the criteria "
                "given by the parameter values as an array of strings."
            ),
        ),
        # Extension beyond Table 2: server-side aggregation for the
        # federated query planner — predicates and GROUP BY are pushed
        # down to the store so only accumulator buckets cross the wire.
        Operation(
            "getPRAgg",
            (
                Parameter("metric", "xsd:string"),
                Parameter("foci", "xsd:string[]"),
                Parameter("startTime", "xsd:string"),
                Parameter("endTime", "xsd:string"),
                Parameter("resultType", "xsd:string"),
                Parameter("minValue", "xsd:string"),
                Parameter("maxValue", "xsd:string"),
                Parameter("groupBy", "xsd:string"),
            ),
            "xsd:string[]",
            doc=(
                "Extension: like getPR, but the store reduces matching "
                "Performance Results to combinable aggregation buckets "
                "(count/total/min/max), optionally filtered by a value "
                "range and grouped by focus.  RDBMS-backed stores answer "
                "with real SQL WHERE/GROUP BY; others aggregate in the "
                "Mapping Layer.  Returns packed AggregateRecord strings."
            ),
        ),
        # Extension beyond Table 2: chunked result transfer — instead of
        # one bulk SOAP array, the service deploys a transient
        # ResultCursor instance and the client drains it at its own pace.
        Operation(
            "getPRChunked",
            (
                Parameter("metric", "xsd:string"),
                Parameter("foci", "xsd:string[]"),
                Parameter("startTime", "xsd:string"),
                Parameter("endTime", "xsd:string"),
                Parameter("resultType", "xsd:string"),
                Parameter("ordered", "xsd:boolean"),
            ),
            "xsd:string",
            doc=(
                "Extension: like getPR, but instead of returning the "
                "whole result set, deploys a transient ResultCursor "
                "service over it and returns the cursor's GSH.  The "
                "client pages through the results with next(maxRows) / "
                "close(); abandoned cursors expire by TTL.  With "
                "ordered=true the rows stream in the canonical "
                "(focus, type, start, end, value) order, so per-stream "
                "merges reproduce bulk ordering exactly; unordered "
                "cursors stream lazily in store order with O(chunk) "
                "server memory."
            ),
        ),
        # Extension beyond Table 2: the registry-callback query model the
        # thesis proposes in §7 to replace per-call client threads.
        Operation(
            "getPRAsync",
            (
                Parameter("metric", "xsd:string"),
                Parameter("foci", "xsd:string[]"),
                Parameter("startTime", "xsd:string"),
                Parameter("endTime", "xsd:string"),
                Parameter("resultType", "xsd:string"),
                Parameter("sinkHandle", "xsd:string"),
            ),
            "xsd:string",
            doc=(
                "Extension: like getPR, but results are delivered to the "
                "given NotificationSink instead of being returned; the "
                "call returns a query id immediately (the 'registry-"
                "callback model' of future-work section 7)."
            ),
        ),
        # Extension beyond Table 2: per-execution store statistics for
        # the cost-based federated query planner.
        Operation(
            "getStats",
            (),
            "xsd:string[]",
            doc=(
                "Extension: returns store statistics for this execution — "
                "per-metric row counts and conservative value ranges, foci, "
                "types, and time coverage — as packed StoreStats records, "
                "plus optional mergeable sketches for tier-0 answers."
            ),
        ),
    ),
    extends=(GRID_SERVICE_PORTTYPE, NOTIFICATION_SOURCE_PORTTYPE),
)

MANAGER_PORTTYPE = PortType(
    name="Manager",
    namespace=PPERFGRID_NS,
    doc=(
        "Internal (non-transient) Grid service caching Execution service "
        "instances and distributing their creation across replica hosts "
        "(thesis §5.3.1.4)."
    ),
    operations=(
        Operation(
            "getExecs",
            (Parameter("keys", "xsd:string[]"),),
            "xsd:string[]",
            doc=(
                "Return one Execution-instance GSH per unique execution ID, "
                "creating instances through the replica Execution Factories on "
                "cache misses."
            ),
        ),
    ),
    extends=(GRID_SERVICE_PORTTYPE,),
)


def application_porttype_table() -> list[tuple[str, str]]:
    """Rows of thesis Table 1: (Operation, Operation Semantics)."""
    return [(op.name, op.doc) for op in APPLICATION_PORTTYPE.operations]


def execution_porttype_table() -> list[tuple[str, str]]:
    """Rows of thesis Table 2: (Operation, Operation Semantics)."""
    return [(op.name, op.doc) for op in EXECUTION_PORTTYPE.operations]
