"""Merging per-execution partial results into one answer.

Every answer is columns, ordered one way (:func:`answer_order`): the
canonical order — each column's :func:`~repro.core.semantic.column_keys`,
a row compared cell by cell — then ORDER BY as the primary, stable key,
then LIMIT.  Aggregate queries fold getPRAgg buckets, or a raw read's
``focus`` / ``value`` columns (a cursor's a chunk at a time), into
combinable (count, total, min, max) accumulators
(:class:`StreamingMerger`), whose complete groups become the answer's
columns.  A raw answer is *runs*, not rows: one execution's one
sub-query, as :class:`~repro.core.semantic.ResultColumns` less what the
value predicates drop, already in ``pr_sort_key`` order off the
execution's reader (:func:`execution_runs`).  The canonical order leads
with ``app``, ``exec`` and ``metric``, constant within a run and unique
to it, so the answer is the runs in key order, each passed through:
:func:`run_chunks`, pulled a chunk at a time by a stream and drained by
:func:`raw_answer`, which takes the canonical order as given.  An
answer leaves the merge as :func:`render`'s token columns, a numeric one
kept as its numbers behind its ``name=``; no :class:`ResultRow` is built
and no row text joined unless a caller asks (:func:`read_rows`).  The
naive oracle keeps its own row-at-a-time order
(``repro.fedquery.naive.order_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.semantic import AggregateRecord, ResultColumns, column_keys, ordering_key
from repro.fedquery.ast import Query, QueryError
from repro.fedquery.pushdown import matching_rows
from repro.soap.colbatch import DecodedBatch, number_column, split_rows

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

    def __init__(self, columns: tuple[str, ...], values: tuple[object, ...],
                 _packed: str | None = None) -> None:
        # one update, where the generated frozen __init__ calls object.__setattr__ thrice
        self.__dict__.update(columns=columns, values=values, _packed=_packed)

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
            values.append(_parser(column)(rendered))
        return ResultRow(tuple(columns), tuple(values), text)


def read_rows(answer: "DecodedBatch | Iterable[str]") -> Iterator[ResultRow]:
    """An answer's rows — a token-column batch, or row texts split into
    one — read a column at a time: a column is named by its first token,
    a text read once per distinct token and a number once per cell
    (:func:`_parser`) — a numeric column behind its ``name=`` not at all:
    its numbers are the cells.  A row keeps its text, or, when its cells
    render back to it (texts, and numbers whose text is their ``repr``),
    renders it only if asked (:meth:`ResultRow.pack`).  When a row is of
    another arity, or a token does not open with its column's ``name=``,
    holds a ``|`` or does not parse, every row is read (and rejected) by
    :meth:`ResultRow.unpack` instead."""
    texts = None if isinstance(answer, DecodedBatch) else list(answer)
    batch = answer if texts is None else split_rows(texts)
    if batch.exceptions:
        return map(ResultRow.unpack, batch.rows if texts is None else texts)
    names, cells, exact = [], [], True
    try:
        for index in range(batch.width):
            held = batch.numeric(index)
            prefix = held.prefix if held is not None and len(held.series) == 1 else ""
            (scale, numbers), = held.series if prefix else ((0, ()),)
            name, parse = prefix[:-1], _parser(prefix[:-1])
            if (prefix.find("=") == len(name) and "|" not in name
                    and (parse is float or parse is int and scale == 0)):
                names.append(name)
                cells.append(held.floats()[0] if parse is float else numbers)
                # the text of a number (and of an integer scale-1 literal) is its repr
                exact = exact and (scale is None or parse is int
                                   or scale == 1 and max(map(abs, numbers), default=0) < 10**15)
                continue
            column = batch.column(index)
            name, sep, _ = (column[0] if column else "").partition("=")
            parse = _parser(name)
            exact = exact and parse is str
            tokens = list(dict.fromkeys(column)) if parse is str else column
            # joined, each token holds one '|': the one opening it, before its name
            joined, opener = "|" + "|".join(tokens), "|" + name + "="
            if not (sep and joined.count("|") == len(tokens) == joined.count(opener)):
                raise ValueError(name)
            values = list(map(parse, joined.split(opener)[1:]))
            names.append(name)
            cells.append(map(dict(zip(tokens, values)).__getitem__, column)
                         if parse is str else values)
    except ValueError:
        return map(ResultRow.unpack, batch.rows if texts is None else texts)
    if exact and texts is None:
        return map(ResultRow, repeat(tuple(names)), zip(*cells))
    return map(ResultRow, repeat(tuple(names)), zip(*cells), batch.rows if texts is None else texts)


def _render(columns: tuple[str, ...], values: tuple[object, ...]) -> str:
    """The one place a row becomes text (``ResultRow.pack`` memoises it)."""
    return "|".join(
        [
            f"{column}={value!r}" if isinstance(value, float) else f"{column}={value}"
            for column, value in zip(columns, values)
        ]
    )


def _render_column(column: str, values: list):
    """:func:`_render` for one whole output column: floats alone, or ints
    alone, kept as numbers behind ``column=``
    (:func:`~repro.soap.colbatch.number_column`), rendered only when read;
    else each cell's ``column=value`` token, a text's once per distinct
    text."""
    prefix = column + "="
    numbers = number_column(prefix, values)
    if numbers is not None:
        return numbers
    if values and isinstance(values[0], str):
        tokens = {value: prefix + value for value in set(values)}
        return list(map(tokens.__getitem__, values))
    return list(map(prefix.__add__, map(repr, values)))


def render(columns: tuple[str, ...], values: list[list]) -> DecodedBatch:
    """An answer as wire tokens: *values*, one list per output column,
    each rendered once per column (:func:`_render`'s tokens) or kept as
    numbers.  A row's text is joined only when :attr:`DecodedBatch.rows`
    is read."""
    return DecodedBatch(len(values[0]), list(map(_render_column, columns, values)), {})


def _parser(column: str) -> Callable[[str], object]:
    """How a cell of *column* is read: ``int`` for a count, ``float`` for
    a measurement or another aggregate, ``str`` (as it is) otherwise."""
    if column.startswith("count("):
        return int
    if column in _FLOAT_COLUMNS or "(" in column:
        return float
    return str


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


def filter_values(results: ResultColumns, predicates) -> ResultColumns:
    """*results* less the rows the value *predicates* drop."""
    kept = matching_rows(results.value, predicates)
    return results if len(kept) == len(results) else results.take(kept)


def execution_runs(subqueries, reader: Iterator) -> list[tuple]:
    """One execution's runs for :func:`run_chunks`, off its *reader* —
    which yields the execution's :class:`TaskContext`, then each of
    *subqueries*' run a chunk at a time with a None ending it, pulled
    live or drained beforehand.  A run's key is the canonical order's
    leading cells, constant within it: ``app``, ``exec`` and ``metric``,
    unique to the run, since a member lists an execution id once and a
    query selects a metric once.  A reader that ends before its context
    has no runs."""
    ctx = next(reader, None)
    if ctx is None:
        return []
    head = (ordering_key(ctx.app), ordering_key(ctx.exec_id))
    return [
        ((*head, ordering_key(sub.metric)), ctx, iter(reader.__next__, None))
        for sub in subqueries
    ]


def run_chunks(runs: Iterable[tuple]) -> Iterator[list[list]]:
    """The rows of *runs* — ``(run_key, ctx, chunks)``, *chunks* iterating
    the run's columns in ``pr_sort_key`` order — in answer order, a chunk
    at a time, one list per :data:`RAW_COLUMNS` column: the runs in key
    order, each passed on chunk by chunk."""
    for _, ctx, chunks in sorted(runs, key=itemgetter(0)):
        for part in chunks:
            rows = len(part)
            yield [[ctx.app] * rows, [ctx.exec_id] * rows, *part.columns()]


def answer_order(
    values: list[Sequence], query: Query, canonical: bool = False
) -> Sequence[int] | None:
    """The positions of an answer's rows — *values*, one sequence per
    output column — in answer order, or None when that is the order they
    hold: the canonical order (each column's :func:`column_keys`, the row
    compared cell by cell; taken as given when the rows arrive
    *canonical*), then ORDER BY as the primary, stable key, then LIMIT."""
    order = None
    if not canonical:
        keys = list(zip(*map(column_keys, values)))
        order = sorted(range(len(keys)), key=keys.__getitem__)
    if query.order_by is not None:
        keys = column_keys(values[query.output_columns.index(query.order_by)])
        order = sorted(order or range(len(keys)), key=keys.__getitem__, reverse=query.order_desc)
    if query.limit is not None:
        order = (range(len(values[0])) if order is None else order)[: query.limit]
    return order


def raw_answer(chunks: Iterable[list[list]], query: Query, canonical: bool = True) -> list[list]:
    """*chunks* — :func:`run_chunks`', in canonical order unless not
    *canonical* — drained into one answer's columns, in
    :func:`answer_order`."""
    values: list[list] = [[] for _ in RAW_COLUMNS]
    for chunk in chunks:
        for out, column in zip(values, chunk):
            out.extend(column)
    order = answer_order(values, query, canonical)
    return values if order is None else [[column[i] for i in order] for column in values]


class StreamingMerger:
    """Folds per-execution aggregate payloads into the answer's groups."""

    def __init__(self, query: Query) -> None:
        self.query = query
        #: group key tuple -> metric -> Accumulator
        self._groups: dict[tuple[str, ...], dict[str, Accumulator]] = {}

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

    def absorb_results(self, ctx: TaskContext, metric: str, results: ResultColumns) -> None:
        """Fold raw getPR columns through the value predicates into the
        groups."""
        focus, value = results.focus, results.value
        for i in matching_rows(value, self.query.predicates_on("value")):
            key = self._group_key(ctx, focus=focus[i])
            if key is not None:
                self._accumulator(key, metric).add(value[i])

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
    def answer(self) -> DecodedBatch:
        """One row per complete group, as the answer's columns in answer
        order (:func:`answer_order`)."""
        items = self.query.aggregates
        rows = []
        for key, metrics in self._groups.items():
            accs = [metrics.get(item.metric) for item in items]
            # a group never emits partial rows: it must have at least one
            # matching result for every selected metric
            if all(acc is not None and acc.count for acc in accs):
                rows.append((*key, *(acc.result(item.func) for acc, item in zip(accs, items))))
        columns = self.query.output_columns
        values = list(map(list, zip(*rows))) or [[] for _ in columns]
        order = answer_order(values, self.query)
        return render(columns, [[column[i] for i in order] for column in values])
