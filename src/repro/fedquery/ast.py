"""Federated-query AST (``repro.fedquery``).

One :class:`Query` describes a declarative question over the whole
federation of published Applications:

.. code-block:: text

    SELECT mean(msg_deliv_time), count(msg_deliv_time)
    FROM SMG98
    WHERE numprocs >= 32 AND focus = '/Messages'
    GROUP BY numprocs

The planner decides *how* to answer it — which predicates push down to
the stores, which executions need to be touched, and what can be
aggregated before it crosses the wire.  See :mod:`repro.fedquery.parser`
for the concrete grammar.

Field vocabulary (predicates and group keys):

* ``app`` — the published Application name;
* ``exec`` — the unique execution id;
* ``focus`` / ``type`` / ``value`` / ``start`` / ``end`` — Performance
  Result coordinates (``focus`` predicates select the *query foci*
  passed to ``getPR``, matching thesis semantics);
* anything else — an execution attribute (``numprocs``, ``rundate``, …)
  as published by ``getExecQueryParams``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: aggregate functions of the query language
AGG_FUNCS = ("count", "sum", "mean", "min", "max")

#: fields with built-in meaning; all other fields are execution attributes
RESERVED_FIELDS = ("app", "exec", "focus", "type", "value", "start", "end")

#: comparison operators ("in" is spelled ``field IN (a, b, ...)``)
COMPARISONS = ("=", "!=", "<", "<=", ">", ">=", "in")

#: operators each reserved field accepts (attributes/exec accept all six)
_FIELD_OPS = {
    "app": ("=", "!=", "in"),
    "focus": ("=", "in"),
    "type": ("=",),
    "start": (">=",),
    "end": ("<=",),
    "value": ("=", "!=", "<", "<=", ">", ">="),
}

#: fields whose literals must be numeric
_NUMERIC_FIELDS = ("value", "start", "end")


class QueryError(ValueError):
    """Raised for malformed query text or semantically invalid queries."""


@dataclass(frozen=True)
class SelectItem:
    """One output column: a raw metric or an aggregate over it."""

    metric: str
    func: str | None = None  # None = raw projection

    @property
    def label(self) -> str:
        return self.metric if self.func is None else f"{self.func}({self.metric})"


@dataclass(frozen=True)
class Predicate:
    """One conjunct of the WHERE clause.

    ``value`` is the literal's source text (a tuple of texts for IN);
    stores interpret it with their own typing rules, exactly as the
    Table 1 ``getExecs`` operations do.
    """

    field: str
    op: str
    value: str | tuple[str, ...]

    def values(self) -> tuple[str, ...]:
        return self.value if isinstance(self.value, tuple) else (self.value,)

    def canonical(self) -> str:
        rendered = ",".join(sorted(self.values())) if self.op == "in" else self.value
        return f"{self.field} {self.op} {rendered}"


@dataclass(frozen=True)
class Query:
    """A validated federated query."""

    select: tuple[SelectItem, ...]
    sources: tuple[str, ...] = ()  # empty = every published Application
    where: tuple[Predicate, ...] = ()
    group_by: tuple[str, ...] = ()
    order_by: str | None = None
    order_desc: bool = False
    limit: int | None = None

    # --------------------------------------------------------- inspection
    @property
    def aggregates(self) -> tuple[SelectItem, ...]:
        return tuple(item for item in self.select if item.func is not None)

    @property
    def is_aggregate(self) -> bool:
        return bool(self.aggregates)

    @property
    def metrics(self) -> tuple[str, ...]:
        seen: list[str] = []
        for item in self.select:
            if item.metric not in seen:
                seen.append(item.metric)
        return tuple(seen)

    @property
    def output_columns(self) -> tuple[str, ...]:
        if self.is_aggregate:
            return self.group_by + tuple(item.label for item in self.select)
        return ("app", "exec", "metric", "focus", "type", "start", "end", "value")

    def predicates_on(self, field_name: str) -> tuple[Predicate, ...]:
        return tuple(p for p in self.where if p.field == field_name)

    def group_attributes(self) -> tuple[str, ...]:
        """Group keys that are execution attributes."""
        return tuple(k for k in self.group_by if k not in ("app", "exec", "focus"))

    # --------------------------------------------------------- validation
    def validate(self) -> "Query":
        if not self.select:
            raise QueryError("SELECT list is empty")
        labels = [item.label for item in self.select]
        if len(set(labels)) != len(labels):
            raise QueryError(f"duplicate select item in {labels}")
        raw = [i for i in self.select if i.func is None]
        if raw and self.aggregates:
            raise QueryError("cannot mix raw metrics and aggregates in SELECT")
        for item in self.aggregates:
            if item.func not in AGG_FUNCS:
                raise QueryError(f"unknown aggregate function {item.func!r}")
        if self.group_by and not self.is_aggregate:
            raise QueryError("GROUP BY requires aggregate select items")
        if len(set(self.group_by)) != len(self.group_by):
            raise QueryError(f"duplicate GROUP BY key in {self.group_by}")
        for key in self.group_by:
            if key in ("value", "start", "end", "type"):
                raise QueryError(f"cannot GROUP BY {key!r}")
        for pred in self.where:
            allowed = _FIELD_OPS.get(pred.field)
            if allowed is not None and pred.op not in allowed:
                raise QueryError(
                    f"field {pred.field!r} does not support operator {pred.op!r} "
                    f"(allowed: {', '.join(allowed)})"
                )
            if pred.op not in COMPARISONS:
                raise QueryError(f"unknown operator {pred.op!r}")
            if pred.field in _NUMERIC_FIELDS:
                for text in pred.values():
                    try:
                        float(text)
                    except ValueError as exc:
                        raise QueryError(
                            f"field {pred.field!r} needs a numeric literal, got {text!r}"
                        ) from exc
        if len(self.predicates_on("type")) > 1:
            raise QueryError("at most one type predicate is supported")
        if self.order_by is not None and self.order_by not in self.output_columns:
            raise QueryError(
                f"ORDER BY {self.order_by!r} is not an output column "
                f"(columns: {', '.join(self.output_columns)})"
            )
        if self.limit is not None and self.limit < 0:
            raise QueryError(f"LIMIT must be non-negative, got {self.limit}")
        return self

    # -------------------------------------------------------- fingerprint
    def fingerprint(self) -> str:
        """Canonical identity for plan-level result caching.

        Conjunct order and FROM order are normalized away (AND and
        source federation are commutative); SELECT and GROUP BY order
        are preserved (they shape the output).
        """
        parts = [
            "select=" + ",".join(item.label for item in self.select),
            "from=" + (",".join(sorted(self.sources)) if self.sources else "*"),
            "where=" + "&".join(sorted(p.canonical() for p in self.where)),
            "group=" + ",".join(self.group_by),
            "order=" + (self.order_by or "") + (":desc" if self.order_desc else ""),
            "limit=" + ("" if self.limit is None else str(self.limit)),
        ]
        return ";".join(parts)
