"""Query planning and execution.

``SelectExecutor._plan`` makes every planner decision once per
statement; ``run`` acts on the plan and ``explain`` prints it:

* ``col = literal`` on an indexed driving-table column (resolved in the
  joined layout) becomes an index lookup;
* an ON equality between one column from each side makes a hash join;
  anything else is a filtered nested loop;
* when every join is a hash join on plain column keys with no other ON
  conjunct, the longest leading run of WHERE conjuncts that read only
  driving-table columns and cannot raise (column-vs-literal comparison,
  literal IN list, IS [NOT] NULL) filters driving rows before the first
  join; the other conjuncts filter joined rows, in written order;
* aggregation groups in a dict keyed by GROUP BY values and evaluates
  each distinct aggregate argument once per row.

Scan, filters and joins stream; projection, aggregation, ORDER BY and
DISTINCT materialize every row before LIMIT and OFFSET slice the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from repro.minidb.errors import ProgrammingError
from repro.minidb.expr import (
    AGGREGATE_FUNCS,
    Between,
    BinaryOp,
    BoolOp,
    BoundExpr,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    NotOp,
    RowLayout,
    column_refs,
    contains_aggregate,
)
from repro.minidb.sql_ast import JoinClause, OrderItem, SelectStmt, TableRef
from repro.minidb.storage import HashIndex, Table
from repro.minidb.types import SqlValue, sort_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.minidb.database import Database


@dataclass
class ResultSet:
    """Materialized query result: column names plus row tuples."""

    columns: list[str]
    rows: list[tuple]

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> SqlValue:
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ProgrammingError(
                f"scalar() requires a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def column(self, name: str) -> list[SqlValue]:
        """All values of one output column."""
        low = name.lower()
        for i, col in enumerate(self.columns):
            if col.lower() == low:
                return [row[i] for row in self.rows]
        raise ProgrammingError(f"no output column {name!r}")

    def dicts(self) -> list[dict[str, SqlValue]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


# ----------------------------------------------------------------- planner


def _split_conjuncts(expr: Expr | None) -> list[Expr]:
    if expr is None:
        return []
    if isinstance(expr, BoolOp) and expr.op == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _join_conjuncts(conjuncts: list[Expr]) -> Expr | None:
    if not conjuncts:
        return None
    expr = conjuncts[0]
    for other in conjuncts[1:]:
        expr = BoolOp("AND", expr, other)
    return expr


def _index_probe(
    conjuncts: list[Expr], table: Table, on_driving: Callable[[ColumnRef], bool]
) -> tuple[tuple[HashIndex, SqlValue], list[Expr]] | None:
    """Find ``col = literal`` (either order) with an index on *col*.

    Returns ((index, probe_value), remaining_conjuncts) or None.
    """
    for i, conj in enumerate(conjuncts):
        if not (isinstance(conj, Comparison) and conj.op == "="):
            continue
        for ref, lit in ((conj.left, conj.right), (conj.right, conj.left)):
            if not (isinstance(ref, ColumnRef) and isinstance(lit, Literal)):
                continue
            index = table.index_on(ref.column) if on_driving(ref) else None
            if index is not None:
                return (index, lit.value), conjuncts[:i] + conjuncts[i + 1 :]
    return None


def _cannot_raise(conj: Expr) -> bool:
    """A column-vs-literal comparison, literal IN list or IS [NOT] NULL."""
    if isinstance(conj, Comparison):
        sides = (type(conj.left), type(conj.right))
        return sides in ((ColumnRef, Literal), (Literal, ColumnRef))
    if isinstance(conj, InList):
        return isinstance(conj.operand, ColumnRef) and all(
            isinstance(item, Literal) for item in conj.items
        )
    return isinstance(conj, IsNull) and isinstance(conj.operand, ColumnRef)


def _equi_join_keys(
    condition: Expr, left_layout: RowLayout, right_layout: RowLayout
) -> tuple[Expr, Expr, Expr | None] | None:
    """Split an ON condition into (left_key, right_key, residual).

    Looks for one conjunct that is an equality with all column refs on one
    side resolvable in the left layout and the other side in the right.
    """

    def side(expr: Expr) -> str | None:
        refs = column_refs(expr)
        if not refs:
            return None
        sides = set()
        for ref in refs:
            if _resolvable(ref, left_layout):
                sides.add("L")
            elif _resolvable(ref, right_layout):
                sides.add("R")
            else:
                return None
        return sides.pop() if len(sides) == 1 else None

    conjuncts = _split_conjuncts(condition)
    for i, conj in enumerate(conjuncts):
        if not (isinstance(conj, Comparison) and conj.op == "="):
            continue
        ls, rs = side(conj.left), side(conj.right)
        if ls == "L" and rs == "R":
            left_key, right_key = conj.left, conj.right
        elif ls == "R" and rs == "L":
            left_key, right_key = conj.right, conj.left
        else:
            continue
        residual = _join_conjuncts(conjuncts[:i] + conjuncts[i + 1 :])
        return left_key, right_key, residual
    return None


def _resolvable(ref: ColumnRef, layout: RowLayout) -> bool:
    try:
        layout.resolve(ref)
        return True
    except ProgrammingError:
        return False


# ---------------------------------------------------------------- executor


def _layout(ref: TableRef, table: Table) -> RowLayout:
    return RowLayout([(ref.alias, col.name) for col in table.schema.columns])


def _bind(expr: Expr | None, layout: RowLayout) -> Callable | None:
    return None if expr is None else BoundExpr(expr, layout).fn


@dataclass
class _Join:
    clause: JoinClause
    table: Table
    width: int  # the joined table's column count
    keys: tuple[Callable, Callable] | None  # bound (left, right) keys of a hash join
    on: Callable | None  # what of the ON condition the keys leave, bound


@dataclass
class _Plan:
    """Every decision and binding :meth:`SelectExecutor.run` acts on and
    :meth:`SelectExecutor.explain` prints."""

    table: Table
    probe: tuple[HashIndex, SqlValue] | None
    pushed: Callable | None  # filters driving rows before the first join
    joins: list[_Join]
    residual: Callable | None  # filters joined rows
    layout: RowLayout  # of the joined rows
    aggregate: bool


class SelectExecutor:
    """Executes one SELECT statement against a database."""

    def __init__(self, db: "Database", stmt: SelectStmt) -> None:
        self.db = db
        self.stmt = stmt

    def _plan(self) -> _Plan:
        stmt = self.stmt
        table = self.db.table(stmt.table.table)
        layout = _layout(stmt.table, table)
        width, joins, pushable = len(layout.slots), [], bool(stmt.joins)
        for clause in stmt.joins:
            right = self.db.table(clause.table.table)
            right_layout = _layout(clause.table, right)
            keys = _equi_join_keys(clause.condition, layout, right_layout)
            on = clause.condition if keys is None else keys[2]
            pushable = pushable and on is None and all(isinstance(k, ColumnRef) for k in keys[:2])
            if keys is not None:
                keys = (BoundExpr(keys[0], layout).fn, BoundExpr(keys[1], right_layout).fn)
            layout = layout.concat(right_layout)
            joins.append(_Join(clause, right, len(right_layout.slots), keys, _bind(on, layout)))

        def on_driving(ref: ColumnRef) -> bool:
            try:
                return layout.resolve(ref) < width
            except ProgrammingError:  # unknown or ambiguous: raised binding the residual
                return False

        conjuncts = _split_conjuncts(stmt.where)
        found = _index_probe(conjuncts, table, on_driving)
        probe, conjuncts = found if found is not None else (None, conjuncts)
        n = 0
        while pushable and n < len(conjuncts) and _cannot_raise(conjuncts[n]) and all(
            on_driving(ref) for ref in column_refs(conjuncts[n])
        ):
            n += 1
        # driving-table slots lead the joined layout, so a filter bound to
        # it reads a driving row as it would the joined row
        pushed, residual = _join_conjuncts(conjuncts[:n]), _join_conjuncts(conjuncts[n:])
        aggregate = (
            bool(stmt.group_by)
            or stmt.having is not None
            or any(not it.is_star and contains_aggregate(it.expr) for it in stmt.items)
            or any(contains_aggregate(o.expr) for o in stmt.order_by)
        )
        return _Plan(
            table, probe, _bind(pushed, layout), joins, _bind(residual, layout), layout, aggregate
        )

    def run(self) -> ResultSet:
        stmt = self.stmt
        plan = self._plan()
        table = plan.table
        if plan.probe is not None:
            rowids = sorted(plan.probe[0].lookup(plan.probe[1]))
            rows: Iterator[tuple] = (
                table.rows[rid] for rid in rowids if table.rows[rid] is not None
            )
        else:
            rows = (row for _, row in table.scan())
        if plan.pushed is not None:
            rows = filter(plan.pushed, rows)
        for join in plan.joins:
            rows = _join_rows(rows, join)
        if plan.residual is not None:
            rows = filter(plan.residual, rows)

        if plan.aggregate:
            columns, out_rows = self._aggregate(plan.layout, rows)
        else:
            columns, out_rows = self._project(plan.layout, rows)

        if stmt.distinct:
            seen: set[tuple] = set()
            unique: list[tuple] = []
            for row in out_rows:
                key = tuple(sort_key(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            out_rows = unique
        if stmt.offset:
            out_rows = out_rows[stmt.offset :]
        if stmt.limit is not None:
            out_rows = out_rows[: stmt.limit]
        return ResultSet(columns, out_rows)

    def explain(self) -> list[str]:
        """Describe the plan :meth:`run` acts on, one line per stage,
        without touching any rows."""
        stmt, plan = self.stmt, self._plan()
        source = f"{stmt.table.table} AS {stmt.table.alias}"
        lines = [f"SeqScan {source}"]
        if plan.probe is not None:
            index, value = plan.probe
            lines = [f"IndexLookup {source} USING {index.name} ({index.column} = {value!r})"]
        if plan.pushed is not None:
            lines.append("Filter (before joins)")
        for join in plan.joins:
            lines.append(
                f"{'NestedLoop' if join.keys is None else 'Hash'}Join "
                f"({'Left' if join.clause.left_outer else 'Inner'}) "
                f"{join.clause.table.table} AS {join.clause.table.alias}"
            )
        if plan.residual is not None:
            lines.append("Filter")
        if plan.aggregate:
            lines.append(f"Aggregate (group keys: {len(stmt.group_by)})")
            if stmt.having is not None:
                lines.append("Having")
        if stmt.order_by:
            lines.append(f"Sort ({len(stmt.order_by)} key(s))")
        if stmt.distinct:
            lines.append("Distinct")
        if stmt.offset or stmt.limit is not None:
            lines.append(f"Limit {stmt.limit} Offset {stmt.offset}")
        return lines

    # ------------------------------------------------------------- stages
    def _expand_items(self, layout: RowLayout) -> list[tuple[str, Expr]]:
        """Expand stars; return (output_name, expr) pairs."""
        out: list[tuple[str, Expr]] = []
        for i, item in enumerate(self.stmt.items):
            if item.is_star:
                for alias, col in layout.slots:
                    if item.star_table is None or alias.lower() == item.star_table.lower():
                        out.append((col, ColumnRef(alias, col)))
                if item.star_table is not None and not any(
                    alias.lower() == item.star_table.lower() for alias, _ in layout.slots
                ):
                    raise ProgrammingError(f"unknown table alias {item.star_table!r} in select *")
                continue
            name = item.alias
            if name is None:
                name = item.expr.column if isinstance(item.expr, ColumnRef) else f"expr{i + 1}"
            out.append((name, item.expr))
        if not out:
            raise ProgrammingError("empty select list")
        return out

    def _project(
        self, layout: RowLayout, rows: Iterator[tuple]
    ) -> tuple[list[str], list[tuple]]:
        items = self._expand_items(layout)
        columns = [name for name, _ in items]
        bound = [BoundExpr(expr, layout) for _, expr in items]
        order = self.stmt.order_by
        if not order:
            return columns, [tuple(b.eval(row) for b in bound) for row in rows]
        order_bound = [self._bind_order(o, items, layout) for o in order]
        decorated: list[tuple[tuple, tuple]] = []
        for row in rows:
            projected = tuple(b.eval(row) for b in bound)
            key_parts = []
            for ob, positional in order_bound:
                value = projected[ob] if positional else ob.eval(row)  # type: ignore[index]
                key_parts.append(sort_key(value))
            decorated.append((tuple(key_parts), projected))
        decorated.sort(key=lambda pair: self._order_cmp_key(pair[0]))
        return columns, [projected for _, projected in decorated]

    def _order_cmp_key(self, key_parts: tuple) -> tuple:
        out = []
        for part, item in zip(key_parts, self.stmt.order_by):
            out.append(_Reversed(part) if item.descending else part)
        return tuple(out)

    def _bind_order(
        self, item: OrderItem, items: list[tuple[str, Expr]], layout: RowLayout
    ):
        """Bind one ORDER BY item: positional int, output alias, or expression."""
        expr = item.expr
        if isinstance(expr, Literal) and isinstance(expr.value, int):
            pos = expr.value
            if not 1 <= pos <= len(items):
                raise ProgrammingError(f"ORDER BY position {pos} out of range")
            return pos - 1, True
        if isinstance(expr, ColumnRef) and expr.table is None:
            for i, (name, _) in enumerate(items):
                if name.lower() == expr.column.lower():
                    return i, True
        return BoundExpr(expr, layout), False

    # -------------------------------------------------------- aggregation
    def _aggregate(
        self, layout: RowLayout, rows: Iterator[tuple]
    ) -> tuple[list[str], list[tuple]]:
        stmt = self.stmt
        items = self._expand_items(layout)
        group_exprs = list(stmt.group_by)
        # Calls and group keys match by repr(): dataclass == calls x + 1
        # and x + 1.0 equal, which would merge two different expressions.
        group_slots: dict[str, int] = {}
        for i, expr in enumerate(group_exprs):
            group_slots.setdefault(repr(expr), i)
        # Collect every distinct aggregate call appearing anywhere.
        agg_calls: list[FuncCall] = []
        agg_slots: dict[str, int] = {}

        def collect(expr: Expr) -> None:
            if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCS:
                key = repr(expr)
                if key not in agg_slots:
                    agg_slots[key] = len(agg_calls)
                    agg_calls.append(expr)
                return
            for child in _children(expr):
                collect(child)

        for _, expr in items:
            collect(expr)
        if stmt.having is not None:
            collect(stmt.having)
        for order in stmt.order_by:
            collect(order.expr)

        # Validate: non-aggregate output expressions must be group keys.
        for name, expr in items:
            if not contains_aggregate(expr) and repr(expr) not in group_slots:
                if group_exprs or not agg_calls:
                    raise ProgrammingError(
                        f"output column {name!r} must appear in GROUP BY or an aggregate"
                    )
                # Implicit single-group aggregate (no GROUP BY): bare columns invalid.
                raise ProgrammingError(
                    f"output column {name!r} is not aggregated (no GROUP BY present)"
                )

        group_fns = [BoundExpr(e, layout).fn for e in group_exprs]
        # One value slot per distinct argument, COUNT(*)'s holding 1: the
        # first aggregate to use an argument evaluates it, so a row raises
        # the error a per-aggregate loop would; later ones read the slot.
        arg_slots: dict[str, int] = {"*": 0}
        steps: list[tuple[Callable | None, int]] = []
        for call in agg_calls:
            if not call.star and not call.args:
                raise ProgrammingError(f"{call.name}() needs an argument")
            key = "*" if call.star else repr(call.args[0])
            fresh = key not in arg_slots
            slot = arg_slots.setdefault(key, len(arg_slots))
            steps.append((BoundExpr(call.args[0], layout).fn if fresh else None, slot))
        values = [1] * len(arg_slots)

        groups: dict[tuple, list[_AggState]] = {}
        group_values: dict[tuple, tuple] = {}
        for row in rows:
            key_values = tuple([fn(row) for fn in group_fns])
            key = tuple([sort_key(v) for v in key_values])
            states = groups.get(key)
            if states is None:
                states = [_AggState(call.name) for call in agg_calls]
                groups[key] = states
                group_values[key] = key_values
            for state, (fn, slot) in zip(states, steps):
                if fn is not None:
                    values[slot] = fn(row)
                state.update(values[slot])

        if not groups and not group_exprs:
            # Aggregates over an empty input produce one row.
            groups[()] = [_AggState(call.name) for call in agg_calls]
            group_values[()] = ()

        # Build the group-row layout: g0..gN-1 then a0..aM-1.
        slots = [("__grp", f"g{i}") for i in range(len(group_exprs))]
        slots += [("__agg", f"a{i}") for i in range(len(agg_calls))]
        group_layout = RowLayout(slots)

        def rewrite(expr: Expr) -> Expr:
            key = repr(expr)
            if key in group_slots:
                return ColumnRef("__grp", f"g{group_slots[key]}")
            if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCS:
                return ColumnRef("__agg", f"a{agg_slots[key]}")
            return _rebuild(expr, rewrite)

        columns = [name for name, _ in items]
        bound_items = [BoundExpr(rewrite(expr), group_layout) for _, expr in items]
        bound_having = (
            BoundExpr(rewrite(stmt.having), group_layout) if stmt.having is not None else None
        )
        alias_to_expr = {name.lower(): expr for name, expr in items}

        def order_expr(expr: Expr) -> Expr:
            """Resolve output aliases / positions before the aggregate rewrite."""
            if isinstance(expr, Literal) and isinstance(expr.value, int):
                pos = expr.value
                if not 1 <= pos <= len(items):
                    raise ProgrammingError(f"ORDER BY position {pos} out of range")
                return rewrite(items[pos - 1][1])
            if isinstance(expr, ColumnRef) and expr.table is None:
                aliased = alias_to_expr.get(expr.column.lower())
                if aliased is not None:
                    return rewrite(aliased)
            return rewrite(expr)

        order_keys = [
            (BoundExpr(order_expr(o.expr), group_layout), o.descending) for o in stmt.order_by
        ]

        out: list[tuple[tuple, tuple]] = []
        for key, states in groups.items():
            group_row = group_values[key] + tuple(s.result() for s in states)
            if bound_having is not None and not bound_having.eval(group_row):
                continue
            projected = tuple(b.eval(group_row) for b in bound_items)
            sort_parts = tuple(
                _Reversed(sort_key(b.eval(group_row))) if desc else sort_key(b.eval(group_row))
                for b, desc in order_keys
            )
            out.append((sort_parts, projected))
        if order_keys:
            out.sort(key=lambda pair: pair[0])
        return columns, [projected for _, projected in out]


def _join_rows(left_rows: Iterator[tuple], join: _Join) -> Iterator[tuple]:
    """Joined rows, in left-row order; the hash table is built now."""
    right_rows = [row for _, row in join.table.scan()]
    if join.keys is None:
        candidates = lambda lrow: right_rows  # noqa: E731
    else:
        left_key, right_key = join.keys
        build: dict[SqlValue, list[tuple]] = {}
        for row in right_rows:
            k = right_key(row)
            if k is not None:
                build.setdefault(k, []).append(row)
        candidates = lambda lrow: build.get(left_key(lrow), ())  # noqa: E731
    on, null_pad = join.on, (None,) * join.width

    def joined() -> Iterator[tuple]:
        for lrow in left_rows:
            matched = False
            for rrow in candidates(lrow):
                combined = lrow + rrow
                if on is None or on(combined):
                    matched = True
                    yield combined
            if join.clause.left_outer and not matched:
                yield lrow + null_pad

    return joined()


class _Reversed:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value


class _AggState:
    """Incremental state for one aggregate over one group."""

    __slots__ = ("name", "count", "total", "best", "best_key")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: float | int = 0
        self.best: SqlValue = None  # MIN's minimum, MAX's maximum
        self.best_key: tuple | None = None  # sort_key(self.best), kept with it

    def update(self, value: SqlValue) -> None:
        if value is None:
            return
        self.count += 1
        if self.name in ("SUM", "AVG"):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ProgrammingError(f"{self.name} requires numeric input, got {value!r}")
            self.total += value
        elif self.name == "MIN":
            key = sort_key(value)
            if self.best_key is None or key < self.best_key:
                self.best, self.best_key = value, key
        elif self.name == "MAX":
            key = sort_key(value)
            if self.best_key is None or key > self.best_key:
                self.best, self.best_key = value, key

    def result(self) -> SqlValue:
        if self.name == "COUNT":
            return self.count
        if self.count == 0:
            return None
        if self.name == "SUM":
            return self.total
        if self.name == "AVG":
            return self.total / self.count
        return self.best


def _children(expr: Expr) -> list[Expr]:
    if isinstance(expr, (BinaryOp, Comparison, BoolOp)):
        return [expr.left, expr.right]
    if isinstance(expr, (NotOp, Negate)):
        return [expr.operand]
    if isinstance(expr, IsNull):
        return [expr.operand]
    if isinstance(expr, InList):
        return [expr.operand, *expr.items]
    if isinstance(expr, Between):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, Like):
        return [expr.operand, expr.pattern]
    if isinstance(expr, FuncCall):
        return list(expr.args)
    return []


def _rebuild(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild an expression applying *fn* to each child."""
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, Comparison):
        return Comparison(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, BoolOp):
        return BoolOp(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, NotOp):
        return NotOp(fn(expr.operand))
    if isinstance(expr, Negate):
        return Negate(fn(expr.operand))
    if isinstance(expr, IsNull):
        return IsNull(fn(expr.operand), expr.negated)
    if isinstance(expr, InList):
        return InList(fn(expr.operand), tuple(fn(i) for i in expr.items), expr.negated)
    if isinstance(expr, Between):
        return Between(fn(expr.operand), fn(expr.low), fn(expr.high), expr.negated)
    if isinstance(expr, Like):
        return Like(fn(expr.operand), fn(expr.pattern), expr.negated)
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, tuple(fn(a) for a in expr.args), expr.star)
    return expr
