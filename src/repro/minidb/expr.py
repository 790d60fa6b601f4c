"""Expression AST and evaluation.

Rows flow through the executor as flat tuples; a :class:`RowLayout` maps
``alias.column`` references to tuple slots.  Expressions are resolved
against a layout once (binding column refs to slots) and then evaluated
per row, which keeps the hot path to a tuple index plus Python ops.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.minidb.errors import ProgrammingError
from repro.minidb.types import SqlValue, compare_values

# --------------------------------------------------------------------- AST


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    value: SqlValue


@dataclass(frozen=True)
class Param(Expr):
    """A ``?`` placeholder; ``Database.execute`` binds a value into its place."""

    index: int  # position among the statement's placeholders


@dataclass(frozen=True)
class ColumnRef(Expr):
    table: str | None  # alias or table name, or None if unqualified
    column: str


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # + - * / % ||
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Comparison(Expr):
    op: str  # = != < <= > >=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BoolOp(Expr):
    op: str  # AND OR
    left: Expr
    right: Expr


@dataclass(frozen=True)
class NotOp(Expr):
    operand: Expr


@dataclass(frozen=True)
class Negate(Expr):
    operand: Expr


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple[Expr, ...]
    negated: bool


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str  # upper-cased
    args: tuple[Expr, ...]
    star: bool = False  # COUNT(*)


AGGREGATE_FUNCS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})
SCALAR_FUNCS = frozenset({"LOWER", "UPPER", "LENGTH", "ABS", "ROUND", "COALESCE"})


def contains_aggregate(expr: Expr) -> bool:
    """True if any node in *expr* is an aggregate function call."""
    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATE_FUNCS:
            return True
        return any(contains_aggregate(a) for a in expr.args)
    if isinstance(expr, (BinaryOp, Comparison, BoolOp)):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, (NotOp, Negate)):
        return contains_aggregate(expr.operand)
    if isinstance(expr, IsNull):
        return contains_aggregate(expr.operand)
    if isinstance(expr, InList):
        return contains_aggregate(expr.operand) or any(contains_aggregate(i) for i in expr.items)
    if isinstance(expr, Between):
        return any(contains_aggregate(e) for e in (expr.operand, expr.low, expr.high))
    if isinstance(expr, Like):
        return contains_aggregate(expr.operand) or contains_aggregate(expr.pattern)
    return False


def column_refs(expr: Expr) -> list[ColumnRef]:
    """All column references in *expr*, in evaluation order."""
    out: list[ColumnRef] = []

    def walk(node: Expr) -> None:
        if isinstance(node, ColumnRef):
            out.append(node)
        elif isinstance(node, (BinaryOp, Comparison, BoolOp)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (NotOp, Negate)):
            walk(node.operand)
        elif isinstance(node, IsNull):
            walk(node.operand)
        elif isinstance(node, InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, Like):
            walk(node.operand)
            walk(node.pattern)
        elif isinstance(node, FuncCall):
            for arg in node.args:
                walk(arg)

    walk(expr)
    return out


# ------------------------------------------------------------------ layout


class RowLayout:
    """Maps qualified/unqualified column names to tuple slots.

    ``slots`` is a list of ``(alias, column_name)`` pairs, one per tuple
    position.  Unqualified lookups are ambiguous if two aliases expose the
    same column name.
    """

    __slots__ = ("slots", "_by_qualified", "_by_name")

    def __init__(self, slots: list[tuple[str, str]]) -> None:
        self.slots = slots
        self._by_qualified: dict[tuple[str, str], int] = {}
        self._by_name: dict[str, list[int]] = {}
        for i, (alias, col) in enumerate(slots):
            self._by_qualified[(alias.lower(), col.lower())] = i
            self._by_name.setdefault(col.lower(), []).append(i)

    def resolve(self, ref: ColumnRef) -> int:
        if ref.table is not None:
            key = (ref.table.lower(), ref.column.lower())
            if key not in self._by_qualified:
                raise ProgrammingError(f"unknown column {ref.table}.{ref.column}")
            return self._by_qualified[key]
        hits = self._by_name.get(ref.column.lower(), [])
        if not hits:
            raise ProgrammingError(f"unknown column {ref.column!r}")
        if len(hits) > 1:
            raise ProgrammingError(f"ambiguous column {ref.column!r}")
        return hits[0]

    def concat(self, other: "RowLayout") -> "RowLayout":
        return RowLayout(self.slots + other.slots)


# -------------------------------------------------------------- evaluation


def like_match(text: str, pattern: str) -> bool:
    """SQL LIKE: ``%`` any run, ``_`` any single char. Case-sensitive."""
    # Iterative two-pointer algorithm with backtracking on '%'.
    ti = pi = 0
    star_pi = star_ti = -1
    while ti < len(text):
        if pi < len(pattern) and (pattern[pi] == "_" or pattern[pi] == text[ti]):
            ti += 1
            pi += 1
        elif pi < len(pattern) and pattern[pi] == "%":
            star_pi = pi
            star_ti = ti
            pi += 1
        elif star_pi != -1:
            star_ti += 1
            ti = star_ti
            pi = star_pi + 1
        else:
            return False
    while pi < len(pattern) and pattern[pi] == "%":
        pi += 1
    return pi == len(pattern)


class BoundExpr:
    """An expression resolved against a :class:`RowLayout`.

    ``eval(row)`` computes the value for one tuple; hot loops call the
    compiled closure ``fn`` directly.  Aggregate calls are *not*
    evaluated here — ``SelectExecutor._aggregate`` rewrites them into
    references to its group-row slots before binding.
    """

    __slots__ = ("fn",)

    def __init__(self, expr: Expr, layout: RowLayout) -> None:
        self.fn = _compile(expr, layout)

    def eval(self, row: tuple) -> SqlValue:
        return self.fn(row)


_COMPARE = {
    "=": operator.eq, "!=": operator.ne, "<>": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _compile_literal_comparison(expr: "Comparison", layout: RowLayout):
    """One closure for ``column <op> literal`` (either order).

    Returns None when the pattern does not apply; the caller falls back
    to the generic three-way comparison.
    """
    left, right, op = expr.left, expr.right, expr.op
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!=", "<>": "<>"}
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        left, right = right, left
        op = flipped[op]
    if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
        return None
    slot = layout.resolve(left)
    value, compare = right.value, _COMPARE[op]
    if value is None:
        return lambda row: False  # comparisons with NULL are never true
    if isinstance(value, (str, bool)):
        kind = str if isinstance(value, str) else bool
        return lambda row: isinstance(v := row[slot], kind) and compare(v, value)
    if not isinstance(value, (int, float)):
        return None  # not a SQL scalar (a bound parameter can be anything)
    # bool is an int subclass but a distinct SQL kind
    return lambda row: (
        isinstance(v := row[slot], (int, float)) and not isinstance(v, bool)
        and compare(v, value)
    )


def _numeric(value: SqlValue, context: str) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProgrammingError(f"{context} requires a number, got {value!r}")
    return value


def _compile(expr: Expr, layout: RowLayout):
    """Compile an expression tree to a closure over the row tuple."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value

    if isinstance(expr, ColumnRef):
        slot = layout.resolve(expr)
        return lambda row: row[slot]

    if isinstance(expr, BinaryOp):
        left, right = _compile(expr.left, layout), _compile(expr.right, layout)
        op = expr.op

        def eval_binary(row: tuple) -> SqlValue:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            if op == "||":
                if not isinstance(a, str) or not isinstance(b, str):
                    raise ProgrammingError(f"|| requires strings, got {a!r}, {b!r}")
                return a + b
            an, bn = _numeric(a, op), _numeric(b, op)
            if op == "+":
                return an + bn
            if op == "-":
                return an - bn
            if op == "*":
                return an * bn
            if op == "/":
                if bn == 0:
                    raise ProgrammingError("division by zero")
                result = an / bn
                return result
            if op == "%":
                if bn == 0:
                    raise ProgrammingError("modulo by zero")
                return an % bn
            raise ProgrammingError(f"unknown operator {op!r}")  # pragma: no cover

        return eval_binary

    if isinstance(expr, Comparison):
        # Fast path for the Mapping Layer's dominant pattern, column-vs-
        # literal comparisons in large scans (profiled: the generic
        # compare_values dispatch was ~40% of SMG98 query time).  The
        # specialized closures reproduce SQL semantics exactly: NULLs and
        # cross-kind comparisons are false.
        fast = _compile_literal_comparison(expr, layout)
        if fast is not None:
            return fast
        left, right = _compile(expr.left, layout), _compile(expr.right, layout)
        op = expr.op

        def eval_cmp(row: tuple) -> SqlValue:
            c = compare_values(left(row), right(row))
            if c is None:
                return False
            if op == "=":
                return c == 0
            if op in ("!=", "<>"):
                return c != 0
            if op == "<":
                return c < 0
            if op == "<=":
                return c <= 0
            if op == ">":
                return c > 0
            if op == ">=":
                return c >= 0
            raise ProgrammingError(f"unknown comparison {op!r}")  # pragma: no cover

        return eval_cmp

    if isinstance(expr, BoolOp):
        # Flatten AND/OR chains into a predicate list with early exit —
        # the parser nests N conjuncts N levels deep, which costs N
        # lambda frames per row in scan filters (profiled hot path).
        parts: list[Expr] = []

        def flatten(node: Expr) -> None:
            if isinstance(node, BoolOp) and node.op == expr.op:
                flatten(node.left)
                flatten(node.right)
            else:
                parts.append(node)

        flatten(expr)
        fns = [_compile(p, layout) for p in parts]
        if expr.op == "AND":

            def eval_and(row: tuple) -> bool:
                for fn in fns:
                    if not fn(row):
                        return False
                return True

            return eval_and

        def eval_or(row: tuple) -> bool:
            for fn in fns:
                if fn(row):
                    return True
            return False

        return eval_or

    if isinstance(expr, NotOp):
        operand = _compile(expr.operand, layout)
        return lambda row: not bool(operand(row))

    if isinstance(expr, Negate):
        operand = _compile(expr.operand, layout)

        def eval_neg(row: tuple) -> SqlValue:
            v = operand(row)
            return None if v is None else -_numeric(v, "unary -")

        return eval_neg

    if isinstance(expr, IsNull):
        operand = _compile(expr.operand, layout)
        negated = expr.negated
        return lambda row: (operand(row) is not None) if negated else (operand(row) is None)

    if isinstance(expr, InList):
        operand = _compile(expr.operand, layout)
        negated = expr.negated
        # A list of same-kind literals — a bound focus family — is one
        # set probe per row, answering as the loop below does for every
        # operand: kinds pair up as in compare_values, which also calls
        # nan equal to any number (a nan member keeps the list on the loop).
        values = [i.value for i in expr.items if isinstance(i, Literal)]
        kinds = {type(v) for v in values}
        if kinds <= {int, float}:
            kinds = {int, float}
        same_kind = kinds in ({str}, {int, float}) and all(v == v for v in values)
        if same_kind and len(values) == len(expr.items):
            members = frozenset(values)

            def eval_in_literals(row: tuple) -> SqlValue:
                v = operand(row)
                if v is None:
                    return False
                hit = type(v) in kinds and (v in members or v != v)
                return (not hit) if negated else hit

            return eval_in_literals
        items = [_compile(i, layout) for i in expr.items]

        def eval_in(row: tuple) -> SqlValue:
            v = operand(row)
            if v is None:
                return False
            hit = any(compare_values(v, item(row)) == 0 for item in items)
            return (not hit) if negated else hit

        return eval_in

    if isinstance(expr, Between):
        operand = _compile(expr.operand, layout)
        low, high = _compile(expr.low, layout), _compile(expr.high, layout)
        negated = expr.negated

        def eval_between(row: tuple) -> SqlValue:
            v = operand(row)
            cl = compare_values(v, low(row))
            ch = compare_values(v, high(row))
            if cl is None or ch is None:
                return False
            hit = cl >= 0 and ch <= 0
            return (not hit) if negated else hit

        return eval_between

    if isinstance(expr, Like):
        operand = _compile(expr.operand, layout)
        pattern = _compile(expr.pattern, layout)
        negated = expr.negated

        def eval_like(row: tuple) -> SqlValue:
            v, p = operand(row), pattern(row)
            if v is None or p is None:
                return False
            if not isinstance(v, str) or not isinstance(p, str):
                raise ProgrammingError(f"LIKE requires strings, got {v!r}, {p!r}")
            hit = like_match(v, p)
            return (not hit) if negated else hit

        return eval_like

    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATE_FUNCS:
            raise ProgrammingError(
                f"aggregate {expr.name} not allowed here (use GROUP BY queries)"
            )
        if expr.name not in SCALAR_FUNCS:
            raise ProgrammingError(f"unknown function {expr.name!r}")
        args = [_compile(a, layout) for a in expr.args]
        name = expr.name

        def eval_func(row: tuple) -> SqlValue:
            values = [a(row) for a in args]
            return _scalar_func(name, values)

        return eval_func

    raise ProgrammingError(f"cannot evaluate expression node {type(expr).__name__}")


def _scalar_func(name: str, values: list[SqlValue]) -> SqlValue:
    if name == "COALESCE":
        for v in values:
            if v is not None:
                return v
        return None
    if name == "LENGTH":
        _require_arity(name, values, 1)
        v = values[0]
        if v is None:
            return None
        if not isinstance(v, str):
            raise ProgrammingError(f"LENGTH requires TEXT, got {v!r}")
        return len(v)
    if name in ("LOWER", "UPPER"):
        _require_arity(name, values, 1)
        v = values[0]
        if v is None:
            return None
        if not isinstance(v, str):
            raise ProgrammingError(f"{name} requires TEXT, got {v!r}")
        return v.lower() if name == "LOWER" else v.upper()
    if name == "ABS":
        _require_arity(name, values, 1)
        v = values[0]
        return None if v is None else abs(_numeric(v, "ABS"))
    if name == "ROUND":
        if len(values) not in (1, 2):
            raise ProgrammingError("ROUND takes 1 or 2 arguments")
        v = values[0]
        if v is None:
            return None
        digits = 0
        if len(values) == 2:
            d = values[1]
            if d is None:
                return None
            digits = int(_numeric(d, "ROUND digits"))
        return round(float(_numeric(v, "ROUND")), digits)
    raise ProgrammingError(f"unknown function {name!r}")  # pragma: no cover


def _require_arity(name: str, values: list[SqlValue], n: int) -> None:
    if len(values) != n:
        raise ProgrammingError(f"{name} takes exactly {n} argument(s), got {len(values)}")
