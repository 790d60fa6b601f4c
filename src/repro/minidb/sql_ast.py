"""Statement-level AST nodes produced by the SQL parser."""

from __future__ import annotations

from dataclasses import dataclass

from repro.minidb.expr import Expr, Param
from repro.minidb.schema import ColumnDef


@dataclass(frozen=True)
class SelectItem:
    """One item in the select list: an expression with an optional alias."""

    expr: Expr
    alias: str | None
    #: Set for bare ``*`` or ``alias.*`` items; expr is ignored then.
    star_table: str | None = None
    is_star: bool = False


@dataclass(frozen=True)
class TableRef:
    """A table in FROM/JOIN with its effective alias."""

    table: str
    alias: str


@dataclass(frozen=True)
class JoinClause:
    """An INNER/LEFT join against *table* with an ON condition."""

    table: TableRef
    condition: Expr
    left_outer: bool = False


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class SelectStmt:
    items: tuple[SelectItem, ...]
    table: TableRef
    joins: tuple[JoinClause, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | Param | None = None  # a Param only until it is bound
    offset: int | Param = 0
    distinct: bool = False


@dataclass(frozen=True)
class InsertStmt:
    table: str
    columns: tuple[str, ...]  # empty = all columns in schema order
    rows: tuple[tuple[Expr, ...], ...]


@dataclass(frozen=True)
class UpdateStmt:
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None


@dataclass(frozen=True)
class DeleteStmt:
    table: str
    where: Expr | None


@dataclass(frozen=True)
class CreateTableStmt:
    table: str
    columns: tuple[ColumnDef, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class CreateIndexStmt:
    name: str
    table: str
    column: str
    unique: bool = False


@dataclass(frozen=True)
class DropTableStmt:
    table: str
    if_exists: bool = False


@dataclass(frozen=True)
class DropIndexStmt:
    name: str
    if_exists: bool = False


Statement = (
    SelectStmt
    | InsertStmt
    | UpdateStmt
    | DeleteStmt
    | CreateTableStmt
    | CreateIndexStmt
    | DropTableStmt
    | DropIndexStmt
)
