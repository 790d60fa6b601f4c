"""Database facade: catalog of tables and statement dispatch."""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from repro.minidb.errors import ProgrammingError
from repro.minidb.executor import ResultSet, SelectExecutor
from repro.minidb.expr import BoundExpr, Literal, Param, RowLayout, contains_aggregate
from repro.minidb.schema import TableSchema
from repro.minidb.sql_ast import (
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    DropIndexStmt,
    DropTableStmt,
    InsertStmt,
    SelectStmt,
    Statement,
    UpdateStmt,
)
from repro.minidb.sql_parser import parse_template
from repro.minidb.storage import Table
from repro.minidb.txn import TransactionLog
from repro.minidb.types import SqlValue


class Database:
    """A named collection of tables.

    ``execute(sql)`` parses and runs one statement; SELECT returns a
    :class:`ResultSet`, DML returns the affected-row count, DDL returns 0.
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self.tables: dict[str, Table] = {}
        self._index_owner: dict[str, str] = {}  # index name -> table name
        self._txn: TransactionLog | None = None
        # SQL text -> (template, placeholder count).  Parsing reads no
        # catalog state, so DDL never stales an entry.
        self._parse = lru_cache(maxsize=256)(parse_template)

    # ------------------------------------------------------- transactions
    @property
    def in_transaction(self) -> bool:
        return self._txn is not None and self._txn.active

    def begin(self) -> None:
        """Open a transaction (no nesting; autocommit otherwise)."""
        if self.in_transaction:
            raise ProgrammingError("a transaction is already open")
        self._txn = TransactionLog()
        for table in self.tables.values():
            table.txn_log = self._txn

    def commit(self) -> None:
        if not self.in_transaction:
            raise ProgrammingError("no open transaction to commit")
        txn = self._txn
        self._txn = None
        for table in self.tables.values():
            table.txn_log = None
        assert txn is not None
        txn.commit()

    def rollback(self) -> None:
        if not self.in_transaction:
            raise ProgrammingError("no open transaction to roll back")
        txn = self._txn
        self._txn = None
        for table in self.tables.values():
            table.txn_log = None
        assert txn is not None
        txn.rollback()

    # ------------------------------------------------------------ catalog
    def table(self, name: str) -> Table:
        low = name.lower()
        if low not in self.tables:
            raise ProgrammingError(f"no table {name!r} in database {self.name!r}")
        return self.tables[low]

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    def create_table(self, schema: TableSchema) -> Table:
        low = schema.name.lower()
        if low in self.tables:
            raise ProgrammingError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self.tables[low] = table
        return table

    def drop_table(self, name: str) -> None:
        low = name.lower()
        if low not in self.tables:
            raise ProgrammingError(f"no table {name!r}")
        for index_name in list(self.tables[low].indexes):
            self._index_owner.pop(index_name.lower(), None)
        del self.tables[low]

    def table_names(self) -> list[str]:
        return sorted(t.schema.name for t in self.tables.values())

    def load_rows(self, table: str, columns: list[str], rows: list[tuple] | list[list]) -> int:
        """Bulk-load positional rows into *table* (ETL fast path)."""
        return self.table(table).insert_many(columns, rows)

    # ----------------------------------------------------------- dispatch
    def execute(self, sql: str, params: tuple | list | None = None) -> ResultSet | int:
        """Parse and execute; ``?`` placeholders are bound from *params*."""
        return self.execute_statement(self._prepare(sql, params))

    def _prepare(self, sql: str, params: tuple | list | None) -> Statement:
        """The statement for *sql* with *params* bound in as literal values.

        Each text is lexed and parsed once; later executions only
        re-bind.  A value never passes through SQL text, so it needs no
        escaping and has no spelling the lexer could misread.
        """
        template, nparams = self._parse(sql)
        values = params or ()
        if len(values) < nparams:
            raise ProgrammingError("not enough parameters for placeholders")
        if len(values) > nparams:
            raise ProgrammingError("too many parameters for placeholders")
        stmt = _bound(template, values) if values else template
        counts = {
            clause: _row_count(clause, bound.value)
            for clause in ("limit", "offset")
            if isinstance(bound := getattr(stmt, clause, None), Literal)
        }
        return replace(stmt, **counts) if counts else stmt

    def execute_statement(self, stmt: Statement) -> ResultSet | int:
        if isinstance(stmt, SelectStmt):
            return SelectExecutor(self, stmt).run()
        if self.in_transaction and isinstance(
            stmt, (CreateTableStmt, CreateIndexStmt, DropTableStmt, DropIndexStmt)
        ):
            raise ProgrammingError("DDL is not allowed inside a transaction")
        if isinstance(stmt, InsertStmt):
            return self._insert(stmt)
        if isinstance(stmt, UpdateStmt):
            return self._update(stmt)
        if isinstance(stmt, DeleteStmt):
            return self._delete(stmt)
        if isinstance(stmt, CreateTableStmt):
            if stmt.if_not_exists and self.has_table(stmt.table):
                return 0
            self.create_table(TableSchema(stmt.table, list(stmt.columns)))
            return 0
        if isinstance(stmt, CreateIndexStmt):
            low = stmt.name.lower()
            if low in self._index_owner:
                raise ProgrammingError(f"index {stmt.name!r} already exists")
            self.table(stmt.table).create_index(stmt.name, stmt.column, unique=stmt.unique)
            self._index_owner[low] = stmt.table.lower()
            return 0
        if isinstance(stmt, DropTableStmt):
            if stmt.if_exists and not self.has_table(stmt.table):
                return 0
            self.drop_table(stmt.table)
            return 0
        if isinstance(stmt, DropIndexStmt):
            low = stmt.name.lower()
            owner = self._index_owner.pop(low, None)
            if owner is None:
                if stmt.if_exists:
                    return 0
                raise ProgrammingError(f"no index {stmt.name!r}")
            self.tables[owner].drop_index(stmt.name)
            return 0
        raise ProgrammingError(f"unhandled statement {type(stmt).__name__}")  # pragma: no cover

    def query(self, sql: str, params: tuple | list | None = None) -> ResultSet:
        """Execute a statement that must be a SELECT."""
        result = self.execute(sql, params)
        if not isinstance(result, ResultSet):
            raise ProgrammingError("query() requires a SELECT statement")
        return result

    def explain(self, sql: str, params: tuple | list | None = None) -> str:
        """Describe the plan for a SELECT without executing it."""
        stmt = self._prepare(sql, params)
        if not isinstance(stmt, SelectStmt):
            raise ProgrammingError("explain() requires a SELECT statement")
        lines = SelectExecutor(self, stmt).explain()
        return "\n".join(f"{'  ' * i}-> {line}" if i else line for i, line in enumerate(lines))

    # ---------------------------------------------------------------- DML
    def _insert(self, stmt: InsertStmt) -> int:
        table = self.table(stmt.table)
        columns = list(stmt.columns) or table.schema.column_names()
        empty_layout = RowLayout([])
        count = 0
        for row_exprs in stmt.rows:
            if len(row_exprs) != len(columns):
                raise ProgrammingError(
                    f"INSERT has {len(row_exprs)} values for {len(columns)} columns"
                )
            values: dict[str, SqlValue] = {}
            for col, expr in zip(columns, row_exprs):
                if contains_aggregate(expr):
                    raise ProgrammingError("aggregates are not allowed in INSERT values")
                values[col] = BoundExpr(expr, empty_layout).eval(())
            table.insert(values)
            count += 1
        return count

    def _update(self, stmt: UpdateStmt) -> int:
        table = self.table(stmt.table)
        layout = RowLayout([(stmt.table, c.name) for c in table.schema.columns])
        predicate = BoundExpr(stmt.where, layout) if stmt.where is not None else None
        assignments = [(col, BoundExpr(expr, layout)) for col, expr in stmt.assignments]
        to_update: list[tuple[int, dict[str, SqlValue]]] = []
        for rowid, row in table.scan():
            if predicate is None or predicate.eval(row):
                to_update.append((rowid, {col: b.eval(row) for col, b in assignments}))
        for rowid, updates in to_update:
            table.update_row(rowid, updates)
        return len(to_update)

    def _delete(self, stmt: DeleteStmt) -> int:
        table = self.table(stmt.table)
        layout = RowLayout([(stmt.table, c.name) for c in table.schema.columns])
        predicate = BoundExpr(stmt.where, layout) if stmt.where is not None else None
        to_delete = [
            rowid for rowid, row in table.scan() if predicate is None or predicate.eval(row)
        ]
        table.delete_rows(to_delete)
        return len(to_delete)


def _row_count(clause: str, value: SqlValue) -> int:
    """A bound ``LIMIT ?`` / ``OFFSET ?``, held to the parser's rule for a written one."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ProgrammingError(f"{clause.upper()} must be a non-negative integer, got {value!r}")
    return value


def _bound(node, values: tuple | list):
    """*node* with every ``Param`` leaf replaced by its value's ``Literal``.

    Subtrees without placeholders are shared with the template, not
    copied; the template itself is never modified.
    """
    if isinstance(node, Param):
        return Literal(values[node.index])
    if isinstance(node, tuple):
        bound = tuple(_bound(child, values) for child in node)
        return bound if any(b is not c for b, c in zip(bound, node)) else node
    changed = {}
    for name in getattr(node, "__dataclass_fields__", ()):
        child = getattr(node, name)
        bound = _bound(child, values)
        if bound is not child:
            changed[name] = bound
    return replace(node, **changed) if changed else node
