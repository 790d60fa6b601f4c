"""minidb — a small in-memory relational engine with a SQL subset.

The thesis stores two of its three test datasets in PostgreSQL 7.4 and
accesses them through JDBC SQL queries from the Mapping Layer.  No
database server is available offline, so this package implements the
substrate from scratch: typed tables, hash indexes, a SQL lexer/parser,
an expression evaluator, a rule-based planner, and an iterator-model
executor, fronted by a DB-API-like connection/cursor facade
(:mod:`repro.minidb.dbapi`) that plays the role of JDBC.

Supported SQL
-------------
* ``CREATE TABLE t (col TYPE [PRIMARY KEY] [NOT NULL], ...)``
* ``CREATE INDEX name ON t (col)`` / ``DROP INDEX`` / ``DROP TABLE``
* ``INSERT INTO t [(cols)] VALUES (...), (...)``
* ``UPDATE t SET col = expr [, ...] [WHERE ...]``
* ``DELETE FROM t [WHERE ...]``
* ``SELECT [DISTINCT] exprs FROM t [alias] [JOIN u ON ...]*
  [WHERE ...] [GROUP BY ...] [HAVING ...] [ORDER BY ... [ASC|DESC]]
  [LIMIT n [OFFSET m]]``
* aggregates ``COUNT(*) | COUNT(x) | SUM | AVG | MIN | MAX``, scalar
  functions ``LOWER, UPPER, LENGTH, ABS, ROUND, COALESCE``, operators
  ``+ - * / % || = != <> < <= > >= AND OR NOT IN BETWEEN LIKE IS [NOT]
  NULL``
* transactions: ``Connection.begin()/commit()/rollback()`` (undo-log
  based, DDL excluded) and the ``with conn.transaction():`` scope
* ``Database.explain(sql)`` — plan introspection.
* ``?`` placeholders wherever an expression may stand, and after
  ``LIMIT`` / ``OFFSET``: each SQL text is parsed once and parameters are
  bound into the parsed tree by value, never spliced into the text.
"""

from repro.minidb.database import Database
from repro.minidb.dbapi import Connection, Cursor, connect
from repro.minidb.errors import (
    IntegrityError,
    MiniDbError,
    ProgrammingError,
    SqlSyntaxError,
)
from repro.minidb.schema import ColumnDef, TableSchema
from repro.minidb.types import SqlType

__all__ = [
    "ColumnDef",
    "Connection",
    "Cursor",
    "Database",
    "IntegrityError",
    "MiniDbError",
    "ProgrammingError",
    "SqlSyntaxError",
    "SqlType",
    "TableSchema",
    "connect",
]
