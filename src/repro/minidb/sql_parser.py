"""Recursive-descent SQL parser.

Expression grammar (loosest to tightest binding):

    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | predicate
    predicate   := additive (comparison | IS [NOT] NULL | [NOT] IN (...)
                   | [NOT] BETWEEN x AND y | [NOT] LIKE pattern)?
    additive    := multiplicative ((+|-|'||') multiplicative)*
    multiplicative := unary ((*|/|%) unary)*
    unary       := - unary | primary
    primary     := literal | column ref | function call | ( or_expr )
"""

from __future__ import annotations

from repro.minidb.errors import SqlSyntaxError
from repro.minidb.expr import (
    AGGREGATE_FUNCS,
    Between,
    BinaryOp,
    BoolOp,
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
    Param,
)
from repro.minidb.schema import ColumnDef
from repro.minidb.sql_ast import (
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    DropIndexStmt,
    DropTableStmt,
    InsertStmt,
    JoinClause,
    OrderItem,
    SelectItem,
    SelectStmt,
    Statement,
    TableRef,
    UpdateStmt,
)
from repro.minidb.sql_lexer import Token, TokenKind, tokenize
from repro.minidb.types import SqlType


def parse_template(sql: str) -> tuple[Statement, int]:
    """Parse one SQL statement (a single trailing ';' is allowed).

    Returns the statement and the number of ``?`` placeholders in it;
    placeholder *n* (in text order) is the leaf ``Param(n)``.
    """
    parser = _Parser(tokenize(sql))
    stmt = parser.parse_statement()
    parser.accept_op(";")
    parser.expect_eof()
    return stmt, parser.nparams


def parse_sql(sql: str) -> Statement:
    """The statement alone, for callers that bind no parameters."""
    return parse_template(sql)[0]


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.i = 0
        self.nparams = 0

    # ------------------------------------------------------------- cursor
    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind is not TokenKind.EOF:
            self.i += 1
        return tok

    def error(self, message: str) -> SqlSyntaxError:
        tok = self.cur
        shown = tok.value or "<end of input>"
        return SqlSyntaxError(f"{message}, found {shown!r} at {tok.pos}")

    def accept_kw(self, *names: str) -> Token | None:
        if self.cur.is_kw(*names):
            return self.advance()
        return None

    def expect_kw(self, *names: str) -> Token:
        tok = self.accept_kw(*names)
        if tok is None:
            raise self.error(f"expected {'/'.join(names)}")
        return tok

    def accept_op(self, *ops: str) -> Token | None:
        if self.cur.is_op(*ops):
            return self.advance()
        return None

    def expect_op(self, *ops: str) -> Token:
        tok = self.accept_op(*ops)
        if tok is None:
            raise self.error(f"expected {'/'.join(ops)}")
        return tok

    def expect_ident(self) -> str:
        if self.cur.kind is TokenKind.IDENT:
            return self.advance().value
        raise self.error("expected an identifier")

    def expect_eof(self) -> None:
        if self.cur.kind is not TokenKind.EOF:
            raise self.error("unexpected trailing input")

    # --------------------------------------------------------- statements
    def parse_statement(self) -> Statement:
        if self.cur.is_kw("SELECT"):
            return self.parse_select()
        if self.cur.is_kw("INSERT"):
            return self.parse_insert()
        if self.cur.is_kw("UPDATE"):
            return self.parse_update()
        if self.cur.is_kw("DELETE"):
            return self.parse_delete()
        if self.cur.is_kw("CREATE"):
            return self.parse_create()
        if self.cur.is_kw("DROP"):
            return self.parse_drop()
        raise self.error("expected a statement keyword")

    def parse_select(self) -> SelectStmt:
        self.expect_kw("SELECT")
        distinct = self.accept_kw("DISTINCT") is not None
        items = [self.parse_select_item()]
        while self.accept_op(","):
            items.append(self.parse_select_item())
        self.expect_kw("FROM")
        table = self.parse_table_ref()
        joins: list[JoinClause] = []
        while self.cur.is_kw("JOIN", "INNER", "LEFT"):
            joins.append(self.parse_join())
        where = None
        if self.accept_kw("WHERE"):
            where = self.parse_expr()
        group_by: list[Expr] = []
        if self.accept_kw("GROUP"):
            self.expect_kw("BY")
            group_by.append(self.parse_expr())
            while self.accept_op(","):
                group_by.append(self.parse_expr())
        having = None
        if self.accept_kw("HAVING"):
            having = self.parse_expr()
        order_by: list[OrderItem] = []
        if self.accept_kw("ORDER"):
            self.expect_kw("BY")
            order_by.append(self.parse_order_item())
            while self.accept_op(","):
                order_by.append(self.parse_order_item())
        limit: int | Param | None = None
        offset: int | Param = 0
        if self.accept_kw("LIMIT"):
            limit = self.parse_nonneg_int("LIMIT")
            if self.accept_kw("OFFSET"):
                offset = self.parse_nonneg_int("OFFSET")
        return SelectStmt(
            items=tuple(items),
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def parse_nonneg_int(self, context: str) -> int | Param:
        if self.cur.kind is TokenKind.PARAM:
            return self.parse_param()  # checked once its value is bound
        if self.cur.kind is not TokenKind.NUMBER:
            raise self.error(f"expected a number after {context}")
        text = self.advance().value
        try:
            value = int(text)
        except ValueError:
            raise self.error(f"{context} must be an integer") from None
        if value < 0:
            raise self.error(f"{context} must be non-negative")
        return value

    def parse_param(self) -> Param:
        self.advance()
        self.nparams += 1
        return Param(self.nparams - 1)

    def parse_select_item(self) -> SelectItem:
        if self.cur.is_op("*"):
            self.advance()
            return SelectItem(Literal(None), alias=None, is_star=True)
        # alias.* form: IDENT '.' '*'
        if (
            self.cur.kind is TokenKind.IDENT
            and self.tokens[self.i + 1].is_op(".")
            and self.tokens[self.i + 2].is_op("*")
        ):
            alias = self.advance().value
            self.advance()
            self.advance()
            return SelectItem(Literal(None), alias=None, star_table=alias, is_star=True)
        expr = self.parse_expr()
        alias = None
        if self.accept_kw("AS"):
            alias = self.expect_ident()
        elif self.cur.kind is TokenKind.IDENT:
            alias = self.advance().value
        return SelectItem(expr, alias=alias)

    def parse_table_ref(self) -> TableRef:
        table = self.expect_ident()
        alias = table
        if self.accept_kw("AS"):
            alias = self.expect_ident()
        elif self.cur.kind is TokenKind.IDENT:
            alias = self.advance().value
        return TableRef(table=table, alias=alias)

    def parse_join(self) -> JoinClause:
        left_outer = False
        if self.accept_kw("LEFT"):
            left_outer = True
        else:
            self.accept_kw("INNER")
        self.expect_kw("JOIN")
        table = self.parse_table_ref()
        self.expect_kw("ON")
        condition = self.parse_expr()
        return JoinClause(table=table, condition=condition, left_outer=left_outer)

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.accept_kw("DESC"):
            descending = True
        else:
            self.accept_kw("ASC")
        return OrderItem(expr, descending)

    def parse_insert(self) -> InsertStmt:
        self.expect_kw("INSERT")
        self.expect_kw("INTO")
        table = self.expect_ident()
        columns: list[str] = []
        if self.accept_op("("):
            columns.append(self.expect_ident())
            while self.accept_op(","):
                columns.append(self.expect_ident())
            self.expect_op(")")
        self.expect_kw("VALUES")
        rows: list[tuple[Expr, ...]] = []
        while True:
            self.expect_op("(")
            row = [self.parse_expr()]
            while self.accept_op(","):
                row.append(self.parse_expr())
            self.expect_op(")")
            rows.append(tuple(row))
            if not self.accept_op(","):
                break
        return InsertStmt(table=table, columns=tuple(columns), rows=tuple(rows))

    def parse_update(self) -> UpdateStmt:
        self.expect_kw("UPDATE")
        table = self.expect_ident()
        self.expect_kw("SET")
        assignments: list[tuple[str, Expr]] = []
        while True:
            col = self.expect_ident()
            self.expect_op("=")
            assignments.append((col, self.parse_expr()))
            if not self.accept_op(","):
                break
        where = self.parse_expr() if self.accept_kw("WHERE") else None
        return UpdateStmt(table=table, assignments=tuple(assignments), where=where)

    def parse_delete(self) -> DeleteStmt:
        self.expect_kw("DELETE")
        self.expect_kw("FROM")
        table = self.expect_ident()
        where = self.parse_expr() if self.accept_kw("WHERE") else None
        return DeleteStmt(table=table, where=where)

    def parse_create(self) -> Statement:
        self.expect_kw("CREATE")
        if self.accept_kw("TABLE"):
            if_not_exists = False
            if self.accept_kw("IF"):
                self.expect_kw("NOT")
                self.expect_kw("EXISTS")
                if_not_exists = True
            table = self.expect_ident()
            self.expect_op("(")
            columns = [self.parse_column_def()]
            while self.accept_op(","):
                columns.append(self.parse_column_def())
            self.expect_op(")")
            return CreateTableStmt(table=table, columns=tuple(columns), if_not_exists=if_not_exists)
        unique = self.accept_kw("UNIQUE") is not None
        self.expect_kw("INDEX")
        name = self.expect_ident()
        self.expect_kw("ON")
        table = self.expect_ident()
        self.expect_op("(")
        column = self.expect_ident()
        self.expect_op(")")
        return CreateIndexStmt(name=name, table=table, column=column, unique=unique)

    def parse_column_def(self) -> ColumnDef:
        name = self.expect_ident()
        if self.cur.kind is TokenKind.IDENT:
            type_name = self.advance().value
        else:
            raise self.error("expected a column type")
        sql_type = SqlType.parse(type_name)
        primary_key = not_null = False
        while True:
            if self.accept_kw("PRIMARY"):
                self.expect_kw("KEY")
                primary_key = True
            elif self.accept_kw("NOT"):
                self.expect_kw("NULL")
                not_null = True
            else:
                break
        return ColumnDef(name=name, sql_type=sql_type, primary_key=primary_key, not_null=not_null)

    def parse_drop(self) -> Statement:
        self.expect_kw("DROP")
        if self.accept_kw("TABLE"):
            if_exists = False
            if self.accept_kw("IF"):
                self.expect_kw("EXISTS")
                if_exists = True
            return DropTableStmt(table=self.expect_ident(), if_exists=if_exists)
        self.expect_kw("INDEX")
        if_exists = False
        if self.accept_kw("IF"):
            self.expect_kw("EXISTS")
            if_exists = True
        return DropIndexStmt(name=self.expect_ident(), if_exists=if_exists)

    # -------------------------------------------------------- expressions
    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.accept_kw("OR"):
            left = BoolOp("OR", left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.accept_kw("AND"):
            left = BoolOp("AND", left, self.parse_not())
        return left

    def parse_not(self) -> Expr:
        if self.accept_kw("NOT"):
            return NotOp(self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> Expr:
        left = self.parse_additive()
        if self.cur.is_op("=", "!=", "<>", "<", "<=", ">", ">="):
            op = self.advance().value
            return Comparison(op, left, self.parse_additive())
        if self.accept_kw("IS"):
            negated = self.accept_kw("NOT") is not None
            self.expect_kw("NULL")
            return IsNull(left, negated)
        negated = False
        if self.cur.is_kw("NOT"):
            nxt = self.tokens[self.i + 1]
            if nxt.is_kw("IN", "BETWEEN", "LIKE"):
                self.advance()
                negated = True
            else:
                return left
        if self.accept_kw("IN"):
            self.expect_op("(")
            items = [self.parse_expr()]
            while self.accept_op(","):
                items.append(self.parse_expr())
            self.expect_op(")")
            return InList(left, tuple(items), negated)
        if self.accept_kw("BETWEEN"):
            low = self.parse_additive()
            self.expect_kw("AND")
            high = self.parse_additive()
            return Between(left, low, high, negated)
        if self.accept_kw("LIKE"):
            return Like(left, self.parse_additive(), negated)
        if negated:  # pragma: no cover - unreachable by construction
            raise self.error("dangling NOT")
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while self.cur.is_op("+", "-", "||"):
            op = self.advance().value
            left = BinaryOp(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while self.cur.is_op("*", "/", "%"):
            op = self.advance().value
            left = BinaryOp(op, left, self.parse_unary())
        return left

    def parse_unary(self) -> Expr:
        if self.accept_op("-"):
            return Negate(self.parse_unary())
        if self.accept_op("+"):
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.cur
        if tok.kind is TokenKind.NUMBER:
            self.advance()
            text = tok.value
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        if tok.kind is TokenKind.STRING:
            self.advance()
            return Literal(tok.value)
        if tok.kind is TokenKind.PARAM:
            return self.parse_param()
        if tok.is_kw("NULL"):
            self.advance()
            return Literal(None)
        if tok.is_kw("TRUE"):
            self.advance()
            return Literal(True)
        if tok.is_kw("FALSE"):
            self.advance()
            return Literal(False)
        if tok.is_op("("):
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if tok.kind is TokenKind.IDENT:
            name = self.advance().value
            if self.cur.is_op("("):
                return self.parse_func_call(name)
            if self.accept_op("."):
                column = self.expect_ident()
                return ColumnRef(table=name, column=column)
            return ColumnRef(table=None, column=name)
        raise self.error("expected an expression")

    def parse_func_call(self, name: str) -> Expr:
        upper = name.upper()
        self.expect_op("(")
        if upper in AGGREGATE_FUNCS and self.accept_op("*"):
            self.expect_op(")")
            if upper != "COUNT":
                raise self.error(f"{upper}(*) is only valid for COUNT")
            return FuncCall(upper, (), star=True)
        args: list[Expr] = []
        if not self.cur.is_op(")"):
            args.append(self.parse_expr())
            while self.accept_op(","):
                args.append(self.parse_expr())
        self.expect_op(")")
        return FuncCall(upper, tuple(args))
