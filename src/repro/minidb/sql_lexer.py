"""SQL lexer."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.minidb.errors import SqlSyntaxError

KEYWORDS = frozenset(
    """
    SELECT FROM WHERE AND OR NOT NULL IS IN BETWEEN LIKE AS DISTINCT
    GROUP BY HAVING ORDER ASC DESC LIMIT OFFSET JOIN INNER LEFT ON
    INSERT INTO VALUES UPDATE SET DELETE CREATE TABLE INDEX DROP
    PRIMARY KEY UNIQUE TRUE FALSE IF EXISTS
    """.split()
)


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    PARAM = "param"  # a ``?`` placeholder
    OP = "op"  # operators and punctuation
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    value: str
    pos: int

    def is_kw(self, *names: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.value in names

    def is_op(self, *ops: str) -> bool:
        return self.kind is TokenKind.OP and self.value in ops


_TWO_CHAR_OPS = ("<=", ">=", "!=", "<>", "||")
_ONE_CHAR_OPS = "+-*/%(),.=<>;"


def tokenize(sql: str) -> list[Token]:
    """Tokenize a SQL statement; always ends with an EOF token."""
    tokens: list[Token] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if sql.startswith("--", i):  # line comment
            nl = sql.find("\n", i)
            i = n if nl == -1 else nl + 1
            continue
        if ch == "'":
            j = i + 1
            parts: list[str] = []
            while True:
                if j >= n:
                    raise SqlSyntaxError(f"unterminated string literal at {i}")
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":  # escaped quote
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(sql[j])
                j += 1
            tokens.append(Token(TokenKind.STRING, "".join(parts), i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            j = i
            seen_dot = seen_exp = False
            while j < n:
                c = sql[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    seen_exp = True
                    j += 1
                    if j < n and sql[j] in "+-":
                        j += 1
                else:
                    break
            text = sql[i:j]
            if text.endswith((".", "e", "E", "+", "-")):
                raise SqlSyntaxError(f"malformed number {text!r} at {i}")
            tokens.append(Token(TokenKind.NUMBER, text, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, upper, i))
            else:
                tokens.append(Token(TokenKind.IDENT, word, i))
            i = j
            continue
        if ch == '"':  # quoted identifier
            j = sql.find('"', i + 1)
            if j == -1:
                raise SqlSyntaxError(f"unterminated quoted identifier at {i}")
            tokens.append(Token(TokenKind.IDENT, sql[i + 1 : j], i))
            i = j + 1
            continue
        if ch == "?":
            tokens.append(Token(TokenKind.PARAM, ch, i))
            i += 1
            continue
        two = sql[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(TokenKind.OP, two, i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(TokenKind.OP, ch, i))
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r} at {i}")
    tokens.append(Token(TokenKind.EOF, "", n))
    return tokens
