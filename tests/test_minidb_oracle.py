"""Property-based minidb testing against a plain-Python oracle.

Random row sets are loaded into a table, then queries whose results can
be computed independently in Python are compared against the engine.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.minidb import Database, ProgrammingError

_COLS = ("id", "grp", "x", "flag")

_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),  # grp
        st.integers(min_value=-100, max_value=100),  # x
        st.booleans(),
    ),
    min_size=0,
    max_size=60,
)


def _load(rows) -> tuple[Database, list[tuple]]:
    db = Database("oracle")
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, x INTEGER, flag BOOLEAN)"
    )
    table = [(i + 1, grp, x, flag) for i, (grp, x, flag) in enumerate(rows)]
    if table:
        db.load_rows("t", list(_COLS), table)
    return db, table


class TestSelectOracle:
    @given(_rows, st.integers(min_value=-100, max_value=100))
    @settings(max_examples=120, deadline=None)
    def test_where_filter(self, rows, threshold):
        db, table = _load(rows)
        got = db.query("SELECT id FROM t WHERE x > ? ORDER BY id", [threshold])
        expected = [r[0] for r in table if r[2] > threshold]
        assert got.column("id") == expected

    @given(_rows)
    @settings(max_examples=120, deadline=None)
    def test_group_by_aggregates(self, rows):
        db, table = _load(rows)
        got = db.query(
            "SELECT grp, COUNT(*), SUM(x), MIN(x), MAX(x) FROM t GROUP BY grp ORDER BY grp"
        )
        expected = {}
        for _, grp, x, _ in table:
            bucket = expected.setdefault(grp, [0, 0, None, None])
            bucket[0] += 1
            bucket[1] += x
            bucket[2] = x if bucket[2] is None else min(bucket[2], x)
            bucket[3] = x if bucket[3] is None else max(bucket[3], x)
        rows_expected = [
            (grp, c, s, lo, hi) for grp, (c, s, lo, hi) in sorted(expected.items())
        ]
        assert got.rows == rows_expected

    @given(_rows)
    @settings(max_examples=120, deadline=None)
    def test_order_by_stable_against_sorted(self, rows):
        db, table = _load(rows)
        got = db.query("SELECT x FROM t ORDER BY x DESC")
        assert got.column("x") == sorted((r[2] for r in table), reverse=True)

    @given(_rows)
    @settings(max_examples=120, deadline=None)
    def test_distinct(self, rows):
        db, table = _load(rows)
        got = db.query("SELECT DISTINCT grp FROM t ORDER BY grp")
        assert got.column("grp") == sorted({r[1] for r in table})

    @given(_rows, st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
    @settings(max_examples=120, deadline=None)
    def test_limit_offset(self, rows, limit, offset):
        db, table = _load(rows)
        got = db.query(f"SELECT id FROM t ORDER BY id LIMIT {limit} OFFSET {offset}")
        expected = [r[0] for r in table][offset : offset + limit]
        assert got.column("id") == expected

    @given(_rows)
    @settings(max_examples=100, deadline=None)
    def test_boolean_column_filter(self, rows):
        db, table = _load(rows)
        got = db.query("SELECT COUNT(*) FROM t WHERE flag = TRUE")
        assert got.scalar() == sum(1 for r in table if r[3])

    @given(_rows)
    @settings(max_examples=100, deadline=None)
    def test_self_join_count(self, rows):
        db, table = _load(rows)
        got = db.query("SELECT COUNT(*) FROM t a JOIN t b ON a.grp = b.grp")
        from collections import Counter

        counts = Counter(r[1] for r in table)
        assert got.scalar() == sum(n * n for n in counts.values())

    @given(_rows, st.integers(min_value=-100, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_delete_then_count(self, rows, threshold):
        db, table = _load(rows)
        deleted = db.execute("DELETE FROM t WHERE x < ?", [threshold])
        expected_deleted = sum(1 for r in table if r[2] < threshold)
        assert deleted == expected_deleted
        assert db.query("SELECT COUNT(*) FROM t").scalar() == len(table) - expected_deleted

    @given(_rows)
    @settings(max_examples=100, deadline=None)
    def test_update_everything(self, rows):
        db, table = _load(rows)
        db.execute("UPDATE t SET x = x + 1000")
        got = db.query("SELECT SUM(x) FROM t")
        expected = sum(r[2] for r in table) + 1000 * len(table) if table else None
        assert got.scalar() == expected

    @given(_rows)
    @settings(max_examples=80, deadline=None)
    def test_index_agrees_with_scan(self, rows):
        db, table = _load(rows)
        db.execute("CREATE INDEX idx_grp ON t (grp)")
        for grp in {r[1] for r in table} | {999}:
            indexed = db.query("SELECT id FROM t WHERE grp = ? ORDER BY id", [grp])
            expected = [r[0] for r in table if r[1] == grp]
            assert indexed.column("id") == expected

    @given(_rows)
    @settings(max_examples=80, deadline=None)
    def test_avg_matches_python(self, rows):
        db, table = _load(rows)
        got = db.query("SELECT AVG(x) FROM t").scalar()
        if not table:
            assert got is None
        else:
            assert got == pytest.approx(sum(r[2] for r in table) / len(table))


# ------------------------------------------------- joins against a nested loop

_JOIN_COLUMNS = {"a": ("id", "k", "x", "z", "s"), "b": ("bid", "k", "y", "tag"),
                 "c": ("cid", "k", "w")}
_JOIN_TYPES = {"k": "INTEGER", "x": "REAL", "z": "INTEGER", "s": "TEXT", "y": "INTEGER",
               "tag": "TEXT", "w": "INTEGER"}

_join_data = st.tuples(
    st.lists(st.tuples(  # a.k 4 and 5 never find a partner in b
        st.one_of(st.none(), st.integers(0, 5)),
        st.sampled_from([None, -2.5, 0.0, 1.5, 3.0, 7.25]),
        st.sampled_from([None, 0, 0, 1, 2]),
        st.sampled_from([None, "p", "q"]),
    ), max_size=12),
    st.lists(st.tuples(
        st.one_of(st.none(), st.integers(0, 3)),
        st.sampled_from([None, -3, 0, 0, 1, 2]),
        st.sampled_from([None, "p", "q", "r"]),
    ), max_size=10),
    st.lists(st.tuples(st.integers(0, 4), st.integers(-5, 5)), max_size=6),
)


def _arith(op: str, a, b):
    """SQL arithmetic as minidb evaluates it: NULL in, NULL out."""
    if a is None or b is None:
        return None
    if op == "*":
        return a * b
    if op == "-":
        return a - b
    if b == 0:
        raise ProgrammingError("division by zero" if op == "/" else "modulo by zero")
    return a / b if op == "/" else a % b


def _over(r: dict, column: str, offset: int):
    """``a.x / (column - offset)``: raises on the one row where column == offset."""
    return _arith("/", r["a.x"], _arith("-", r[column], offset))


#: WHERE conjunct -> its truth on one joined row (a dict keyed alias.column)
_CONJUNCTS = {
    # pushable: driving-table column against literals, never raising
    "a.x > 1.0": lambda r: r["a.x"] is not None and r["a.x"] > 1.0,
    "2 <= a.k": lambda r: r["a.k"] is not None and 2 <= r["a.k"],
    "a.k IN (1, 2, 4)": lambda r: r["a.k"] in (1, 2, 4),
    "a.s IS NULL": lambda r: r["a.s"] is None,
    "s <> 'q'": lambda r: r["a.s"] is not None and r["a.s"] != "q",
    "a.z IS NOT NULL": lambda r: r["a.z"] is not None,
    "id = 2": lambda r: r["a.id"] == 2,  # an index probe, wherever it is written
    # joined-table conjuncts
    "b.tag IN ('p', 'r')": lambda r: r["b.tag"] in ("p", "r"),
    "tag = 'q'": lambda r: r["b.tag"] == "q",
    "c.w > 0": lambda r: r["c.w"] is not None and r["c.w"] > 0,
    # conjuncts that raise on one row, of the driving table or of the join
    "a.x / (a.id - 3) < 2.0": lambda r: (v := _over(r, "a.id", 3)) is not None and v < 2.0,
    "a.x / (b.bid - 2) > 0.5": lambda r: (v := _over(r, "b.bid", 2)) is not None and v > 0.5,
}
#: each kind as likely as the others: pushable, joined-table, raising
_CONJUNCT_KINDS = (list(_CONJUNCTS)[:7], list(_CONJUNCTS)[7:10], list(_CONJUNCTS)[10:])

#: shared aggregate argument -> its value on one joined row
_ARGUMENTS = {
    "a.x * b.y": lambda r: _arith("*", r["a.x"], r["b.y"]),
    "a.x % b.y": lambda r: _arith("%", r["a.x"], r["b.y"]),
    "a.x - a.z": lambda r: _arith("-", r["a.x"], r["a.z"]),
}


def _nested_loop(tables: dict, joins: list[tuple[str, bool, str]]):
    """Joined rows in minidb's order: each left row, then its partners in
    table order, or one NULL-padded row for an unmatched LEFT JOIN."""
    rows = [{f"a.{col}": v for col, v in zip(_JOIN_COLUMNS["a"], row)} for row in tables["a"]]
    for alias, left_outer, left_key in joins:
        columns = [f"{alias}.{col}" for col in _JOIN_COLUMNS[alias]]
        joined = []
        for row in rows:
            partners = [
                dict(zip(columns, right)) for right in tables[alias]
                if row[left_key] is not None and row[left_key] == right[1]
            ]
            if left_outer and not partners:
                partners = [dict.fromkeys(columns)]
            joined.extend({**row, **partner} for partner in partners)
        rows = joined
    return rows


def _reference(
    rows: list[dict], aliases: set, where: list[str], shape: str, argument: str
) -> list[tuple]:
    """Filter, then project or aggregate, one row at a time — so the first
    error raised is the one a streaming executor meets first."""
    if "c.w > 0" in where and "c" not in aliases:
        raise ProgrammingError("unknown column c.w")  # binding fails before any row
    if "id = 2" in where:  # the primary-key probe: row 2 alone meets the other conjuncts
        rows = [row for row in rows if row["a.id"] == 2]
    out, groups = [], {}
    for row in rows:
        if not all(_CONJUNCTS[conj](row) for conj in where):
            continue
        if shape == "rows":
            out.append((row["a.id"], row["a.x"], row["b.bid"], row["b.y"]))
            continue
        state = groups.setdefault(row["a.k"] if shape == "group" else (), [0, 0, 0, None, None])
        state[0] += 1
        value = _ARGUMENTS[argument](row)
        if value is not None:
            state[1] += 1
            state[2] += value
            if state[3] is None or float(value) < float(state[3]):
                state[3] = value
            if state[4] is None or float(value) > float(state[4]):
                state[4] = value
    if shape == "rows":
        return out
    if shape == "total" and not groups:
        groups[()] = [0, 0, 0, None, None]
    return [
        (*((key,) if shape == "group" else ()), star,
         total if n else None, low, high, total / n if n else None)
        for key, (star, n, total, low, high) in groups.items()
    ]


class TestJoinDifferential:
    """Joins, WHERE conjuncts and shared aggregate arguments against a
    plain-Python nested loop: the same rows in the same order, repr for
    repr, or the same first error."""

    def test_joins_filters_and_aggregates_match_a_nested_loop(self, oracle_seed):
        @seed(0x10DB + oracle_seed)
        @settings(max_examples=300, deadline=None, database=None)
        @given(
            _join_data,
            st.booleans(),
            st.sampled_from([None, ("a.k", False), ("a.k", True), ("b.k", False), ("b.k", True)]),
            st.lists(
                st.one_of(*(st.sampled_from(kind) for kind in _CONJUNCT_KINDS)),
                min_size=1, max_size=4,
            ),
            st.sampled_from(["rows", "total", "group"]),
            st.sampled_from(sorted(_ARGUMENTS)),
        )
        def check(data, b_outer, c_join, where, shape, argument):
            db = Database("joins")
            tables = {}
            for alias, rows in zip("abc", data):
                columns = _JOIN_COLUMNS[alias]
                db.execute(
                    f"CREATE TABLE {alias} ({columns[0]} INTEGER PRIMARY KEY, "
                    + ", ".join(f"{col} {_JOIN_TYPES[col]}" for col in columns[1:]) + ")"
                )
                tables[alias] = [(i + 1, *row) for i, row in enumerate(rows)]
                if rows:
                    db.load_rows(alias, list(columns), tables[alias])
            joins = [("b", b_outer, "a.k")]
            sql_joins = f"{'LEFT ' if b_outer else ''}JOIN b ON a.k = b.k"
            if c_join is not None:
                joins.append(("c", c_join[1], c_join[0]))
                sql_joins += f" {'LEFT ' if c_join[1] else ''}JOIN c ON {c_join[0]} = c.k"
            aggregates = f"COUNT(*), SUM({argument}), MIN({argument}), MAX({argument}), " \
                f"AVG({argument})"
            select = {"rows": "a.id, a.x, b.bid, b.y", "total": aggregates,
                      "group": f"a.k, {aggregates}"}[shape]
            sql = f"SELECT {select} FROM a {sql_joins}"
            if where:
                sql += " WHERE " + " AND ".join(where)
            if shape == "group":
                sql += " GROUP BY a.k"
            outcomes = []
            for run in (
                lambda: db.query(sql).rows,
                lambda: _reference(
                    _nested_loop(tables, joins), {"a", *(j[0] for j in joins)},
                    where, shape, argument,
                ),
            ):
                try:
                    outcomes.append(repr(run()))
                except ProgrammingError as exc:
                    outcomes.append(f"{type(exc).__name__}: {exc}")
            assert outcomes[0] == outcomes[1], sql

        check()
