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


# ------------------------------- aggregates where value and sort_key disagree

_NAN_A, _NAN_B = float("nan"), float("nan")  # two objects, equal to nothing
_WIDE = 2**53  # 2**53 and 2**53 + 1 are one float
_HUGE = 10**400  # no float holds it
_AGG_COLUMNS = ("i", "r", "b", "s")
_AGG_TYPES = ("INTEGER", "REAL", "BOOLEAN", "TEXT")

_agg_rows = st.lists(st.tuples(
    st.sampled_from([None, 0, 1, 2, _WIDE, _WIDE + 1]),
    st.sampled_from([None, 0.0, -0.0, 1.0, 2.5, float(_WIDE), _NAN_A, _NAN_B]),
    st.sampled_from([None, True, False]),
    st.sampled_from([None, "", "1", "a"]),
), max_size=14)


def _coalesce(*values):
    return next((v for v in values if v is not None), None)


def _divide(a, b):
    if a is None or b is None:
        return None
    if b == 0:
        raise ProgrammingError("division by zero")
    return a / b


#: expression -> its value on one row (a dict keyed by column); group keys
#: and aggregate arguments draw from the same table
_AGG_EXPRS = {
    "i": lambda r: r["i"],
    "r": lambda r: r["r"],
    "b": lambda r: r["b"],
    "s": lambda r: r["s"],
    "COALESCE(b, i)": lambda r: _coalesce(r["b"], r["i"]),  # True beside 1
    "COALESCE(i, r)": lambda r: _coalesce(r["i"], r["r"]),  # 1 beside 1.0
    "COALESCE(s, i)": lambda r: _coalesce(r["s"], r["i"]),  # text beside numbers
    "r / i": lambda r: _divide(r["r"], r["i"]),  # raises where i = 0
}
_AGG_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")
#: HAVING -> (the aggregates it reads, its truth on one group's values)
_HAVING = {
    "": ((), None),
    "COUNT(*) > 1": (("COUNT(*)",), lambda g: g["COUNT(*)"] > 1),
    "MIN(r) IS NOT NULL": (("MIN(r)",), lambda g: g["MIN(r)"] is not None),
    "SUM(i) > 2": (("SUM(i)",), lambda g: g["SUM(i)"] is not None and g["SUM(i)"] > 2),
}
#: ORDER BY -> (the aggregate it reads, descending)
_ORDER = {"": None, "COUNT(*) DESC": ("COUNT(*)", True),
          "MAX(COALESCE(s, i))": ("MAX(COALESCE(s, i))", False), "SUM(r)": ("SUM(r)", False)}


def _sort_key(value) -> tuple:
    """The engine's total order: NULL, then booleans, numbers, text."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, float(value))
    return (3, value)


def _aggregate_reference(rows: list[dict], keys: list[str], calls: list[str],
                         having: str, order: str) -> list[tuple]:
    """Group by sort_key, then fold one row at a time: SUM from 0 in scan
    order, a strict comparison keeping the first of equal MIN / MAX values,
    and each row raising before the next is read."""
    states: dict[tuple, tuple[tuple, dict]] = {}
    for row in rows:
        values = tuple(_AGG_EXPRS[key](row) for key in keys)
        group = states.setdefault(tuple(map(_sort_key, values)), (values, {}))[1]
        for call in calls:
            name, arg = call.split("(", 1)
            value = 1 if arg == "*)" else _AGG_EXPRS[arg[:-1]](row)
            state = group.setdefault(call, [0, 0, None])
            if value is None:
                continue
            state[0] += 1
            if name in ("SUM", "AVG"):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ProgrammingError(f"{name} requires numeric input, got {value!r}")
                state[1] += value
            elif name in ("MIN", "MAX"):
                key = _sort_key(value)  # raises on an integer beyond float range
                if state[2] is None or (
                    key < _sort_key(state[2]) if name == "MIN" else key > _sort_key(state[2])
                ):
                    state[2] = value
    if not states and not keys:
        states[()] = ((), {})
    out = []
    for values, group in states.values():
        folded = {}
        for call in calls:
            count, total, best = group.get(call, (0, 0, None))
            name = call.split("(", 1)[0]
            folded[call] = count if name == "COUNT" else None if not count else (
                total if name == "SUM" else total / count if name == "AVG" else best
            )
        if having and not _HAVING[having][1](folded):
            continue
        out.append((values + tuple(folded[c] for c in calls), folded))
    if order:
        call, descending = _ORDER[order]
        out.sort(key=lambda pair: -pair[1][call] if descending else _sort_key(pair[1][call]))
    return [row for row, _ in out]


def _check_aggregate(rows, keys: list[str], selected: list[str], having: str, order: str):
    db = Database("aggregates")
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, "
        + ", ".join(f"{c} {t}" for c, t in zip(_AGG_COLUMNS, _AGG_TYPES)) + ")"
    )
    if rows:
        db.load_rows("t", ["id", *_AGG_COLUMNS], [(n + 1, *row) for n, row in enumerate(rows)])
    sql = f"SELECT {', '.join([*keys, *selected])} FROM t"
    if keys:
        sql += f" GROUP BY {', '.join(keys)}"
    if having:
        sql += f" HAVING {having}"
    if order:
        sql += f" ORDER BY {order}"
    # the engine folds every distinct call: the select list, then HAVING, then ORDER BY
    calls = list(dict.fromkeys(
        [*selected, *_HAVING[having][0], *([_ORDER[order][0]] if order else [])]
    ))
    dict_rows = [dict(zip(_AGG_COLUMNS, row)) for row in rows]
    outcomes = []
    for run in (
        lambda: db.query(sql).rows,
        lambda: [row[:len(keys) + len(selected)] for row in
                 _aggregate_reference(dict_rows, keys, calls, having, order)],
    ):
        try:
            outcomes.append(repr(run()))
        except (ProgrammingError, OverflowError) as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    assert outcomes[0] == outcomes[1], sql


_ROW = dict.fromkeys(_AGG_COLUMNS)


def _rows(*changes: dict) -> list[tuple]:
    return [tuple({**_ROW, **change}[c] for c in _AGG_COLUMNS) for change in changes]


class TestAggregateDifferential:
    """Grouped aggregates where grouping by raw value and by sort_key
    disagree, against a row-at-a-time Python fold: the same rows, repr for
    repr, or the same first error."""

    @pytest.mark.parametrize("rows, keys, selected", [
        # True and 1 are two groups; 1 and 1.0 are one, keyed by the first
        (_rows({"b": True}, {"i": 1}, {"b": True}), ["COALESCE(b, i)"], ["COUNT(*)"]),
        (_rows({"i": 1}, {"r": 1.0}, {"i": 1}), ["COALESCE(i, r)"], ["COUNT(*)", "SUM(r)"]),
        (_rows({"r": 1.0}, {"i": 1}), ["COALESCE(i, r)"], ["COUNT(*)"]),
        # 2**53 and 2**53 + 1 are one float: one group, by a plain column too
        (_rows({"i": _WIDE + 1}, {"i": _WIDE}, {"i": 2}), ["i"], ["COUNT(*)", "SUM(i)"]),
        (_rows({"i": _WIDE}, {"r": float(_WIDE)}), ["COALESCE(i, r)"], ["COUNT(*)"]),
        # two NaN objects are two groups; one object met twice is one
        (_rows({"r": _NAN_A}, {"r": _NAN_B}, {"r": _NAN_A}), ["r"], ["COUNT(*)"]),
        # 0.0 and -0.0 are one group keyed by whichever arrives first
        (_rows({"r": 0.0}, {"r": -0.0}), ["r"], ["COUNT(*)", "SUM(r)", "MIN(r)", "MAX(r)"]),
        (_rows({"r": -0.0}, {"r": 0.0}), ["r"], ["COUNT(*)", "SUM(r)", "MIN(r)", "MAX(r)"]),
        (_rows({"s": "a"}, {}, {"s": "a"}, {}), ["s", "b"], ["COUNT(*)", "COUNT(s)"]),
        # SUM folds left from 0 in scan order: 2**53 + 1.0 + 1.0 stays 2**53,
        # and a lone -0.0 sums to 0.0
        (_rows({"r": float(_WIDE)}, {"r": 1.0}, {"r": 1.0}), [], ["SUM(r)", "AVG(r)"]),
        (_rows({"r": -0.0}), [], ["SUM(r)", "AVG(r)"]),
        # MIN / MAX across kinds: numbers before text, first of equal values
        (_rows({"s": "1"}, {"i": 1}, {"i": 2}, {"s": ""}), [], ["MIN(COALESCE(s, i))",
                                                          "MAX(COALESCE(s, i))"]),
        (_rows({"i": _WIDE + 1}, {"i": _WIDE}), [], ["MIN(i)", "MAX(i)"]),
        # SUM over a bool or text raises at the first such row, in call order
        (_rows({"i": 1}, {"b": False}), [], ["SUM(COALESCE(b, i))"]),
        (_rows({"s": "a", "i": 0}), [], ["MIN(r / i)", "SUM(s)"]),
        (_rows({"s": "a", "i": 0}), [], ["SUM(s)", "MIN(r / i)"]),
        (_rows({"i": 1}, {"s": "a", "i": 0}), [], ["AVG(s)", "MAX(r / i)"]),
        (_rows({"r": 1.0, "i": 0}, {"s": "a"}), ["s"], ["SUM(s)", "MIN(r / i)"]),
        # the first error in row order, not in group order
        (_rows({"i": 1}, {"s": "a", "r": 1.0, "i": 0}, {"b": True}), ["s"],
         ["SUM(COALESCE(b, i))", "MIN(r / i)"]),
        (_rows({"r": 1.0, "i": 1}, {"r": 1.0, "i": 0}), ["r / i"], ["AVG(s)"]),
        # an integer beyond float range overflows a running SUM, a MIN/MAX
        # sort key or a group key at its row, before a later row's error
        (_rows({"r": 1.0}, {"i": _HUGE}, {"s": "a"}), [], ["SUM(COALESCE(i, r))", "SUM(s)"]),
        (_rows({"s": "a"}, {"r": 1.0}, {"i": _HUGE}), [], ["SUM(COALESCE(i, r))", "SUM(s)"]),
        (_rows({"i": _HUGE}, {"s": "a"}), [], ["MAX(i)", "AVG(s)"]),
        (_rows({"i": _HUGE}, {"s": "a"}), ["i"], ["SUM(s)"]),
        ([], [], ["COUNT(*)", "SUM(i)", "MIN(s)"]),
    ])
    def test_named_cases(self, rows, keys, selected):
        _check_aggregate(rows, keys, selected, "", "")

    @pytest.mark.parametrize("having", sorted(_HAVING)[1:])
    @pytest.mark.parametrize("order", sorted(_ORDER)[1:])
    def test_having_and_order_by_aggregates(self, having, order):
        rows = _rows({"i": 1, "r": 2.5, "s": "a"}, {"i": 2, "r": 1.0}, {"i": 1, "s": "1"},
                     {"b": True, "r": -0.0}, {"i": 2, "r": _NAN_A}, {"i": 1, "r": 0.0})
        _check_aggregate(rows, ["COALESCE(b, i)"], ["COUNT(s)"], having, order)

    def test_groups_and_folds_match_a_row_at_a_time_loop(self, oracle_seed):
        @seed(0xA66 + oracle_seed)
        @settings(max_examples=300, deadline=None, database=None)
        @given(
            _agg_rows,
            st.lists(st.sampled_from(sorted(_AGG_EXPRS)), max_size=2, unique=True),
            st.lists(st.one_of(st.just("COUNT(*)"), st.builds(
                "{}({})".format, st.sampled_from(_AGG_FUNCS), st.sampled_from(sorted(_AGG_EXPRS))
            )), min_size=1, max_size=4, unique=True),
            st.sampled_from(sorted(_HAVING)),
            st.sampled_from(sorted(_ORDER)),
        )
        def check(rows, keys, selected, having, order):
            _check_aggregate(rows, keys, selected, having, order)

        check()
