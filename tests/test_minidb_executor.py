"""Tests for query execution: scans, joins, aggregates, ordering, DML."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minidb import Database, IntegrityError, ProgrammingError
from repro.minidb.expr import like_match


@pytest.fixture()
def db():
    database = Database("test")
    database.execute(
        "CREATE TABLE runs (runid INTEGER PRIMARY KEY, machine TEXT, "
        "numprocs INTEGER, gflops REAL, note TEXT)"
    )
    rows = [
        (1, "alpha", 4, 2.0, None),
        (2, "alpha", 8, 4.5, "good"),
        (3, "beta", 4, 1.5, "bad"),
        (4, "beta", 16, 9.0, None),
        (5, "gamma", 8, 5.5, "good"),
    ]
    for row in rows:
        database.execute(
            "INSERT INTO runs VALUES (?, ?, ?, ?, ?)", row
        )
    database.execute(
        "CREATE TABLE procs (pid INTEGER PRIMARY KEY, runid INTEGER, node TEXT)"
    )
    for pid, runid, node in [(1, 1, "n0"), (2, 1, "n1"), (3, 2, "n0"), (4, 99, "nX")]:
        database.execute("INSERT INTO procs VALUES (?, ?, ?)", (pid, runid, node))
    return database


class TestSelectBasics:
    def test_star(self, db):
        result = db.query("SELECT * FROM runs")
        assert result.columns == ["runid", "machine", "numprocs", "gflops", "note"]
        assert len(result) == 5

    def test_projection_and_expression(self, db):
        result = db.query("SELECT runid, gflops * 2 AS doubled FROM runs WHERE runid = 1")
        assert result.columns == ["runid", "doubled"]
        assert result.rows == [(1, 4.0)]

    def test_where_filters(self, db):
        result = db.query("SELECT runid FROM runs WHERE machine = 'alpha'")
        assert result.column("runid") == [1, 2]

    def test_comparison_operators(self, db):
        assert db.query("SELECT COUNT(*) FROM runs WHERE gflops >= 4.5").scalar() == 3
        assert db.query("SELECT COUNT(*) FROM runs WHERE numprocs <> 4").scalar() == 3
        assert db.query("SELECT COUNT(*) FROM runs WHERE gflops < 2.0").scalar() == 1

    def test_null_comparisons_are_false(self, db):
        assert db.query("SELECT COUNT(*) FROM runs WHERE note = 'good'").scalar() == 2
        assert db.query("SELECT COUNT(*) FROM runs WHERE note != 'good'").scalar() == 1

    def test_is_null(self, db):
        assert db.query("SELECT COUNT(*) FROM runs WHERE note IS NULL").scalar() == 2
        assert db.query("SELECT COUNT(*) FROM runs WHERE note IS NOT NULL").scalar() == 3

    def test_in_and_between(self, db):
        assert db.query("SELECT COUNT(*) FROM runs WHERE runid IN (1, 3, 99)").scalar() == 2
        assert db.query("SELECT COUNT(*) FROM runs WHERE gflops BETWEEN 2 AND 6").scalar() == 3
        assert db.query("SELECT COUNT(*) FROM runs WHERE runid NOT IN (1)").scalar() == 4

    def test_like(self, db):
        assert db.query("SELECT COUNT(*) FROM runs WHERE machine LIKE 'a%'").scalar() == 2
        assert db.query("SELECT COUNT(*) FROM runs WHERE machine LIKE '_eta'").scalar() == 2
        assert db.query("SELECT COUNT(*) FROM runs WHERE machine NOT LIKE '%a'").scalar() == 0

    def test_scalar_functions(self, db):
        row = db.query(
            "SELECT UPPER(machine), LOWER('ABC'), LENGTH(machine), ABS(-2), "
            "ROUND(1.567, 1), COALESCE(note, 'none') FROM runs WHERE runid = 1"
        ).rows[0]
        assert row == ("ALPHA", "abc", 5, 2, 1.6, "none")

    def test_string_concat(self, db):
        value = db.query(
            "SELECT machine || '-' || note FROM runs WHERE runid = 2"
        ).scalar()
        assert value == "alpha-good"

    def test_division_by_zero_raises(self, db):
        with pytest.raises(ProgrammingError):
            db.query("SELECT 1 / 0 FROM runs")

    def test_unknown_column_raises(self, db):
        with pytest.raises(ProgrammingError):
            db.query("SELECT nonsense FROM runs")

    def test_unknown_table_raises(self, db):
        with pytest.raises(ProgrammingError):
            db.query("SELECT * FROM nonsense")

    def test_ambiguous_column_raises(self, db):
        with pytest.raises(ProgrammingError):
            db.query("SELECT runid FROM runs r JOIN procs p ON r.runid = p.runid")


class TestOrderingAndLimits:
    def test_order_by_column(self, db):
        result = db.query("SELECT runid FROM runs ORDER BY gflops DESC")
        assert result.column("runid") == [4, 5, 2, 1, 3]

    def test_order_by_position_and_alias(self, db):
        by_pos = db.query("SELECT runid, gflops FROM runs ORDER BY 2")
        by_alias = db.query("SELECT runid, gflops AS g FROM runs ORDER BY g")
        assert by_pos.column("runid") == by_alias.column("runid") == [3, 1, 2, 5, 4]

    def test_order_by_multiple_keys(self, db):
        result = db.query("SELECT machine, runid FROM runs ORDER BY machine, runid DESC")
        assert result.rows == [
            ("alpha", 2),
            ("alpha", 1),
            ("beta", 4),
            ("beta", 3),
            ("gamma", 5),
        ]

    def test_nulls_sort_first(self, db):
        result = db.query("SELECT note FROM runs ORDER BY note")
        assert result.rows[0] == (None,) and result.rows[1] == (None,)

    def test_limit_offset(self, db):
        result = db.query("SELECT runid FROM runs ORDER BY runid LIMIT 2 OFFSET 1")
        assert result.column("runid") == [2, 3]

    def test_limit_zero(self, db):
        assert len(db.query("SELECT * FROM runs LIMIT 0")) == 0

    def test_distinct(self, db):
        result = db.query("SELECT DISTINCT machine FROM runs ORDER BY machine")
        assert result.column("machine") == ["alpha", "beta", "gamma"]

    def test_order_by_position_out_of_range(self, db):
        with pytest.raises(ProgrammingError):
            db.query("SELECT runid FROM runs ORDER BY 5")


class TestAggregates:
    def test_global_aggregates(self, db):
        row = db.query(
            "SELECT COUNT(*), COUNT(note), SUM(gflops), AVG(numprocs), "
            "MIN(gflops), MAX(machine) FROM runs"
        ).rows[0]
        assert row == (5, 3, 22.5, 8.0, 1.5, "gamma")

    def test_group_by(self, db):
        result = db.query(
            "SELECT machine, COUNT(*) n, SUM(gflops) total FROM runs "
            "GROUP BY machine ORDER BY machine"
        )
        assert result.rows == [("alpha", 2, 6.5), ("beta", 2, 10.5), ("gamma", 1, 5.5)]

    def test_having(self, db):
        result = db.query(
            "SELECT machine FROM runs GROUP BY machine HAVING COUNT(*) > 1 ORDER BY machine"
        )
        assert result.column("machine") == ["alpha", "beta"]

    def test_group_expression_in_output(self, db):
        result = db.query(
            "SELECT numprocs * 2 AS d, COUNT(*) FROM runs GROUP BY numprocs * 2 ORDER BY d"
        )
        assert result.rows == [(8, 2), (16, 2), (32, 1)]

    def test_aggregate_over_empty_input(self, db):
        row = db.query("SELECT COUNT(*), SUM(gflops) FROM runs WHERE runid > 100").rows[0]
        assert row == (0, None)

    def test_group_by_empty_input_yields_no_rows(self, db):
        result = db.query(
            "SELECT machine, COUNT(*) FROM runs WHERE runid > 100 GROUP BY machine"
        )
        assert result.rows == []

    def test_avg_ignores_nulls(self, db):
        db.execute("INSERT INTO runs VALUES (6, 'delta', 2, NULL, NULL)")
        assert db.query("SELECT AVG(gflops) FROM runs").scalar() == pytest.approx(4.5)

    def test_bare_column_without_group_rejected(self, db):
        with pytest.raises(ProgrammingError):
            db.query("SELECT machine, COUNT(*) FROM runs")

    def test_non_group_column_rejected(self, db):
        with pytest.raises(ProgrammingError):
            db.query("SELECT runid FROM runs GROUP BY machine")

    def test_order_by_aggregate(self, db):
        result = db.query(
            "SELECT machine, SUM(gflops) s FROM runs GROUP BY machine ORDER BY SUM(gflops) DESC"
        )
        assert result.column("machine") == ["beta", "alpha", "gamma"]

    def test_sum_of_text_rejected(self, db):
        with pytest.raises(ProgrammingError):
            db.query("SELECT SUM(machine) FROM runs")

    def test_equal_looking_arguments_are_evaluated_apart(self, db):
        # x + 1 and x + 1.0 compare equal as trees; each keeps its own kind
        row = db.query("SELECT SUM(numprocs + 1), MAX(numprocs + 1.0), MIN(-numprocs) FROM runs")
        assert repr(row.rows) == "[(45, 17.0, -16)]"

    def test_equal_looking_calls_are_answered_apart(self, db):
        # SUM(x + 1) and SUM(x + 1.0) are two calls, not one answered twice
        row = db.query("SELECT SUM(numprocs + 1), SUM(numprocs + 1.0) FROM runs")
        assert repr(row.rows) == "[(45, 45.0)]"

    def test_equal_looking_group_key_is_not_the_output_expression(self, db):
        # numprocs + 1 is not the group key numprocs + 1.0
        with pytest.raises(ProgrammingError, match="must appear in GROUP BY"):
            db.query("SELECT numprocs + 1, COUNT(*) FROM runs GROUP BY numprocs + 1.0")
        result = db.query(
            "SELECT numprocs + 1.0, COUNT(*) FROM runs GROUP BY numprocs + 1.0 "
            "ORDER BY numprocs + 1.0"
        )
        assert repr(result.rows) == "[(5.0, 2), (9.0, 2), (17.0, 1)]"

    def test_an_argument_error_is_raised_by_its_first_user(self, db):
        # SUM(machine) rejects 'alpha' before MIN(runid / 0) is evaluated
        with pytest.raises(ProgrammingError, match="SUM requires numeric input"):
            db.query("SELECT COUNT(*), SUM(machine), MIN(runid / 0), MAX(machine) FROM runs")
        with pytest.raises(ProgrammingError, match="division by zero"):
            db.query("SELECT COUNT(*), MIN(runid / 0), SUM(machine), MAX(runid / 0) FROM runs")

    def test_an_aggregate_needs_an_argument(self, db):
        with pytest.raises(ProgrammingError, match=r"SUM\(\) needs an argument"):
            db.query("SELECT SUM() FROM runs")


class TestJoins:
    def test_inner_join(self, db):
        result = db.query(
            "SELECT r.runid, p.node FROM runs r JOIN procs p ON r.runid = p.runid "
            "ORDER BY p.pid"
        )
        assert result.rows == [(1, "n0"), (1, "n1"), (2, "n0")]

    def test_left_join_pads_nulls(self, db):
        result = db.query(
            "SELECT r.runid, p.node FROM runs r LEFT JOIN procs p ON r.runid = p.runid "
            "WHERE p.node IS NULL ORDER BY r.runid"
        )
        assert result.column("runid") == [3, 4, 5]

    def test_join_with_residual_condition(self, db):
        result = db.query(
            "SELECT p.pid FROM runs r JOIN procs p ON r.runid = p.runid AND p.node = 'n0' "
            "ORDER BY p.pid"
        )
        assert result.column("pid") == [1, 3]

    def test_non_equi_join_falls_back_to_nested_loop(self, db):
        result = db.query(
            "SELECT COUNT(*) FROM runs r JOIN procs p ON r.runid < p.runid"
        )
        # run ids {1..5} x proc run ids {1,1,2,99}: 0+0+1+5 pairs satisfy <
        assert result.scalar() == 6

    def test_three_way_join(self, db):
        db.execute("CREATE TABLE notes (runid INTEGER, text TEXT)")
        db.execute("INSERT INTO notes VALUES (1, 'n')")
        result = db.query(
            "SELECT r.runid FROM runs r JOIN procs p ON r.runid = p.runid "
            "JOIN notes n ON n.runid = r.runid"
        )
        assert result.column("runid") == [1, 1]


class TestDml:
    def test_update_with_where(self, db):
        count = db.execute("UPDATE runs SET gflops = 0 WHERE machine = 'alpha'")
        assert count == 2
        assert db.query("SELECT SUM(gflops) FROM runs").scalar() == 16.0

    def test_update_all(self, db):
        assert db.execute("UPDATE runs SET note = 'x'") == 5

    def test_update_expression_uses_old_values(self, db):
        db.execute("UPDATE runs SET gflops = gflops + numprocs WHERE runid = 1")
        assert db.query("SELECT gflops FROM runs WHERE runid = 1").scalar() == 6.0

    def test_delete(self, db):
        assert db.execute("DELETE FROM runs WHERE numprocs = 4") == 2
        assert db.query("SELECT COUNT(*) FROM runs").scalar() == 3

    def test_insert_partial_columns(self, db):
        db.execute("INSERT INTO runs (runid, machine, numprocs, gflops) VALUES (9, 'x', 1, 0.1)")
        assert db.query("SELECT note FROM runs WHERE runid = 9").scalar() is None

    def test_insert_count_mismatch(self, db):
        with pytest.raises(ProgrammingError):
            db.execute("INSERT INTO runs (runid, machine) VALUES (1, 'x', 'extra')")

    def test_pk_duplicate_rejected(self, db):
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO runs VALUES (1, 'dup', 1, 1.0, NULL)")

    def test_pk_null_rejected(self, db):
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO runs VALUES (NULL, 'x', 1, 1.0, NULL)")

    def test_type_coercion_on_insert(self, db):
        db.execute("INSERT INTO runs VALUES (10, 'x', 2, 3, NULL)")  # int -> REAL
        assert db.query("SELECT gflops FROM runs WHERE runid = 10").scalar() == 3.0

    def test_type_mismatch_rejected(self, db):
        with pytest.raises(ProgrammingError):
            db.execute("INSERT INTO runs VALUES (11, 12, 2, 3.0, NULL)")
        with pytest.raises(ProgrammingError):
            db.execute("INSERT INTO runs VALUES (11, 'x', 2.5, 3.0, NULL)")


class TestIndexUse:
    def test_index_lookup_equals_scan_results(self, db):
        db.execute("CREATE INDEX idx_machine ON runs (machine)")
        indexed = db.query("SELECT runid FROM runs WHERE machine = 'beta' ORDER BY runid")
        assert indexed.column("runid") == [3, 4]

    def test_index_updated_by_dml(self, db):
        db.execute("CREATE INDEX idx_machine ON runs (machine)")
        db.execute("UPDATE runs SET machine = 'delta' WHERE runid = 3")
        assert db.query("SELECT runid FROM runs WHERE machine = 'delta'").column("runid") == [3]
        db.execute("DELETE FROM runs WHERE machine = 'beta'")
        assert db.query("SELECT COUNT(*) FROM runs WHERE machine = 'beta'").scalar() == 0

    def test_pk_lookup_after_many_deletes_and_compaction(self, db):
        # Force the tombstone compaction path.
        for i in range(100, 200):
            db.execute("INSERT INTO runs VALUES (?, 'bulk', 1, 1.0, NULL)", [i])
        db.execute("DELETE FROM runs WHERE machine = 'bulk'")
        assert db.query("SELECT COUNT(*) FROM runs").scalar() == 5
        assert db.query("SELECT machine FROM runs WHERE runid = 4").scalar() == "beta"


class TestPlaceholders:
    def test_binding(self, db):
        result = db.query("SELECT runid FROM runs WHERE machine = ? AND numprocs = ?", ("alpha", 8))
        assert result.column("runid") == [2]

    def test_string_escaping(self, db):
        db.execute("INSERT INTO runs VALUES (50, ?, 1, 1.0, ?)", ["o'brien", "it's"])
        assert db.query("SELECT note FROM runs WHERE runid = 50").scalar() == "it's"

    def test_question_mark_inside_string_literal_kept(self, db):
        db.execute("INSERT INTO runs VALUES (51, 'what?', 1, 1.0, NULL)")
        assert db.query("SELECT machine FROM runs WHERE runid = 51").scalar() == "what?"

    def test_too_few_params(self, db):
        with pytest.raises(ProgrammingError):
            db.query("SELECT * FROM runs WHERE runid = ? AND machine = ?", (1,))

    def test_too_many_params(self, db):
        with pytest.raises(ProgrammingError):
            db.query("SELECT * FROM runs WHERE runid = ?", (1, 2))

    def test_none_and_bool_literals(self, db):
        db.execute("INSERT INTO runs VALUES (?, ?, ?, ?, ?)", [60, "m", 1, 1.0, None])
        assert db.query("SELECT note FROM runs WHERE runid = 60").scalar() is None


# --------------------------------------------------------- property tests


class TestLikeMatchProperties:
    @given(st.text(alphabet="ab%_", max_size=8), st.text(alphabet="ab", max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_like_match_agrees_with_regex(self, pattern, text):
        import re

        regex = "^" + "".join(
            ".*" if c == "%" else "." if c == "_" else re.escape(c) for c in pattern
        ) + "$"
        assert like_match(text, pattern) == bool(re.match(regex, text))

    def test_percent_matches_empty(self):
        assert like_match("", "%")
        assert like_match("abc", "%")
        assert not like_match("abc", "_")
