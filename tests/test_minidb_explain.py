"""Tests for EXPLAIN: plan descriptions must match planner decisions."""

import pytest

from repro.minidb import Database, ProgrammingError


@pytest.fixture()
def db():
    database = Database("x")
    database.execute(
        "CREATE TABLE runs (runid INTEGER PRIMARY KEY, machine TEXT, numprocs INTEGER)"
    )
    database.execute("CREATE TABLE procs (pid INTEGER PRIMARY KEY, runid INTEGER)")
    database.execute("CREATE INDEX idx_machine ON runs (machine)")
    return database


class TestExplain:
    def test_pk_lookup_uses_index(self, db):
        plan = db.explain("SELECT * FROM runs WHERE runid = 5")
        assert "IndexLookup runs" in plan
        assert "runid = 5" in plan
        assert "Filter" not in plan  # single conjunct fully consumed

    def test_secondary_index_chosen(self, db):
        plan = db.explain("SELECT * FROM runs WHERE machine = ?", ["alpha"])
        assert "USING idx_machine" in plan

    def test_unindexed_predicate_scans(self, db):
        plan = db.explain("SELECT * FROM runs WHERE numprocs = 4")
        assert plan.startswith("SeqScan runs")
        assert "Filter" in plan

    def test_residual_filter_after_index(self, db):
        plan = db.explain("SELECT * FROM runs WHERE runid = 5 AND numprocs = 4")
        assert "IndexLookup" in plan and "Filter" in plan

    def test_inequality_cannot_use_index(self, db):
        plan = db.explain("SELECT * FROM runs WHERE runid > 5")
        assert "SeqScan" in plan

    def test_or_disables_index(self, db):
        plan = db.explain("SELECT * FROM runs WHERE runid = 5 OR numprocs = 4")
        assert "SeqScan" in plan

    def test_equi_join_uses_hash_join(self, db):
        plan = db.explain(
            "SELECT * FROM runs r JOIN procs p ON r.runid = p.runid"
        )
        assert "HashJoin (Inner) procs" in plan

    def test_left_join_annotated(self, db):
        plan = db.explain(
            "SELECT * FROM runs r LEFT JOIN procs p ON r.runid = p.runid"
        )
        assert "HashJoin (Left)" in plan

    def test_non_equi_join_nested_loop(self, db):
        plan = db.explain("SELECT * FROM runs r JOIN procs p ON r.runid < p.runid")
        assert "NestedLoopJoin" in plan

    def test_aggregate_sort_limit_stages(self, db):
        plan = db.explain(
            "SELECT machine, COUNT(*) FROM runs GROUP BY machine "
            "HAVING COUNT(*) > 1 ORDER BY machine LIMIT 3 OFFSET 1"
        )
        for stage in ("Aggregate", "Having", "Sort", "Limit 3 Offset 1"):
            assert stage in plan

    def test_distinct_stage(self, db):
        assert "Distinct" in db.explain("SELECT DISTINCT machine FROM runs")

    def test_explain_rejects_non_select(self, db):
        with pytest.raises(ProgrammingError):
            db.explain("DELETE FROM runs")

    def test_explain_matches_execution_for_smg98_query(self, smg98_db):
        # The Table 4 SMG98 query: no execid index (by design), hash joins.
        sql = (
            "SELECT i.start_ts, i.end_ts FROM intervals i "
            "JOIN functions f ON i.funcid = f.funcid "
            "WHERE i.execid = 1 AND f.name = 'MPI_Irecv'"
        )
        plan = smg98_db.explain(sql).splitlines()
        assert plan[0] == "SeqScan intervals AS i"
        # i.execid = 1 filters the intervals before the join; f.name after
        assert plan[1].strip() == "-> Filter (before joins)"
        assert plan[2].strip() == "-> HashJoin (Inner) functions AS f"
        assert plan[3].strip() == "-> Filter"
        rows = smg98_db.query(sql).rows  # and it runs what explain prints
        joined = smg98_db.query(
            "SELECT i.execid, f.name, i.start_ts, i.end_ts FROM intervals i "
            "JOIN functions f ON i.funcid = f.funcid"
        ).rows
        assert rows and rows == [row[2:] for row in joined if row[:2] == (1, "MPI_Irecv")]

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT r.machine FROM runs r JOIN procs p ON r.runid = p.runid WHERE runid = 1",
            "SELECT p.pid FROM procs p JOIN runs r ON p.runid = r.runid WHERE runid = 1",
        ],
    )
    def test_an_ambiguous_column_is_never_an_index_probe(self, db, sql):
        # runs.runid has an index, procs.runid none: both raise alike
        for call in (db.query, db.explain):
            with pytest.raises(ProgrammingError, match="ambiguous column 'runid'"):
                call(sql)
        qualified = sql.replace("WHERE runid", "WHERE r.runid")
        assert db.explain(qualified).splitlines()[0].startswith(
            "IndexLookup runs" if "FROM runs" in sql else "SeqScan procs"
        )

    def test_no_filter_is_pushed_past_a_nested_loop_or_on_residual(self, db):
        for join in ("r.runid < p.runid", "r.runid = p.runid AND p.pid > 1"):
            plan = db.explain(
                f"SELECT * FROM runs r JOIN procs p ON {join} WHERE r.numprocs = 4"
            )
            assert "before joins" not in plan and "-> Filter" in plan
