"""The set-oriented RDBMS Mapping Layer and the parse-once minidb under it.

* differential: a multi-focus ``get_pr`` / ``get_pr_aggregate`` equals,
  on ``pack()`` strings, the request-order fold of one-focus calls —
  the fold order is part of the contract, it fixes every float sum;
* cost guard: statements per call are *counted* through a ``Database``
  proxy, never timed, and so are the rows the ``/Code`` aggregate's
  first join receives; a ``getStats`` reads each store once;
* minidb: ``?`` is a token bound by value — no parameter leaks through
  the statement memo, none passes through SQL text;
* the SOAP surface answers infinite ``getPRAgg`` bounds alike on every
  kind of store and rejects ``nan`` before any store sees it.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.core.semantic import UNDEFINED_TYPE, AggregateRecord, PerformanceResult
from repro.datastores.generators.smg98 import generate_smg98
from repro.experiments.common import build_synthetic_grid
from repro.datastores.perfdmf import profile_from_trace
from repro.mapping import (
    HplRdbmsWrapper,
    MappingError,
    PerfDmfWrapper,
    PrestaRdbmsWrapper,
    Smg98RdbmsWrapper,
)
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper
from repro.minidb import Database, ProgrammingError, connect
from repro.minidb import executor
from repro.minidb.expr import BoundExpr, ColumnRef, InList, Literal, RowLayout
from repro.minidb.types import compare_values
from repro.soap import SoapFault


def packed(records) -> list[str]:
    return [record.pack() for record in records]


def fold(per_focus: list[list[AggregateRecord]]) -> list[str]:
    """Reference fold: absorb each focus's buckets in request order."""
    buckets: dict[str, list] = {}
    for records in per_focus:
        for r in records:
            acc = buckets.get(r.group)
            if acc is None:
                buckets[r.group] = [0 + r.count, 0.0 + r.total, r.minimum, r.maximum]
            else:
                acc[0] += r.count
                acc[1] += r.total
                acc[2] = min(acc[2], r.minimum)
                acc[3] = max(acc[3], r.maximum)
    return packed(AggregateRecord(key, *acc) for key, acc in sorted(buckets.items()))


def value_bounds(execution, metric: str, foci: list[str]) -> list[tuple]:
    """(None, low, mid, above-max) ``(min_value, max_value)`` pairs."""
    values = sorted(
        pr.value for pr in execution.get_pr(metric, foci, 0.0, 0.0, UNDEFINED_TYPE)
    )
    if not values:
        return [(None, None), (0.0, None)]
    mid = values[len(values) // 2]
    return [(None, None), (values[0], None), (mid, values[-1]), (None, mid),
            (values[-1] + 1.0, None)]


def windows(execution) -> list[tuple[float, float]]:
    start, end = execution.get_time_start_end()
    return [(start, end), (start, (start + end) / 2), (end * 2 + 1, end * 3 + 1)]


def assert_set_equals_per_focus(execution, metric: str, foci: list[str]) -> None:
    for start, end in windows(execution):
        whole = execution.get_pr(metric, foci, start, end, UNDEFINED_TYPE)
        parts = [execution.get_pr(metric, [f], start, end, UNDEFINED_TYPE) for f in foci]
        assert packed(whole) == [p for part in parts for p in packed(part)]
        for group_by in ("", "focus"):
            for low, high in value_bounds(execution, metric, foci):
                args = (start, end, UNDEFINED_TYPE, low, high, group_by)
                whole_agg = execution.get_pr_aggregate(metric, foci, *args)
                assert packed(whole_agg) == fold(
                    [execution.get_pr_aggregate(metric, [f], *args) for f in foci]
                ), (metric, group_by, low, high, start, end)


# ------------------------------------------------------------ differential


@pytest.fixture(scope="module")
def smg98_execution():
    # every one-focus call scans all of `intervals`: keep the table small
    dataset = generate_smg98(
        seed=11, num_executions=2, intervals_per_execution=150, messages_per_execution=30
    )
    app = Smg98RdbmsWrapper(dataset.to_database())
    return app.execution(app.get_all_exec_ids()[0])


@pytest.fixture(scope="module")
def presta_execution(presta_dataset):
    app = PrestaRdbmsWrapper(presta_dataset.to_database())
    return app.execution(app.get_all_exec_ids()[0])


def focus_orders(foci: list[str], extra: list[str], seed: int) -> dict[str, list[str]]:
    shuffled = foci + extra
    random.Random(0x5E7 + seed).shuffle(shuffled)
    return {
        "all": foci,
        "duplicated": foci + foci[:3] + foci[-2:],
        "shuffled": shuffled,
        "one": foci[:1],
        "none": [],
    }


class TestSmg98Differential:
    @pytest.mark.parametrize(
        "metric", ["func_calls", "msg_bytes", "msg_count", "msg_deliv_time", "time_spent"]
    )
    @pytest.mark.parametrize("order", ["all", "duplicated", "shuffled", "one", "none"])
    def test_multi_focus_is_the_fold_of_single_foci(
        self, smg98_execution, oracle_seed, metric, order
    ):
        # a rank past numprocs has no intervals; an unknown function none either
        extra = [f"/Process/{smg98_execution.numprocs + 5}", "/Code/MPI/MPI_Nope"]
        foci = focus_orders(smg98_execution.get_foci(), extra, oracle_seed)[order]
        assert_set_equals_per_focus(smg98_execution, metric, foci)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("/Code/MPI", "bad /Code focus '/Code/MPI'"),
            ("/Code/MPI/a/b", "bad /Code focus '/Code/MPI/a/b'"),
            ("/Process/one", "bad /Process focus '/Process/one'"),
            ("/Process/1/2", "bad /Process focus '/Process/1/2'"),
            ("/Nowhere", "unknown SMG98 focus '/Nowhere'"),
            ("/Messages/1-2", "unknown SMG98 focus '/Messages/1-2'"),
        ],
    )
    def test_bad_focus_raises_the_same_text_alone_or_in_a_family(
        self, smg98_execution, bad, message
    ):
        foci = smg98_execution.get_foci()
        for request in ([bad], foci[:4] + [bad] + foci[4:]):
            for metric in ("time_spent", "msg_count"):
                with pytest.raises(MappingError) as raised:
                    smg98_execution.get_pr(metric, request, 0.0, 0.0, UNDEFINED_TYPE)
                assert str(raised.value) == message
                with pytest.raises(MappingError) as raised:
                    smg98_execution.get_pr_aggregate(metric, request, 0.0, 0.0, UNDEFINED_TYPE)
                assert str(raised.value) == message

    def test_first_bad_focus_in_request_order_wins(self, smg98_execution):
        with pytest.raises(MappingError, match="unknown SMG98 focus '/B'"):
            smg98_execution.get_pr(
                "time_spent", ["/Messages", "/B", "/Code/x"], 0.0, 0.0, UNDEFINED_TYPE
            )

    def test_unknown_metric_and_group_by(self, smg98_execution):
        foci = smg98_execution.get_foci()
        with pytest.raises(MappingError, match="unknown SMG98 metric 'nope'"):
            smg98_execution.get_pr("nope", foci, 0.0, 0.0, UNDEFINED_TYPE)
        with pytest.raises(MappingError, match="unknown SMG98 metric 'nope'"):
            smg98_execution.get_pr_aggregate("nope", foci, 0.0, 0.0, UNDEFINED_TYPE)
        with pytest.raises(MappingError, match="unsupported aggregate group_by 'rank'"):
            smg98_execution.get_pr_aggregate(
                "time_spent", foci, 0.0, 0.0, UNDEFINED_TYPE, group_by="rank"
            )

    def test_foreign_type_matches_nothing(self, smg98_execution):
        foci = smg98_execution.get_foci()
        assert smg98_execution.get_pr("time_spent", foci, 0.0, 0.0, "hpl") == []
        assert smg98_execution.get_pr_aggregate("time_spent", foci, 0.0, 0.0, "hpl") == []


class TestPrestaRdbmsDifferential:
    @pytest.mark.parametrize("metric", ["bandwidth_mbps", "latency_us"])
    @pytest.mark.parametrize("order", ["all", "duplicated", "shuffled", "one", "none"])
    def test_multi_focus_is_the_fold_of_single_foci(
        self, presta_execution, oracle_seed, metric, order
    ):
        foci = focus_orders(presta_execution.get_foci(), ["/Op/nope"], oracle_seed)[order]
        assert_set_equals_per_focus(presta_execution, metric, foci)

    def test_errors_keep_their_text(self, presta_execution):
        foci = presta_execution.get_foci()
        for call in (presta_execution.get_pr, presta_execution.get_pr_aggregate):
            with pytest.raises(MappingError) as raised:
                call("latency_us", foci + ["/Run"], 0.0, 0.0, UNDEFINED_TYPE)
            assert str(raised.value) == "unknown PRESTA focus '/Run'"
            with pytest.raises(MappingError) as raised:
                call("nope", foci, 0.0, 0.0, UNDEFINED_TYPE)
            assert str(raised.value) == "unknown PRESTA metric 'nope'"


# -------------------------------------------------------------- cost guard


class CountingDatabase(Database):
    """Delegates to a generated ``Database``, counting ``execute`` calls."""

    def __init__(self, inner: Database) -> None:  # state lives in *inner*
        self._inner = inner
        self.statements: list[str] = []

    def execute(self, sql, params=None):
        self.statements.append(sql)
        return self._inner.execute(sql, params)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestStatementsPerCall:
    """A count, so a reintroduced per-focus loop fails deterministically."""

    @pytest.fixture()
    def counted(self, smg98_db):
        db = CountingDatabase(smg98_db)
        app = Smg98RdbmsWrapper(db)
        execution = app.execution(app.get_all_exec_ids()[0])
        foci = execution.get_foci()
        del db.statements[:]
        return db, execution, foci

    @pytest.mark.parametrize(
        "metric", ["func_calls", "msg_bytes", "msg_count", "msg_deliv_time", "time_spent"]
    )
    @pytest.mark.parametrize("group_by", ["", "focus"])
    def test_all_foci_take_at_most_three_statements(self, counted, metric, group_by):
        db, execution, foci = counted
        assert len(foci) > 20
        execution.get_pr_aggregate(
            metric, foci + foci, 0.0, 0.0, UNDEFINED_TYPE, 0.0, None, group_by
        )
        assert 1 <= len(db.statements) <= 3, db.statements
        del db.statements[:]
        execution.get_pr(metric, foci + foci, 0.0, 0.0, UNDEFINED_TYPE)
        assert 1 <= len(db.statements) <= 3, db.statements

    @pytest.mark.parametrize(
        "metric, focus",
        [
            ("time_spent", "/Code/MPI/MPI_Allreduce"),
            ("func_calls", "/Code/MPI/MPI_Allreduce"),
            ("time_spent", "/Process/1"),
            ("func_calls", "/Process/0"),
            ("msg_deliv_time", "/Messages"),
            ("msg_count", "/Messages"),
        ],
    )
    def test_one_focus_is_exactly_one_statement(self, counted, metric, focus):
        db, execution, _ = counted
        for group_by in ("", "focus"):
            del db.statements[:]
            execution.get_pr_aggregate(
                metric, [focus], 0.0, 0.0, UNDEFINED_TYPE, None, None, group_by
            )
            assert len(db.statements) == 1, db.statements
        del db.statements[:]
        assert execution.get_pr(metric, [focus], 0.0, 0.0, UNDEFINED_TYPE)
        assert len(db.statements) == 1, db.statements

    def test_code_aggregate_joins_one_executions_intervals(self, counted, monkeypatch):
        """The /Code aggregate's first hash join is fed this execution's
        interval rows — ``i.execid = ?`` filters them before the join —
        while the table is still scanned whole: a count of rows."""
        db, execution, foci = counted
        fed: list[tuple[str, list[tuple]]] = []
        join_rows = executor._join_rows

        def counting(left_rows, join):
            taken: list[tuple] = []
            fed.append((join.clause.table.table, taken))
            return join_rows((taken.append(row) or row for row in left_rows), join)

        monkeypatch.setattr(executor, "_join_rows", counting)
        code = [focus for focus in foci if focus.startswith("/Code/")]
        assert execution.get_pr_aggregate("time_spent", code, 0.0, 0.0, UNDEFINED_TYPE)
        assert len(db.statements) == 1, db.statements
        [(table, rows)] = fed
        execid = db.table("intervals").schema.column_index("execid")
        own = db.query(
            "SELECT COUNT(*) FROM intervals WHERE execid = ?", [execution.execid]
        ).scalar()
        assert table == "functions"
        assert len(rows) == own < len(db.table("intervals"))
        assert {row[execid] for row in rows} == {execution.execid}

    def test_presta_is_one_statement_per_call(self, presta_dataset):
        db = CountingDatabase(presta_dataset.to_database())
        app = PrestaRdbmsWrapper(db)
        execution = app.execution(app.get_all_exec_ids()[0])
        foci = execution.get_foci()
        assert len(foci) > 1
        for group_by in ("", "focus"):
            del db.statements[:]
            execution.get_pr_aggregate(
                "latency_us", foci, 0.0, 0.0, UNDEFINED_TYPE, None, None, group_by
            )
            assert len(db.statements) == 1, db.statements
        del db.statements[:]
        execution.get_pr("latency_us", foci, 0.0, 0.0, UNDEFINED_TYPE)
        assert len(db.statements) == 1, db.statements

    def test_the_store_stays_the_source_of_truth(self, smg98_dataset):
        """No family result is kept between calls: an insert shows at once."""
        db = smg98_dataset.to_database()
        app = Smg98RdbmsWrapper(db)
        execution = app.execution(app.get_all_exec_ids()[0])
        foci = execution.get_foci()
        before = execution.get_pr_aggregate("time_spent", foci, 0.0, 0.0, UNDEFINED_TYPE)
        template = db.query(
            "SELECT procid, funcid FROM intervals WHERE execid = ?", [execution.execid]
        ).rows[0]
        db.execute(
            "INSERT INTO intervals VALUES (?, ?, ?, ?, ?, ?)",
            [10_000_000, execution.execid, *template, 0.0, execution.runtime],
        )
        after = execution.get_pr_aggregate("time_spent", foci, 0.0, 0.0, UNDEFINED_TYPE)
        assert after[0].count > before[0].count
        assert before[0].maximum < execution.runtime <= after[0].maximum


class TestStatsStatementsPerCall:
    """``getStats`` reads each store once: the scan that builds the
    tier-0 sketches also yields the row counts and ranges, so no SQL
    ``COUNT``/``MIN``/``MAX`` repeats it.  SMG98 publishes no sketch and
    answers from its aggregates alone.  No count includes an attribute
    enumeration: the stats carry per-metric summaries and nothing
    keyed on a group attribute."""

    @pytest.fixture()
    def stores(self, hpl_dataset, presta_dataset, smg98_dataset):
        return {
            "HPL": (HplRdbmsWrapper, hpl_dataset.to_database()),
            "PRESTA": (PrestaRdbmsWrapper, presta_dataset.to_database()),
            "PerfDMF": (PerfDmfWrapper, profile_from_trace(smg98_dataset).to_database()),
            "SMG98": (Smg98RdbmsWrapper, smg98_dataset.to_database()),
        }

    @pytest.mark.parametrize(
        "store, at_most",  # (application, execution)
        [("HPL", (1, 1)), ("PRESTA", (3, 3)), ("PerfDMF", (4, 4)), ("SMG98", (6, 4))],
    )
    def test_statements_per_get_stats(self, stores, store, at_most):
        wrapper_class, database = stores[store]
        db = CountingDatabase(database)
        app = wrapper_class(db)
        execution = app.execution(app.get_all_exec_ids()[0])
        counts = []
        for wrapper in (app, execution):
            del db.statements[:]
            wrapper.get_stats()
            counts.append(len(db.statements))
        assert all(1 <= n <= most for n, most in zip(counts, at_most)), counts
        if store == "SMG98":  # pinned: its aggregates are the whole read
            assert tuple(counts) == at_most


# ------------------------------------------------------------------ minidb


@pytest.fixture()
def db():
    database = Database("params")
    database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, grp TEXT, x REAL, ok BOOLEAN, note TEXT)"
    )
    database.load_rows(
        "t",
        ["id", "grp", "x", "ok", "note"],
        [(1, "MPI", 1.5, True, "a"), (2, "MPI", 2.5, False, None),
         (3, "SMG", 3.5, True, "c"), (4, "why?", -4.5, False, "d")],
    )
    return database


class TestParseOnceBindByValue:
    def test_one_text_many_parameter_sets(self, db):
        sql = "SELECT id FROM t WHERE grp = ? AND x >= ? ORDER BY id"
        assert db.query(sql, ["MPI", 0.0]).column("id") == [1, 2]
        assert db.query(sql, ["MPI", 2.0]).column("id") == [2]
        assert db.query(sql, ["SMG", 0.0]).column("id") == [3]
        assert db.query(sql, ["MPI", 0.0]).column("id") == [1, 2]  # nothing leaked

    def test_text_is_parsed_once(self, db, monkeypatch):
        import repro.minidb.sql_parser as sql_parser

        lexed: list[str] = []
        tokenize = sql_parser.tokenize
        monkeypatch.setattr(
            sql_parser, "tokenize", lambda sql: lexed.append(sql) or tokenize(sql)
        )
        sql = "SELECT COUNT(*) FROM t WHERE id > ?"
        assert [db.query(sql, [n]).scalar() for n in (0, 2, 9)] == [4, 2, 0]
        assert lexed == [sql]

    def test_ddl_between_two_executions_of_one_text(self, db):
        sql = "SELECT id FROM t WHERE grp = ? ORDER BY id"
        assert db.query(sql, ["MPI"]).column("id") == [1, 2]
        assert db.explain(sql, ["MPI"]).startswith("SeqScan")
        db.execute("CREATE INDEX idx_grp ON t (grp)")
        assert db.explain(sql, ["MPI"]).startswith("IndexLookup t AS t USING idx_grp (grp = 'MPI')")
        assert db.query(sql, ["MPI"]).column("id") == [1, 2]
        db.execute("DROP TABLE t")
        with pytest.raises(ProgrammingError, match="no table 't'"):
            db.query(sql, ["MPI"])
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp TEXT)")
        db.execute("INSERT INTO t VALUES (?, ?)", [7, "MPI"])
        assert db.query(sql, ["MPI"]).column("id") == [7]

    @pytest.mark.parametrize(
        "value",
        [0, -3, 2**70, 1.5, -0.0, 5e-324, 1e308, float("inf"), float("-inf"),
         "", "o'brien", "two\nlines -- not a comment", "what?", '"quoted"', "inf", "NULL",
         True, False, None],
    )
    def test_values_round_trip_without_passing_through_text(self, value):
        kind = {bool: "BOOLEAN", int: "INTEGER", float: "REAL"}.get(type(value), "TEXT")
        database = Database()
        database.execute(f"CREATE TABLE v (id INTEGER PRIMARY KEY, val {kind})")
        database.execute("INSERT INTO v VALUES (?, ?)", [1, value])
        stored = database.query("SELECT val FROM v WHERE id = ?", [1]).scalar()
        assert stored == value and type(stored) is type(value)
        if isinstance(value, float):
            assert math.copysign(1.0, stored) == math.copysign(1.0, value)
        if value is not None:
            assert database.query("SELECT id FROM v WHERE val = ?", [value]).column("id") == [1]

    def test_infinite_bounds_are_open_bounds(self, db):
        sql = "SELECT COUNT(*) FROM t WHERE (x) >= ? AND (x) <= ?"
        assert db.query(sql, [float("-inf"), float("inf")]).scalar() == 4
        assert db.query(sql, [float("inf"), float("inf")]).scalar() == 0

    def test_placeholder_after_a_comment_holding_a_question_mark(self, db):
        rows = db.query("SELECT id FROM t -- why?\n WHERE grp = ? ORDER BY id", ["MPI"])
        assert rows.column("id") == [1, 2]

    def test_question_mark_in_quoted_identifier_and_string_is_text(self):
        database = Database()
        database.execute('CREATE TABLE q ("ok?" INTEGER, tag TEXT)')
        database.execute('INSERT INTO q ("ok?", tag) VALUES (?, \'why?\')', [1])
        assert database.query('SELECT tag FROM q WHERE "ok?" = ?', [1]).scalar() == "why?"

    def test_arity_errors_keep_their_words(self, db):
        sql = "SELECT id FROM t WHERE grp = ? AND x > ?"
        for call in (db.query, db.explain):
            with pytest.raises(ProgrammingError) as raised:
                call(sql, ["MPI"])
            assert str(raised.value) == "not enough parameters for placeholders"
            with pytest.raises(ProgrammingError) as raised:
                call(sql)
            assert str(raised.value) == "not enough parameters for placeholders"
            with pytest.raises(ProgrammingError) as raised:
                call(sql, ["MPI", 1.0, 2.0])
            assert str(raised.value) == "too many parameters for placeholders"
        with pytest.raises(ProgrammingError) as raised:
            db.query("SELECT id FROM t WHERE grp = 'why?'", ["MPI"])
        assert str(raised.value) == "too many parameters for placeholders"

    def test_explain_binds_like_execute(self, db):
        plan = db.explain("SELECT grp FROM t WHERE id = ? AND x > ?", [-2, float("inf")])
        assert plan.splitlines()[0] == "IndexLookup t AS t USING __pk_t (id = -2)"

    def test_limit_and_offset_take_placeholders(self, db):
        sql = "SELECT id FROM t WHERE x > ? ORDER BY id LIMIT ? OFFSET ?"
        assert db.query(sql, [0.0, 2, 1]).column("id") == [2, 3]
        assert db.query(sql, [0.0, 0, 0]).column("id") == []
        assert db.query(sql, [-9.0, 9, 3]).column("id") == [4]
        assert db.explain(sql, [0.0, 2, 1]).splitlines()[-1].strip() == "-> Limit 2 Offset 1"
        for bad in (-1, 2.5, "2", None, True):
            with pytest.raises(ProgrammingError, match="LIMIT must be a non-negative integer"):
                db.query("SELECT id FROM t LIMIT ?", [bad])
        with pytest.raises(ProgrammingError, match="OFFSET must be a non-negative integer"):
            db.query("SELECT id FROM t LIMIT 1 OFFSET ?", [-1])

    def test_in_list_of_bound_literals_keeps_sql_semantics(self, db):
        ids = lambda sql, params: db.query(sql, params).column("id")  # noqa: E731
        assert ids("SELECT id FROM t WHERE grp IN (?, ?) ORDER BY id", ["SMG", "why?"]) == [3, 4]
        assert ids("SELECT id FROM t WHERE id IN (?, ?) ORDER BY id", [1.0, 3]) == [1, 3]
        assert ids("SELECT id FROM t WHERE x IN (?, ?) ORDER BY id", [1.5, 3]) == [1]
        assert ids("SELECT id FROM t WHERE id IN (?) ORDER BY id", [True]) == []
        assert ids("SELECT id FROM t WHERE ok IN (?) ORDER BY id", [1]) == []
        assert ids("SELECT id FROM t WHERE note NOT IN (?, ?) ORDER BY id", ["a", "zz"]) == [3, 4]
        assert ids("SELECT id FROM t WHERE grp IN (?, ?) ORDER BY id", ["MPI", 3]) == [1, 2]

    def test_literal_in_list_answers_as_the_member_by_member_comparison(self):
        """Every operand against every one- and two-member literal list,
        hashed or not, equals ``any(compare_values(v, m) == 0)``."""
        nan = float("nan")
        domain = [None, True, False, 0, 1, 2**70, -0.0, 1.0, 2.5, float("inf"), nan,
                  "", "1", "MPI", "nan"]
        layout = RowLayout([("t", "v")])
        lists = [(a,) for a in domain] + list(itertools.product(domain, repeat=2))
        for members, negated in itertools.product(lists, (False, True)):
            probe = BoundExpr(
                InList(ColumnRef(None, "v"), tuple(Literal(m) for m in members), negated), layout
            )
            for v in domain:
                hit = any(compare_values(v, m) == 0 for m in members)
                expected = False if v is None else hit != negated
                assert probe.eval((v,)) is expected, (v, members, negated)

    def test_executemany_rebinds_one_template(self):
        conn = connect()
        conn.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, s TEXT)")
        conn.cursor().executemany("INSERT INTO e VALUES (?, ?)", [(1, "a"), (2, "b'c")])
        assert conn.execute("SELECT s FROM e ORDER BY id").fetchall() == [("a",), ("b'c",)]


# ------------------------------------------------------------ SOAP surface


@pytest.fixture(scope="module")
def synthetic_member():
    results = [
        PerformanceResult("m", f"/f{i % 2}", "synthetic", 0.0, 1.0, float(i)) for i in range(6)
    ]
    wrapper = InMemoryWrapper(
        "MEM", [InMemoryExecution(exec_id="1", attrs={"numprocs": "2"}, results=results)]
    )
    grid = build_synthetic_grid({"MEM": wrapper})
    services = [s for org in grid.client.discover_organizations("%") for s in org.services()]
    yield grid.client.bind(services[0])
    grid.cleanup()


class TestNonFiniteBoundsOverSoap:
    """``getPRAgg`` bounds: ±inf is an open bound on every store, nan on none."""

    @pytest.fixture()
    def members(self, shared_grid, synthetic_member):
        return [
            (shared_grid.bind("HPL").all_executions()[0], "gflops", ["/Run"]),
            (shared_grid.bind("SMG98").all_executions()[0], "time_spent", None),
            (shared_grid.bind("SMG98").all_executions()[0], "msg_deliv_time", ["/Messages"]),
            (shared_grid.bind("PRESTA-RMA").all_executions()[0], "latency_us", None),
            (synthetic_member.all_executions()[0], "m", ["/f0", "/f1"]),
        ]

    def test_infinite_bounds_select_what_no_bound_selects(self, members):
        inf = float("inf")
        for execution, metric, foci in members:
            foci = foci or execution.foci()
            for group_by in ("", "focus"):
                unbounded = packed(execution.get_pr_agg(metric, foci, group_by=group_by))
                assert unbounded
                for low, high in ((-inf, None), (None, inf), (-inf, inf)):
                    assert packed(execution.get_pr_agg(
                        metric, foci, min_value=low, max_value=high, group_by=group_by
                    )) == unbounded
                for low, high in ((inf, None), (None, -inf)):
                    assert execution.get_pr_agg(
                        metric, foci, min_value=low, max_value=high, group_by=group_by
                    ) == []

    def test_nan_is_rejected_once_for_every_store(self, members):
        nan = float("nan")
        for execution, metric, foci in members:
            foci = foci or execution.foci()
            for low, high in ((nan, None), (None, nan)):
                with pytest.raises(SoapFault, match="bad getPRAgg bound"):
                    execution.get_pr_agg(metric, foci, min_value=low, max_value=high)
