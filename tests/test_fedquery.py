"""Tests for the federated query subsystem (repro.fedquery)."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.core.client import PPerfGridClient
from repro.experiments.common import GridScale, build_grid, build_synthetic_grid
from repro.fedquery import (
    Accumulator,
    FEDERATED_QUERY_PORTTYPE,
    Predicate,
    QueryError,
    ResultRow,
    SelectItem,
    choose_fanout,
    naive_query,
    order_rows,
    parse_query,
    plan_query,
)
from repro.fedquery.merge import (
    RAW_COLUMNS, StreamingMerger, TaskContext, _render_column, answer_order, execution_runs,
    raw_answer, read_rows, render, run_chunks,
)
from repro.fedquery.planner import SubQuery
from repro.core.semantic import (
    AggregateRecord, PerformanceResult, ResultColumns, column_keys, ordering_key,
)
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper
from repro.soap.colbatch import DecodedBatch


@pytest.fixture(scope="module")
def fed_grid():
    """A tiny grid with a deployed FederatedQuery service.

    Module-scoped (not the session ``shared_grid``) because
    ``deploy_federation`` repoints the grid's client at the service.
    """
    grid = build_grid(GridScale.tiny())
    grid.deploy_federation()
    yield grid
    grid.cleanup()


def rows_equal(left: list[ResultRow], right: list[ResultRow]) -> bool:
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if a.columns != b.columns:
            return False
        for va, vb in zip(a.values, b.values):
            if isinstance(va, float) or isinstance(vb, float):
                if not math.isclose(float(va), float(vb), rel_tol=1e-9, abs_tol=1e-12):
                    return False
            elif va != vb:
                return False
    return True


class TestParser:
    def test_full_grammar(self):
        q = parse_query(
            "SELECT mean(time_spent), count(time_spent) FROM SMG98 "
            "WHERE numprocs >= 16 AND focus = '/Code/MPI' "
            "GROUP BY numprocs ORDER BY numprocs DESC LIMIT 3"
        )
        assert q.select == (
            SelectItem("time_spent", "mean"),
            SelectItem("time_spent", "count"),
        )
        assert q.sources == ("SMG98",)
        assert q.where == (
            Predicate("numprocs", ">=", "16"),
            Predicate("focus", "=", "/Code/MPI"),
        )
        assert q.group_by == ("numprocs",)
        assert q.order_by == "numprocs"
        assert q.order_desc is True
        assert q.limit == 3

    def test_minimal_query(self):
        q = parse_query("SELECT gflops")
        assert q.select == (SelectItem("gflops"),)
        assert q.sources == () and q.where == () and q.limit is None
        assert not q.is_aggregate

    def test_keywords_case_insensitive(self):
        q = parse_query("select Count(x) from HPL group by app order by app asc")
        assert q.aggregates[0].func == "count"
        assert q.order_desc is False

    def test_in_list(self):
        q = parse_query("SELECT gflops WHERE numprocs IN (2, 8, 16)")
        assert q.where == (Predicate("numprocs", "in", ("2", "8", "16")),)

    def test_order_by_aggregate_label(self):
        q = parse_query("SELECT count(gflops) GROUP BY app ORDER BY count(gflops)")
        assert q.order_by == "count(gflops)"

    def test_quoted_literals(self):
        q = parse_query("SELECT gflops WHERE machine = 'jefferson node'")
        assert q.where[0].value == "jefferson node"

    def test_unquoted_path_literals(self):
        q = parse_query("SELECT time_spent WHERE focus = /Code/MPI/MPI_Allreduce")
        assert q.where[0].value == "/Code/MPI/MPI_Allreduce"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "SELECT",
            "gflops",  # no SELECT keyword
            "SELECT gflops WHERE",
            "SELECT gflops WHERE machine = 'unterminated",
            "SELECT gflops LIMIT many",
            "SELECT gflops LIMIT -1",
            "SELECT gflops trailing",
            "SELECT median(gflops)",  # unknown aggregate
            "SELECT gflops, count(gflops)",  # raw + aggregate mix
            "SELECT gflops GROUP BY numprocs",  # GROUP BY without aggregate
            "SELECT count(gflops) ORDER BY nothere",  # not an output column
            "SELECT count(gflops) GROUP BY value",  # reserved group key
            "SELECT gflops WHERE value = notanumber",
            "SELECT gflops WHERE focus > '/a'",  # focus only supports = / IN
            "SELECT gflops WHERE type != hpl",  # type only supports =
            "SELECT gflops WHERE start <= 5",  # start only supports >=
            "SELECT gflops WHERE numprocs ? 4",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(QueryError):
            parse_query(bad)


class TestFingerprint:
    def test_where_and_from_order_normalized(self):
        a = parse_query("SELECT count(x) FROM A, B WHERE p = 1 AND q = 2 GROUP BY app")
        b = parse_query("SELECT count(x) FROM B, A WHERE q = 2 AND p = 1 GROUP BY app")
        assert a.fingerprint() == b.fingerprint()

    def test_in_values_normalized(self):
        a = parse_query("SELECT count(x) WHERE p IN (1, 2)")
        b = parse_query("SELECT count(x) WHERE p IN (2, 1)")
        assert a.fingerprint() == b.fingerprint()

    def test_select_order_preserved(self):
        a = parse_query("SELECT count(x), mean(x)")
        b = parse_query("SELECT mean(x), count(x)")
        assert a.fingerprint() != b.fingerprint()

    def test_group_order_preserved(self):
        a = parse_query("SELECT count(x) GROUP BY app, numprocs")
        b = parse_query("SELECT count(x) GROUP BY numprocs, app")
        assert a.fingerprint() != b.fingerprint()

    def test_limit_and_order_distinguish(self):
        base = parse_query("SELECT count(x) GROUP BY app").fingerprint()
        assert parse_query("SELECT count(x) GROUP BY app LIMIT 5").fingerprint() != base
        assert (
            parse_query("SELECT count(x) GROUP BY app ORDER BY app DESC").fingerprint()
            != base
        )


CATALOG = {
    "HPL": {"numprocs": ["1", "2"], "machine": ["wyeast"]},
    "SMG98": {"numprocs": ["8", "16"], "nx": ["32"]},
    "PRESTA-RMA": {"numprocs": ["16"], "network": ["myrinet"]},
}


class TestPlanner:
    def test_prunes_by_from_clause(self):
        plan = plan_query(parse_query("SELECT count(gflops) FROM HPL GROUP BY app"), CATALOG, {})
        assert [m.app for m in plan.members] == ["HPL"]
        assert sorted(p.app for p in plan.pruned) == ["PRESTA-RMA", "SMG98"]
        assert all("FROM" in p.reason for p in plan.pruned)

    def test_prunes_by_app_predicate(self):
        plan = plan_query(parse_query("SELECT count(x) WHERE app != HPL GROUP BY app"), CATALOG, {})
        assert sorted(m.app for m in plan.members) == ["PRESTA-RMA", "SMG98"]

    def test_prunes_unpublished_attribute(self):
        plan = plan_query(parse_query("SELECT count(x) WHERE nx = 32 GROUP BY app"), CATALOG, {})
        assert [m.app for m in plan.members] == ["SMG98"]
        reasons = {p.app: p.reason for p in plan.pruned}
        assert "nx" in reasons["HPL"]

    def test_prunes_unpublished_group_attribute(self):
        plan = plan_query(parse_query("SELECT count(x) GROUP BY network"), CATALOG, {})
        assert [m.app for m in plan.members] == ["PRESTA-RMA"]

    def test_aggregate_mode_with_inclusive_bounds(self):
        plan = plan_query(
            parse_query("SELECT mean(x) WHERE value >= 1 AND value <= 9 GROUP BY app"),
            CATALOG,
            {},
        )
        assert plan.mode == "aggregate"
        sub = plan.members[0].subqueries[0]
        assert (sub.min_value, sub.max_value) == (1.0, 9.0)

    def test_raw_mode_on_strict_value_predicate(self):
        plan = plan_query(parse_query("SELECT mean(x) WHERE value > 1 GROUP BY app"), CATALOG, {})
        assert plan.mode == "raw"
        assert plan.members[0].subqueries[0].min_value is None

    def test_raw_mode_for_raw_select(self):
        plan = plan_query(parse_query("SELECT gflops FROM HPL"), CATALOG, {})
        assert plan.mode == "raw"

    def test_in_predicate_decomposes_to_union(self):
        plan = plan_query(
            parse_query("SELECT count(x) WHERE numprocs IN (8, 16) GROUP BY app"),
            CATALOG,
            {},
        )
        selector = plan.members[0].selector
        assert selector.conjuncts == ((("numprocs", "8", "="), ("numprocs", "16", "=")),)

    def test_conjuncts_intersect(self):
        plan = plan_query(
            parse_query("SELECT count(x) FROM SMG98 WHERE numprocs >= 8 AND nx = 32 GROUP BY app"),
            CATALOG,
            {},
        )
        selector = plan.members[0].selector
        assert len(selector.conjuncts) == 2

    def test_window_and_focus_pushdown(self):
        plan = plan_query(
            parse_query(
                "SELECT count(x) WHERE start >= 1.5 AND end <= 9.5 "
                "AND focus IN ('/a', '/b') GROUP BY app"
            ),
            CATALOG,
            {},
        )
        assert plan.window == (1.5, 9.5)
        assert plan.members[0].foci == frozenset({"/a", "/b"})

    def test_group_by_focus_flag(self):
        plan = plan_query(parse_query("SELECT count(x) GROUP BY focus"), CATALOG, {})
        assert plan.members[0].subqueries[0].group_by_focus is True
        assert plan.members[0].needs_info is False

    def test_explain_mentions_everything(self):
        plan = plan_query(
            parse_query("SELECT mean(x) FROM HPL WHERE numprocs = 2 GROUP BY machine"),
            CATALOG,
            {},
        )
        text = plan.explain()
        assert "mode: aggregate" in text
        assert "getExecsOp(numprocs, '2', =)" in text
        assert "pruned SMG98" in text and "pruned PRESTA-RMA" in text


class TestAccumulator:
    def test_add_matches_python_aggregates(self):
        values = [3.5, -1.25, 7.0, 0.5]
        acc = Accumulator()
        for v in values:
            acc.add(v)
        assert acc.result("count") == len(values)
        assert acc.result("sum") == pytest.approx(sum(values))
        assert acc.result("mean") == pytest.approx(sum(values) / len(values))
        assert acc.result("min") == min(values)
        assert acc.result("max") == max(values)

    def test_absorb_combines_partials(self):
        acc = Accumulator()
        acc.absorb(AggregateRecord("g", count=2, total=5.0, minimum=2.0, maximum=3.0))
        acc.absorb(AggregateRecord("g", count=1, total=-1.0, minimum=-1.0, maximum=-1.0))
        assert acc.result("count") == 3
        assert acc.result("sum") == pytest.approx(4.0)
        assert acc.result("min") == -1.0
        assert acc.result("max") == 3.0

    def test_absorb_ignores_empty_bucket(self):
        acc = Accumulator()
        acc.absorb(AggregateRecord("g", count=0, total=0.0, minimum=0.0, maximum=0.0))
        assert acc.count == 0

    def test_unknown_func_rejected(self):
        acc = Accumulator()
        acc.add(1.0)
        with pytest.raises(QueryError):
            acc.result("median")


class TestResultRow:
    def test_pack_unpack_roundtrip(self):
        row = ResultRow(
            ("numprocs", "count(x)", "mean(x)", "value"),
            ("16", 7, 1.5e-7, 2.25),
        )
        back = ResultRow.unpack(row.pack())
        assert back == row
        assert isinstance(back["count(x)"], int)
        assert isinstance(back["mean(x)"], float)

    def test_getitem_and_as_dict(self):
        row = ResultRow(("app", "value"), ("HPL", 1.0))
        assert row["app"] == "HPL"
        assert row.as_dict() == {"app": "HPL", "value": 1.0}
        with pytest.raises(KeyError):
            row["missing"]

    def test_unpack_rejects_malformed(self):
        with pytest.raises(ValueError):
            ResultRow.unpack("noequalsign")


class TestRenderColumn:
    """An output column of floats alone (or ints alone) is kept as its
    numbers, and its tokens, when read, are each cell's ``_render`` form —
    signed zeros, NaNs and ints beside floats included."""

    @staticmethod
    def assert_rendered(values: list) -> list[str]:
        column = _render_column("start", values)
        tokens = DecodedBatch(len(values), [column], {}).column(0) if values else column
        assert tokens == [f"start={value!r}" for value in values]
        return column

    def test_repeated_spans_render_once(self):
        values = [float(i) for _ in range(8) for i in range(640)]
        column = self.assert_rendered(values)
        # held as the floats, rendered on the first read and kept
        assert column.series == ((None, values),) and column.tokens is column.tokens

    @pytest.mark.parametrize(
        "values",
        [[0.0, -0.0, 1.5] * 100, [-0.0, 2.5] * 100, [2.5, 0.0, -0.0] * 100],
        ids=["zero-first", "negative-zero-only", "both-zeros"],
    )
    def test_signed_zeros_keep_their_signs(self, values):
        self.assert_rendered(values)

    def test_ints_and_floats_keep_their_forms(self):
        self.assert_rendered([1, 1.0, 2, 2.0] * 100)
        self.assert_rendered([1.0, 1, 2.0, 2] * 100)

    def test_each_nan_renders_as_nan(self):
        nan = float("nan")
        values = [nan, 1.0] * 100 + [float("nan") for _ in range(50)] + [0.0] * 50
        self.assert_rendered(values)

    def test_distinct_floats_render_as_they_are(self):
        rng = random.Random(7)
        self.assert_rendered([rng.random() for _ in range(5120)])
        self.assert_rendered([])


def column_order(rows, query):
    """*rows* in the engine's answer order, read column by column."""
    values = list(zip(*(row.values for row in rows)))
    return [rows[i] for i in answer_order(values, query)]


#: the oracle's row order and the engine's column order: every ordering
#: case below runs through both
ORDERS = (order_rows, column_order)


class TestOrderRows:
    def rows(self):
        cols = ("numprocs", "count(x)")
        return [
            ResultRow(cols, ("16", 3)),
            ResultRow(cols, ("2", 9)),
            ResultRow(cols, ("8", 1)),
        ]

    def test_default_order_is_numeric(self):
        q = parse_query("SELECT count(x) GROUP BY numprocs")
        for order in ORDERS:
            assert [r["numprocs"] for r in order(self.rows(), q)] == ["2", "8", "16"], order

    def test_explicit_order_by_desc(self):
        q = parse_query("SELECT count(x) GROUP BY numprocs ORDER BY count(x) DESC")
        for order in ORDERS:
            assert [r["count(x)"] for r in order(self.rows(), q)] == [9, 3, 1], order
        # ties keep the canonical order, also when descending, before LIMIT
        cols = ("numprocs", "count(x)")
        rows = [ResultRow(cols, cells) for cells in (("16", 3), ("2", 9), ("8", 3), ("4", 1))]
        q = parse_query("SELECT count(x) GROUP BY numprocs ORDER BY count(x) DESC LIMIT 3")
        for order in ORDERS:
            assert [r["numprocs"] for r in order(rows, q)] == ["2", "8", "16"], order

    def test_limit_applies_after_order(self):
        q = parse_query("SELECT count(x) GROUP BY numprocs ORDER BY numprocs LIMIT 2")
        for order in ORDERS:
            assert [r["numprocs"] for r in order(self.rows(), q)] == ["2", "8"], order

    def test_mixed_types_sort_stably(self):
        cols = ("k", "count(x)")
        rows = [ResultRow(cols, ("banana", 1)), ResultRow(cols, ("10", 1))]
        q = parse_query("SELECT count(x) GROUP BY k ORDER BY k")
        for order in ORDERS:
            assert [r["k"] for r in order(rows, q)] == ["10", "banana"], order
        # exec ids 01, 1 and 1.0 read as one number: their text orders
        # them, before any later cell, whatever order they arrive in
        cols = ("app", "exec", "value")
        rows = [ResultRow(cols, cells) for cells in (("A", "1.0", 0.5), ("A", "1", 2.0),
                                                     ("A", "01", 3.0), ("A", "1", 1.0))]
        for order in ORDERS:
            for arrival in itertools.permutations(rows):
                ordered = order(list(arrival), parse_query("SELECT m"))
                assert [(r["exec"], r["value"]) for r in ordered] == [
                    ("01", 3.0), ("1", 1.0), ("1", 2.0), ("1.0", 0.5),
                ], order


class TestNanOrder:
    """One NaN must not make the canonical order depend on arrival order:
    NaN (a float, or a text ``float()`` reads as one) orders after every
    number, ``+inf`` included, and before every other text; NaNs order
    by their text, so only NaNs that render alike tie."""

    NAN = float("nan")

    def test_float_cells_order_the_same_from_every_permutation(self):
        query = parse_query("SELECT m")
        rows = [
            ResultRow(("app", "value"), ("A", value))
            for value in (3.0, self.NAN, 1.0, float("inf"), 2.0, self.NAN, float("-inf"))
        ]
        for order in ORDERS:
            outputs = {
                tuple(row.pack() for row in order(list(p), query))
                for p in itertools.permutations(rows)
            }
            expected = ("-inf", "1.0", "2.0", "3.0", "inf", "nan", "nan")
            assert outputs == {tuple(f"app=A|value={v}" for v in expected)}, order
        # -0.0 before 0.0, whichever arrives first (a ResultRow compares
        # -0.0 equal to 0.0, so the rows' texts are compared)
        zeros = [ResultRow(("app", "value"), ("A", v)) for v in (0.0, -0.0, -1.0, 0.0)]
        for order in ORDERS:
            for arrival in itertools.permutations(zeros):
                assert [row.pack() for row in order(list(arrival), query)] == [
                    f"app=A|value={v}" for v in ("-1.0", "-0.0", "0.0", "0.0")
                ], order

    def test_text_cells_order_the_same_from_every_permutation(self):
        query = parse_query("SELECT count(x) GROUP BY k")
        rows = [
            ResultRow(("k", "count(x)"), (key, 1))
            for key in ("5", "nan", "7", "10", "NaN", "inf", "banana", "")
        ]
        for order in ORDERS:
            outputs = {
                tuple(row.pack() for row in order(list(p), query))
                for p in itertools.permutations(rows, 8)
            }
            (output,) = outputs  # "NaN" and "nan" are both NaN: their text orders them
            keys = [packed.split("|")[0][2:] for packed in output]
            assert keys == ["5", "7", "10", "inf", "NaN", "nan", "", "banana"], order

    def test_the_key_refines_the_one_with_ties(self, oracle_seed):
        """Wherever the key with ties (numbers by value alone, NaNs all
        alike) ordered two cells strictly, the total key orders them the
        same way, so no answer without ties moves; and the total key
        ties two cells only when they render alike."""
        def tied_key(value):
            if isinstance(value, (int, float)):
                number = float(value)
                return (0, number, "") if number == number else (1, 0.0, "")
            try:
                number = float(str(value))
            except ValueError:
                return (2, 0.0, str(value))
            return (0, number, "") if number == number else (1, 0.0, "")

        def rendered(value):
            return repr(value) if isinstance(value, float) else str(value)

        pool = [0, -1, 7, True, 2.5, -0.0, 0.0, 1e300, float("inf"), float("-inf"), self.NAN,
                "5", "05", "5.0", "1e3", "inf", "-Infinity", "-inf", " 2 ", "NaN", "nan",
                "", "banana", "Z", "é", "/rank/3", "7", "0.0"]
        for a, b in itertools.product(pool, repeat=2):
            if tied_key(a) < tied_key(b):
                assert ordering_key(a) < ordering_key(b), (a, b)
            if ordering_key(a) == ordering_key(b):
                assert rendered(a) == rendered(b), (a, b)
        rng = random.Random(0x0A2 + oracle_seed)
        for _ in range(200):
            cells = [rng.choice(pool) for _ in range(rng.randint(2, 12))]
            keys = [tied_key(cell) for cell in sorted(cells, key=ordering_key)]
            assert keys == sorted(keys)

    def test_column_keys_order_as_ordering_key(self, oracle_seed):
        """A column's keys order its cells as their ``ordering_key`` does,
        whether the column is its own key or not: signed zeros, NaN and
        infinities (whose sum is NaN) included."""
        rng = random.Random(0x0A3 + oracle_seed)
        pools = (
            [0.0, -0.0, 1.5, -2.0, 3.25],
            [0.0, 1.5, 2.0, float("inf"), float("-inf")],
            [0.0, -0.0, self.NAN, float("inf"), 7.0],
            [0, 3, -1, 12],
            ["16", "016", "8", "nan", "NaN", "x", "1.0", "1"],
        )
        for _ in range(100):
            pool = rng.choice(pools)
            column = [rng.choice(pool) for _ in range(rng.randint(1, 9))]
            keys = column_keys(column)
            by_keys = sorted(range(len(column)), key=keys.__getitem__)
            by_cells = sorted(range(len(column)), key=lambda i: ordering_key(column[i]))
            assert [ordering_key(column[i]) for i in by_keys] == [
                ordering_key(column[i]) for i in by_cells
            ], column

    def test_federation_with_a_nan_answers_alike_on_every_path(self, oracle_seed):
        rng = random.Random(0x0A1 + oracle_seed)
        values = [3.0, self.NAN, 1.0, 2.0, 5.0, 0.5, float("-inf")]
        answers = set()
        for _ in range(4):
            rng.shuffle(values)
            wrappers = {
                name: InMemoryWrapper(
                    name,
                    [
                        InMemoryExecution(
                            "nan" if name == "A" else "0",
                            {},
                            [PerformanceResult("m", "/R", "t", 0.0, 1.0, v) for v in member_values],
                        )
                    ],
                )
                for name, member_values in (("A", values), ("B", [1.0, self.NAN]))
            }
            grid = build_synthetic_grid(wrappers)
            engine = grid.deploy_federation()
            # below every read's rows: members sort server-side, runs merge in order
            engine.stream_chunk_rows = 1
            bulk = [row.pack() for row in grid.client.query("SELECT m")]
            engine.invalidate_cache()
            streamed = [row.pack() for row in grid.client.query_stream("SELECT m")]
            local = PPerfGridClient(grid.environment)
            members = {}
            for name, wrapper in wrappers.items():
                local.register_local_wrapper(grid.sites[name].factory_url, wrapper)
                members[name] = local.bind(grid.sites[name].factory_url, name)
            naive = [row.pack() for row in naive_query("SELECT m", members)]
            assert bulk == streamed == naive
            answers.add(tuple(bulk))
            grid.environment.close()
        assert len(answers) == 1  # whatever order the stores held their rows in
        assert [packed.rsplit("=", 1)[1] for packed in next(iter(answers))[:7]] == [
            "-inf", "0.5", "1.0", "2.0", "3.0", "5.0", "nan",
        ]


class TestMergerSemantics:
    def test_group_requires_every_metric(self):
        q = parse_query("SELECT count(a), count(b) GROUP BY app")
        merger = StreamingMerger(q)
        ctx = TaskContext(app="HPL")
        results = ResultColumns.of([PerformanceResult("a", "/f", "t", 0, 1, 1.0)])
        merger.absorb_results(ctx, "a", results)
        assert list(read_rows(merger.answer())) == []  # no metric b yet -> incomplete group
        results = ResultColumns.of([PerformanceResult("b", "/f", "t", 0, 1, 2.0)])
        merger.absorb_results(ctx, "b", results)
        rows = list(read_rows(merger.answer()))
        assert len(rows) == 1 and rows[0]["count(a)"] == 1

    def test_missing_group_attribute_drops_record(self):
        q = parse_query("SELECT count(a) GROUP BY numprocs")
        merger = StreamingMerger(q)
        merger.absorb_results(
            TaskContext(app="HPL", info={}),
            "a",
            ResultColumns.of([PerformanceResult("a", "/f", "t", 0, 1, 1.0)]),
        )
        assert list(read_rows(merger.answer())) == []

    def test_value_predicate_filters_raw_results(self):
        q = parse_query("SELECT count(a) WHERE value > 5 GROUP BY app")
        merger = StreamingMerger(q)
        merger.absorb_results(
            TaskContext(app="HPL"),
            "a",
            ResultColumns.of([
                PerformanceResult("a", "/f", "t", 0, 1, 4.0),
                PerformanceResult("a", "/f", "t", 0, 1, 6.0),
            ]),
        )
        assert next(read_rows(merger.answer()))["count(a)"] == 1

    def test_bulk_answer_is_alike_in_every_completion_order(self):
        """Exec ids ``1`` and ``01`` read as one number and their rows
        are otherwise equal, yet render differently: their text orders
        their runs, so whichever execution's task completes first, the
        rows come out alike."""
        query = parse_query("SELECT m")
        results = ResultColumns.of([PerformanceResult("m", "/f", "t", 0.0, 1.0, 2.0)] * 2)
        answers = set()
        for completion in (["1", "01"], ["01", "1"]):
            runs = [
                run
                for exec_id in completion
                for run in execution_runs(
                    [SubQuery("m", "raw", 0.0, 1.0, "t")],
                    iter([TaskContext("A", exec_id), results, None]),
                )
            ]
            answers.add(tuple(render(RAW_COLUMNS, raw_answer(run_chunks(runs), query)).rows))
        assert [packed.split("|")[1] for packed in answers.pop()] == [
            "exec=01", "exec=01", "exec=1", "exec=1",
        ]
        assert not answers

    def test_tied_exec_ids_answer_alike_on_every_path(self):
        rows = [PerformanceResult("m", "/f", "t", 0.0, 1.0, v) for v in (2.0, 1.0)]
        wrappers = {"A": InMemoryWrapper("A", [
            InMemoryExecution(exec_id, {}, rows) for exec_id in ("1", "01", "1.0")
        ])}
        grid = build_synthetic_grid(wrappers)
        engine = grid.deploy_federation()
        bulk = [row.pack() for row in grid.client.query("SELECT m")]
        engine.invalidate_cache()
        streamed = [row.pack() for row in grid.client.query_stream("SELECT m")]
        assert bulk == streamed and len(bulk) == 6
        # listed 1, 01, 1.0: their text orders them, not the listing
        assert [packed.split("|")[1] for packed in bulk[::2]] == ["exec=01", "exec=1", "exec=1.0"]
        grid.environment.close()


class TestChooseFanout:
    def test_default_without_managers(self):
        assert choose_fanout([]) == 8
        assert choose_fanout([{"replicas": 0}]) == 8

    def test_slots_per_replica(self):
        assert choose_fanout([{"replicas": 2}, {"replicas": 1}]) == 12

    def test_floor_and_cap(self):
        assert choose_fanout([{"replicas": 1}]) == 4
        assert choose_fanout([{"replicas": 100}]) == 32


class TestFederationEngine:
    def test_aggregate_matches_naive(self, fed_grid):
        text = (
            "SELECT count(gflops), mean(gflops), max(gflops) FROM HPL "
            "WHERE numprocs >= 2 GROUP BY numprocs"
        )
        engine = fed_grid.fed_engine
        result = engine.execute(text)
        assert result.cached is False
        assert result.plan.mode == "aggregate"
        assert rows_equal(result.rows, naive_query(text, engine.members()))

    def test_raw_matches_naive(self, fed_grid):
        text = "SELECT gflops FROM HPL WHERE numprocs = 16 AND value > 1"
        engine = fed_grid.fed_engine
        result = engine.execute(text)
        assert result.plan.mode == "raw"
        assert result.rows and rows_equal(result.rows, naive_query(text, engine.members()))
        assert result.rows[0].columns == (
            "app", "exec", "metric", "focus", "type", "start", "end", "value",
        )

    def test_plan_cache_hit_returns_same_rows(self, fed_grid):
        text = "SELECT count(latency_us) FROM PRESTA-RMA GROUP BY network"
        engine = fed_grid.fed_engine
        cold = engine.execute(text)
        hot = engine.execute(text)
        assert cold.cached is False and hot.cached is True
        assert hot.rows == cold.rows
        # equivalent spelling hits the same fingerprint
        assert engine.execute(
            "SELECT count(latency_us) FROM PRESTA-RMA GROUP BY network"
        ).cached

    def test_invalidate_cache(self, fed_grid):
        engine = fed_grid.fed_engine
        engine.execute("SELECT count(gflops) FROM HPL GROUP BY app")
        assert engine.invalidate_cache() >= 1
        assert len(engine.plan_cache) == 0

    def test_unknown_source_rejected(self, fed_grid):
        with pytest.raises(QueryError, match="unknown application"):
            fed_grid.fed_engine.execute("SELECT count(x) FROM NOPE GROUP BY app")

    def test_unpublished_metric_skipped_not_fatal(self, fed_grid):
        # gflops exists only on HPL; SMG98/PRESTA contribute nothing
        result = fed_grid.fed_engine.execute("SELECT count(gflops) GROUP BY app")
        assert [r["app"] for r in result.rows] == ["HPL"]
        assert result.stats["skipped_metrics"] >= 2

    def test_explain_without_execution(self, fed_grid):
        engine = fed_grid.fed_engine
        before = len(engine.plan_cache)
        text = engine.explain("SELECT mean(time_spent) FROM SMG98 GROUP BY numprocs")
        assert "member SMG98" in text and "pruned HPL" in text
        assert len(engine.plan_cache) == before  # explain never executes

    def test_stats_counters(self, fed_grid):
        engine = fed_grid.fed_engine
        engine.invalidate_cache()
        result = engine.execute("SELECT count(resid) FROM HPL GROUP BY numprocs")
        assert result.stats["executions"] == 12
        assert result.stats["calls"] >= 12
        assert result.stats["records"] >= 1


class TestFederatedQueryService:
    def stub(self, grid):
        return grid.environment.stub_for_handle(grid.fed_gsh, FEDERATED_QUERY_PORTTYPE)

    def test_client_query_over_soap(self, fed_grid):
        text = (
            "SELECT mean(time_spent), count(time_spent) FROM SMG98 "
            "WHERE numprocs >= 16 GROUP BY numprocs ORDER BY numprocs"
        )
        rows = fed_grid.client.query(text)
        assert rows and rows_equal(rows, naive_query(text, fed_grid.fed_engine.members()))

    def test_client_explain_over_soap(self, fed_grid):
        text = fed_grid.client.explain("SELECT count(gflops) FROM HPL GROUP BY app")
        assert "member HPL" in text

    def test_query_without_federation_rejected(self, fed_grid):
        from repro.core.client import PPerfGridClient

        bare = PPerfGridClient(fed_grid.environment, fed_grid.uddi_gsh)
        with pytest.raises(RuntimeError, match="use_federation"):
            bare.query("SELECT gflops")

    def test_cache_stats_operation(self, fed_grid):
        stub = self.stub(fed_grid)
        stub.invalidateCache()
        fed_grid.client.query("SELECT count(gflops) FROM HPL GROUP BY app")
        fed_grid.client.query("SELECT count(gflops) FROM HPL GROUP BY app")
        records = dict(r.split("|", 1) for r in stub.getCacheStats())
        assert int(records["hits"]) >= 1
        assert int(records["misses"]) >= 1
        assert int(records["entries"]) >= 1
        assert set(records) >= {"hits", "misses", "evictions", "lookups", "hitRate", "entries"}

    def test_invalidate_over_soap(self, fed_grid):
        stub = self.stub(fed_grid)
        fed_grid.client.query("SELECT count(resid) FROM HPL GROUP BY machine")
        assert stub.invalidateCache() >= 1
        assert stub.invalidateCache() == 0

    def test_plan_cache_stats_service_data(self, fed_grid):
        from repro.fedquery.executor import _sde_values

        stub = self.stub(fed_grid)
        fed_grid.client.query("SELECT count(gflops) FROM HPL GROUP BY app")
        values = _sde_values(stub.FindServiceData("name:planCacheStats"))
        names = {v.split("|", 1)[0] for v in values}
        assert {"hits", "misses", "entries"} <= names
