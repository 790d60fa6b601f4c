"""Unit tests for the cost model's estimators and proofs.

The estimators are checked against *exact* counts from synthetic
in-memory stores with precisely known contents, including the
degenerate cases the ISSUE calls out: an empty member, a single-row
member, every row inside the query window, and missing stats (which
must fall back to the pre-cost-model global mode, never to a skip).
"""

from __future__ import annotations

import pytest

from repro.core.semantic import MetricStats, PerformanceResult, StoreStats
from repro.fedquery.ast import Predicate
from repro.fedquery.cost import (
    AGG_RECORD_BYTES,
    RAW_RECORD_BYTES,
    CostModel,
    unsatisfiable_over,
    vacuous_over,
    value_fraction,
)
from repro.fedquery.parser import parse_query
from repro.fedquery.planner import plan_query
from repro.fedquery.pushdown import (
    derive_value_bounds,
    derive_window,
    focus_allowlist,
    split_predicates,
)
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper


def model_for(text: str) -> CostModel:
    query = parse_query(text)
    split = split_predicates(query)
    bounds = derive_value_bounds(split.value)
    aggregate = query.is_aggregate and bounds.pushable
    return CostModel(
        query,
        split,
        derive_window(split.time),
        bounds,
        focus_allowlist(split.focus),
        "aggregate" if aggregate else "raw",
    )


def store(metric_rows: dict[str, tuple[int, float, float]], **kwargs) -> StoreStats:
    defaults = dict(
        executions=kwargs.pop("executions", 2),
        start=kwargs.pop("start", 0.0),
        end=kwargs.pop("end", 10.0),
        foci=kwargs.pop("foci", ("/A", "/B")),
        types=kwargs.pop("types", ("synthetic",)),
        complete=kwargs.pop("complete", True),
    )
    return StoreStats(
        metrics=tuple(
            MetricStats(name, rows, lo, hi)
            for name, (rows, lo, hi) in metric_rows.items()
        ),
        **defaults,
    )


def pred(op: str, value: float) -> Predicate:
    return Predicate(field="value", op=op, value=str(value))


class TestRangeProofs:
    @pytest.mark.parametrize(
        "op,bound,expected",
        [
            ("=", 5.0, False), ("=", 11.0, True), ("=", -1.0, True),
            ("!=", 5.0, False), ("<", 0.0, True), ("<", 0.5, False),
            ("<=", -0.1, True), ("<=", 0.0, False),
            (">", 10.0, True), (">", 9.5, False),
            (">=", 10.5, True), (">=", 10.0, False),
        ],
    )
    def test_unsatisfiable_over_0_10(self, op, bound, expected):
        assert unsatisfiable_over(pred(op, bound), 0.0, 10.0) is expected

    @pytest.mark.parametrize(
        "op,bound,expected",
        [
            ("=", 5.0, False), ("!=", 11.0, True), ("!=", 5.0, False),
            ("<", 10.5, True), ("<", 10.0, False),
            ("<=", 10.0, True), ("<=", 9.9, False),
            (">", -0.5, True), (">", 0.0, False),
            (">=", 0.0, True), (">=", 0.1, False),
        ],
    )
    def test_vacuous_over_0_10(self, op, bound, expected):
        assert vacuous_over(pred(op, bound), 0.0, 10.0) is expected

    def test_point_range_equality(self):
        # lo == hi: both proofs become exact
        assert vacuous_over(pred("=", 7.0), 7.0, 7.0)
        assert unsatisfiable_over(pred("!=", 7.0), 7.0, 7.0)


class TestValueFraction:
    def test_no_predicates_is_one(self):
        assert value_fraction((), 0.0, 10.0) == 1.0

    def test_range_predicate_is_proportional(self):
        assert value_fraction((pred("<", 2.5),), 0.0, 10.0) == pytest.approx(0.25)
        assert value_fraction((pred(">=", 7.5),), 0.0, 10.0) == pytest.approx(0.25)

    def test_predicates_multiply(self):
        preds = (pred(">", 2.0), pred("<", 8.0))
        assert value_fraction(preds, 0.0, 10.0) == pytest.approx(0.8 * 0.8)

    def test_zero_width_range_is_exact(self):
        assert value_fraction((pred("=", 3.0),), 3.0, 3.0) == 1.0
        assert value_fraction((pred("=", 4.0),), 3.0, 3.0) == 0.0

    def test_fraction_clamped_to_unit_interval(self):
        assert value_fraction((pred("<", 99.0),), 0.0, 10.0) == 1.0
        assert value_fraction((pred(">", 99.0),), 0.0, 10.0) == 0.0


class TestMemberVerdicts:
    def test_zero_rows_skips(self):
        cost = model_for("SELECT count(m) GROUP BY app").member(
            store({"m": (0, 0.0, 0.0)})
        )
        assert cost.mode == "skip" and "0 rows" in cost.reason
        assert (cost.est_rows, cost.est_bytes) == (0, 0)

    def test_absent_metric_skips(self):
        cost = model_for("SELECT count(m) GROUP BY app").member(store({}))
        assert cost.mode == "skip" and "not recorded" in cost.reason

    def test_unsatisfiable_value_predicates_skip(self):
        cost = model_for("SELECT count(m) WHERE value > 100.0 GROUP BY app").member(
            store({"m": (50, 0.0, 10.0)})
        )
        assert cost.mode == "skip" and "unsatisfiable" in cost.reason

    def test_disjoint_focus_allowlist_skips(self):
        cost = model_for("SELECT count(m) WHERE focus = '/Z' GROUP BY app").member(
            store({"m": (50, 0.0, 10.0)})
        )
        assert cost.mode == "skip" and "focus" in cost.reason

    def test_foreign_type_skips(self):
        cost = model_for("SELECT count(m) WHERE type = 'other' GROUP BY app").member(
            store({"m": (50, 0.0, 10.0)})
        )
        assert cost.mode == "skip" and "type" in cost.reason

    def test_time_window_never_skips(self):
        # stats cover [0, 10] but the window starts at 100: some stores
        # ignore the window, so this is NOT a proof
        cost = model_for("SELECT count(m) WHERE start >= 100.0 GROUP BY app").member(
            store({"m": (50, 0.0, 10.0)})
        )
        assert cost.mode != "skip"

    def test_vacuous_strict_predicate_upgrades_to_aggregate(self):
        # strict '>' is not pushable globally, but every value in
        # [50, 90] satisfies it — aggregate with no bounds
        model = model_for("SELECT count(m) WHERE value > 10.0 GROUP BY app")
        assert model.global_mode == "raw"
        cost = model.member(store({"m": (50, 50.0, 90.0)}))
        assert cost.mode == "aggregate" and cost.vacuous == {"m"}

    def test_mixed_metric_modes(self):
        # one metric provably empty, the other live -> mixed member
        cost = model_for("SELECT count(a), count(b) GROUP BY app").member(
            store({"a": (0, 0.0, 0.0), "b": (9, 0.0, 5.0)})
        )
        assert cost.mode == "mixed"
        assert dict(cost.metric_modes) == {"a": "skip", "b": "aggregate"}

    def test_missing_stats_fall_back_to_global_mode(self):
        model = model_for("SELECT count(m) GROUP BY app")
        cost = model.member(None)
        assert cost.stats_missing is True
        assert cost.mode == model.global_mode == "aggregate"
        assert cost.est_rows is None and cost.est_bytes is None

    def test_incomplete_stats_never_prove(self):
        # the same stats that would prove a skip, marked incomplete:
        # estimates only, member keeps the global mode
        cost = model_for("SELECT count(m) GROUP BY app").member(
            store({"m": (0, 0.0, 0.0)}, complete=False)
        )
        assert cost.mode == "aggregate"
        assert "no proofs" in cost.reason


class TestEstimatesAgainstExactCounts:
    """Estimator checks against synthetic stores with known contents."""

    def wrapper(self, rows_per_exec: list[int], value=5.0, end=10.0):
        executions = []
        for index, rows in enumerate(rows_per_exec):
            executions.append(
                InMemoryExecution(
                    exec_id=str(index),
                    attrs={"numprocs": "4"},
                    results=[
                        PerformanceResult("m", "/A", "synthetic", 0.0, end, value)
                        for _ in range(rows)
                    ],
                )
            )
        return InMemoryWrapper("W", executions)

    def test_raw_estimate_equals_exact_rowcount(self):
        # no predicates: the raw estimate must be the exact row count
        wrapper = self.wrapper([3, 4, 5])
        cost = model_for("SELECT m").member(wrapper.get_stats())
        assert cost.mode == "raw"
        assert cost.est_rows == 12
        assert cost.est_bytes == 12 * RAW_RECORD_BYTES

    def test_empty_member_estimates_zero(self):
        wrapper = self.wrapper([])
        cost = model_for("SELECT m").member(wrapper.get_stats())
        assert cost.mode == "skip"
        assert (cost.est_rows, cost.est_bytes) == (0, 0)

    def test_single_row_member(self):
        wrapper = self.wrapper([1])
        cost = model_for("SELECT m").member(wrapper.get_stats())
        assert cost.mode == "raw" and cost.est_rows == 1

    def test_window_covering_all_rows_keeps_full_count(self):
        # every row lies inside [0, 10]; the window fraction must be 1
        wrapper = self.wrapper([4, 4], end=10.0)
        cost = model_for("SELECT m WHERE start >= 0.0 AND end <= 10.0").member(
            wrapper.get_stats()
        )
        assert cost.est_rows == 8

    def test_half_window_halves_the_estimate(self):
        wrapper = self.wrapper([10], end=10.0)
        cost = model_for("SELECT m WHERE end <= 5.0").member(wrapper.get_stats())
        assert cost.est_rows == 5

    def test_aggregate_estimate_counts_buckets_not_rows(self):
        wrapper = self.wrapper([100, 100])
        cost = model_for("SELECT sum(m) GROUP BY app").member(wrapper.get_stats())
        assert cost.mode == "aggregate"
        assert cost.est_rows == 2  # one bucket per execution, not 200
        assert cost.est_bytes == 2 * AGG_RECORD_BYTES

    def test_focus_grouping_multiplies_buckets_by_foci(self):
        executions = [
            InMemoryExecution(
                "0",
                {},
                [
                    PerformanceResult("m", focus, "synthetic", 0.0, 1.0, 1.0)
                    for focus in ("/A", "/B", "/C")
                ],
            )
        ]
        stats = InMemoryWrapper("W", executions).get_stats()
        cost = model_for("SELECT sum(m) GROUP BY focus").member(stats)
        assert cost.est_rows == 3

    def test_cost_based_plan_never_estimates_more_than_raw(self):
        # the aggregate estimate must undercut shipping raw rows
        wrapper = self.wrapper([50, 50])
        stats = wrapper.get_stats()
        raw = model_for("SELECT m").member(stats)
        agg = model_for("SELECT sum(m) GROUP BY app").member(stats)
        assert agg.est_bytes < raw.est_bytes


class TestPlannerIntegration:
    def catalog(self):
        return {"A": {"numprocs": ["4"]}, "B": {"numprocs": ["4"]}}

    def test_empty_stats_plan_is_the_global_plan(self):
        plan = plan_query(parse_query("SELECT count(m) GROUP BY app"), self.catalog(), {})
        assert plan.mode == "aggregate" and plan.skipped == ()
        assert all(member.cost.stats_missing for member in plan.members)
        assert plan.effective_mode == plan.mode

    def test_stats_split_members_by_mode(self):
        query = parse_query("SELECT count(m) WHERE value > 10.0 GROUP BY app")
        stats = {
            "A": store({"m": (5, 50.0, 90.0)}),  # vacuous -> aggregate
            "B": store({"m": (5, 0.0, 99.0)}),  # selective -> raw
        }
        plan = plan_query(query, self.catalog(), stats)
        assert plan.mode == "raw"  # global fallback unchanged
        by_app = {member.app: member for member in plan.members}
        assert by_app["A"].subqueries[0].mode == "aggregate"
        assert by_app["A"].subqueries[0].min_value is None
        assert by_app["B"].subqueries[0].mode == "raw"
        assert plan.effective_mode == "mixed"

    def test_skipped_member_lands_in_plan_skipped(self):
        query = parse_query("SELECT count(m) GROUP BY app")
        stats = {"A": store({"m": (5, 0.0, 9.0)}), "B": store({})}
        plan = plan_query(query, self.catalog(), stats)
        assert [member.app for member in plan.members] == ["A"]
        assert [skipped.app for skipped in plan.skipped] == ["B"]
        assert "skipped B" in plan.explain()

    def test_missing_stats_member_keeps_global_plan(self):
        query = parse_query("SELECT count(m) GROUP BY app")
        plan = plan_query(query, self.catalog(), {"A": store({"m": (5, 0.0, 9.0)}), "B": None})
        by_app = {member.app: member for member in plan.members}
        assert by_app["B"].cost.stats_missing is True
        assert by_app["B"].subqueries[0].mode == "aggregate"  # global mode
        assert plan.stats_degraded is True
        assert plan.skipped == ()  # never skip on missing stats
