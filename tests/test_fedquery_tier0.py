"""The tier-0 metadata answer path, end to end.

Tier 0 answers whole sub-queries from cached stats/sketches with zero
member round-trips; this file pins its contract: exact answers are
byte-identical to the naive fan-out, ineligible shapes and sketchless
members fall back per member, tier assignment is part of the plan-cache
key, ``explainPlan`` surfaces the tier per member, the client rejects
unknown query options, and — the coherence regression promised in
``test_fedquery_coherence`` — a ``data_updated`` racing a tier-0 answer
can never leave a stale result in the plan cache.
"""

from __future__ import annotations

import pytest

from repro.core.semantic import PerformanceResult
from repro.experiments.common import GridScale, build_grid, build_synthetic_grid
from repro.fedquery import naive_query
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper

#: HPL publishes metric sketches, so this shape (aggregate-only select,
#: GROUP BY app, full window) answers wholly at tier 0
HPL_QUERY = "SELECT count(gflops), max(gflops) FROM HPL GROUP BY app"


@pytest.fixture()
def grid():
    grid = build_grid(GridScale.tiny())
    grid.deploy_federation()
    yield grid
    grid.cleanup()


def synthetic(values: dict[str, list[float]], metric: str = "m"):
    wrappers = {
        app: InMemoryWrapper(
            app,
            [
                InMemoryExecution(
                    "0",
                    {"numprocs": "4"},
                    [
                        PerformanceResult(metric, "/R", "synthetic", 0.0, 1.0, v)
                        for v in vals
                    ],
                )
            ],
        )
        for app, vals in values.items()
    }
    grid = build_synthetic_grid(wrappers)
    return grid, grid.deploy_federation()


class TestExactTier0:
    def test_matches_naive_with_zero_round_trips(self, grid):
        tier0 = grid.fed_engine.execute(HPL_QUERY)
        assert tier0.stats["calls"] == 0
        assert tier0.stats["tier0Members"] == 1
        assert tier0.stats["estimatedRoundTrips"] == 0
        assert tier0.plan.effective_mode == "tier0"
        assert grid.fed_engine.plan_modes["tier0"] == 1

        # count/max answers are byte-identical to the real fan-out
        naive = naive_query(HPL_QUERY, grid.fed_engine.members())
        assert [r.pack() for r in tier0.rows] == [r.pack() for r in naive]

    def test_vacuous_predicate_still_tier0(self, grid):
        result = grid.fed_engine.execute(
            "SELECT sum(gflops) FROM HPL WHERE value > -1.0 GROUP BY app"
        )
        assert result.stats["calls"] == 0
        assert result.plan.members[0].tier == "tier0-stats"

    def test_unsatisfiable_predicate_exact_empty_answer(self):
        grid, engine = synthetic({"A": [1.0, 2.0, 3.0]})
        result = engine.execute("SELECT count(m) WHERE value > 1000.0 GROUP BY app")
        # the stats prove the member away before tier 0 even looks at it
        # (a skip is just the degenerate tier-0 answer): zero round-trips
        # either way, and the exact empty result
        assert result.stats["calls"] == 0
        assert result.plan.effective_mode in ("tier0", "skip")
        assert result.rows == []
        grid.cleanup()

    def test_extremum_proof_answers_filtered_max(self):
        """max is exact at tier 0 when the global maximum itself matches
        the predicate, even though the count window is only bounded."""
        grid, engine = synthetic({"A": [float(v) for v in range(1, 11)]})
        result = engine.execute("SELECT max(m) WHERE value > 5.0 GROUP BY app")
        assert result.stats["calls"] == 0
        assert result.plan.members[0].tier == "tier0-stats"
        assert result.rows[0]["max(m)"] == 10.0
        grid.cleanup()

    def test_inexact_window_falls_back_in_exact_mode(self):
        """A straddling predicate makes count inexact from metadata, so
        the member must fan out.  The max is provable under it (the
        global maximum matches) but the mean is not: one unprovable
        aggregate is enough to send the member out."""
        grid, engine = synthetic({"A": [float(v) for v in range(1, 101)]})
        cases = {
            "SELECT count(m) WHERE value > 50.0 GROUP BY app": {"count(m)": 50},
            "SELECT max(m), mean(m) WHERE value > 50.0 GROUP BY app": {
                "max(m)": 100.0,
                "mean(m)": 75.5,
            },
        }
        for text, cells in cases.items():
            result = engine.execute(text)
            assert result.stats["calls"] > 0
            assert not result.plan.members[0].is_tier0
            for label, value in cells.items():
                assert result.rows[0][label] == value
            naive = naive_query(text, engine.members())
            assert [r.pack() for r in result.rows] == [r.pack() for r in naive]
        grid.cleanup()

    def test_attribute_group_key_disqualifies_tier0(self, grid):
        result = grid.fed_engine.execute(
            "SELECT count(gflops) FROM HPL GROUP BY numprocs"
        )
        assert result.stats["tier0Members"] == 0
        assert result.stats["calls"] > 0


class TestFallbacks:
    def test_sketchless_member_makes_a_mixed_plan(self):
        """A member publishing stats but no metric sketches answers
        through push-down while its sketched peer answers at tier 0 —
        the fallback is per member, not whole-query."""
        import dataclasses

        a = InMemoryWrapper(
            "A",
            [
                InMemoryExecution(
                    "0", {},
                    [
                        PerformanceResult("m", "/R", "synthetic", 0.0, 1.0, v)
                        for v in (1.0, 2.0, 3.0)
                    ],
                )
            ],
        )
        b = InMemoryWrapper(
            "B",
            [
                InMemoryExecution(
                    "0", {},
                    [
                        PerformanceResult("m", "/R", "synthetic", 0.0, 1.0, v)
                        for v in (10.0, 20.0)
                    ],
                )
            ],
        )
        real_stats = b.get_stats
        b.get_stats = lambda: dataclasses.replace(real_stats(), sketches=())
        grid = build_synthetic_grid({"A": a, "B": b})
        engine = grid.deploy_federation()
        result = engine.execute("SELECT count(m), sum(m) GROUP BY app")
        tiers = {m.app: m.tier for m in result.plan.members}
        assert tiers == {"A": "tier0-stats", "B": "pushdown"}
        assert result.plan.effective_mode == "mixed"
        assert result.stats["tier0Members"] == 1
        assert result.stats["calls"] > 0  # B really fanned out
        by_app = {row["app"]: row for row in result.rows}
        assert (by_app["A"]["count(m)"], by_app["A"]["sum(m)"]) == (3, 6.0)
        assert (by_app["B"]["count(m)"], by_app["B"]["sum(m)"]) == (2, 30.0)
        grid.cleanup()

    def test_smg98_derived_metrics_stay_below_tier0(self, grid):
        """SMG98's metrics are derived at query time, so it deliberately
        publishes no sketches — its queries keep the exact paths."""
        result = grid.fed_engine.execute(
            "SELECT count(time_spent) FROM SMG98 GROUP BY app"
        )
        assert result.stats["tier0Members"] == 0
        assert result.stats["calls"] > 0
        assert result.rows and result.rows[0]["count(time_spent)"] > 0


class TestPlanCacheKeys:
    def test_fingerprint_distinguishes_tiers(self, grid):
        engine = grid.fed_engine
        tier0_plan = engine._plan(engine._parse(HPL_QUERY))
        fanout_plan = engine._plan(engine._parse(HPL_QUERY), allow_tier0=False)
        assert tier0_plan.fingerprint != fanout_plan.fingerprint
        assert ";tier0[HPL=tier0-stats]" in tier0_plan.fingerprint

    def test_approx_and_exact_results_never_collide(self, grid):
        """A tier-0 answer is memoized like any other: the first run
        misses, the second hits the plan cache with identical rows."""
        engine = grid.fed_engine
        exact = engine.execute(HPL_QUERY)
        assert exact.cached is False
        assert exact.plan.effective_mode == "tier0"
        hot = engine.execute(HPL_QUERY)
        assert hot.cached is True
        assert [r.pack() for r in hot.rows] == [r.pack() for r in exact.rows]


class TestExplainSurfacesTiers:
    def test_explain_plan_shows_tier_and_round_trips(self, grid):
        text = grid.fed_engine.explain(HPL_QUERY)
        lines = text.splitlines()
        assert "member HPL: tier=tier0-stats" in text
        assert "answered from cached stats/sketches (0 round-trips)" in text
        assert any(line.startswith("estimated round-trips: 0") for line in lines)

    def test_explain_plan_shows_fallback_tier(self, grid):
        lines = grid.fed_engine.explain(
            "SELECT count(time_spent) FROM SMG98 GROUP BY app"
        ).splitlines()
        assert any("member SMG98: tier=pushdown" in line for line in lines)

    def test_estimated_vs_actual_round_trips(self, grid):
        result = grid.fed_engine.execute(HPL_QUERY)
        assert result.stats["estimatedRoundTrips"] == result.stats["calls"] == 0


class TestClientOptions:
    def test_unknown_option_rejected(self, grid):
        with pytest.raises(TypeError, match="frobnicate"):
            grid.client.query(HPL_QUERY, frobnicate=True)

    def test_exact_query_returns_plain_rows(self, grid):
        rows = grid.client.query(HPL_QUERY)
        assert rows and not hasattr(rows, "error_bounds")


class TestTier0CoherenceRace:
    """The tier-0 variant of the insert-after-invalidate race (see
    TestInsertAfterInvalidateRace in test_fedquery_coherence): the store
    updates *after* the generation snapshot but before the tier-0 answer
    is memoized.  The wildcard (app, "*") dependency plus the snapshot
    comparison must discard the stale answer, and the next query must
    answer from refreshed stats — tier 0 can never serve stale data."""

    def test_update_between_stats_read_and_answer_discards(self, grid, monkeypatch):
        engine = grid.fed_engine
        exec_id = grid.hpl_site.wrapper.get_all_exec_ids()[0]
        service = grid.execution_service("HPL", exec_id)
        assert service is not None
        original_plan = engine._plan

        def racy_plan(query, **kwargs):
            plan = original_plan(query, **kwargs)
            # the store mutates while the tier-0 answer is being folded
            grid.hpl_site.wrapper.conn.execute(
                "UPDATE hpl_runs SET gflops = ? WHERE runid = ?",
                [99999.0, int(exec_id)],
            )
            service.data_updated("mid-tier0")
            return plan

        monkeypatch.setattr(engine, "_plan", racy_plan)
        stale = engine.execute(HPL_QUERY)
        monkeypatch.setattr(engine, "_plan", original_plan)
        # the racy run answered at tier 0 from the pre-update stats...
        assert stale.stats["calls"] == 0
        assert stale.rows[0]["max(gflops)"] != 99999.0
        # ...but was discarded instead of cached
        assert engine.coherence_stats()["staleDiscards"] == 1
        fresh = engine.execute(HPL_QUERY)
        assert fresh.cached is False
        assert fresh.stats["calls"] == 0  # still tier 0, on fresh stats
        assert fresh.rows[0]["max(gflops)"] == 99999.0
        # and the fresh answer memoizes normally
        assert engine.execute(HPL_QUERY).cached is True

    def test_update_after_cached_tier0_answer_invalidates(self, grid):
        engine = grid.fed_engine
        engine.execute(HPL_QUERY)
        assert engine.execute(HPL_QUERY).cached is True
        exec_id = grid.hpl_site.wrapper.get_all_exec_ids()[0]
        service = grid.execution_service("HPL", exec_id)
        grid.hpl_site.wrapper.conn.execute(
            "UPDATE hpl_runs SET gflops = ? WHERE runid = ?",
            [88888.0, int(exec_id)],
        )
        assert service.data_updated("recalibrated") == 1
        fresh = engine.execute(HPL_QUERY)
        assert fresh.cached is False
        assert fresh.rows[0]["max(gflops)"] == 88888.0
