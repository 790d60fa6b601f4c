"""Property test: cost-based plans == the naive oracle, byte-identical.

Builds several randomized federations of :class:`InMemoryWrapper`
members — randomized member counts, metric vocabularies, foci, tool
types, row counts, value ranges, and deliberately empty members — and
runs a few hundred randomized queries through the cost-based
planner/executor pipeline, comparing the packed output rows *byte for
byte* against :func:`repro.fedquery.naive.naive_query`.

All synthetic values are integer-valued floats, so sums and means are
exact doubles regardless of accumulation order and the byte-identical
comparison is sound.

The sweep must exercise every plan mode the cost model can emit — raw,
aggregate, mixed (members or metrics diverge), and skip (statistics
prove no member can contribute) — which the final coverage test asserts
on the engines' ``plan_modes`` counters.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.core.semantic import PerformanceResult
from repro.experiments.common import build_synthetic_grid
from repro.fedquery import naive_query
from repro.fedquery.merge import RAW_COLUMNS
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper

#: federations x queries-per-federation randomized checks (ISSUE: >= 200)
N_FEDERATIONS = 6
QUERIES_PER_FEDERATION = 40

AGG_FUNCS = ("count", "sum", "mean", "min", "max")
METRIC_POOL = ("alpha", "beta", "gamma")
FOCUS_POOL = ("/A", "/B", "/C", "/D")
TYPE_POOL = ("synthetic", "toolx")
#: a metric no member ever records — queries selecting it are provably
#: empty everywhere, driving the planner's "skip" mode
GHOST_METRIC = "ghost"


def make_federation(rng: random.Random) -> dict[str, InMemoryWrapper]:
    """2-4 members with randomized, precisely known contents."""
    wrappers: dict[str, InMemoryWrapper] = {}
    for index in range(rng.randint(2, 4)):
        name = f"M{index}"
        metrics = rng.sample(METRIC_POOL, rng.randint(1, len(METRIC_POOL)))
        foci = rng.sample(FOCUS_POOL, rng.randint(1, 3))
        result_type = rng.choice(TYPE_POOL)
        # some members have narrow value ranges (all large / all small),
        # so strict value predicates become vacuous or unsatisfiable on
        # them while staying selective on others -> mixed plans
        value_lo = rng.choice((0, 0, 50))
        value_hi = value_lo + rng.choice((10, 100))
        executions: list[InMemoryExecution] = []
        for exec_index in range(rng.randint(0, 4)):
            results: list[PerformanceResult] = []
            if rng.random() < 0.85:  # else: an execution with no rows
                for metric in metrics:
                    for _ in range(rng.randint(0, 6)):
                        start = float(rng.randint(0, 5))
                        results.append(
                            PerformanceResult(
                                metric=metric,
                                focus=rng.choice(foci),
                                result_type=result_type,
                                start=start,
                                end=start + float(rng.randint(1, 5)),
                                value=float(rng.randint(value_lo, value_hi)),
                            )
                        )
            executions.append(
                InMemoryExecution(
                    exec_id=str(exec_index),
                    attrs={
                        "numprocs": str(rng.choice((2, 4, 8, 16))),
                        "machine": rng.choice(("mcurie", "tcomp")),
                    },
                    results=results,
                )
            )
        wrappers[name] = InMemoryWrapper(name, executions, result_type=result_type)
    return wrappers


def _vocabulary(name_to_wrapper: dict[str, InMemoryWrapper]) -> SimpleNamespace:
    metrics: dict[str, list[str]] = {}
    foci: dict[str, list[str]] = {}
    types: dict[str, str] = {}
    samples: dict[str, list[float]] = {}
    end_max = 1.0
    for name, wrapper in name_to_wrapper.items():
        app_metrics: set[str] = set()
        app_foci: set[str] = set()
        for execution in wrapper.executions_data:
            for result in execution.results:
                app_metrics.add(result.metric)
                app_foci.add(result.focus)
                samples.setdefault(result.metric, []).append(result.value)
                end_max = max(end_max, result.end)
        metrics[name] = sorted(app_metrics) or ["alpha"]
        foci[name] = sorted(app_foci) or ["/A"]
        types[name] = wrapper.result_type
    return SimpleNamespace(
        apps=sorted(name_to_wrapper),
        metrics=metrics,
        foci=foci,
        types=types,
        samples={m: sorted(v) for m, v in samples.items()},
        end_max=end_max,
    )


@pytest.fixture(scope="module")
def cost_env(oracle_seed):
    envs = []
    for fed_seed in range(N_FEDERATIONS):
        rng = random.Random(31000 + fed_seed + 1_000_000 * oracle_seed)
        wrappers = make_federation(rng)
        grid = build_synthetic_grid(wrappers)
        engine = grid.deploy_federation(authority=f"fed{fed_seed}.pdx.edu:9090")
        envs.append(
            SimpleNamespace(
                grid=grid,
                engine=engine,
                members=engine.members(),
                vocab=_vocabulary(wrappers),
            )
        )
    yield envs
    for env in envs:
        env.grid.cleanup()


def _quote(text: str) -> str:
    return f"'{text}'"


def make_query(rng: random.Random, V) -> str:
    """One random, always-valid query from the federation's vocabulary."""
    aggregate = rng.random() < 0.65
    sources: list[str] = []
    if rng.random() < 0.4:
        sources = rng.sample(V.apps, rng.randint(1, len(V.apps)))
    candidates = sources or V.apps
    primary = rng.choice(candidates)
    pool = list(V.metrics[primary])
    if rng.random() < 0.08:  # provably-empty everywhere -> skip plans
        chosen = [GHOST_METRIC]
    else:
        chosen = rng.sample(pool, 1 if rng.random() < 0.7 else min(2, len(pool)))

    where: list[str] = []
    if rng.random() < 0.5:
        attr = rng.choice(("numprocs", "machine"))
        values = {"numprocs": ("2", "4", "8", "16"), "machine": ("mcurie", "tcomp")}[attr]
        op = rng.choice(("=", "!=", "in"))
        if op == "in":
            picked = rng.sample(values, rng.randint(1, 2))
            where.append(f"{attr} IN ({', '.join(_quote(v) for v in picked)})")
        else:
            where.append(f"{attr} {op} {_quote(rng.choice(values))}")
    if rng.random() < 0.15:
        op = rng.choice(("=", "!=", "in"))
        if op == "in":
            picked = rng.sample(V.apps, rng.randint(1, 2))
            where.append(f"app IN ({', '.join(_quote(a) for a in picked)})")
        else:
            where.append(f"app {op} {_quote(rng.choice(V.apps))}")
    if rng.random() < 0.15:
        where.append(f"exec {rng.choice(('=', '<=', '>='))} {_quote(str(rng.randint(0, 3)))}")
    if rng.random() < 0.35:  # focus allowlist; sometimes disjoint from a member
        picked = rng.sample(FOCUS_POOL, rng.randint(1, 2))
        if len(picked) == 1:
            where.append(f"focus = {_quote(picked[0])}")
        else:
            where.append(f"focus IN ({', '.join(_quote(f) for f in picked)})")
    if rng.random() < 0.15:  # tool type; members of the other type skip
        where.append(f"type = {_quote(rng.choice(TYPE_POOL))}")
    if rng.random() < 0.2:
        where.append(f"start >= {float(rng.randint(0, 3))!r}")
    if rng.random() < 0.2:
        where.append(f"end <= {float(rng.randint(2, 9))!r}")
    values = V.samples.get(chosen[0])
    if values and rng.random() < 0.55:
        # thresholds off the global distribution: vacuous on a member
        # whose range sits entirely above/below, selective on others
        threshold = rng.choice(values)
        op = rng.choice(("<", "<=", ">", ">", ">=", ">=", "=", "!="))
        where.append(f"value {op} {threshold!r}")

    group_by: list[str] = []
    if aggregate:
        funcs = rng.sample(AGG_FUNCS, rng.randint(1, 3))
        items = [f"{func}({metric})" for metric in chosen for func in funcs]
        if rng.random() < 0.9:
            keys = ["app", "exec", "focus", "numprocs", "machine"]
            group_by = rng.sample(keys, rng.randint(1, 2))
        order_pool = group_by + [i for i in items if i.startswith("count(")]
    else:
        items = list(chosen)
        order_pool = list(RAW_COLUMNS)

    text = "SELECT " + ", ".join(items)
    if sources:
        text += " FROM " + ", ".join(sources)
    if where:
        text += " WHERE " + " AND ".join(where)
    if group_by:
        text += " GROUP BY " + ", ".join(group_by)
    if order_pool and rng.random() < 0.4:
        text += f" ORDER BY {rng.choice(order_pool)}"
        if rng.random() < 0.5:
            text += " DESC"
    if rng.random() < 0.25:
        text += f" LIMIT {rng.randint(1, 10)}"
    return text


@pytest.mark.parametrize("fed", range(N_FEDERATIONS))
@pytest.mark.parametrize("seed", range(QUERIES_PER_FEDERATION))
def test_cost_based_plan_matches_naive_bytewise(cost_env, fed, seed, oracle_seed):
    env = cost_env[fed]
    rng = random.Random(91000 + fed * 1000 + seed + 1_000_000 * oracle_seed)
    text = make_query(rng, env.vocab)
    planned = env.engine.execute(text)
    expected = naive_query(text, env.members)
    assert [r.pack() for r in planned.rows] == [r.pack() for r in expected], (
        f"cost-based != naive for {text!r}\n"
        f"plan:\n{env.engine.explain(text)}\n"
        f"planned ({len(planned.rows)}): {[r.pack() for r in planned.rows[:5]]}\n"
        f"naive   ({len(expected)}): {[r.pack() for r in expected[:5]]}"
    )


def test_plan_mode_coverage(cost_env):
    """The randomized sweep must have exercised every plan mode."""
    totals: dict[str, int] = {}
    for env in cost_env:
        for mode, count in env.engine.plan_modes.items():
            totals[mode] = totals.get(mode, 0) + count
    # tier-0 may or may not fire depending on the drawn queries; the
    # four cost-model modes must all be exercised
    assert all(totals.get(mode, 0) >= 1 for mode in ("raw", "aggregate", "mixed", "skip")), (
        f"plan-mode coverage hole: {totals} — the query generator no "
        "longer drives every cost-model decision"
    )
    assert sum(totals.values()) >= N_FEDERATIONS * QUERIES_PER_FEDERATION * 0.5


def test_skip_is_visible_in_explain(cost_env):
    """A stats-proven skip shows up in the cost-annotated plan text."""
    env = cost_env[0]
    text = env.engine.explain(f"SELECT count({GHOST_METRIC}) GROUP BY app")
    assert "skipped" in text and "effective mode: skip" in text
    result = env.engine.execute(f"SELECT count({GHOST_METRIC}) GROUP BY app")
    assert result.rows == []
    assert result.stats["executions"] == 0  # no member was touched


def test_skewed_federation_moves_less_than_the_fat_members_rows():
    """One fat member whose value range makes ``value > t`` vacuous next
    to thin members, half of which never record the metric: the strict
    predicate makes the global mode raw, yet the fat member's rows stay
    home, the metric-less members are skipped and only the thin members
    that straddle the threshold ship rows."""

    def rows(metric, values):
        return [
            PerformanceResult(metric, "/Comm", "synthetic", float(i % 5), i % 5 + 5.0, v)
            for i, v in enumerate(values)
        ]

    fat_rows = [
        rows("latency_us", [float(100 + (37 * (25 * e + i)) % 800) for i in range(25)])
        for e in range(12)
    ]
    wrappers = {
        "FAT": InMemoryWrapper(
            "FAT",
            [
                InMemoryExecution(str(e), {"numprocs": "64"}, results)
                for e, results in enumerate(fat_rows)
            ],
        )
    }
    for index in range(4):
        metric = "latency_us" if index % 2 == 0 else "cache_misses"
        wrappers[f"THIN{index}"] = InMemoryWrapper(
            f"THIN{index}",
            [
                InMemoryExecution(
                    str(e), {"numprocs": "4"}, rows(metric, [10.0, 30.0, 60.0, 200.0, 390.0])
                )
                for e in range(2)
            ],
        )
    grid = build_synthetic_grid(wrappers)
    engine = grid.deploy_federation()
    text = "SELECT count(latency_us), mean(latency_us) WHERE value > 50.0 GROUP BY app"
    result = engine.execute(text)
    assert result.plan.mode == "raw"
    assert result.plan.effective_mode == "mixed"
    assert result.stats["skippedMembers"] >= 1
    # what the raw plan would ship from FAT alone, on the test's own data
    fat_raw_bytes = sum(len(pr.pack()) for results in fat_rows for pr in results)
    assert result.stats["payloadBytes"] * 2 < fat_raw_bytes
    expected = naive_query(text, engine.members())
    assert [r.pack() for r in result.rows] == [r.pack() for r in expected]
    grid.cleanup()
