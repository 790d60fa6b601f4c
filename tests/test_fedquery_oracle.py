"""Property test: the planned federated pipeline == the naive oracle.

Generates a few hundred randomized queries from the live grid's own
vocabulary (published query params, metrics, foci, tool types, observed
value/time ranges) and checks that the full planner/push-down/fan-out/
merge pipeline returns exactly what the boring client-side evaluation
in :mod:`repro.fedquery.naive` returns — same rows, same order, floats
compared with ``math.isclose`` (SQL aggregates sum in store order, the
oracle in arrival order).

All three store flavors are exercised: HPL (RDBMS, scalar metrics),
SMG98 (RDBMS, 5-table Vampir trace) and PRESTA-RMA (flat text files).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core import client as client_module
from repro.core.client import default_accept_encodings
from repro.core.semantic import PerformanceResult
from repro.experiments.common import GridScale, build_grid, build_synthetic_grid
from repro.fedquery import ResultRow, naive_query
from repro.fedquery.merge import RAW_COLUMNS
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper
from repro.soap.chunks import ANSWER_ENCODINGS, ENCODING_COLBATCH, ENCODING_XML

from tests.leaks import live_cursors

#: randomized queries checked against the oracle (ISSUE floor: 200)
N_QUERIES = 240

AGG_FUNCS = ("count", "sum", "mean", "min", "max")


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


@pytest.fixture(scope="module")
def oracle_env():
    grid = build_grid(GridScale.tiny())
    engine = grid.deploy_federation()
    members = engine.members()

    # independent engines (own plan caches) on which every raw read
    # planned over 7 rows is large — a cursor when streamed, an
    # advertising getPR when bulk — so the streamed arms can never
    # answer from the main engine's cache; one per wire encoding, so
    # the whole randomized corpus runs over both the negotiated
    # (columnar) and the forced-XML path: the xml leg's tests pin
    # PPG_ACCEPT_ENCODINGS=xml (see pin_leg)
    from repro.core.client import PPerfGridClient
    from repro.fedquery.executor import FederationEngine

    def make_stream_engine():
        return FederationEngine(
            PPerfGridClient(grid.environment, grid.uddi_gsh),
            managers={name: site.manager for name, site in grid.sites.items()},
            stream_chunk_rows=7,
        )

    stream_engines = {
        "negotiated": make_stream_engine(),  # client default advertisement
        "xml": make_stream_engine(),  # forced per-row fallback
    }
    stream_engine = stream_engines["negotiated"]

    params: dict[str, dict[str, list[str]]] = {}
    metrics: dict[str, list[str]] = {}
    foci: dict[str, list[str]] = {}
    types: dict[str, str] = {}
    for name, binding in members.items():
        params[name] = binding.exec_query_params()
        probe = binding.all_executions()[0]
        metrics[name] = probe.metrics()
        foci[name] = probe.foci()
        types[name] = probe.types()[0]

    # observed value samples and time horizon, for plausible predicates
    samples: dict[str, list[float]] = {}
    end_max = 1.0
    for app, app_metrics in metrics.items():
        for metric in app_metrics:
            result = engine.execute(f"SELECT {metric} FROM {app}")
            values = samples.setdefault(metric, [])
            for row in result.rows:
                values.append(float(row["value"]))
                end_max = max(end_max, float(row["end"]))
    samples = {m: sorted(v) for m, v in samples.items() if v}
    engine.invalidate_cache()
    naive_answers: dict[str, list[ResultRow]] = {}

    def naive(text: str) -> list[ResultRow]:
        """``naive_query``'s answer, computed once per text (no test in
        this module writes to a store, so it cannot change)."""
        if text not in naive_answers:
            naive_answers[text] = naive_query(text, members)
        return naive_answers[text]

    yield SimpleNamespace(
        grid=grid,
        engine=engine,
        stream_engine=stream_engine,
        stream_engines=stream_engines,
        members=members,
        naive=naive,
        apps=sorted(members),
        params=params,
        metrics=metrics,
        foci=foci,
        types=types,
        samples=samples,
        end_max=end_max,
        # filled by the bulk corpus, per wire-encoding leg
        framed_answers=Counter(),
        bulk_queries_run=Counter(),
    )
    grid.cleanup()


def _quote(text: str) -> str:
    return f"'{text}'"


def make_tier0_query(
    rng: random.Random, V, funcs: tuple[str, ...] = AGG_FUNCS, exact_only: bool = False
) -> str:
    """A random query whose *shape* is tier-0 eligible: aggregate-only
    select, group keys at most ``app``, full window, and only value
    predicates.  Whether the answer actually comes from metadata depends
    on the member (sketchless SMG98 falls back) and the predicate — the
    corpus deliberately mixes vacuous windows (exact tier-0 answers),
    straddling ones (exact-mode fallback), and unsatisfiable ones (exact
    empty answers).  *exact_only* keeps to vacuous/absent predicates.
    """
    sources: list[str] = []
    if rng.random() < 0.4:
        sources = rng.sample(V.apps, rng.randint(1, len(V.apps)))
    primary = rng.choice(sources or V.apps)
    pool = V.metrics[primary]
    chosen = rng.sample(pool, 1 if rng.random() < 0.7 else min(2, len(pool)))
    picked_funcs = rng.sample(funcs, rng.randint(1, min(3, len(funcs))))
    items = [f"{func}({metric})" for metric in chosen for func in picked_funcs]

    where: list[str] = []
    values = V.samples.get(chosen[0])
    if values and rng.random() < 0.7:
        low, high = values[0], values[-1]
        vacuous = (
            f"value >= {low!r}", f"value <= {high!r}",
            f"value > {low - 1.0!r}", f"value < {high + 1.0!r}",
            f"value != {high + 1.0!r}",
        )
        if exact_only:
            where.append(rng.choice(vacuous))
        else:
            roll = rng.random()
            if roll < 0.4:
                where.append(rng.choice(vacuous))
            elif roll < 0.85:  # straddles: exact mode must fall back
                op = rng.choice(("<", "<=", ">", ">=", "=", "!="))
                where.append(f"value {op} {rng.choice(values)!r}")
            else:  # unsatisfiable: the provably-empty tier-0 answer
                where.append(f"value > {high + 1.0!r}")

    group_by = ["app"] if rng.random() < 0.8 else []
    order_pool = group_by + [i for i in items if i.startswith("count(")]

    text = "SELECT " + ", ".join(items)
    if sources:
        text += " FROM " + ", ".join(sources)
    if where:
        text += " WHERE " + " AND ".join(where)
    if group_by:
        text += " GROUP BY " + ", ".join(group_by)
    if order_pool and rng.random() < 0.3:
        text += f" ORDER BY {rng.choice(order_pool)}"
        if rng.random() < 0.5:
            text += " DESC"
    if rng.random() < 0.2:
        text += f" LIMIT {rng.randint(1, 12)}"
    return text


def make_query(rng: random.Random, V) -> str:
    """One random, always-valid query drawn from the grid's vocabulary."""
    if rng.random() < 0.2:
        return make_tier0_query(rng, V)
    aggregate = rng.random() < 0.6
    sources: list[str] = []
    if rng.random() < 0.5:
        sources = rng.sample(V.apps, rng.randint(1, len(V.apps)))
    candidates = sources or V.apps
    primary = rng.choice(candidates)
    pool = V.metrics[primary]
    chosen = rng.sample(pool, 1 if rng.random() < 0.7 else min(2, len(pool)))

    where: list[str] = []
    if rng.random() < 0.6:  # execution-attribute predicate
        attr = rng.choice(sorted(V.params[primary]))
        values = V.params[primary][attr]
        op = rng.choice(("=", "!=", "<", "<=", ">", ">=", "in"))
        if op == "in":
            picked = rng.sample(values, min(len(values), rng.randint(1, 3)))
            where.append(f"{attr} IN ({', '.join(_quote(v) for v in picked)})")
        else:
            where.append(f"{attr} {op} {_quote(rng.choice(values))}")
    if rng.random() < 0.2:  # app predicate
        op = rng.choice(("=", "!=", "in"))
        if op == "in":
            picked = rng.sample(V.apps, rng.randint(1, 2))
            where.append(f"app IN ({', '.join(_quote(a) for a in picked)})")
        else:
            where.append(f"app {op} {_quote(rng.choice(V.apps))}")
    if rng.random() < 0.15:  # execution-id predicate
        op = rng.choice(("=", "<=", ">=", "!="))
        where.append(f"exec {op} {_quote(str(rng.randint(0, 11)))}")
    if rng.random() < 0.35:  # focus predicate (narrows the query foci)
        app_foci = V.foci[primary]
        if rng.random() < 0.5 or len(app_foci) == 1:
            where.append(f"focus = {_quote(rng.choice(app_foci))}")
        else:
            picked = rng.sample(app_foci, min(len(app_foci), rng.randint(2, 3)))
            where.append(f"focus IN ({', '.join(_quote(f) for f in picked)})")
    if rng.random() < 0.15:  # tool-type predicate
        where.append(f"type = {_quote(V.types[rng.choice(candidates)])}")
    if rng.random() < 0.25:  # time window
        where.append(f"start >= {round(rng.uniform(0.0, V.end_max * 0.5), 3)}")
    if rng.random() < 0.25:
        where.append(f"end <= {round(rng.uniform(V.end_max * 0.25, V.end_max), 3)}")
    values = V.samples.get(chosen[0])
    if values and rng.random() < 0.45:  # value predicate
        threshold = rng.choice(values)
        op = rng.choice(("<", "<=", "<=", ">", ">=", ">=", "=", "!="))
        where.append(f"value {op} {threshold!r}")

    group_by: list[str] = []
    if aggregate:
        funcs = rng.sample(AGG_FUNCS, rng.randint(1, 3))
        items = [f"{func}({metric})" for metric in chosen for func in funcs]
        if rng.random() < 0.9:
            keys = ["app", "exec", "focus"] + sorted(V.params[primary])
            group_by = rng.sample(keys, rng.randint(1, 2))
        # floats from SQL and Python can differ in the last ulp, so only
        # order on exact columns (group keys and integer counts)
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
    if rng.random() < 0.3:
        text += f" LIMIT {rng.randint(1, 12)}"
    return text


def pin_leg(monkeypatch, encoding: str) -> None:
    """The xml leg advertises nothing beyond per-row XML; the negotiated
    leg keeps the process default."""
    if encoding == "xml":
        monkeypatch.setenv("PPG_ACCEPT_ENCODINGS", ENCODING_XML)


def count_framed_answers(monkeypatch) -> list[int]:
    """A one-cell counter of the array answers the bindings receive as a
    columnar chunk (``unframe_answer`` reports a non-XML encoding)."""
    counter = [0]
    real = client_module.unframe_answer

    def counting(items, accept_encodings):
        rows, encoding = real(items, accept_encodings)
        counter[0] += encoding != ENCODING_XML
        return rows, encoding

    monkeypatch.setattr(client_module, "unframe_answer", counting)
    return counter


# the negotiated leg keeps the bare seed as its id
@pytest.mark.parametrize(
    "seed, encoding",
    [pytest.param(seed, "negotiated", id=str(seed)) for seed in range(N_QUERIES)]
    + [pytest.param(seed, "xml", id=f"{seed}-xml") for seed in range(N_QUERIES)],
)
def test_planned_matches_naive(oracle_env, seed, oracle_seed, encoding, monkeypatch):
    """Bulk ``execute`` on the engine of each wire encoding, whose
    ``stream_chunk_rows=7`` makes every raw read planned over 7 rows
    large: on the negotiated leg each such ``getPR`` advertises the
    columnar encoding and the member answers with one colbatch chunk
    whenever that is shorter; on the xml leg nothing is advertised and
    every array is XML.  Raw answers are byte-identical to the naive oracle on both."""
    from repro.fedquery import parse_query

    rng = random.Random(7000 + seed + 1_000_000 * oracle_seed)
    text = make_query(rng, oracle_env)
    engine = oracle_env.stream_engines[encoding]
    pin_leg(monkeypatch, encoding)
    framed = count_framed_answers(monkeypatch)
    planned = engine.execute(text)
    # the streamed arms of the corpus run on this engine too: they must
    # never answer from what this bulk run memoized
    engine.plan_cache.remove(parse_query(text).fingerprint())
    expected = oracle_env.naive(text)
    if parse_query(text).is_aggregate:
        assert rows_equal(planned.rows, expected), f"planned != naive for {text!r}"
    else:
        assert [r.pack() for r in planned.rows] == [r.pack() for r in expected], (
            f"planned bytes != naive bytes for {text!r}\n"
            f"planned ({len(planned.rows)}): {[r.pack() for r in planned.rows[:5]]}\n"
            f"naive   ({len(expected)}): {[r.pack() for r in expected[:5]]}"
        )
    if encoding == "xml":
        assert framed[0] == 0, text
    oracle_env.framed_answers[encoding] += framed[0]
    oracle_env.bulk_queries_run[encoding] += 1


@pytest.mark.parametrize("encoding", ["negotiated", "xml"])
def test_client_query_matches_naive_over_the_wire(oracle_env, oracle_seed, encoding, monkeypatch):
    """The whole corpus through ``PPerfGridClient.query``, every hop a
    SOAP round trip: the federation frames each fresh answer from its
    token columns — one colbatch chunk when that is shorter, else
    per-row XML — and the client's rows equal the naive oracle's, raw
    ones byte for byte (ORDER BY, LIMIT and empty answers included),
    aggregates as ``test_planned_matches_naive`` compares them.  Each
    query is then sent again and answered from the plan cache, through
    ``query`` and through ``query_stream``: the same bytes as the miss.
    On the xml leg nothing is advertised and no answer is framed."""
    from repro.fedquery import parse_query

    pin_leg(monkeypatch, encoding)
    seen: list[str] = []
    real = client_module.unframe_answer

    def recording(items, accept_encodings):
        rows, answer_encoding = real(items, accept_encodings)
        seen.append(answer_encoding)
        return rows, answer_encoding

    monkeypatch.setattr(client_module, "unframe_answer", recording)
    engine, client = oracle_env.engine, oracle_env.grid.client
    results: list = []
    execute = engine.execute

    def recorded_execute(*args, **kwargs):
        results.append(execute(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(engine, "execute", recorded_execute)
    answers: Counter = Counter()
    for seed in range(N_QUERIES):
        text = make_query(random.Random(7000 + seed + 1_000_000 * oracle_seed), oracle_env)
        query = parse_query(text)
        # answered by the merge, never by a memoized earlier answer
        engine.plan_cache.remove(query.fingerprint())
        miss = client.query(text)
        assert results[-1].cached is False, text
        answers[seen[-1]] += 1  # the client's answer is the last one read
        received = [row.pack() for row in miss]
        expected = oracle_env.naive(text)
        if query.is_aggregate:
            assert rows_equal(miss, expected), f"client != naive for {text!r}"
        else:
            assert received == [row.pack() for row in expected], (
                f"client bytes != naive bytes for {text!r}\n"
                f"client ({len(received)}): {received[:5]}\n"
                f"naive  ({len(expected)}): {[row.pack() for row in expected[:5]]}"
            )
        for hit in (client.query(text), list(client.query_stream(text))):
            assert results[-1].cached is True, text
            assert [row.pack() for row in hit] == received, f"hit != miss for {text!r}"
    advertised = default_accept_encodings(ANSWER_ENCODINGS)
    if encoding == "xml" or ENCODING_COLBATCH not in advertised:
        assert set(answers) == {ENCODING_XML}, answers
    else:  # large answers went columnar (in the first encoding advertised:
        # colbatch+pfx by default), small ones stayed per-row XML
        assert answers[advertised[0]] and answers[ENCODING_XML], answers


@pytest.mark.parametrize("encoding", ["negotiated", "xml"])
def test_client_query_stream_matches_naive_over_the_wire(
    oracle_env, oracle_seed, encoding, monkeypatch
):
    """The same raw half of the corpus through ``PPerfGridClient.query_stream``:
    drained, the rows are byte-identical to the naive oracle; closed
    after *k* rows (*k* drawn from the query's seed), they are the
    oracle's first *k*.  However the stream ended, no member or
    federation cursor outlives it."""
    from repro.fedquery import parse_query

    pin_leg(monkeypatch, encoding)
    grid, engine = oracle_env.grid, oracle_env.engine
    for seed in range(N_QUERIES):
        rng = random.Random(7000 + seed + 1_000_000 * oracle_seed)
        text = make_query(rng, oracle_env)
        query = parse_query(text)
        if query.is_aggregate:
            continue
        expected = [row.pack() for row in oracle_env.naive(text)]
        # answered by the merge, never by a memoized earlier answer
        engine.plan_cache.remove(query.fingerprint())
        with grid.client.query_stream(text) as stream:
            drained = [row.pack() for row in stream]
        assert drained == expected, f"drained stream != naive for {text!r}"
        assert live_cursors(grid) == 0, text
        k = rng.randint(0, len(expected))
        engine.plan_cache.remove(query.fingerprint())
        with grid.client.query_stream(text) as stream:
            first = [row.pack() for _, row in zip(range(k), stream)]
        assert first == expected[:k], f"first {k} streamed rows != naive for {text!r}"
        assert live_cursors(grid) == 0, text


#: seeded store updates the view oracle applies, one data_updated each
VIEW_UPDATES = 12

#: one aggregate view and one raw ORDER BY ... DESC LIMIT view
VIEW_TEXTS = (
    "SELECT count(m), mean(m), max(m) GROUP BY app, numprocs",
    "SELECT m ORDER BY value DESC LIMIT 7",
)


@pytest.mark.parametrize("encoding", ["negotiated", "xml"])
def test_client_views_match_naive_over_the_wire(oracle_seed, encoding, monkeypatch):
    """``create_view``, then, after each update of a seeded sequence, the
    ``get_view`` snapshot and a ``subscribe_view`` replica — every call a
    SOAP round trip through the client — equal the naive oracle's rows
    byte for byte.  Values are small integers, so the raw view's value
    ties are many and the canonical order decides them; partitions larger
    than 4 rows page through member cursors.  Each update reaches the
    replica as one in-order delta: it never falls back to a refresh."""
    pin_leg(monkeypatch, encoding)
    rng = random.Random(0x71E + oracle_seed)

    def result(start: int) -> PerformanceResult:
        value = float(rng.randint(0, 5))
        return PerformanceResult("m", f"/rank/{start % 3}", "t", float(start), start + 1.0, value)

    wrappers = {
        app: InMemoryWrapper(app, [
            InMemoryExecution(str(e), {"numprocs": str(2 ** e)},
                              [result(i) for i in range(rng.randint(3, 9))])
            for e in range(3)
        ])
        for app in ("A", "B")
    }
    grid = build_synthetic_grid(wrappers)
    engine = grid.deploy_federation()
    engine.stream_chunk_rows = 4
    client = grid.client
    view_ids = [client.create_view(text) for text in VIEW_TEXTS]
    replicas = [client.subscribe_view(view_id) for view_id in view_ids]
    try:
        for step in range(VIEW_UPDATES + 1):
            if step:
                app = rng.choice(sorted(wrappers))
                execution = rng.choice(wrappers[app].executions_data)
                results, roll = execution.results, rng.random()
                if results and roll < 0.3:
                    results.pop(rng.randrange(len(results)))
                elif results and roll < 0.6:
                    index = rng.randrange(len(results))
                    results[index] = result(int(results[index].start))
                else:
                    results.append(result(rng.randint(0, 9)))
                grid.execution_service(app, execution.exec_id).data_updated(f"step {step}")
            for text, view_id, replica in zip(VIEW_TEXTS, view_ids, replicas):
                expected = [row.pack() for row in naive_query(text, engine.members())]
                _, rows = client.get_view(view_id)
                assert [row.pack() for row in rows] == expected, (step, text)
                assert [row.pack() for row in replica.rows] == expected, (step, text)
                assert replica.stale_refreshes == 0, (step, text)
        assert client.view_stats()["deltasApplied"] == 2 * VIEW_UPDATES
    finally:
        for replica in replicas:
            replica.close()
        grid.cleanup()


def test_negotiated_bulk_leg_received_columnar_answers(oracle_env):
    """Over the whole bulk corpus, the negotiated leg really did receive
    columnar ``getPR`` answers — unless the process pins every encoding
    to XML (``PPG_ACCEPT_ENCODINGS=xml``), when neither leg may."""
    if min(oracle_env.bulk_queries_run[leg] for leg in ("negotiated", "xml")) < N_QUERIES:
        pytest.skip("needs the whole bulk corpus on both legs")
    assert oracle_env.framed_answers["xml"] == 0
    if ENCODING_COLBATCH in default_accept_encodings():
        assert oracle_env.framed_answers["negotiated"] > 0
    else:
        assert oracle_env.framed_answers["negotiated"] == 0


@pytest.mark.parametrize("encoding", ["negotiated", "xml"])
@pytest.mark.parametrize("seed", range(N_QUERIES))
def test_streamed_matches_bulk(oracle_env, seed, oracle_seed, encoding, monkeypatch):
    """The same corpus through execute(stream=True): raw queries must be
    byte-identical to the bulk rows (the incremental merge reproduces
    the bulk order exactly); global operators (aggregates/ORDER BY) take
    the documented bulk fallback and are float-compared.  Runs once per
    wire encoding — the columnar batch path and the per-row XML fallback
    must both reproduce the bulk bytes."""
    from repro.fedquery import parse_query

    rng = random.Random(7000 + seed + 1_000_000 * oracle_seed)
    text = make_query(rng, oracle_env)
    bulk = oracle_env.engine.execute(text)
    pin_leg(monkeypatch, encoding)
    with oracle_env.stream_engines[encoding].execute(text, stream=True) as streamed:
        streamed_rows = list(streamed)
    query = parse_query(text)
    if query.is_aggregate or query.order_by is not None:
        assert rows_equal(streamed_rows, bulk.rows), (
            f"streamed != bulk for {text!r}"
        )
    else:
        assert [r.pack() for r in streamed_rows] == [r.pack() for r in bulk.rows], (
            f"streamed bytes != bulk bytes for {text!r}\n"
            f"streamed ({len(streamed_rows)}): {[r.pack() for r in streamed_rows[:5]]}\n"
            f"bulk     ({len(bulk.rows)}): {[r.pack() for r in bulk.rows[:5]]}"
        )


@pytest.mark.parametrize("seed", range(40))
def test_tier0_exact_byte_identical_to_naive(oracle_env, seed, oracle_seed):
    """Tier-0 answers restricted to exactly-representable aggregates
    (count/min/max over vacuous windows) must be *byte-identical* to the
    naive evaluation — not merely close: the metadata answer returns the
    very values the stores hold.  (sum/mean are excluded here only
    because legitimate summation-order ulp drift exists even between two
    exact backends; the randomized sweep above covers them via
    ``rows_equal``.)"""
    rng = random.Random(9500 + seed + 1_000_000 * oracle_seed)
    text = make_tier0_query(
        rng, oracle_env, funcs=("count", "min", "max"), exact_only=True
    )
    result = oracle_env.engine.execute(text)
    expected = naive_query(text, oracle_env.members)
    assert [r.pack() for r in result.rows] == [r.pack() for r in expected], (
        f"tier-0 != naive bytes for {text!r}"
    )
    # when every member answered from metadata, no store was contacted
    if result.plan is not None and result.plan.members:
        if all(m.is_tier0 for m in result.plan.members):
            assert result.stats["calls"] == 0, text


def test_streamed_full_drain_is_memoized(oracle_env):
    text = "SELECT gflops FROM HPL"
    oracle_env.stream_engine.invalidate_cache()
    first = list(oracle_env.stream_engine.execute(text, stream=True))
    hot = oracle_env.stream_engine.execute(text, stream=True)
    assert hot.cached is True
    assert [r.pack() for r in hot] == [r.pack() for r in first]


@pytest.mark.parametrize("app", ["HPL", "SMG98", "PRESTA-RMA"])
def test_every_store_flavor_agrees(oracle_env, app):
    """Deterministic per-store check, so a store-specific regression is
    attributed directly even if the randomized sweep shifts."""
    metric = oracle_env.metrics[app][0]
    text = (
        f"SELECT count({metric}), mean({metric}), min({metric}), max({metric}) "
        f"FROM {app} GROUP BY numprocs ORDER BY numprocs"
    )
    planned = oracle_env.engine.execute(text)
    assert planned.rows, f"no rows for {text!r}"
    assert rows_equal(planned.rows, naive_query(text, oracle_env.members))
