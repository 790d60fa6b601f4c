"""Permutation oracle: an answer is a function of its rows.

Seeded corpora hunt for cells that read as one number but render
differently — exec ids ``1`` / ``01`` / ``1.0``, ±0.0 in ``start`` and
``value``, metric names ``inf`` / ``infinity`` and ``nan`` / ``NaN``,
group keys ``16`` / ``016`` — and for rows duplicated across members and
within an execution.  Each corpus is published several times over, each
time permuted:

* the order each store lists its executions;
* the order runs arrive at ``run_chunks`` (bulk, streamed and view reads);
* the chunk size: the engine's ``stream_chunk_rows`` and the client
  cursor's ``max_rows``, each 1, 3 or its default;
* the order of the ``data_updated`` refetches a view folds.

Every answer — ``client.query``, ``query_stream`` drained and closed after
k rows, ``get_view`` and the subscribed replica after each update — must
be the naive oracle's bytes, and so the same from every permutation, on
both encoding legs; no streamed query may leave a member or federation
cursor behind.

Aggregates are ``count`` / ``sum`` / ``mean`` over values that sum
exactly in any order: ``min`` / ``max`` keep whichever of ``0.0`` and
``-0.0`` they fold first, so they stay out of these corpora.
"""

from __future__ import annotations

import random

import pytest

from repro.core.semantic import PerformanceResult
from repro.experiments.common import build_synthetic_grid
from repro.fedquery import executor as executor_module
from repro.fedquery import merge as merge_module
from repro.fedquery import naive_query, parse_query
from repro.fedquery import views as views_module
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper
from repro.ogsi.cursor import DEFAULT_CHUNK_ROWS

from tests.leaks import live_cursors
from tests.test_fedquery_oracle import pin_leg

#: corpora per encoding leg, and publications of each
CORPORA = 2
PERMUTATIONS = 3

#: chunk sizes a permutation runs at (engine reads and client cursor)
CHUNKS = (1, 3, DEFAULT_CHUNK_ROWS)

EXEC_IDS = ("1", "01", "1.0", "001", "2")
NUMPROCS = ("16", "016", "8")
METRICS = ("m", "inf", "infinity", "nan", "NaN")
STARTS = (0.0, -0.0, 1.0)
VALUES = (0.0, -0.0, 1.0, 2.5, -3.0)

QUERIES = (
    "SELECT m",
    "SELECT inf, infinity",
    "SELECT nan, NaN WHERE value >= 0",
    "SELECT m ORDER BY value DESC LIMIT 5",
    "SELECT m ORDER BY start LIMIT 4",
    "SELECT count(m), sum(m), mean(m) GROUP BY numprocs",
    "SELECT count(inf), sum(infinity) GROUP BY exec",
)

VIEW_TEXTS = (
    "SELECT m, nan, NaN",
    "SELECT m ORDER BY value DESC LIMIT 4",
    "SELECT count(m), sum(m) GROUP BY numprocs",
)

#: seeded appends a view folds, one data_updated each
UPDATES = 4


def _row(rng: random.Random, metric: str | None = None) -> PerformanceResult:
    start = rng.choice(STARTS)
    return PerformanceResult(
        metric or rng.choice(METRICS), f"/R/{rng.randrange(2)}", "t",
        start, start + rng.choice((1.0, 2.0)), rng.choice(VALUES),
    )


def make_corpus(rng: random.Random) -> dict[str, list[tuple[str, dict, list]]]:
    """app -> its executions as ``(exec_id, attrs, rows)``: ids drawn from
    :data:`EXEC_IDS`, every metric present, rows repeated within an
    execution, and member ``B`` holding copies of ``A``'s executions."""
    corpus: dict[str, list[tuple[str, dict, list]]] = {}
    for app in ("A", "C"):
        executions = []
        for exec_id in rng.sample(EXEC_IDS, 3):
            rows = [_row(rng, metric) for metric in METRICS] + [_row(rng) for _ in range(6)]
            rows += rng.sample(rows, 2)
            executions.append((exec_id, {"numprocs": rng.choice(NUMPROCS)}, rows))
        corpus[app] = executions
    corpus["B"] = [(e, dict(attrs), list(rows)) for e, attrs, rows in corpus["A"][:2]]
    return corpus


def make_updates(rng: random.Random, corpus) -> list[tuple[str, str, PerformanceResult]]:
    """Appends that commute: ``(app, exec_id, row)``, a row copied from
    another execution or drawn afresh."""
    every = [row for executions in corpus.values() for _, _, rows in executions for row in rows]
    updates = []
    for _ in range(UPDATES):
        app = rng.choice(sorted(corpus))
        exec_id = rng.choice(corpus[app])[0]
        updates.append((app, exec_id, rng.choice(every) if rng.random() < 0.5 else _row(rng, "m")))
    return updates


def publish(corpus, rng: random.Random):
    """*corpus* as a grid whose stores list their executions shuffled."""
    wrappers = {}
    for app, executions in corpus.items():
        listed = [InMemoryExecution(e, dict(attrs), list(rows)) for e, attrs, rows in executions]
        rng.shuffle(listed)
        wrappers[app] = InMemoryWrapper(app, listed)
    grid = build_synthetic_grid(wrappers)
    return grid, grid.deploy_federation(), wrappers


def shuffle_runs(monkeypatch, rng: random.Random) -> None:
    """Runs reach ``run_chunks`` in a seeded order on every path."""
    def shuffled(runs):
        runs = list(runs)
        rng.shuffle(runs)
        return merge_module.run_chunks(runs)

    monkeypatch.setattr(executor_module, "run_chunks", shuffled)
    monkeypatch.setattr(views_module, "run_chunks", shuffled)


def answers(grid, engine, chunk: int, rng: random.Random) -> dict[str, list[str]]:
    """Each query's answer through ``query`` and ``query_stream``
    (drained, and closed after k rows), all asserted alike."""
    out = {}
    for text in QUERIES:
        fingerprint = parse_query(text).fingerprint()
        engine.plan_cache.remove(fingerprint)
        bulk = [row.pack() for row in grid.client.query(text)]
        engine.plan_cache.remove(fingerprint)
        with grid.client.query_stream(text, max_rows=chunk) as stream:
            drained = [row.pack() for row in stream]
        assert drained == bulk, text
        assert live_cursors(grid) == 0, text
        k = rng.randint(0, len(bulk))
        engine.plan_cache.remove(fingerprint)
        with grid.client.query_stream(text, max_rows=chunk) as stream:
            first = [row.pack() for _, row in zip(range(k), stream)]
        assert first == bulk[:k], (text, k)
        assert live_cursors(grid) == 0, text
        out[text] = bulk
    return out


def naive(text: str, engine) -> list[str]:
    return [row.pack() for row in naive_query(text, engine.members())]


def view_states(grid, engine, wrappers, updates) -> dict[str, list[str]]:
    """Create and subscribe every view, then apply *updates* in order,
    each announced by its execution's ``data_updated``: after each, the
    server's view and the replica equal naive.  Returns the views' rows
    after the last update."""
    views = {}
    for text in VIEW_TEXTS:
        view_id = grid.client.create_view(text)
        views[text] = (view_id, grid.client.subscribe_view(view_id))
    for app, exec_id, row in updates:
        execution = next(e for e in wrappers[app].executions_data if e.exec_id == exec_id)
        execution.results.append(row)
        grid.execution_service(app, exec_id).data_updated("append")
        for text, (view_id, replica) in views.items():
            expected = naive(text, engine)
            _, rows = grid.client.get_view(view_id)
            assert [r.pack() for r in rows] == expected, text
            assert [r.pack() for r in replica.rows] == expected, text
            assert replica.stale_refreshes == 0, text
    final = {}
    for text, (view_id, replica) in views.items():
        final[text] = [r.pack() for r in replica.rows]
        replica.close()
    return final


@pytest.mark.parametrize("encoding", ["negotiated", "xml"])
def test_every_permutation_answers_alike(oracle_seed, encoding, monkeypatch):
    pin_leg(monkeypatch, encoding)
    for corpus_seed in range(CORPORA):
        rng = random.Random(0x7E1 + corpus_seed + 1000 * oracle_seed)
        corpus = make_corpus(rng)
        updates = make_updates(rng, corpus)
        expected = None
        for permutation in range(PERMUTATIONS):
            chunk = CHUNKS[permutation % len(CHUNKS)]
            shuffle_runs(monkeypatch, rng)
            grid, engine, wrappers = publish(corpus, rng)
            engine.stream_chunk_rows = chunk
            try:
                got = answers(grid, engine, chunk, rng)
                if expected is None:
                    expected = {text: naive(text, engine) for text in QUERIES}
                assert got == expected, (corpus_seed, permutation)
                final = view_states(grid, engine, wrappers, rng.sample(updates, len(updates)))
                assert final == {text: naive(text, engine) for text in VIEW_TEXTS}
            finally:
                grid.cleanup()
