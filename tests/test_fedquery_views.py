"""Incremental materialized views: maintenance oracle + subscription e2e.

The centerpiece is a randomized interleaving oracle: over randomized
federations (reusing the cost-model suite's generators), a pool of
materialized views is registered and the member stores are mutated —
rows appended, modified, and removed, including ghost-metric backfills
that reopen stats-proven skips — with every mutation announced via the
publisher-side ``data_updated()``.  After *each* step, every view's
maintained rows must be byte-identical to a from-scratch
:func:`~repro.fedquery.naive.naive_query` recompute, and a subscribed
client replica must track the server without a single stale refresh.

All synthetic values are integer-valued floats, so sums and means are
exact doubles regardless of merge order and byte comparison is sound.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.semantic import PerformanceResult
from repro.experiments.common import build_synthetic_grid
from repro.fedquery import (
    QueryError,
    ViewDelta,
    naive_query,
    parse_query,
    view_shape,
)
from repro.fedquery.merge import read_rows
from repro.fedquery.views import VIEW_STAT_NAMES
from repro.fedquery.viewservice import VIEW_REGISTRY_PORTTYPE
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper
from repro.ogsi.container import GridEnvironment
from repro.soap.faults import SoapFault
from repro.soap.rpc import decode_request

from tests.test_fedquery_costmodel import (
    GHOST_METRIC,
    _vocabulary,
    make_federation,
    make_query,
)

N_FEDERATIONS = 3
VIEWS_PER_FEDERATION = 6
UPDATE_STEPS = 8


# --------------------------------------------------------------- unit layer
class TestViewShapes:
    def test_combinable_aggregate(self):
        shape = view_shape(parse_query("SELECT count(m), sum(m) GROUP BY app"))
        assert shape.kind == "aggregate-merge"
        assert "accumulators merge per partition" in shape.detail

    def test_mean_decomposes(self):
        # mean folds as (total, count), so it merges like sum and count
        shape = view_shape(parse_query("SELECT mean(m) GROUP BY app"))
        assert shape.kind == "aggregate-merge"
        assert "sum" in shape.detail and "count" in shape.detail

    def test_raw_splice(self):
        assert view_shape(parse_query("SELECT m")).kind == "raw-splice"

    def test_topk_bounded(self):
        shape = view_shape(parse_query("SELECT m ORDER BY value DESC LIMIT 5"))
        assert shape.kind == "topk-bounded"
        assert "LIMIT 5" in shape.detail


class TestViewDeltaWire:
    def test_roundtrip(self):
        delta = ViewDelta(
            view_id="view-3",
            epoch=2,
            from_version=7,
            to_version=8,
            kind="delta",
            removed=("a|b|1.0",),
            added=("a|b|2.0", "c|d|3.0"),
        )
        assert ViewDelta.decode(delta.encode()) == delta

    def test_empty_delta_roundtrip(self):
        delta = ViewDelta("view-1", 1, 1, 2, "delta")
        assert ViewDelta.decode(delta.encode()) == delta

    def test_bad_header_rejected(self):
        with pytest.raises(QueryError, match="bad view delta header"):
            ViewDelta.decode("not-a-header")


# ------------------------------------------------------- randomized oracle
def _mutate(rng, name, wrapper, execution, vocab) -> None:
    """One random store mutation with integer-valued floats."""
    results = execution.results
    roll = rng.random()
    if results and roll < 0.3:  # modify a value in place
        index = rng.randrange(len(results))
        old = results[index]
        results[index] = PerformanceResult(
            metric=old.metric,
            focus=old.focus,
            result_type=old.result_type,
            start=old.start,
            end=old.end,
            value=float(rng.randint(0, 150)),
        )
    elif results and roll < 0.45:  # remove a row
        results.pop(rng.randrange(len(results)))
    else:  # append a row; sometimes a ghost backfill (reopens skips)
        if rng.random() < 0.15:
            metric = GHOST_METRIC
        else:
            metric = rng.choice(vocab.metrics[name])
        start = float(rng.randint(0, 5))
        results.append(
            PerformanceResult(
                metric=metric,
                focus=rng.choice(vocab.foci[name]),
                result_type=wrapper.result_type,
                start=start,
                end=start + float(rng.randint(1, 5)),
                value=float(rng.randint(0, 150)),
            )
        )


def _assert_views_match_recompute(views, engine) -> None:
    members = engine.members()
    for view in views:
        expected = [row.pack() for row in naive_query(view.text, members)]
        assert view.packed_rows() == expected, (
            f"view {view.view_id} diverged for {view.text!r}\n"
            f"maintained ({len(view.packed_rows())}): {view.packed_rows()[:5]}\n"
            f"recomputed ({len(expected)}): {expected[:5]}"
        )


@pytest.mark.parametrize("fed", range(N_FEDERATIONS))
def test_any_interleaving_matches_recompute(fed, oracle_seed):
    rng = random.Random(52000 + fed * 1000 + 1_000_000 * oracle_seed)
    wrappers = make_federation(rng)
    grid = build_synthetic_grid(wrappers)
    engine = grid.deploy_federation(authority=f"viewfed{fed}.pdx.edu:9090")
    try:
        vocab = _vocabulary(wrappers)
        maintainer = engine.views()
        views = [
            maintainer.create_view(make_query(rng, vocab))
            for _ in range(VIEWS_PER_FEDERATION)
        ]
        _assert_views_match_recompute(views, engine)
        subscriber = grid.client.subscribe_view(
            views[0].view_id, authority=f"viewsub{fed}.pdx.edu:7070"
        )

        mutable = [
            (name, wrapper, execution)
            for name, wrapper in wrappers.items()
            for execution in wrapper.executions_data
        ]
        if not mutable:
            pytest.skip("federation rolled no executions to mutate")
        for step in range(UPDATE_STEPS):
            name, wrapper, execution = rng.choice(mutable)
            _mutate(rng, name, wrapper, execution, vocab)
            service = grid.execution_service(name, execution.exec_id)
            assert service is not None
            service.data_updated(f"oracle step {step}")
            _assert_views_match_recompute(views, engine)

        stats = maintainer.stats()
        assert stats["maintenanceErrors"] == 0
        assert stats["epochRefreshes"] == 0  # every update was attributable
        assert stats["deltasApplied"] >= 1
        # the push half tracked the server without one consistent-refresh
        assert subscriber.stale_refreshes == 0
        assert [row.pack() for row in subscriber.rows] == views[0].packed_rows()
        subscriber.close()
    finally:
        grid.cleanup()


# --------------------------------------------------------------- e2e layer
def _result(metric, focus, value, start=0.0, end=1.0):
    return PerformanceResult(
        metric=metric,
        focus=focus,
        result_type="synthetic",
        start=start,
        end=end,
        value=value,
    )


@pytest.fixture()
def view_grid():
    attrs = {"numprocs": "4", "machine": "mcurie"}
    a = InMemoryWrapper(
        "A",
        [
            InMemoryExecution(
                "0", dict(attrs), [_result("alpha", "/A", 3.0), _result("alpha", "/B", 5.0)]
            ),
            InMemoryExecution("1", dict(attrs), [_result("alpha", "/A", 7.0)]),
        ],
    )
    b = InMemoryWrapper(
        "B",
        [
            InMemoryExecution(
                "0", dict(attrs), [_result("alpha", "/A", 11.0), _result("beta", "/A", 2.0)]
            ),
        ],
    )
    grid = build_synthetic_grid({"A": a, "B": b})
    engine = grid.deploy_federation()
    yield grid, engine, a, b
    grid.cleanup()


AGG_VIEW = "SELECT count(alpha), sum(alpha), mean(alpha) GROUP BY app"


class TestViewRegistryOverSoap:
    def test_create_get_list_drop(self, view_grid):
        grid, engine, a, b = view_grid
        view_id = grid.client.create_view(AGG_VIEW)
        header, rows = grid.client.get_view(view_id)
        assert header["viewId"] == view_id
        assert header["shape"] == "aggregate-merge"
        assert (int(header["epoch"]), int(header["version"])) == (1, 1)
        assert int(header["rows"]) == len(rows)
        expected = naive_query(AGG_VIEW, engine.members())
        assert [row.pack() for row in rows] == [row.pack() for row in expected]
        listed = list(
            grid.environment.stub_for_handle(
                grid.views_gsh, VIEW_REGISTRY_PORTTYPE
            ).listViews()
        )
        assert any(record.startswith(f"{view_id}|aggregate-merge|") for record in listed)
        assert grid.client.drop_view(view_id) is True
        assert grid.client.drop_view(view_id) is False
        with pytest.raises(SoapFault, match="unknown view"):
            grid.client.get_view(view_id)

    def test_subscribe_view_delivers_deltas_end_to_end(self, view_grid):
        grid, engine, a, b = view_grid
        view_id = grid.client.create_view(AGG_VIEW)
        subscriber = grid.client.subscribe_view(view_id)
        assert [row.pack() for row in subscriber.rows] == [
            row.pack() for row in naive_query(AGG_VIEW, engine.members())
        ]

        a.executions_data[0].results.append(_result("alpha", "/A", 13.0))
        assert grid.execution_service("A", "0").data_updated("ingest") == 1

        expected = [row.pack() for row in naive_query(AGG_VIEW, engine.members())]
        assert engine.views().get_view(view_id).packed_rows() == expected
        assert [row.pack() for row in subscriber.rows] == expected
        assert subscriber.deltas_applied == 1
        assert subscriber.stale_refreshes == 0
        assert subscriber.version == 2

        stats = grid.client.view_stats()
        assert stats["deltasApplied"] == 1
        assert stats["pushedDeltas"] == 1
        # the delta refetched one partition, not the whole federation
        assert stats["deltaRowsFetched"] <= 4
        subscriber.close()

    def test_unchanged_update_is_a_noop(self, view_grid):
        grid, engine, a, b = view_grid
        view_id = grid.client.create_view(AGG_VIEW)
        subscriber = grid.client.subscribe_view(view_id)
        # beta does not feed this view: the refetched partition folds to
        # identical rows, and nothing is pushed
        b.executions_data[0].results.append(_result("beta", "/A", 4.0))
        grid.execution_service("B", "0").data_updated("beta only")
        stats = grid.client.view_stats()
        assert stats["noopUpdates"] == 1
        assert stats["pushedDeltas"] == 0
        assert subscriber.deltas_applied == 0
        assert subscriber.version == 1
        subscriber.close()

    def test_a_view_is_created_from_query_text_only(self):
        """The view's text is its identity on the wire: ``getView``'s
        query header, which a subscriber parses back.  A parsed
        ``Query`` has no such text, so it is refused before any member
        read, and the text of the same query subscribes."""
        environment = GridEnvironment()
        counter = environment.transport = _OperationCounter(environment.transport)
        grid, engine, _ = _uniform_grid(members=2, executions=1, foci=2, environment=environment)
        text = "SELECT count(m) GROUP BY app"
        counter.operations.clear()
        with pytest.raises(TypeError, match="query text"):
            engine.views().create_view(parse_query(text))
        assert counter.operations == Counter()  # raised before any member read
        assert engine.views().views() == []
        assert engine.view_stats()["created"] == 0
        subscriber = grid.client.subscribe_view(engine.views().create_view(text).view_id)
        expected = [row.pack() for row in naive_query(text, engine.members())]
        assert [row.pack() for row in subscriber.rows] == expected
        subscriber.close()
        grid.cleanup()

    def test_subscribe_unknown_view_rejected(self, view_grid):
        grid, engine, a, b = view_grid
        with pytest.raises(SoapFault, match="unknown view"):
            grid.client.subscribe_view("view-99")


class TestConsistencyProtocol:
    def test_stale_epoch_delta_triggers_consistent_refresh(self, view_grid):
        grid, engine, a, b = view_grid
        view_id = grid.client.create_view(AGG_VIEW)
        subscriber = grid.client.subscribe_view(view_id)
        baseline = [row.pack() for row in subscriber.rows]
        subscriber.apply(
            ViewDelta(
                view_id=view_id,
                epoch=subscriber.epoch + 5,
                from_version=subscriber.version,
                to_version=subscriber.version + 1,
                kind="delta",
                added=("junk|row|1.0",),
            )
        )
        assert subscriber.stale_refreshes == 1
        assert [row.pack() for row in subscriber.rows] == baseline

    def test_removing_an_unknown_row_triggers_refresh(self, view_grid):
        grid, engine, a, b = view_grid
        view_id = grid.client.create_view(AGG_VIEW)
        subscriber = grid.client.subscribe_view(view_id)
        subscriber.apply(
            ViewDelta(
                view_id=view_id,
                epoch=subscriber.epoch,
                from_version=subscriber.version,
                to_version=subscriber.version + 1,
                kind="delta",
                removed=("never|seen|0.0",),
            )
        )
        assert subscriber.stale_refreshes == 1
        assert subscriber.version == 1  # re-adopted the server's version

    def test_concurrent_subscribers_get_distinct_sinks(self, view_grid):
        """16 first subscriptions opened at once on a client authority
        with no container yet: they share one container, created once
        (get-or-create is one step under the environment's lock — it was
        check-then-act, and the losers raised ``ContainerError``), and
        draw distinct sinks (numbered by that container under its lock;
        they used to come from an unlocked class-level counter).

        One burst interleaves the create about one time in ten, so the
        test runs 64 bursts, each on a fresh authority, with the
        interpreter switching threads as often as it can."""
        import sys
        import threading

        from repro.core.client import AsyncQueryCollector, ViewSubscription

        grid, engine, a, b = view_grid
        view_id = grid.client.create_view(AGG_VIEW)
        expected = [row.pack() for row in naive_query(AGG_VIEW, engine.members())]

        def burst(authority: str) -> list:
            opened, failures = [], []
            start = threading.Barrier(16)

            def subscribe():
                start.wait(timeout=10)
                try:
                    opened.append(grid.client.subscribe_view(view_id, authority))
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)

            threads = [threading.Thread(target=subscribe) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == [], authority
            return opened

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for index in range(64):
                authority = f"ppg-client-{index}:7070"
                assert grid.environment.container_for(authority) is None
                opened = burst(authority)
                handles = {subscriber._sink_gsh.url() for subscriber in opened}
                assert len(handles) == 16
                assert all(f"{authority}/services/view-sink/" in h for h in handles)
                assert all([row.pack() for row in s.rows] == expected for s in opened)
                for subscriber in opened:
                    subscriber.close()
        finally:
            sys.setswitchinterval(interval)
        assert not hasattr(ViewSubscription, "_counter")
        assert not hasattr(AsyncQueryCollector, "_counter")

    def test_unattributable_update_opens_a_new_epoch(self, view_grid):
        grid, engine, a, b = view_grid
        view_id = grid.client.create_view(AGG_VIEW)
        subscriber = grid.client.subscribe_view(view_id)
        engine._on_update("data-update", "zz|1|mystery")
        view = engine.views().get_view(view_id)
        assert view.epoch == 2
        assert engine.view_stats()["epochRefreshes"] == 1
        assert engine.coherence_stats()["fullClears"] == 1
        # the pushed refresh is adopted unconditionally, not as stale
        assert subscriber.epoch == 2
        assert subscriber.stale_refreshes == 0
        assert [row.pack() for row in subscriber.rows] == view.packed_rows()
        subscriber.close()

    def test_member_scoped_clear_recomputes_only_that_member(self, view_grid):
        grid, engine, a, b = view_grid
        view_id = grid.client.create_view(AGG_VIEW)
        source = "ppg://mem0.pdx.edu:8080/services/A/ExecutionFactory/instances/99"
        engine._on_update("data-update", f"99|1|{source}|late publisher")
        coherence = engine.coherence_stats()
        assert coherence["memberClears"] == 1
        assert coherence["fullClears"] == 0
        stats = engine.view_stats()
        assert stats["scopedRecomputes"] == 1
        assert stats["epochRefreshes"] == 0
        view = engine.views().get_view(view_id)
        assert view.epoch == 1  # scoped recompute stays within the epoch
        expected = naive_query(AGG_VIEW, engine.members())
        assert view.packed_rows() == [row.pack() for row in expected]


class TestViewStatsSurfaces:
    def test_view_stats_over_soap(self, view_grid):
        grid, engine, a, b = view_grid
        grid.client.create_view(AGG_VIEW)
        stats = grid.client.view_stats()
        assert set(stats) == set(VIEW_STAT_NAMES)
        assert stats["views"] == 1 and stats["created"] == 1

    def test_view_stats_service_data(self, view_grid):
        from repro.fedquery.executor import _sde_values

        grid, engine, a, b = view_grid
        grid.client.create_view(AGG_VIEW)
        stub = grid.environment.stub_for_handle(
            grid.views_gsh, VIEW_REGISTRY_PORTTYPE
        )
        values = _sde_values(stub.FindServiceData("name:viewStats"))
        names = {value.split("|", 1)[0] for value in values}
        assert set(VIEW_STAT_NAMES) <= names


class _OperationCounter:
    """Transport proxy: counts SOAP requests by operation name."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.operations: Counter = Counter()

    def send(self, endpoint_url: str, request: bytes) -> bytes:
        self.operations[decode_request(request).operation] += 1
        return self.inner.send(endpoint_url, request)

    def __getattr__(self, name):  # bind / unbind / authorities
        return getattr(self.inner, name)


def _uniform_grid(members, executions, foci, environment=None):
    """*members* x *executions* partitions, two rows per focus each."""
    wrappers = {
        f"APP{m}": InMemoryWrapper(
            f"APP{m}",
            [
                InMemoryExecution(
                    str(e),
                    {},
                    [
                        _result("m", f"/rank/{i % foci}", float(m * 31 + e * 7 + i))
                        for i in range(2 * foci)
                    ],
                )
                for e in range(executions)
            ],
        )
        for m in range(members)
    }
    grid = build_synthetic_grid(wrappers, environment=environment)
    return grid, grid.deploy_federation(), wrappers


class TestMaintenanceCost:
    """What one attributed ``data_updated`` costs — counts, never time."""

    def test_aggregate_update_refetches_exactly_one_partition(self):
        foci = 5
        grid, engine, wrappers = _uniform_grid(members=3, executions=4, foci=foci)
        view = engine.views().create_view("SELECT count(m), sum(m) GROUP BY focus")
        base = engine.view_stats()  # creation paid the one full fetch
        assert base["deltaRowsFetched"] == 3 * 4 * foci
        wrappers["APP1"].executions_data[2].results.append(_result("m", "/rank/0", 9.0))
        assert grid.execution_service("APP1", "2").data_updated("append") == 1
        stats = engine.view_stats()
        # one getPRAgg over one execution: one bucket per focus it holds
        assert stats["deltaRowsFetched"] - base["deltaRowsFetched"] == foci
        assert stats["deltasApplied"] - base["deltasApplied"] == 1
        expected = naive_query(view.text, engine.members())
        assert view.packed_rows() == [row.pack() for row in expected]
        grid.cleanup()

    def test_raw_update_costs_one_get_stats_and_one_get_pr(self):
        environment = GridEnvironment()
        counter = environment.transport = _OperationCounter(environment.transport)
        grid, engine, wrappers = _uniform_grid(
            members=2, executions=3, foci=2, environment=environment
        )
        view = engine.views().create_view("SELECT m")
        service = grid.execution_service("APP0", "1")
        results = wrappers["APP0"].executions_data[1].results
        # the first update makes the coherence tracker fetch its
        # per-execution stats baseline; the steady state is what counts
        results.append(_result("m", "/rank/0", 9.0))
        assert service.data_updated("baseline") == 1
        results.append(_result("m", "/rank/1", 10.0))
        counter.operations.clear()
        assert service.data_updated("append") == 1
        # the tracker refreshes the dirty execution's stats; the
        # partition fetch takes its row estimate from the plan instead
        # of asking the execution again
        assert counter.operations["getStats"] == 1
        assert counter.operations["getPR"] == 1
        expected = naive_query(view.text, engine.members())
        assert view.packed_rows() == [row.pack() for row in expected]
        grid.cleanup()


class TestScopedRefetch:
    """One update path: the coherence scope decides what is refetched."""

    def test_a_limit_replica_follows_a_window_shift(self):
        grid, engine, wrappers = _uniform_grid(members=2, executions=2, foci=2)
        text = "SELECT m ORDER BY value DESC LIMIT 3"
        kinds: list[str] = []
        engine.views().add_listener(lambda view, delta: kinds.append(delta.kind))
        view_id = grid.client.create_view(text)
        view = engine.views().get_view(view_id)
        subscriber = grid.client.subscribe_view(view_id)

        def assert_replica_tracks():
            expected = [row.pack() for row in naive_query(text, engine.members())]
            assert view.packed_rows() == expected
            assert [row.pack() for row in subscriber.rows] == expected
            assert subscriber.stale_refreshes == 0

        assert_replica_tracks()
        top = max(row["value"] for row in read_rows(view.rows))
        # an appended row enters the window; the smallest one leaves
        wrappers["APP0"].executions_data[0].results.append(_result("m", "/rank/0", top + 50))
        assert grid.execution_service("APP0", "0").data_updated("enter") == 1
        assert_replica_tracks()
        assert next(read_rows(view.rows))["value"] == top + 50
        # a row modified below the window leaves it; the next one enters
        results = wrappers["APP1"].executions_data[1].results
        index = max(range(len(results)), key=lambda i: results[i].value)
        results[index] = _result("m", results[index].focus, 0.0)
        assert grid.execution_service("APP1", "1").data_updated("leave") == 1
        assert_replica_tracks()
        assert top not in [row["value"] for row in read_rows(view.rows)]
        assert subscriber.deltas_applied == 2
        assert kinds == ["delta", "delta"]
        subscriber.close()
        grid.cleanup()

    def test_a_member_proven_out_loses_every_partition(self):
        """An execution-scoped update after which the member's fresh
        stats prove it out of a ``WHERE value >= ...`` view: all of its
        partitions go, the ones outside the scope included, and nothing
        is read from it."""
        environment = GridEnvironment()
        counter = environment.transport = _OperationCounter(environment.transport)
        wrappers = {
            "HIGH": InMemoryWrapper(
                "HIGH", [InMemoryExecution("0", {}, [_result("m", "/A", 50.0)])]
            ),
            "MIXED": InMemoryWrapper(
                "MIXED",
                [
                    InMemoryExecution("0", {}, [_result("m", "/A", 1.0)]),
                    InMemoryExecution("1", {}, [_result("m", "/A", 40.0)]),
                ],
            ),
        }
        grid = build_synthetic_grid(wrappers, environment=environment)
        engine = grid.deploy_federation()
        view = engine.views().create_view("SELECT m WHERE value >= 30")
        assert {key for key in view.partitions if key[0] == "MIXED"} == {
            ("MIXED", "0"),
            ("MIXED", "1"),
        }
        wrappers["MIXED"].executions_data[1].results[0] = _result("m", "/A", 5.0)
        counter.operations.clear()
        assert grid.execution_service("MIXED", "1").data_updated("drop below") == 1
        assert [key for key in view.partitions if key[0] == "MIXED"] == []
        assert counter.operations["getPR"] == 0
        assert counter.operations["getPRAgg"] == 0
        assert engine.view_stats()["deltasApplied"] == 1
        plan = engine._plan(view.query, allow_tier0=False)
        assert [skipped.app for skipped in plan.skipped] == ["MIXED"]
        expected = naive_query(view.text, engine.members())
        assert view.packed_rows() == [row.pack() for row in expected]
        grid.cleanup()

    def test_a_refetched_partition_keeps_its_plan_position(self):
        """Executions ``1`` and ``01`` read as one number and hold equal
        rows, so only their text orders those rows.  A refetch of ``1``,
        which moves its partition behind ``01``'s, must not move its
        rows."""
        row = [_result("m", "/A", 2.0)]
        wrappers = {
            "A": InMemoryWrapper(
                "A", [InMemoryExecution("1", {}, list(row)), InMemoryExecution("01", {}, list(row))]
            )
        }
        grid = build_synthetic_grid(wrappers)
        engine = grid.deploy_federation()
        text = "SELECT m"
        view_id = grid.client.create_view(text)
        subscriber = grid.client.subscribe_view(view_id)
        assert grid.execution_service("A", "1").data_updated("touched") == 1
        expected = [row.pack() for row in naive_query(text, engine.members())]
        assert [row.pack() for row in grid.client.query(text)] == expected
        _, rows = grid.client.get_view(view_id)
        assert [row.pack() for row in rows] == expected
        assert [row.pack() for row in subscriber.rows] == expected
        subscriber.close()
        grid.cleanup()

    def test_a_replica_orders_rows_that_differ_only_in_exec_id_as_the_server(self):
        """Member ``A`` lists execution ``01`` (empty), then ``1`` (one
        row).  The row appended to ``01`` then differs from ``1``'s only
        in an exec id that reads as the same number: the server's view,
        a fresh query and the subscribed replica, which re-sorts the
        delta into its rows, answer ``exec=01`` first alike."""
        row = _result("m", "/A", 2.0)
        wrappers = {
            "A": InMemoryWrapper(
                "A", [InMemoryExecution("01", {}, []), InMemoryExecution("1", {}, [row])]
            )
        }
        grid = build_synthetic_grid(wrappers)
        engine = grid.deploy_federation()
        text = "SELECT m"
        view_id = grid.client.create_view(text)
        subscriber = grid.client.subscribe_view(view_id)
        wrappers["A"].executions_data[0].results.append(row)
        assert grid.execution_service("A", "01").data_updated("ingest") == 1
        expected = [row.pack() for row in naive_query(text, engine.members())]
        assert [packed.split("|")[1] for packed in expected] == ["exec=01", "exec=1"]
        assert [row.pack() for row in grid.client.query(text)] == expected
        _, rows = grid.client.get_view(view_id)
        assert [row.pack() for row in rows] == expected
        assert [row.pack() for row in subscriber.rows] == expected
        assert (subscriber.deltas_applied, subscriber.stale_refreshes) == (1, 0)
        subscriber.close()
        grid.cleanup()
