"""What the engine remembers of its members, counted in SOAP messages.

Every assertion here is a count of operations on the wire (through a
:class:`RecordingTransport`), never a timing: a listening engine asks a
member for its execution list, vocabulary and foci once, and again only
after that member said its data changed.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.client import ExecutionBinding, PPerfGridClient
from repro.core.semantic import PerformanceResult
from repro.experiments.common import build_synthetic_grid
from repro.fedquery.merge import read_rows
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper
from repro.ogsi.container import GridEnvironment
from repro.ogsi.cursor import DEFAULT_CHUNK_ROWS
from repro.simnet.transport import RecordingTransport
from repro.soap.rpc import decode_request, decode_response

MEMBERS, EXECUTIONS, ROWS = 2, 2, 10
#: a warm raw query: the client's call plus one data call per execution
WARM = {"query": 1, "getPR": MEMBERS * EXECUTIONS}
#: what discovery adds, per query, when nothing is remembered
DISCOVERY = {"getFoci": 4, "getAllExecs": 2, "getExecs": 2, "getExecQueryParams": 2}
#: the federation's authority (deploy_federation's default)
FED = "fed.pdx.edu:9090"
#: the operations whose answers are read payloads
READS = ("getPR", "getPRAgg", "next")


class Wire(RecordingTransport):
    """The recording transport, installed before any container binds."""

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def take(self, authority: str = "") -> dict[str, int]:
        """Operations sent (to *authority*) since the last call, by name."""
        ops = Counter(
            decode_request(request).operation
            for url, request, _ in self.log
            if authority in url
        )
        if not authority:
            del self.log[:]
        return dict(ops)

    def received(self, federation: bool = False) -> int:
        """Summed length of the payload records that the logged answers to
        reads carried — ``getPR``, ``getPRAgg`` and a cursor's ``next``, of
        the members or of the *federation*: each SOAP array's items, less
        a chunk's header record."""
        total = 0
        for url, request, response in self.log:
            if (FED in url) == federation and decode_request(request).operation in READS:
                items = decode_response(response).value
                total += sum(map(len, items))
                if items and items[0].startswith("#chunk|"):
                    total -= len(items[0])
        return total


def result(index: int, value: float, metric: str = "m", focus: str | None = None):
    return PerformanceResult(
        metric, focus or f"/f/{index % 2}", "synthetic",
        float(index), float(index + 1), value,
    )


def execution(exec_id: str) -> InMemoryExecution:
    base = 100.0 * int(exec_id)
    return InMemoryExecution(
        exec_id, {"numprocs": exec_id}, [result(i, base + i) for i in range(ROWS)]
    )


def raw(k: int) -> str:
    """A raw query whose literal busts the plan cache and selects every row."""
    return f"SELECT m WHERE value >= -{k}.5"


@pytest.fixture
def federation(request):
    coherence = getattr(request, "param", True)
    wrappers = {
        name: InMemoryWrapper(name, [execution(str(e)) for e in range(EXECUTIONS)])
        for name in ("A", "B")
    }
    environment = GridEnvironment()
    wire = environment.transport = Wire(environment.transport)
    grid = build_synthetic_grid(wrappers, environment)
    grid.deploy_federation(coherence=coherence)
    wire.take()
    yield grid, wrappers, wire
    grid.fed_engine.close()
    environment.close()


def authority(grid, member: str) -> str:
    return grid.sites[member].config.authority


class TestWarmQueriesSendOnlyDataCalls:
    def test_second_raw_query_is_one_call_per_execution(self, federation):
        grid, _, wire = federation
        assert len(grid.client.query(raw(1))) == MEMBERS * EXECUTIONS * ROWS
        assert wire.take() == {**WARM, **DISCOVERY, "getStats": 2}
        assert len(grid.client.query(raw(2))) == MEMBERS * EXECUTIONS * ROWS
        assert wire.take() == WARM  # 1 + M*E messages, nothing else

    def test_streamed_query_is_cursor_traffic_only(self, federation):
        """The client sends queryChunked, one next per chunk and close;
        each member execution is sent getPRChunked, one next per chunk
        and close.  The encoding rides the creating request's header:
        no negotiate anywhere."""
        grid, _, wire = federation
        grid.client.query(raw(1))
        grid.fed_engine.stream_chunk_rows = ROWS - 1  # every member drains a cursor
        wire.take()
        total = MEMBERS * EXECUTIONS * ROWS
        assert len(list(grid.client.query_stream(raw(2)))) == total
        chunks = -(-total // DEFAULT_CHUNK_ROWS)
        assert wire.take(FED) == {"queryChunked": 1, "next": chunks, "close": 1}
        member_chunks = -(-ROWS // grid.fed_engine.stream_chunk_rows)
        for member in ("A", "B"):
            assert wire.take(authority(grid, member)) == {
                "getPRChunked": EXECUTIONS,
                "next": EXECUTIONS * member_chunks,
                "close": EXECUTIONS,
            }
        sent = wire.take()
        assert set(sent) == {"queryChunked", "getPRChunked", "next", "close"}
        assert sent["next"] == chunks + MEMBERS * EXECUTIONS * member_chunks

    def test_view_refresh_refetches_data_only(self, federation):
        grid, _, wire = federation
        grid.client.query(raw(1))
        wire.take()
        grid.client.create_view("SELECT count(m), sum(m) GROUP BY focus")
        assert wire.take() == {"createView": 1, "getPRAgg": 4}
        grid.fed_engine.views().on_update(None, None)
        assert wire.take() == {"getPRAgg": 4}

    @pytest.mark.parametrize("federation", [False], indirect=True)
    def test_an_engine_nobody_notifies_remembers_nothing(self, federation):
        """``coherence=False``: foci and execution lists are read per
        query, as before the memo — and so is the vocabulary now (it
        used to be kept until ``refresh_members()``, the stale-metric
        bug in its non-listening form)."""
        grid, _, wire = federation
        grid.client.query(raw(1))
        wire.take()
        grid.client.query(raw(2))
        assert wire.take() == {**WARM, **DISCOVERY}
        stats = grid.fed_engine.coherence_stats()
        assert stats["factsRemembered"] == 0 and stats["factHits"] == 0


class TestUpdatesForgetExactlyTheirScope:
    def test_update_refetches_one_execution_and_its_member(self, federation):
        grid, _, wire = federation
        grid.client.query(raw(1))
        # the first update also fetches the per-execution stats baseline
        grid.execution_service("A", "1").data_updated("warm-up")
        grid.client.query(raw(2))
        wire.take()
        assert grid.execution_service("A", "0").data_updated("appended") == 1
        assert wire.take() == {"DeliverNotification": 1}
        grid.client.query(raw(3))
        to_a = wire.take(authority(grid, "A"))
        assert wire.take(authority(grid, "B")) == {"getPR": 2}
        # A/0's foci and statistics, A's list (Application -> Manager,
        # read once: the statistics delta and the fan-out share it) and
        # vocabulary
        assert to_a == {
            "getPR": 2, "getFoci": 1, "getStats": 1,
            "getAllExecs": 1, "getExecs": 1, "getExecQueryParams": 1,
        }
        wire.take()
        grid.client.query(raw(4))
        assert wire.take() == WARM

    def test_focus_first_seen_in_the_appended_row_is_answered(self, federation):
        grid, wrappers, _ = federation
        grid.client.query(raw(1))
        wrappers["A"].executions_data[0].results.append(result(99, 7.0, focus="/new"))
        grid.execution_service("A", "0").data_updated("new focus")
        rows = grid.client.query(raw(2))
        assert [row["value"] for row in rows if row["focus"] == "/new"] == [7.0]

    def test_new_execution_is_announced_by_a_sibling_or_a_refresh(self, federation):
        grid, wrappers, _ = federation
        engine = grid.fed_engine
        count = "SELECT count(m) FROM A WHERE value >= -{}.5 GROUP BY exec"

        def executions_answering(k: int) -> list[str]:
            rows = engine.execute(count.format(k)).rows
            return sorted(row["exec"] for row in rows)

        assert executions_answering(1) == ["0", "1"]
        wrappers["A"].executions_data.append(execution("2"))
        grid.execution_service("A", "1").data_updated("a sibling speaks up")
        assert executions_answering(2) == ["0", "1", "2"]
        # ...to the statistics too: a tier-0 answer counts its rows
        total = engine.execute("SELECT count(m) FROM A")
        assert total.stats["calls"] == 0 and total.rows[0]["count(m)"] == 3 * ROWS
        wrappers["A"].executions_data.append(execution("3"))
        engine.refresh_members()
        assert executions_answering(3) == ["0", "1", "2", "3"]

    def test_update_between_a_read_and_its_admission_leaves_nothing(
        self, federation, monkeypatch
    ):
        """The admit rule: A/0's store changes while its ``getFoci`` is
        on the way back, so neither that answer nor A's list (read
        before it, superseded with it) may be remembered."""
        grid, _, wire = federation
        service = grid.execution_service("A", "0")
        grid.client.query(raw(0))
        service.data_updated("forgets A/0's foci")
        read_foci = ExecutionBinding.foci
        fired = []

        def racy_foci(binding):
            foci = read_foci(binding)
            if binding.gsh == service.gsh.url() and not fired:
                fired.append(service.data_updated("raced the read"))
            return foci

        monkeypatch.setattr(ExecutionBinding, "foci", racy_foci)
        assert len(grid.client.query(raw(1))) == MEMBERS * EXECUTIONS * ROWS
        assert fired == [1]
        monkeypatch.undo()
        wire.take()
        grid.client.query(raw(2))
        to_a = wire.take(authority(grid, "A"))
        assert to_a["getFoci"] == 1 and to_a["getAllExecs"] == 1
        assert wire.take(authority(grid, "B")) == {"getPR": 2}


class TestRememberedHandlesAreSoftState:
    def test_destroyed_instance_is_re_resolved_within_the_query(self, federation):
        """Execution instances are Manager-memoized and shared: another
        client destroying one must cost the engine a re-resolution, not
        rows."""
        grid, _, wire = federation
        engine = grid.fed_engine
        assert len(engine.execute(raw(1)).rows) == MEMBERS * EXECUTIONS * ROWS
        other = PPerfGridClient(grid.environment, grid.uddi_gsh)
        other.bind(grid.sites["A"].factory_url, "A").all_executions()[0].destroy()
        wire.take()

        healed = engine.execute(raw(2))
        assert len(healed.rows) == MEMBERS * EXECUTIONS * ROWS
        assert healed.errors == []
        assert engine.coherence_stats()["staleHandles"] == 1
        assert wire.take()["CreateService"] == 1  # the Manager re-created it

        # A's facts were forgotten with the fault: asked once more, then warm
        assert len(grid.client.query(raw(3))) == MEMBERS * EXECUTIONS * ROWS
        assert wire.take(authority(grid, "B")) == {"getPR": 2}
        wire.take()
        assert len(grid.client.query(raw(4))) == MEMBERS * EXECUTIONS * ROWS
        assert wire.take() == WARM
        assert engine.coherence_stats()["staleHandles"] == 1

    def test_stream_and_view_maintenance_re_resolve_too(self, federation):
        grid, _, _ = federation
        engine = grid.fed_engine
        engine.stream_chunk_rows = ROWS - 1
        view = engine.views().create_view("SELECT count(m) GROUP BY app")

        def destroy_one_of_a():
            engine.execute(raw(destroy_one_of_a.k))  # A's handles remembered
            destroy_one_of_a.k += 1
            engine.members()["A"].all_executions()[0].destroy()

        destroy_one_of_a.k = 0
        destroy_one_of_a()
        streamed = engine.execute(raw(10), stream=True)
        assert len(list(streamed)) == MEMBERS * EXECUTIONS * ROWS
        assert streamed.errors == []
        assert engine.coherence_stats()["staleHandles"] == 1
        destroy_one_of_a()
        engine.views().on_update(None, None)
        assert engine.coherence_stats()["staleHandles"] == 2
        assert [row["count(m)"] for row in read_rows(view.rows)] == [20.0, 20.0]
        assert engine.view_stats()["maintenanceErrors"] == 0

    def test_other_failures_degrade_and_forget_the_member(self, federation, monkeypatch):
        grid, wrappers, wire = federation
        engine = grid.fed_engine
        engine.execute(raw(1))
        service = grid.execution_service("A", "0")
        monkeypatch.setattr(service, "getPR", lambda *args: 1 / 0)
        degraded = engine.execute(raw(2))
        assert len(degraded.errors) == 1 and "ZeroDivisionError" in degraded.errors[0]
        assert len(degraded.rows) == (MEMBERS * EXECUTIONS - 1) * ROWS
        monkeypatch.undo()
        wire.take()
        assert len(engine.execute(raw(3)).rows) == MEMBERS * EXECUTIONS * ROWS
        # nothing of A survived the error; B was not disturbed
        assert wire.take(authority(grid, "A"))["getAllExecs"] == 1
        assert wire.take(authority(grid, "B")) == {"getPR": 2}


class TestVocabularyFollowsUpdates:
    def test_new_metric_on_a_stats_less_member_is_queried(self, federation, monkeypatch):
        """A member whose ``getStats`` fails is filtered against its
        metric list; that list is a fact of the member, so the update
        that adds a metric must drop it."""
        grid, wrappers, _ = federation
        engine = grid.fed_engine

        def broken():
            raise OSError("stats store down")

        monkeypatch.setattr(wrappers["A"], "get_stats", broken)
        query = "SELECT count(x) WHERE value >= -{}.5 GROUP BY app"
        before = engine.execute(query.format(1))
        assert before.plan.stats_degraded is True
        assert before.rows == [] and before.stats["skipped_metrics"] >= 1
        wrappers["A"].executions_data[0].results.append(result(50, 1.0, metric="x"))
        grid.execution_service("A", "0").data_updated("metric x appears")
        after = engine.execute(query.format(2))
        assert [(r["app"], r["count(x)"]) for r in after.rows] == [("A", 1.0)]


class TestObservability:
    def test_counters_and_round_trip_accounting(self, federation):
        grid, _, _ = federation
        engine = grid.fed_engine
        first = engine.execute(raw(1))
        stats = engine.coherence_stats()
        # per member its list and vocabulary, per execution its foci
        assert stats["factsRemembered"] == stats["factReads"] == 2 * MEMBERS + 4
        assert stats["factHits"] == 0
        second = engine.execute(raw(2))
        # a selection counts as a call only when it crossed the wire
        assert first.stats["calls"] == MEMBERS + MEMBERS * EXECUTIONS
        assert first.stats["calls"] == first.stats["estimatedRoundTrips"]
        assert second.stats["calls"] == MEMBERS * EXECUTIONS
        assert engine.coherence_stats()["factHits"] == 2 * MEMBERS + 4
        assert "factsRemembered" in grid.client.coherence_stats()
