"""Concurrency tests: threaded clients against shared containers."""

import threading

import pytest

from repro.core import ExecutionQuery, ExecutionQueryPanel, PPerfGridClient, PPerfGridSite, SiteConfig
from repro.datastores import generate_hpl
from repro.mapping import HplRdbmsWrapper
from repro.ogsi import (
    GRID_SERVICE_PORTTYPE,
    GridEnvironment,
    GridServiceBase,
    NotificationSinkBase,
)
from repro.ogsi.cursor import ResultCursorService, deploy_cursor
from repro.ogsi.notification import NotificationSourceMixin
from repro.ogsi.porttypes import NOTIFICATION_SOURCE_PORTTYPE
from repro.simnet.clock import VirtualClock
from repro.soap.chunks import decode_chunk
from repro.wsdl import Operation, Parameter, PortType

CHATTY_PORTTYPE = PortType(
    "Chatty",
    "urn:chatty",
    (Operation("touch", (Parameter("msg", "xsd:string"),), "xsd:int"),),
    extends=(GRID_SERVICE_PORTTYPE, NOTIFICATION_SOURCE_PORTTYPE),
)


class ChattySource(GridServiceBase, NotificationSourceMixin):
    """A source whose ``touch`` op notifies subscribers *mid-dispatch* —
    the shape that deadlocked under whole-container locking."""

    porttype = CHATTY_PORTTYPE

    def __init__(self) -> None:
        super().__init__()
        self._init_notification_source()

    def touch(self, msg: str) -> int:
        return self.notify("updates", msg)


class TestCrossContainerNotification:
    """Regression: two containers notifying into each other concurrently.

    Under the old per-container ``RLock``, thread 1 held container A's
    lock (dispatching ``touch``) while delivering into container B, and
    thread 2 held B's lock while delivering into A — a lock-ordering
    deadlock that hung both clients forever.  Notification delivery now
    runs under ``suspend_dispatch()`` (no dispatch state held across the
    outbound SOAP call), so this completes.
    """

    ITERATIONS = 50

    def test_mutual_notification_storm_completes(self):
        env = GridEnvironment()
        container_a = env.create_container("a:1")
        container_b = env.create_container("b:1")

        source_a, source_b = ChattySource(), ChattySource()
        gsh_a = container_a.deploy("services/source", source_a)
        gsh_b = container_b.deploy("services/source", source_b)

        received_a: list[str] = []
        received_b: list[str] = []
        sink_a = NotificationSinkBase(callback=lambda t, m: received_a.append(m))
        sink_b = NotificationSinkBase(callback=lambda t, m: received_b.append(m))
        sink_a_gsh = container_a.deploy("services/sink", sink_a)
        sink_b_gsh = container_b.deploy("services/sink", sink_b)

        # cross-wired: A's source delivers into B's container and vice versa
        source_a.SubscribeToNotificationTopic("updates", sink_b_gsh.url(), 0.0)
        source_b.SubscribeToNotificationTopic("updates", sink_a_gsh.url(), 0.0)

        barrier = threading.Barrier(2)
        delivered: dict[str, int] = {}
        errors: list[BaseException] = []

        def hammer(label: str, gsh) -> None:
            try:
                stub = env.stub_for_handle(gsh, CHATTY_PORTTYPE)
                barrier.wait(timeout=5.0)
                total = 0
                for i in range(self.ITERATIONS):
                    total += stub.touch(f"{label}-{i}")
                delivered[label] = total
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=("a", gsh_a), daemon=True),
            threading.Thread(target=hammer, args=("b", gsh_b), daemon=True),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        # daemon threads + bounded join: a deadlock fails the assert
        # instead of hanging the suite
        assert not any(t.is_alive() for t in threads), "cross-notify deadlocked"
        assert not errors
        assert delivered == {"a": self.ITERATIONS, "b": self.ITERATIONS}
        assert len(received_a) == self.ITERATIONS  # from B's source
        assert len(received_b) == self.ITERATIONS  # from A's source


class TestSweepVsDispatch:
    """Regression: the lifetime sweep racing an in-flight cursor ``next()``.

    The old sweep popped services and called ``Destroy()`` with no
    synchronization against dispatch — a cursor could be destroyed while
    ``next()`` was mid-chunk, corrupting ``_seq``/``_pending`` or
    faulting a renewal that should have succeeded.  Sweeps now take each
    victim's dispatch gate and re-check expiry under it, so an in-flight
    ``next()`` (which renews the TTL) always wins.
    """

    def test_sweep_cannot_destroy_cursor_mid_next(self):
        env = GridEnvironment(clock=VirtualClock())
        container = env.create_container("c:1")
        entered = threading.Event()
        resume = threading.Event()

        def rows():
            for i in range(40):
                if i == 10:
                    entered.set()
                    assert resume.wait(timeout=10.0)
                yield [f"row-{i:03d}"]  # one-row chunks: next() blocks mid-chunk

        gsh = deploy_cursor(container, "services/q", rows(), ttl=30.0)
        stub = env.stub_for_handle(gsh, ResultCursorService.porttype)

        drained: list[str] = []
        failures: list[BaseException] = []

        def drain() -> None:
            try:
                while True:
                    envelope = decode_chunk(list(stub.next(8)))
                    drained.extend(envelope.rows)
                    if envelope.done:
                        return
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                failures.append(exc)

        consumer = threading.Thread(target=drain, daemon=True)
        consumer.start()
        assert entered.wait(timeout=5.0)  # next() is mid-chunk, gate held

        # the cursor is now expired by the wall clock...
        env.clock.advance(60.0)
        sweep_done = threading.Event()
        swept: list[int] = []

        def sweep() -> None:
            swept.append(container.sweep_expired())
            sweep_done.set()

        sweeper = threading.Thread(target=sweep, daemon=True)
        sweeper.start()
        # ...but the sweep must block on the cursor's gate, not destroy it
        assert not sweep_done.wait(timeout=0.2)
        resume.set()  # let next() finish; it renews the TTL under the gate
        assert sweep_done.wait(timeout=10.0), "sweep never finished"
        consumer.join(timeout=10.0)
        assert not failures
        assert swept == [0]  # the renewal won: nothing was reclaimed
        assert drained == [f"row-{i:03d}" for i in range(40)]
        # with no renewal, the same sweep does reclaim it
        env.clock.advance(60.0)
        assert container.sweep_expired() == 1

    def test_sweep_storm_against_live_cursor_traffic(self):
        """Many sweeps racing many ``next()`` calls: every row arrives
        exactly once and nothing faults (drove the old corruption)."""
        env = GridEnvironment(clock=VirtualClock())
        container = env.create_container("c:1")
        total = 400
        gsh = deploy_cursor(
            container, "services/q", ([f"row-{i}"] for i in range(total)), ttl=30.0
        )
        stub = env.stub_for_handle(gsh, ResultCursorService.porttype)
        stop = threading.Event()
        sweep_errors: list[BaseException] = []

        def sweep_loop() -> None:
            try:
                while not stop.is_set():
                    container.sweep_expired()
            except BaseException as exc:  # noqa: BLE001
                sweep_errors.append(exc)

        sweeper = threading.Thread(target=sweep_loop, daemon=True)
        sweeper.start()
        drained: list[str] = []
        try:
            while True:
                envelope = decode_chunk(list(stub.next(16)))
                drained.extend(envelope.rows)
                env.clock.advance(10.0)  # age the cursor between chunks
                if envelope.done:
                    break
        finally:
            stop.set()
            sweeper.join(timeout=5.0)
        assert not sweep_errors
        assert drained == [f"row-{i}" for i in range(total)]


@pytest.fixture()
def env_site():
    env = GridEnvironment()
    site = PPerfGridSite(
        env,
        SiteConfig("s:1", "HPL"),
        HplRdbmsWrapper(generate_hpl(num_executions=12).to_database()),
    )
    return env, site


class TestThreadedClients:
    def test_many_threads_querying_one_site(self, env_site):
        env, site = env_site
        client = PPerfGridClient(env)
        app = client.bind(site.factory_url, "HPL")
        executions = app.all_executions()
        errors: list[BaseException] = []
        results: dict[int, float] = {}

        def worker(thread_id: int) -> None:
            try:
                execution = executions[thread_id % len(executions)]
                for _ in range(10):
                    prs = execution.get_pr("gflops", ["/Run"])
                    results[thread_id] = prs[0].value
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 16

    def test_threaded_binds_get_unique_instances(self, env_site):
        env, site = env_site
        client = PPerfGridClient(env)
        bindings: list = []
        lock = threading.Lock()
        errors: list[BaseException] = []

        def binder() -> None:
            try:
                binding = client.bind(site.factory_url, "HPL")
                with lock:
                    bindings.append(binding)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=binder) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        gshs = [b.gsh for b in bindings]
        assert len(set(gshs)) == 8  # GSH uniqueness held under contention

    def test_parallel_panel_under_contention(self, env_site):
        env, site = env_site
        client = PPerfGridClient(env)
        app = client.bind(site.factory_url, "HPL")
        panel = ExecutionQueryPanel(executions=app.all_executions())
        panel.add_query(ExecutionQuery("gflops", ["/Run"]))
        panel.add_query(ExecutionQuery("runtimesec", ["/Run"]))
        parallel = panel.run_queries_parallel(max_workers=12)
        serial = panel.run_queries()
        assert parallel == serial

    def test_concurrent_manager_requests_share_instance_cache(self, env_site):
        env, site = env_site
        client = PPerfGridClient(env)
        app = client.bind(site.factory_url, "HPL")
        all_results: list[list[str]] = []
        lock = threading.Lock()

        def fetch() -> None:
            gshs = [e.gsh for e in app.all_executions()]
            with lock:
                all_results.append(gshs)

        threads = [threading.Thread(target=fetch) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Dispatch serialization makes the Manager's cache coherent: every
        # thread saw the same instance handles, and only 12 were created.
        assert all(r == all_results[0] for r in all_results)
        assert site.manager.creations == 12
