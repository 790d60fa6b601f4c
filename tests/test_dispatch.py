"""Dispatch core tests: gates, nested dispatch, request identity, counters."""

import threading
import time

import pytest

from repro.fedquery.scheduler import FairQueue, FanoutScheduler
from repro.ogsi import (
    GRID_SERVICE_PORTTYPE,
    GridEnvironment,
    GridServiceBase,
    client_id_headers,
)
from repro.ogsi.dispatch import ServiceGate, current_client_id, suspend_dispatch
from repro.soap.faults import SoapFault
from repro.wsdl.porttype import Operation, Parameter, PortType

ECHO_PORTTYPE = PortType(
    "Echo",
    "urn:echo",
    (
        Operation("ping", (Parameter("payload", "xsd:string"),), "xsd:string"),
        Operation("block", (), "xsd:string"),
    ),
    extends=(GRID_SERVICE_PORTTYPE,),
)


class EchoService(GridServiceBase):
    porttype = ECHO_PORTTYPE

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.resume = threading.Event()
        self.calls = 0

    def ping(self, payload: str) -> str:
        self.calls += 1
        return payload

    def block(self) -> str:
        """Hold the dispatch slot until the test releases it."""
        self.entered.set()
        assert self.resume.wait(timeout=10.0), "test never resumed block()"
        self.entered.clear()
        return "unblocked"


def deploy_echo(container, path="services/echo"):
    service = EchoService()
    gsh = container.deploy(path, service)
    return service, gsh


class TestServiceGate:
    def test_reentrant_same_thread(self):
        gate = ServiceGate()
        gate.acquire()
        gate.acquire()
        assert gate.held_by_me()
        gate.release()
        assert gate.held_by_me()
        gate.release()
        assert not gate.held_by_me()

    def test_release_unowned_rejected(self):
        gate = ServiceGate()
        with pytest.raises(RuntimeError):
            gate.release()

    def test_release_save_restores_depth(self):
        gate = ServiceGate()
        gate.acquire()
        gate.acquire()
        depth = gate.release_save()
        assert depth == 2 and not gate.held_by_me()
        gate.acquire_restore(depth)
        assert gate.held_by_me()
        gate.release()
        gate.release()
        assert not gate.held_by_me()

    def test_cross_thread_exclusion(self):
        gate = ServiceGate()
        gate.acquire()
        acquired = threading.Event()

        def contender():
            gate.acquire()
            acquired.set()
            gate.release()

        thread = threading.Thread(target=contender, daemon=True)
        thread.start()
        assert not acquired.wait(timeout=0.1)
        gate.release()
        assert acquired.wait(timeout=2.0)
        thread.join(timeout=2.0)

    @pytest.mark.parametrize("reacquire", ["acquire", "acquire_restore"])
    def test_release_hands_over_to_the_longest_waiter(self, reacquire):
        # a notify-and-race gate lets the releasing thread, still running,
        # win every rematch: one back-to-back client then starves the rest
        gate = ServiceGate()
        gate.acquire()
        order = []

        def contender():
            gate.acquire()
            order.append("waiter")
            gate.release()

        thread = threading.Thread(target=contender, daemon=True)
        thread.start()
        deadline = time.monotonic() + 2.0
        while not gate._waiters and time.monotonic() < deadline:
            time.sleep(0.001)
        assert gate._waiters
        if reacquire == "acquire":
            gate.release()
            gate.acquire()
        else:
            gate.acquire_restore(gate.release_save())
        order.append("releaser")
        gate.release()
        thread.join(timeout=2.0)
        assert order == ["waiter", "releaser"]


class TestFairQueue:
    def test_round_robin_across_keys_fifo_within_a_key(self):
        queue = FairQueue()
        for key, item in [("a", "a1"), ("a", "a2"), ("a", "a3"), ("b", "b1"), ("c", "c1")]:
            queue.push(key, item)
        assert len(queue) == 5
        assert queue.depth("a") == 3 and queue.depth("nobody") == 0
        assert [queue.pop() for _ in range(5)] == ["a1", "b1", "c1", "a2", "a3"]
        assert len(queue) == 0
        assert queue.pop() is None

    def test_drained_key_leaves_the_rotation(self):
        queue = FairQueue()
        queue.push("a", "a1")
        queue.push("b", "b1")
        assert queue.pop() == "a1"
        assert queue.depth("a") == 0
        # "a" re-enters at the back: it does not keep its old turn
        queue.push("a", "a2")
        assert [queue.pop(), queue.pop(), queue.pop()] == ["b1", "a2", None]

    def test_drain_returns_everything(self):
        queue = FairQueue()
        for key, item in [("a", 1), ("b", 2), ("a", 3)]:
            queue.push(key, item)
        assert sorted(queue.drain()) == [1, 2, 3]
        assert len(queue) == 0 and queue.pop() is None
        queue.push("a", 4)  # still usable
        assert queue.pop() == 4


def test_flooding_key_cannot_starve_a_minority():
    """Behind one busy worker, strict FIFO would leave meek last."""
    sched = FanoutScheduler(max_workers=1)
    try:
        started, release = threading.Event(), threading.Event()

        def block():
            started.set()
            release.wait(timeout=10.0)

        sched.submit(block)
        assert started.wait(timeout=5.0)
        order: list[str] = []
        futures = [
            sched.submit(lambda c=client: order.append(c), tenant=client)
            for client in ["hog", "hog", "hog", "hog", "meek"]
        ]
        release.set()
        for future in futures:
            future.result(timeout=5.0)
        assert order == ["hog", "meek", "hog", "hog", "hog"]
    finally:
        sched.shutdown()


class TestPerServiceDispatch:
    def test_two_services_dispatch_concurrently(self):
        """The old container lock made this sequence deadlock-by-wait:
        one blocked service froze the whole authority."""
        env = GridEnvironment()
        container = env.create_container("c:1")
        blocker, blocker_gsh = deploy_echo(container, "services/blocker")
        echo, echo_gsh = deploy_echo(container, "services/echo")
        block_stub = env.stub_for_handle(blocker_gsh, ECHO_PORTTYPE)
        echo_stub = env.stub_for_handle(echo_gsh, ECHO_PORTTYPE)

        results: list[str] = []
        t1 = threading.Thread(
            target=lambda: results.append(block_stub.block()), daemon=True
        )
        t1.start()
        assert blocker.entered.wait(timeout=5.0)
        # while services/blocker is mid-dispatch, services/echo still answers
        assert echo_stub.ping("hi") == "hi"
        blocker.resume.set()
        t1.join(timeout=5.0)
        assert results == ["unblocked"]

    def test_same_service_still_serialized(self):
        env = GridEnvironment()
        container = env.create_container("c:1")
        blocker, gsh = deploy_echo(container)
        stub = env.stub_for_handle(gsh, ECHO_PORTTYPE)
        done: list[str] = []
        t1 = threading.Thread(target=lambda: done.append(stub.block()), daemon=True)
        t1.start()
        assert blocker.entered.wait(timeout=5.0)
        t2 = threading.Thread(target=lambda: done.append(stub.ping("x")), daemon=True)
        t2.start()
        time.sleep(0.05)
        assert done == []  # the ping is queued behind the blocked dispatch
        blocker.resume.set()
        t1.join(timeout=5.0)
        t2.join(timeout=5.0)
        assert sorted(done) == ["unblocked", "x"]

    def test_nested_dispatch_completes(self):
        """A service calling a sibling mid-request is answered, and the
        container drains once both dispatches are done."""
        env = GridEnvironment()
        container = env.create_container("c:1")
        inner, inner_gsh = deploy_echo(container, "services/inner")

        class OuterService(GridServiceBase):
            porttype = ECHO_PORTTYPE

            def ping(self, payload: str) -> str:
                stub = env.stub_for_handle(inner_gsh, ECHO_PORTTYPE)
                return "outer:" + stub.ping(payload)

        outer_gsh = container.deploy("services/outer", OuterService())
        stub = env.stub_for_handle(outer_gsh, ECHO_PORTTYPE)
        assert stub.ping("x") == "outer:x"
        assert inner.calls == 1
        assert container.stats()["inflight"] == 0


class TestRequestIdentity:
    def test_nested_dispatch_sees_its_own_client_id(self):
        """The header is read per dispatch frame: a sibling called with no
        header sees none, and the caller's comes back after the call."""
        env = GridEnvironment()
        container = env.create_container("c:1")
        seen: list = []

        class Inner(GridServiceBase):
            porttype = ECHO_PORTTYPE

            def ping(self, payload: str) -> str:
                seen.append(("inner", current_client_id()))
                return payload

        inner_gsh = container.deploy("services/inner", Inner())

        class Outer(GridServiceBase):
            porttype = ECHO_PORTTYPE

            def ping(self, payload: str) -> str:
                seen.append(("outer", current_client_id()))
                env.stub_for_handle(inner_gsh, ECHO_PORTTYPE).ping(payload)
                seen.append(("outer", current_client_id()))
                return payload

        outer_gsh = container.deploy("services/outer", Outer())
        stub = env.stub_for_handle(
            outer_gsh, ECHO_PORTTYPE, headers_provider=client_id_headers("alice")
        )
        assert stub.ping("x") == "x"
        assert seen == [("outer", "alice"), ("inner", None), ("outer", "alice")]
        assert current_client_id() is None


class TestIngressCounters:
    """Satellite: malformed/unroutable traffic is *rejected*, not handled."""

    @pytest.fixture()
    def wired(self):
        env = GridEnvironment()
        container = env.create_container("c:1")
        service, gsh = deploy_echo(container)
        return env, container, service, gsh

    def test_malformed_envelope_counts_rejected(self, wired):
        env, container, _, _ = wired
        response = env.transport.send("http://c:1/services/echo", b"not xml at all")
        assert b"Fault" in response
        assert container.requests_rejected == 1
        assert container.requests_handled == 0

    def test_unroutable_path_counts_rejected(self, wired):
        env, container, _, gsh = wired
        stub = env.stub_for_endpoint("http://c:1/services/nowhere", ECHO_PORTTYPE)
        with pytest.raises(SoapFault, match="no service"):
            stub.ping("x")
        assert container.requests_rejected == 1
        assert container.requests_handled == 0

    def test_unknown_operation_counts_rejected(self, wired):
        env, container, _, gsh = wired
        bare = env.stub_for_handle(gsh, GRID_SERVICE_PORTTYPE)
        # craft a call the Echo PortType does not declare
        from repro.soap.rpc import encode_request

        request = encode_request("urn:echo", "noSuchOp", [], None)
        response = env.transport.send(gsh.endpoint_url(), request)
        assert b"Fault" in response
        assert container.requests_rejected == 1
        assert container.requests_handled == 0
        assert bare is not None

    def test_service_fault_still_counts_handled(self, wired):
        env, container, service, gsh = wired

        def explode(payload):
            raise RuntimeError("inner failure")

        service.ping = explode
        stub = env.stub_for_handle(gsh, ECHO_PORTTYPE)
        with pytest.raises(SoapFault, match="inner failure"):
            stub.ping("x")
        assert container.requests_handled == 1
        assert container.requests_rejected == 0

    def test_stats_snapshot_keys(self, wired):
        _, container, _, _ = wired
        stats = container.stats()
        assert set(stats) == {
            "requestsHandled",
            "requestsRejected",
            "requestsShed",
            "inflight",
            "peakQueueDepth",
            "services",
        }
        # the ingress never queues or sheds
        assert stats["requestsShed"] == stats["peakQueueDepth"] == 0


class TestContainerMonitor:
    def test_monitor_publishes_counter_sdes(self):
        env = GridEnvironment()
        container = env.create_container("c:1")
        _, gsh = deploy_echo(container)
        monitor_gsh = container.deploy_monitor()
        stub = env.stub_for_handle(gsh, ECHO_PORTTYPE)
        stub.ping("x")
        mon = env.stub_for_handle(monitor_gsh, GRID_SERVICE_PORTTYPE)
        xml = mon.FindServiceData("requestsHandled")
        # the echo ping plus this FindServiceData dispatch itself
        assert "<value>2</value>" in xml

    def test_get_container_stats_over_soap(self):
        env = GridEnvironment()
        container = env.create_container("c:1")
        monitor_gsh = container.deploy_monitor()
        from repro.ogsi.monitor import CONTAINER_MONITOR_PORTTYPE

        stub = env.stub_for_handle(monitor_gsh, CONTAINER_MONITOR_PORTTYPE)
        records = stub.getContainerStats()
        assert any(r.startswith("requestsHandled=") for r in records)


class TestSuspendDispatch:
    def test_suspend_outside_dispatch_is_noop(self):
        with suspend_dispatch():
            pass  # nothing held, nothing to release

    def test_gate_released_during_suspend(self):
        env = GridEnvironment()
        container = env.create_container("c:1")
        observed: list[bool] = []

        class Suspender(GridServiceBase):
            porttype = ECHO_PORTTYPE

            def ping(self, payload: str) -> str:
                gate = container._core.gate_for("services/susp")
                with suspend_dispatch():
                    observed.append(gate.held_by_me())
                observed.append(gate.held_by_me())
                return payload

        gsh = container.deploy("services/susp", Suspender())
        stub = env.stub_for_handle(gsh, ECHO_PORTTYPE)
        assert stub.ping("x") == "x"
        assert observed == [False, True]

