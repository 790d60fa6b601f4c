"""GridEnvironment teardown ordering.

The contract under test: ``ServiceContainer.wait_idle`` observes the
drain of its in-flight requests, and ``GridEnvironment.close()`` is that
wait for every container — it returns only after in-flight dispatches
have answered, is idempotent, and starts or stops no background work:
lifetime sweeps run only when ``sweep_expired()`` is called.
"""

from __future__ import annotations

import threading
import time

from repro.ogsi import GridEnvironment
from repro.simnet.clock import VirtualClock

from tests.test_dispatch import deploy_echo


def blocked_dispatch():
    """A container with one request held in flight; resume
    ``service.resume`` and join the thread to answer it."""
    env = GridEnvironment()
    container = env.create_container("c:1")
    service, gsh = deploy_echo(container)
    stub = env.stub_for_handle(gsh, service.porttype)
    thread = threading.Thread(target=stub.block, daemon=True)
    thread.start()
    assert service.entered.wait(timeout=5.0)
    return container, service, thread


class TestWaitIdle:
    def test_idle_controller_returns_immediately(self):
        container = GridEnvironment().create_container("c:1")
        start = time.monotonic()
        assert container.wait_idle(timeout=5.0)
        assert time.monotonic() - start < 1.0

    def test_waits_for_inflight_release(self):
        container, service, holder = blocked_dispatch()
        done = threading.Event()

        def waiter():
            assert container.wait_idle(timeout=5.0)
            done.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        assert not done.wait(timeout=0.1)  # still in flight
        service.resume.set()
        assert done.wait(timeout=5.0)
        thread.join(timeout=2.0)
        holder.join(timeout=2.0)

    def test_times_out_when_never_idle(self):
        container, service, holder = blocked_dispatch()
        assert not container.wait_idle(timeout=0.1)
        service.resume.set()
        holder.join(timeout=5.0)
        assert container.wait_idle(timeout=5.0)


class TestEnvironmentClose:
    def test_close_drains_inflight_dispatch_before_reactor_stop(self):
        env = GridEnvironment()
        container = env.create_container("c:1")
        service, gsh = deploy_echo(container)
        stub = env.stub_for_handle(gsh, service.porttype)
        replies: list[str] = []

        thread = threading.Thread(
            target=lambda: replies.append(stub.block()), daemon=True
        )
        thread.start()
        assert service.entered.wait(timeout=5.0)
        # the dispatch is in flight; let it finish shortly after close
        # starts draining
        threading.Timer(0.1, service.resume.set).start()
        env.close(drain_timeout=5.0)
        thread.join(timeout=5.0)
        assert replies == ["unblocked"]
        assert container.stats()["inflight"] == 0

    def test_close_is_idempotent_and_stops_sweeper(self):
        """Closing twice is a no-op, and no sweep runs behind the caller:
        an expired instance outlives both closes until ``sweep_expired``."""
        env = GridEnvironment(clock=VirtualClock())
        container = env.create_container("c:1")
        service, _ = deploy_echo(container)
        service.termination_time = 5.0
        env.clock.advance(10.0)
        env.close()
        env.close()
        assert container.service_count() == 1
        assert env.sweep_expired() == 1
        assert container.service_count() == 0
