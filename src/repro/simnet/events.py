"""A small discrete-event simulation engine.

The Figure 12 reproduction replays measured query costs onto host
timelines, which is analytically simple but bakes in assumptions (all
queries ready at t=0, response transfer charged to the serving host).
This engine provides an *independent* model — events, FIFO resources,
explicit request/response flows — used by
:func:`simulate_scalability_des` to cross-validate the replay: the two
models must agree on the two-host speedup, and tests assert they do.

The engine is general: ``EventScheduler`` drives time, ``FifoResource``
models anything that serves one task at a time (a CPU, a shared network
link), and callbacks chain follow-up events.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable


class EventScheduler:
    """A time-ordered event queue with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = 0
        self.now = 0.0
        self.events_run = 0

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        self._sequence += 1
        heapq.heappush(self._queue, (time, self._sequence, action))

    def schedule_after(self, delay: float, action: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.schedule_at(self.now + delay, action)

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """Run events (optionally up to time *until*); returns final time."""
        while self._queue:
            if self.events_run >= max_events:
                raise RuntimeError(f"event budget exhausted ({max_events})")
            time, _, action = self._queue[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._queue)
            self.now = time
            self.events_run += 1
            action()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    @property
    def pending(self) -> int:
        return len(self._queue)


@dataclass
class FifoResource:
    """Serves one task at a time; queued tasks start in arrival order.

    ``submit(duration, done)`` enqueues a task; *done(start, end)* fires
    when the task completes.
    """

    scheduler: EventScheduler
    name: str = "resource"
    busy_until: float = 0.0
    total_busy: float = 0.0
    completed: int = 0
    _waiting: int = field(default=0, repr=False)

    def submit(self, duration: float, done: Callable[[float, float], None] | None = None) -> None:
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        start = max(self.scheduler.now, self.busy_until)
        end = start + duration
        self.busy_until = end
        self.total_busy += duration

        def complete() -> None:
            self.completed += 1
            if done is not None:
                done(start, end)

        self.scheduler.schedule_at(end, complete)

    def utilization(self, horizon: float) -> float:
        if horizon <= 0:
            return 0.0
        return min(1.0, self.total_busy / horizon)


def simulate_scalability_des(
    query_costs: list[list[float]],
    replicas: int,
    response_bytes: int = 0,
    bandwidth_bytes_per_s: float = 100e6 / 8,
    latency_s: float = 0.0005,
    shared_network: bool = False,
) -> float:
    """DES model of one Figure 12 fan-out; returns the makespan.

    ``query_costs[i]`` is the list of per-query service costs for
    execution *i*; executions are interleaved across *replicas* hosts
    (the Manager's rule).  Each query occupies its host for its cost,
    then its response occupies the network (one shared link when
    ``shared_network``, otherwise a per-host link).  All queries of an
    execution are issued by a dedicated client thread, so they serialize
    *per execution* as well as per host — matching the thesis's client.
    """
    scheduler = EventScheduler()
    hosts = [FifoResource(scheduler, f"host-{i}") for i in range(replicas)]
    if shared_network:
        links = [FifoResource(scheduler, "shared-link")] * replicas
    else:
        links = [FifoResource(scheduler, f"link-{i}") for i in range(replicas)]
    transfer = latency_s + response_bytes / bandwidth_bytes_per_s
    done_at = [0.0]

    def issue(exec_index: int, query_index: int) -> None:
        if query_index >= len(query_costs[exec_index]):
            return
        host_index = exec_index % replicas
        cost = query_costs[exec_index][query_index]

        def served(start: float, end: float) -> None:
            def delivered(t_start: float, t_end: float) -> None:
                done_at[0] = max(done_at[0], t_end)
                issue(exec_index, query_index + 1)

            links[host_index].submit(transfer, delivered)

        hosts[host_index].submit(cost, served)

    for exec_index in range(len(query_costs)):
        issue(exec_index, 0)
    scheduler.run()
    return done_at[0]
