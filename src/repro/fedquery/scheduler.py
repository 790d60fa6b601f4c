"""Engine-lifetime fan-out scheduling: pooled workers, tenant fairness.

A thread pool built per query pays thread create/join on every request —
at MDS2-style concurrency that churn dominates long before the stores
saturate (the same collapse the grid information-service studies
measured).  :class:`FanoutScheduler` is one engine-lifetime pool:

* **Pooled workers** — a bounded set of daemon threads, spawned lazily
  up to ``max_workers`` and reaped after ``WORKER_IDLE_S`` of idleness,
  pull member sub-query tasks from the scheduler's queues.  ``submit``
  returns a plain :class:`concurrent.futures.Future`, so the engine
  merges with an ordinary ``FIRST_COMPLETED`` wait loop.  Building a
  scheduler starts no thread: the first ``submit`` spawns the first
  worker.
* **Per-tenant fair queueing** — each tenant (the request's
  ``clientId`` header) gets its own FIFO in a :class:`FairQueue` and
  runnable tasks are admitted round-robin across tenants, so a flooding
  tenant lengthens only its own queue.  This is the grid's one
  admission point: container ingress neither queues nor sheds.

Streamed queries take no thread from here: their member reads run on
the thread that drains the result (``FederationEngine.execute``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable

#: pool width when no Manager topology is known
DEFAULT_POOL_WORKERS = 8

#: tenant key for work submitted with no client identity
DEFAULT_TENANT = "default"

#: idle pool workers exit after this long with nothing queued
WORKER_IDLE_S = 10.0

#: minimum spacing between worker spawns once one worker exists —
#: damped growth: a submit burst must sustain a backlog to grow the
#: pool, so a transient wave is absorbed by the warm workers instead of
#: paying burst-sized thread churn (the very cost the pool exists to
#: avoid) and over-subscribing the interpreter
SPAWN_INTERVAL_S = 0.01


class FairQueue:
    """Per-key FIFOs served round-robin across keys.

    The scheduler keys it by tenant.  A key that floods lengthens only
    its own FIFO — every :meth:`pop` serves the next key in rotation —
    and a single key degenerates to a plain global FIFO.

    Lock-free by contract: every method must be called under the
    owner's own lock or condition.  A key is in the rotation exactly
    while its FIFO is non-empty.
    """

    __slots__ = ("_queues", "_rotation", "_size")

    def __init__(self) -> None:
        self._queues: dict[str, deque] = {}
        self._rotation: deque[str] = deque()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def depth(self, key: str) -> int:
        """Items queued under *key*."""
        return len(self._queues.get(key, ()))

    def push(self, key: str, item) -> None:
        fifo = self._queues.get(key)
        if fifo is None:
            fifo = self._queues[key] = deque()
            self._rotation.append(key)
        fifo.append(item)
        self._size += 1

    def pop(self):
        """The head of the next key in rotation; ``None`` when empty."""
        if not self._rotation:
            return None
        key = self._rotation.popleft()
        fifo = self._queues[key]
        item = fifo.popleft()
        if fifo:
            self._rotation.append(key)  # round-robin re-queue
        else:
            del self._queues[key]
        self._size -= 1
        return item

    def drain(self) -> list:
        """Remove and return everything queued."""
        items = [item for fifo in self._queues.values() for item in fifo]
        self._queues.clear()
        self._rotation.clear()
        self._size = 0
        return items


class _Task:
    __slots__ = ("tenant", "fn", "future", "enqueued")

    def __init__(self, tenant: str, fn: Callable, future: Future, enqueued: float) -> None:
        self.tenant = tenant
        self.fn = fn
        self.future = future
        self.enqueued = enqueued


class _TenantState:
    """Per-tenant accounting (guarded by the scheduler condition)."""

    __slots__ = (
        "submitted", "completed", "cancelled",
        "wait_total_s", "wait_count", "wait_max_s",
    )

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.cancelled = 0
        self.wait_total_s = 0.0
        self.wait_count = 0
        self.wait_max_s = 0.0

    def snapshot(self, queued: int) -> dict[str, object]:
        avg_ms = (
            1000.0 * self.wait_total_s / self.wait_count if self.wait_count else 0.0
        )
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "queued": queued,
            "avgWaitMs": round(avg_ms, 3),
            "maxWaitMs": round(1000.0 * self.wait_max_s, 3),
        }


class FanoutScheduler:
    """One shared worker pool for federated fan-out (see module doc)."""

    def __init__(self, max_workers: int = DEFAULT_POOL_WORKERS, name: str = "fanout") -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.name = name
        self._cond = threading.Condition()
        #: queued tasks, keyed by tenant (guarded by _cond)
        self._queue = FairQueue()
        self._tenants: dict[str, _TenantState] = {}
        self._last_spawn = 0.0
        self._workers: set[threading.Thread] = set()
        self._idle = 0
        self._busy = 0
        self._shutdown = False
        # counters (guarded by _cond)
        self.workers_created = 0
        self.submitted = 0
        self.completed = 0
        self.cancelled = 0
        self.peak_queued = 0

    # ------------------------------------------------------------- submission
    def submit(self, fn: Callable, tenant: str = DEFAULT_TENANT) -> Future:
        """Queue ``fn()`` for a pool worker; returns its Future."""
        future: Future = Future()
        task = _Task(tenant, fn, future, time.monotonic())
        with self._cond:
            if self._shutdown:
                raise RuntimeError(f"scheduler {self.name!r} is shut down")
            self._queue.push(tenant, task)
            self.submitted += 1
            self.peak_queued = max(self.peak_queued, len(self._queue))
            self._tenant_locked(tenant).submitted += 1
            if self._idle == 0 and len(self._workers) < self.max_workers:
                # damped growth: always keep at least one worker, then
                # add at most one per spawn interval while demand holds
                now = time.monotonic()
                if (
                    not self._workers
                    or now - self._last_spawn >= SPAWN_INTERVAL_S
                ):
                    self._last_spawn = now
                    self._spawn_worker_locked()
            # one task, one wakeup: notify_all here is a thundering herd
            # (every idle worker wakes, one wins, the rest re-sleep) that
            # convoys the pool at high submit rates
            self._cond.notify()
        return future

    # ---------------------------------------------------------------- workers
    def _spawn_worker_locked(self) -> None:
        self.workers_created += 1
        thread = threading.Thread(
            target=self._worker_loop,
            name=f"{self.name}-worker-{self.workers_created}",
            daemon=True,
        )
        self._workers.add(thread)
        thread.start()

    def _worker_loop(self) -> None:
        me = threading.current_thread()
        while True:
            with self._cond:
                task = self._pop_locked()
                while task is None:
                    if self._shutdown:
                        self._workers.discard(me)
                        return
                    self._idle += 1
                    signalled = self._cond.wait(timeout=WORKER_IDLE_S)
                    self._idle -= 1
                    task = self._pop_locked()
                    if task is None and not signalled and not self._shutdown:
                        # idled through the reap window with nothing
                        # queued: shrink the pool (lazily regrown)
                        self._workers.discard(me)
                        return
                self._busy += 1
            tenant = task.tenant
            if task.future.set_running_or_notify_cancel():
                try:
                    result = task.fn()
                except BaseException as exc:  # noqa: BLE001 - forwarded via Future
                    task.future.set_exception(exc)
                else:
                    task.future.set_result(result)
                ran = True
            else:
                ran = False
            with self._cond:
                self._busy -= 1
                state = self._tenant_locked(tenant)
                if ran:
                    self.completed += 1
                    state.completed += 1
                else:
                    self.cancelled += 1
                    state.cancelled += 1

    def _pop_locked(self) -> _Task | None:
        task = self._queue.pop()
        if task is None:
            return None
        state = self._tenant_locked(task.tenant)
        wait_s = time.monotonic() - task.enqueued
        state.wait_total_s += wait_s
        state.wait_count += 1
        state.wait_max_s = max(state.wait_max_s, wait_s)
        return task

    def _tenant_locked(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantState()
        return state

    # -------------------------------------------------------------- lifecycle
    @property
    def is_shutdown(self) -> bool:
        with self._cond:
            return self._shutdown

    def worker_count(self) -> int:
        with self._cond:
            return len(self._workers)

    def shutdown(self) -> None:
        """Stop workers and cancel queued tasks.  Idempotent."""
        with self._cond:
            self._shutdown = True
            pending: list[_Task] = self._queue.drain()
            workers = list(self._workers)
            self._cond.notify_all()
        for task in pending:
            task.future.cancel()
        me = threading.current_thread()
        for thread in workers:
            if thread is not me:
                thread.join(timeout=2.0)

    # -------------------------------------------------------------- telemetry
    def stats(self) -> dict[str, object]:
        """Counter snapshot, with per-tenant sub-records under ``tenants``."""
        with self._cond:
            tenants = {
                name: state.snapshot(self._queue.depth(name))
                for name, state in sorted(self._tenants.items())
            }
            return {
                "maxWorkers": self.max_workers,
                "workers": len(self._workers),
                "busy": self._busy,
                "queueDepth": len(self._queue),
                "peakQueueDepth": self.peak_queued,
                "submitted": self.submitted,
                "completed": self.completed,
                "cancelled": self.cancelled,
                "workersCreated": self.workers_created,
                "poolUtilization": round(self._busy / self.max_workers, 6),
                "tenants": tenants,
            }


# ---------------------------------------------------------- shared client pool
_SHARED: FanoutScheduler | None = None
_SHARED_LOCK = threading.Lock()


def shared_scheduler() -> FanoutScheduler:
    """The process-wide pool for client-side batch work (query panels),
    ``DEFAULT_POOL_WORKERS`` wide.

    Created on first use; replaced transparently if the previous one was
    shut down.
    """
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None or _SHARED.is_shutdown:
            _SHARED = FanoutScheduler(name="shared")
        return _SHARED
