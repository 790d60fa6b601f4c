"""A tiny internal reactor: one daemon thread running scheduled callables.

The dispatch rewrite moves work that must never run while holding
dispatch state — asynchronous notification delivery, periodic lifetime
sweeps — onto a per-:class:`~repro.ogsi.container.GridEnvironment` event
loop.  The reactor is deliberately small: a monotonic-time priority
queue of callables drained by one daemon thread, with ``drain()`` so
tests can wait for quiescence deterministically.

Scheduling uses real (``time.monotonic``) delays even when the grid runs
on a :class:`~repro.simnet.clock.VirtualClock`: the reactor paces *host*
work (delivery, sweeps), not modeled grid time.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Callable


class RepeatingTask:
    """Handle for a ``call_every`` job; ``cancel()`` stops future runs."""

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Reactor:
    """Single-threaded deferred-work loop with timed scheduling."""

    def __init__(self, name: str = "reactor") -> None:
        self._name = name
        self._cond = threading.Condition()
        #: heap of (due, seq, fn) — seq keeps FIFO order for equal due times
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._thread: threading.Thread | None = None
        self._running_one = False
        self._shutdown = False
        self.tasks_run = 0
        self.task_failures = 0

    # ---------------------------------------------------------- scheduling
    def call_soon(self, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` on the reactor thread as soon as possible."""
        self._schedule(time.monotonic(), fn, args)

    def call_every(self, interval: float, fn: Callable, *args) -> RepeatingTask:
        """Run ``fn(*args)`` every *interval* seconds until cancelled."""
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        task = RepeatingTask()

        def tick() -> None:
            if task.cancelled:
                return
            try:
                fn(*args)
            finally:
                if not task.cancelled:
                    try:
                        self._schedule(time.monotonic() + interval, tick, ())
                    except RuntimeError:
                        # shut down while this tick ran (shutdown-while-
                        # sweeping): stop repeating, don't count a failure
                        pass
        self._schedule(time.monotonic() + interval, tick, ())
        return task

    def _schedule(self, due: float, fn: Callable, args: tuple) -> None:
        bound = (lambda: fn(*args)) if args else fn
        with self._cond:
            if self._shutdown:
                raise RuntimeError(f"reactor {self._name!r} is shut down")
            heapq.heappush(self._queue, (due, next(self._seq), bound))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name=f"reactor-{self._name}", daemon=True
                )
                self._thread.start()
            self._cond.notify_all()

    # --------------------------------------------------------------- worker
    def _run(self) -> None:
        while True:
            with self._cond:
                while True:
                    if self._shutdown:
                        return
                    if self._queue:
                        due = self._queue[0][0]
                        wait = due - time.monotonic()
                        if wait <= 0:
                            _, _, fn = heapq.heappop(self._queue)
                            self._running_one = True
                            break
                        self._cond.wait(timeout=wait)
                    else:
                        self._cond.wait()
            try:
                fn()
            except Exception:
                self.task_failures += 1
            finally:
                with self._cond:
                    self.tasks_run += 1
                    self._running_one = False
                    self._cond.notify_all()

    # -------------------------------------------------------------- control
    @property
    def is_shutdown(self) -> bool:
        with self._cond:
            return self._shutdown

    def pending(self) -> int:
        with self._cond:
            return len(self._queue) + (1 if self._running_one else 0)

    def drain(self, timeout: float = 10.0) -> bool:
        """Block until every *currently due* task has run (True on success).

        Tasks scheduled for the future (``call_every``'s next tick)
        don't hold ``drain`` open past their next due time — it waits for
        quiescence of due work, not for the end of time.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                now = time.monotonic()
                due = [item for item in self._queue if item[0] <= now]
                if not due and not self._running_one:
                    return True
                remaining = deadline - now
                if remaining <= 0:
                    return False
                self._cond.wait(timeout=min(remaining, 0.05))

    def shutdown(self) -> None:
        """Stop the worker; pending tasks are dropped.  Idempotent."""
        with self._cond:
            self._shutdown = True
            self._queue.clear()
            self._cond.notify_all()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)
