"""Instrumentation: counters, byte accounting, and named timers.

The Table 4 experiment needs, per query: total elapsed time at the
Virtualization layer, elapsed time at the Mapping layer, and the number
of bytes moved over the transport.  A :class:`Recorder` threaded through
the stack collects all three without the layers knowing about each other.
"""

from __future__ import annotations

import math
import threading
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, MutableSequence

from repro.simnet.clock import Clock, RealClock


@dataclass
class TimerStats:
    """Summary statistics over a series of duration samples (seconds)."""

    #: packed doubles: a long-lived recorder keeps every sample, and a list
    #: of float objects costs four times as much per sample
    samples: MutableSequence[float] = field(default_factory=lambda: array("d"))

    def add(self, seconds: float) -> None:
        self.samples.append(seconds)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        return self.total / len(self.samples) if self.samples else 0.0

    @property
    def stdev(self) -> float:
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples) / (n - 1))

    @property
    def cov(self) -> float:
        """Coefficient of variation (stdev / mean), 0 for a zero mean."""
        mu = self.mean
        return self.stdev / mu if mu else 0.0

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0


class Recorder:
    """Mutable sink for counters, byte totals, and named timers.

    Thread-safe: the dispatch core serves requests concurrently, so the
    transport (and anything else holding a recorder) increments counters
    from many threads at once.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock: Clock = clock or RealClock()
        self.counters: dict[str, int] = {}
        self.timers: dict[str, TimerStats] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------ counters
    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def record_bytes(self, direction: str, nbytes: int) -> None:
        """Account transport bytes; direction is ``"sent"`` or ``"received"``."""
        if direction not in ("sent", "received"):
            raise ValueError(f"unknown direction {direction!r}")
        self.incr(f"bytes_{direction}", nbytes)

    @property
    def bytes_sent(self) -> int:
        return self.count("bytes_sent")

    @property
    def bytes_received(self) -> int:
        return self.count("bytes_received")

    @property
    def bytes_total(self) -> int:
        return self.bytes_sent + self.bytes_received

    # -------------------------------------------------------------- timers
    def timer(self, name: str) -> TimerStats:
        with self._lock:
            stats = self.timers.get(name)
            if stats is None:
                stats = TimerStats()
                self.timers[name] = stats
            return stats

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Context manager recording one duration sample into *name*."""
        start = self.clock.now()
        try:
            yield
        finally:
            self.timer(name).add(self.clock.now() - start)

    def add_sample(self, name: str, seconds: float) -> None:
        self.timer(name).add(seconds)

    # ------------------------------------------------------------- control
    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.timers.clear()

    def snapshot(self) -> dict[str, object]:
        """A plain-dict view (counters + per-timer mean/count) for reports."""
        return {
            "counters": dict(self.counters),
            "timers": {
                name: {"count": t.count, "mean": t.mean, "total": t.total}
                for name, t in self.timers.items()
            },
        }
