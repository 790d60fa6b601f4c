"""Simulated hosts.

A :class:`SimHost` models the thesis's single-CPU Sun workstations: work
submitted to a host executes serially, so the completion time of a batch
is the sum of its pieces, while two hosts proceed in parallel.  The
Figure 12 scalability experiment replays measured per-query costs onto
host timelines and reads off the makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class HostTimeline:
    """Serialized CPU timeline of one host.

    ``schedule(duration, ready_at)`` places a task on the CPU no earlier
    than *ready_at* and no earlier than the previous task's completion,
    returning (start, end).
    """

    busy_until: float = 0.0

    def schedule(self, duration: float, ready_at: float = 0.0) -> tuple[float, float]:
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        start = max(self.busy_until, ready_at)
        end = start + duration
        self.busy_until = end
        return start, end

    def reset(self) -> None:
        self.busy_until = 0.0


@dataclass
class SimHost:
    """A named host whose charged work runs serially on one timeline.

    The thesis's two service hosts are identical, so a task measured at
    *d* seconds on the reference machine takes *d* seconds here.
    """

    name: str
    timeline: HostTimeline = field(default_factory=HostTimeline)

    def charge(self, duration: float, ready_at: float = 0.0) -> tuple[float, float]:
        """Schedule *duration* (reference seconds) of CPU work."""
        return self.timeline.schedule(duration, ready_at)

    def reset(self) -> None:
        self.timeline.reset()
