"""Notification PortTypes (push and pull delivery).

The thesis's future-work section proposes notifications for data-store
updates, deliverable "using either a 'push' or a 'pull' model".  Both are
implemented:

* **push** — a :class:`NotificationSourceMixin` keeps subscriptions and,
  on ``notify``, invokes ``DeliverNotification`` on each sink's stub
  through the normal transport (real SOAP round trip per delivery);
* **pull** — a :class:`PullNotificationSink` deployed next to the client
  queues deliveries; the client drains it with ``poll()``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.ogsi.dispatch import suspend_dispatch
from repro.ogsi.gsh import GridServiceHandle, GshError
from repro.ogsi.porttypes import NOTIFICATION_SINK_PORTTYPE
from repro.ogsi.service import GridServiceBase


@dataclass
class Subscription:
    subscription_id: str
    topic: str
    sink_handle: str
    expires_at: float


class NotificationSourceMixin:
    """Mixin adding NotificationSource operations to a Grid service.

    The host class must be a :class:`GridServiceBase` (needs
    ``container``/``require_active``).  Topics are plain strings; a
    subscription to topic ``"*"`` receives everything.
    """

    def _init_notification_source(self) -> None:
        self._subscriptions: dict[str, Subscription] = {}
        self._subscription_counter = 0
        #: deliveries that raised but whose subscription was kept
        self.delivery_failures = 0

    def SubscribeToNotificationTopic(
        self, topic: str, sinkHandle: str, expirationTime: float
    ) -> str:
        self.require_active()  # type: ignore[attr-defined]
        if not topic:
            raise ValueError("topic may not be empty")
        GridServiceHandle.parse(sinkHandle)  # validate
        self._subscription_counter += 1
        sub_id = f"sub-{self._subscription_counter}"
        expires = float("inf") if expirationTime <= 0 else float(expirationTime)
        self._subscriptions[sub_id] = Subscription(sub_id, topic, sinkHandle, expires)
        return sub_id

    def UnsubscribeFromNotificationTopic(self, subscriptionId: str) -> None:
        self.require_active()  # type: ignore[attr-defined]
        self._subscriptions.pop(subscriptionId, None)

    def notify(self, topic: str, message: str) -> int:
        """Push *message* to all live subscribers of *topic*.

        Returns the number of successful deliveries.  Two failure modes
        are distinguished:

        * the sink *handle* no longer resolves to a live service
          (:class:`GshError`) — the sink is dead, so the subscription is
          dropped (the soft-state convention);
        * anything else — a transient bind problem or a delivery that
          raises — keeps the subscription and counts the failure in
          :attr:`delivery_failures`.  A sink that is merely unlucky
          (container busy, flaky transport) must not lose its
          subscription.

        Expired subscriptions are pruned on every pass, whether or not
        their topic matches.  Deliveries are SOAP round trips into other
        containers, so they run under
        :func:`~repro.ogsi.dispatch.suspend_dispatch`: every dispatch
        gate the calling thread holds is released for the duration —
        two containers notifying each other's sinks can therefore never
        deadlock on each other's dispatch state.
        """
        container = self.container  # type: ignore[attr-defined]
        if container is None:
            raise RuntimeError("source is not deployed")
        now = container.clock.now()
        targets: list[Subscription] = []
        for sub_id, sub in list(self._subscriptions.items()):
            if sub.expires_at <= now:
                self._subscriptions.pop(sub_id, None)
                continue
            if sub.topic in ("*", topic):
                targets.append(sub)
        delivered = 0
        environment = container.environment
        with suspend_dispatch():
            for sub in targets:
                try:
                    stub = environment.stub_for_handle(
                        sub.sink_handle, NOTIFICATION_SINK_PORTTYPE
                    )
                except GshError:
                    # dead sink: the handle no longer names a live service
                    self._subscriptions.pop(sub.subscription_id, None)
                    continue
                except Exception:
                    self.delivery_failures += 1
                    continue
                try:
                    stub.DeliverNotification(topic, message)
                    delivered += 1
                except Exception:
                    self.delivery_failures += 1
        return delivered

    def subscription_count(self) -> int:
        return len(self._subscriptions)


class NotificationSinkBase(GridServiceBase):
    """A sink that hands deliveries to a callback."""

    porttype = NOTIFICATION_SINK_PORTTYPE

    def __init__(self, callback=None) -> None:
        super().__init__()
        self.callback = callback

    def DeliverNotification(self, topic: str, message: str) -> None:
        self.require_active()
        if self.callback is not None:
            self.callback(topic, message)


class PullNotificationSink(NotificationSinkBase):
    """A sink that queues deliveries for client polling (the pull model)."""

    def __init__(self, max_queue: int = 1024) -> None:
        super().__init__(callback=None)
        self.max_queue = max_queue
        self._queue: deque[tuple[str, str]] = deque()
        self.dropped = 0

    def DeliverNotification(self, topic: str, message: str) -> None:
        self.require_active()
        if len(self._queue) >= self.max_queue:
            self._queue.popleft()  # O(1) overflow drop
            self.dropped += 1
        self._queue.append((topic, message))

    def poll(self, max_items: int | None = None) -> list[tuple[str, str]]:
        """Drain up to *max_items* queued (topic, message) pairs."""
        if max_items is None or max_items >= len(self._queue):
            items, self._queue = list(self._queue), deque()
            return items
        return [self._queue.popleft() for _ in range(max_items)]

    def pending(self) -> int:
        return len(self._queue)
