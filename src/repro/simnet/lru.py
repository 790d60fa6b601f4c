"""The one bounded, keyed LRU store under every cache in the tree.

The thesis has a single caching mechanism — "a hash table indexed by a
string value representing the parameters involved in the query"
(§5.3.2.3).  :class:`LruStore` is that table with the three bounds the
extensions grew around it made optional: an entry bound, an
approximate byte bound, and an age bound read off an injected
:class:`~repro.simnet.clock.Clock`.  The Performance-Result caches
(:mod:`repro.core.prcache`), the federation's plan cache and the
container's :class:`~repro.ogsi.container.StubPool` are all
constructors over it.

It lives beside ``Clock`` because both ``repro.ogsi`` and ``repro.core``
use it and ``repro.ogsi`` must not import ``repro.core``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.simnet.clock import Clock


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting.

    ``evictions`` are entries a bound pushed out (or refused);
    ``invalidations`` are entries dropped through targeted
    :meth:`LruStore.remove` / :meth:`LruStore.remove_where` calls
    (coherence-driven); ``expirations`` are entries found past their
    age bound on lookup.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    expirations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class LruStore:
    """Thread-safe keyed LRU with optional entry, byte and age bounds.

    A stored value is never ``None`` — ``None`` is the miss answer.
    With no bound set the store is a plain hash table: ``put`` does no
    size accounting and evicts nothing.

    ``max_bytes`` needs ``sizer(key, value)``; an entry bigger than the
    whole budget is not admitted at all — counted as an eviction — so one
    oversized value can never pin the budget's worth of memory.  ``max_age``
    needs ``clock``; an entry older than that is dropped by the lookup
    that finds it, which counts an expiration and a miss.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        sizer: Callable[[Hashable, object], int] | None = None,
        max_age: float | None = None,
        clock: Clock | None = None,
    ) -> None:
        if max_bytes is not None and sizer is None:
            raise ValueError("a byte bound needs a sizer")
        if max_age is not None and clock is None:
            raise ValueError("an age bound needs a clock")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.max_age = max_age
        self._sizer = sizer
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> value, least recently used first
        self.entries: OrderedDict = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self._deadlines: dict[Hashable, float] = {}
        #: approximate resident bytes (0 unless a byte bound is set)
        self.bytes = 0
        self.stats = CacheStats()

    def get(self, key: Hashable):
        with self._lock:
            value = self._lookup(key)
            if value is None:
                self.stats.misses += 1
            else:
                self.entries.move_to_end(key)
                self.stats.hits += 1
            return value

    def contains(self, key: Hashable) -> bool:
        """Membership probe that touches neither hit/miss nor recency."""
        with self._lock:
            return self._lookup(key) is not None

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            if self.max_bytes is not None:
                size = self._sizer(key, value)
                self._discard(key)
                if size > self.max_bytes:
                    self.stats.evictions += 1
                    return
                self._sizes[key] = size
                self.bytes += size
            self.entries[key] = value
            self.entries.move_to_end(key)
            if self.max_age is not None:
                self._deadlines[key] = self._clock.now() + self.max_age
            while self.entries and (
                (self.max_entries is not None and len(self.entries) > self.max_entries)
                or (self.max_bytes is not None and self.bytes > self.max_bytes)
            ):
                self._discard(next(iter(self.entries)))
                self.stats.evictions += 1

    def remove(self, key: Hashable) -> bool:
        """Drop one entry (targeted invalidation); True if it existed."""
        with self._lock:
            removed = self._discard(key)
            self.stats.invalidations += removed
            return removed

    def remove_where(self, doomed: Callable[[Hashable], bool]) -> int:
        """Invalidate every entry whose key satisfies *doomed*."""
        with self._lock:
            keys = [key for key in self.entries if doomed(key)]
            for key in keys:
                self._discard(key)
            self.stats.invalidations += len(keys)
            return len(keys)

    def clear(self) -> None:
        """Forget everything; counts as neither eviction nor invalidation."""
        with self._lock:
            self.entries.clear()
            self._sizes.clear()
            self._deadlines.clear()
            self.bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self.entries)

    # ----------------------------------------------------------- internals
    def _lookup(self, key: Hashable):
        """The resident value for *key*, expiring it if past its age bound."""
        value = self.entries.get(key)
        if (
            value is not None
            and self.max_age is not None
            and self._deadlines[key] <= self._clock.now()
        ):
            self._discard(key)
            self.stats.expirations += 1
            return None
        return value

    def _discard(self, key: Hashable) -> bool:
        if key not in self.entries:
            return False
        del self.entries[key]
        if self.max_bytes is not None:
            self.bytes -= self._sizes.pop(key)
        if self.max_age is not None:
            del self._deadlines[key]
        return True
