"""Performance-Result cache (thesis §5.3.2.3 and Table 5).

The cache "stores the results of Performance Result queries in a hash
table indexed by a string value representing the parameters involved in
the query".  Table 5 turns it off (:class:`NullCache`) and on
(:class:`UnboundedCache`, the thesis's prototype).  An Execution
configured none gets :func:`default_pr_cache`, a byte- and
entry-bounded LRU; the federation's plan cache is the same class.  All
three are the one :class:`~repro.simnet.lru.LruStore` with different
bounds.
"""

from __future__ import annotations

import sys
from typing import Sequence

from repro.simnet.lru import LruStore
from repro.soap.colbatch import DecodedBatch


class PrCache(LruStore):
    """string key -> list of packed PR strings, or a :class:`DecodedBatch`
    stored as it is: an ordered read's columns (its spans and values as
    numbers) in a member's cache, a federated answer's columns (numbers
    behind their ``name=``) in the plan cache.

    Thread-safe (the store's lock): the pooled fan-out scheduler runs
    queries from many tenants concurrently against one engine.
    Subclasses only choose the store's bounds.
    """

    def put(self, key: str, value: list[str] | DecodedBatch) -> None:
        super().put(key, value if isinstance(value, DecodedBatch) else list(value))

    def stat_records(self) -> list[str]:
        """``name|value`` wire records, for SDE publication."""
        stats = self.stats
        records = [
            f"hits|{stats.hits}",
            f"misses|{stats.misses}",
            f"evictions|{stats.evictions}",
            f"invalidations|{stats.invalidations}",
            f"lookups|{stats.lookups}",
            f"hitRate|{stats.hit_rate:.6f}",
            f"entries|{len(self)}",
        ]
        if self.max_bytes is not None:
            records.append(f"bytesUsed|{self.bytes}")
            records.append(f"maxBytes|{self.max_bytes}")
        return records


class NullCache(PrCache):
    """Caching disabled (the Table 5 "caching off" arm)."""

    def put(self, key: str, value: list[str]) -> None:
        pass


class UnboundedCache(PrCache):
    """The thesis's prototype policy: keep everything."""


#: approximate per-entry bookkeeping overhead (bytes) beside the strings
_ENTRY_OVERHEAD_BYTES = 96

#: what each ASCII string of an entry costs beside its characters — its
#: str header and the pointer to it (a column's own list header counts as
#: one more) — and the batch object with its attribute and exception dicts
_TOKEN_OVERHEAD_BYTES = 64
_BATCH_OVERHEAD_BYTES = 1024


def _strings_bytes(strings: Sequence[str]) -> int:
    """*strings* as str objects and pointers: characters and a flat
    overhead each when ASCII, else each one's ``sys.getsizeof`` (a wider
    header, characters up to four bytes) and a pointer with list slack."""
    text = "".join(strings)
    if text.isascii():
        return len(text) + _TOKEN_OVERHEAD_BYTES * len(strings)
    return sum(map(sys.getsizeof, strings)) + 16 * len(strings)


def entry_bytes(key: str, value: list[str] | DecodedBatch) -> int:
    """Approximate resident size of one cache entry: the key's and the
    stored strings' objects plus a flat per-entry overhead — monotone in
    the real footprint and at least it, all budget-driven eviction needs.
    A token-column entry's cells are charged as packed records are (more
    where a text column shares one object per distinct text), a numeric
    column's off its numbers, never rendered, and an exception row twice,
    for its index and dict slot as well."""
    overhead = _strings_bytes((key,)) + _ENTRY_OVERHEAD_BYTES
    if not isinstance(value, DecodedBatch):
        return overhead + _strings_bytes(value)
    cells = _TOKEN_OVERHEAD_BYTES * value.width + sum(
        _strings_bytes(value.column(i)) if held is None else held.resident_bytes()
        for i, held in enumerate(map(value.numeric, range(value.width)))
    )
    exceptions = 2 * _strings_bytes(list(value.exceptions.values()))
    return overhead + _BATCH_OVERHEAD_BYTES + cells + exceptions


class ByteBudgetLruCache(PrCache):
    """LRU bounded by an approximate byte budget (and optionally entries).

    The streaming work makes very large memoized results possible
    (a fully drained streamed query is cached like any bulk result);
    entry-count bounds alone cannot keep such a cache's memory flat.
    This policy tracks an approximate byte total (:func:`entry_bytes`)
    and evicts in LRU order until both the byte budget and the entry
    capacity (when given) hold.  An entry bigger than the whole budget
    is not admitted at all — counted as an eviction.
    """

    def __init__(self, max_bytes: int, capacity: int | None = None) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        super().__init__(max_entries=capacity, max_bytes=max_bytes, sizer=entry_bytes)


#: the PR cache of an Execution that was configured none: the entries cap
#: what literal-varying queries leave behind (keys carry value bounds)
DEFAULT_PR_CACHE_BYTES = 1024 * 1024
DEFAULT_PR_CACHE_ENTRIES = 128


def default_pr_cache() -> ByteBudgetLruCache:
    """The default policy of ``SiteConfig`` and ``ExecutionService``."""
    return ByteBudgetLruCache(DEFAULT_PR_CACHE_BYTES, DEFAULT_PR_CACHE_ENTRIES)
