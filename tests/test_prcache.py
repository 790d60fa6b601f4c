"""Tests for the Performance-Result cache policies."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prcache import (
    ByteBudgetLruCache,
    NullCache,
    UnboundedCache,
    entry_bytes,
)
from repro.core.semantic import PerformanceResult
from repro.experiments.common import build_synthetic_grid
from repro.fedquery.merge import RAW_COLUMNS
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper
from repro.simnet.clock import VirtualClock
from repro.simnet.lru import LruStore
from repro.soap import colbatch
from repro.soap.colbatch import DecodedBatch, decode_columns, encode_batch, split_rows


class TestNullCache:
    def test_never_hits(self):
        cache = NullCache()
        cache.put("k", ["v"])
        assert cache.get("k") is None
        assert len(cache) == 0
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.0


class TestUnboundedCache:
    def test_put_get(self):
        cache = UnboundedCache()
        cache.put("k", ["a", "b"])
        assert cache.get("k") == ["a", "b"]
        assert cache.stats.hits == 1

    def test_stores_copy(self):
        cache = UnboundedCache()
        value = ["a"]
        cache.put("k", value)
        value.append("mutated")
        assert cache.get("k") == ["a"]

    def test_overwrite(self):
        cache = UnboundedCache()
        cache.put("k", ["1"])
        cache.put("k", ["2"])
        assert cache.get("k") == ["2"]
        assert len(cache) == 1

    def test_never_evicts(self):
        cache = UnboundedCache()
        for i in range(1000):
            cache.put(str(i), [])
        assert len(cache) == 1000
        assert cache.stats.evictions == 0

    def test_clear(self):
        cache = UnboundedCache()
        cache.put("k", ["v"])
        cache.clear()
        assert cache.get("k") is None


def _entry_bounded(capacity: int) -> ByteBudgetLruCache:
    """An LRU that only its entry bound can fill, as ``default_pr_cache``,
    the plan cache and ``StubPool`` are filled by theirs."""
    return ByteBudgetLruCache(max_bytes=10**9, capacity=capacity)


class TestLruCache:
    def test_capacity_enforced(self):
        cache = _entry_bounded(2)
        for key in ("a", "b", "c"):
            cache.put(key, [key])
        assert len(cache) == 2
        assert cache.get("a") is None  # oldest evicted
        assert cache.get("c") == ["c"]
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self):
        cache = _entry_bounded(2)
        cache.put("a", ["a"])
        cache.put("b", ["b"])
        cache.get("a")
        cache.put("c", ["c"])
        assert cache.get("a") == ["a"]  # survived because touched
        assert cache.get("b") is None

    def test_put_refreshes_recency(self):
        cache = _entry_bounded(2)
        cache.put("a", ["a"])
        cache.put("b", ["b"])
        cache.put("a", ["a2"])
        cache.put("c", ["c"])
        assert cache.get("a") == ["a2"]
        assert cache.get("b") is None

    @given(st.lists(st.sampled_from("abcdefgh"), max_size=200), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_size_never_exceeds_capacity(self, keys, capacity):
        cache = _entry_bounded(capacity)
        for key in keys:
            if cache.get(key) is None:
                cache.put(key, [key])
            assert len(cache) <= capacity


class TestOneStoreUnderEveryPolicy:
    """Every bounded cache is the same LruStore with a different bound,
    so eviction order and the counters cannot differ between them."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _entry_bounded(2),
            # room for two of the test's (equal-sized) entries: the byte
            # bound evicts before the entry bound of three is reached
            lambda: ByteBudgetLruCache(max_bytes=2 * entry_bytes("a", ["a"]), capacity=3),
        ],
        ids=["entries", "bytes+entries"],
    )
    def test_evicts_least_recently_used_and_counts(self, make):
        cache = make()
        cache.put("a", ["a"])
        cache.put("b", ["b"])
        assert cache.get("a") == ["a"]  # a is now the most recent
        cache.put("c", ["c"])
        assert not cache.contains("b") and cache.contains("a") and cache.contains("c")
        assert cache.get("b") is None
        assert cache.remove("a") is True and cache.remove("a") is False
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions, stats.invalidations) == (
            1, 1, 1, 1,
        )
        records = dict(r.split("|") for r in cache.stat_records())
        assert records["lookups"] == "2" and records["entries"] == "1"
        assert "maxBytes" in records

    def test_age_bound_follows_the_injected_clock(self):
        clock = VirtualClock()
        store = LruStore(max_age=5.0, clock=clock)
        store.put("k", "v")
        clock.advance(4.9)
        assert store.get("k") == "v"
        clock.advance(0.1)  # age counts from the put, not the last hit
        assert store.contains("k") is False
        assert store.get("k") is None and len(store) == 0
        assert (store.stats.expirations, store.stats.misses) == (1, 1)
        store.put("k", "v2")  # re-binding starts a fresh lifetime
        clock.advance(4.9)
        assert store.get("k") == "v2"

    def test_remove_where_counts_invalidations(self):
        store = LruStore()
        for key in (("u", "P"), ("u", "Q"), ("v", "P")):
            store.put(key, 1)
        assert store.remove_where(lambda key: key[0] == "u") == 2
        assert list(store.entries) == [("v", "P")]
        assert store.stats.invalidations == 2

    def test_unbounded_put_does_no_size_accounting(self):
        store = LruStore()
        store.put("k", ["x" * 1000])
        assert store.bytes == 0 and store.stats.evictions == 0

    def test_concurrent_writers_keep_the_byte_account_exact(self):
        import sys
        import threading

        cache = ByteBudgetLruCache(max_bytes=4_000, capacity=16)
        stop = threading.Event()

        def churn(worker: int) -> None:
            for i in range(2_000):
                if stop.is_set():
                    return
                key = f"k{(worker * 7 + i) % 40}"
                cache.put(key, ["x" * (i % 50)])
                cache.get(key)
                if i % 17 == 0:
                    cache.remove(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            stop.set()
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(cache) <= 16 and cache.bytes <= cache.max_bytes
        assert cache.bytes == sum(
            entry_bytes(k, v) for k, v in cache.entries.items()
        )

    def test_a_bound_needs_its_collaborator(self):
        with pytest.raises(ValueError):
            LruStore(max_bytes=100)
        with pytest.raises(ValueError):
            LruStore(max_age=1.0)


class TestStats:
    def test_hit_rate(self):
        cache = UnboundedCache()
        cache.put("k", [])
        cache.get("k")
        cache.get("miss")
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == 0.5

    def test_hit_rate_empty(self):
        assert UnboundedCache().stats.hit_rate == 0.0


class TestCacheStatsServiceData:
    """The PR cache counters travel as the ``cacheStats`` SDE (queried
    through the standard OGSI findServiceData operation)."""

    @staticmethod
    def records(execution) -> dict[str, str]:
        from repro.xmlkit import parse

        root = parse(execution.find_service_data("name:cacheStats")).root
        values = [el.text() for el in root.iter_all() if el.tag.local == "value"]
        return dict(value.split("|", 1) for value in values)

    def test_counters_refresh_with_queries(self, shared_grid):
        execution = shared_grid.bind("HPL").all_executions()[0]
        before = self.records(execution)
        assert set(before) >= {"hits", "misses", "evictions", "lookups", "hitRate", "entries"}
        # a window no other test uses, so the first call must miss
        start, end = 0.000321, execution.time_range()[1]
        execution.get_pr("gflops", ["/Run"], start, end, "UNDEFINED")
        execution.get_pr("gflops", ["/Run"], start, end, "UNDEFINED")
        after = self.records(execution)
        assert int(after["misses"]) >= int(before["misses"]) + 1
        assert int(after["hits"]) >= int(before["hits"]) + 1
        assert int(after["entries"]) >= 1
        assert int(after["lookups"]) == int(after["hits"]) + int(after["misses"])
        assert 0.0 <= float(after["hitRate"]) <= 1.0


def _resident(obj, seen: set[int] | None = None) -> int:
    """Deep ``sys.getsizeof``: every object reachable through containers
    and instance dicts, each counted once."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple)):
        children = obj
    else:
        children = [vars(obj)] if hasattr(obj, "__dict__") else []
    return sys.getsizeof(obj) + sum(_resident(child, seen) for child in children)


def _covers(key: str, value: DecodedBatch) -> bool:
    return entry_bytes(key, value) >= _resident(value) + sys.getsizeof(key)


class TestTokenColumnResidency:
    """A token-column entry holds one str object per cell: ``entry_bytes``
    charges at least what the entry holds, for both kinds the caches
    keep — a member's ordered read (the sorted rows split into five
    columns) and the federation's answer (eight rendered columns)."""

    def test_both_entry_kinds_charged_their_resident_size(self):
        rows = 640
        results = [
            PerformanceResult(
                "m", f"/rank/{i % 8}", "synthetic", float(i), float(i + 1), i * 0.37 + 0.001
            )
            for i in range(rows)
        ]
        grid = build_synthetic_grid(
            {"A": InMemoryWrapper("A", [InMemoryExecution("0", {}, results)])}
        )
        engine = grid.deploy_federation()
        engine.stream_chunk_rows = 64  # read through an ordered member cursor
        try:
            assert len(list(grid.client.query_stream("SELECT m"))) == rows
            member = grid.execution_service("A", "0").cache.entries
            answers = engine.plan_cache.entries
            entries = {
                "member": [(k, v) for k, v in member.items() if k.startswith("ordered: ")],
                "federation": list(answers.items()),
            }
        finally:
            engine.close()
            grid.environment.close()
        for kind, items in entries.items():
            assert len(items) == 1, kind
            ((key, value),) = items
            assert isinstance(value, DecodedBatch) and len(value) == rows, kind
            assert _covers(key, value), (kind, entry_bytes(key, value), _resident(value))

    @pytest.mark.parametrize(
        "value",
        [
            DecodedBatch(0, [[] for _ in RAW_COLUMNS], {}),
            DecodedBatch(1, [[f"{column}=1.5"] for column in RAW_COLUMNS], {}),
            split_rows([]),
            split_rows(["m|/f|t|0.0-1.0|2.5"]),
            split_rows(["m|/f|t|0.0-1.0|2.5", "an exception row", "m|/g|t|1.0-2.0|3.5"]),
        ],
        ids=["empty-answer", "one-row-answer", "empty-read", "one-row-read", "exception-row"],
    )
    def test_small_entries_charged_their_resident_size(self, value):
        assert _covers("ordered: m|/f|0.0|1.0|t", value)

    def test_a_packed_record_list_is_charged_its_resident_size(self):
        """A ``getPR`` entry is the packed records as a list: each record's
        str header and pointer, and the list's own header, are charged."""
        cache = ByteBudgetLruCache(10**9)
        key = "m | /rank/0;/rank/1 | synthetic | 0.0-640.0"
        cache.put(key, [
            PerformanceResult("m", f"/rank/{i % 8}", "synthetic", float(i), float(i + 1),
                              i * 0.37 + 0.001).pack()
            for i in range(640)
        ])
        value = cache.entries[key]
        assert entry_bytes(key, value) >= _resident(value) + sys.getsizeof(key)

    @pytest.mark.parametrize("letter", ["é", "Ā", "😀"], ids=["latin-1", "ucs-2", "ucs-4"])
    def test_non_ascii_tokens_charged_their_resident_size(self, letter):
        """A non-ASCII str has a wider header (and up to four bytes a
        character): such tokens, and a key holding one, are charged as
        what they hold."""
        columns = [[f"focus=/{letter}/{i}/{c}" for i in range(640)] for c in range(5)]
        key = f"ordered: m|/{letter}/0|0.0|1.0|t"
        records = [f"m|/{letter}/{i}|t|0.0-1.0|2.5" for i in range(640)]
        assert _covers(key, DecodedBatch(640, columns, {}))
        assert _covers(key, split_rows(records))
        assert entry_bytes(key, records) >= _resident(records) + sys.getsizeof(key)


class TestNumericColumnResidency:
    """A column held as numbers — a warm member cursor's spans and values,
    a federated answer's numeric columns behind their ``name=`` — is
    charged off its numbers, at least what it holds, and neither the
    charge nor a drain renders tokens or rows onto the shared entry."""

    KEY = "ordered: m | /rank/0 | synthetic | 0.0-640.0"

    @staticmethod
    def numbers(batch: DecodedBatch) -> list:
        return [column for column in batch._columns if isinstance(column, colbatch._Numbers)]

    def test_numeric_columns_are_charged_off_their_numbers(self):
        rows = [
            PerformanceResult("m", f"/rank/{i % 8}", "synthetic", float(i), float(i + 1),
                              i * 0.37 + 0.001).pack()
            for i in range(640)
        ]
        read = decode_columns(encode_batch(rows))
        answer = DecodedBatch(640, [
            colbatch.number_column("value=", [i * 0.37 for i in range(640)]),
            colbatch.number_column("count(m)=", [i * 10**12 for i in range(640)]),
            [f"focus=/rank/{i % 8}" for i in range(640)],
        ], {})
        for batch in (read, answer):
            assert len(self.numbers(batch)) == 2
            assert _covers(self.KEY, batch), (entry_bytes(self.KEY, batch), _resident(batch))
            assert not any("tokens" in vars(column) for column in self.numbers(batch))

    def test_drains_leave_a_warm_ordered_entry_as_it_was(self, monkeypatch):
        results = [
            PerformanceResult("m", f"/rank/{i % 8}", "synthetic", float(i), float(i + 1),
                              i * 0.37 + 0.001)
            for i in range(640)
        ]
        grid = build_synthetic_grid(
            {"A": InMemoryWrapper("A", [InMemoryExecution("0", {}, results)])}
        )
        try:
            execution = grid.bind("A").all_executions()[0]
            foci = execution.foci()
            cold = [r.pack() for r in execution.get_pr_chunked("m", foci, ordered=True)]
            table = grid.execution_service("A", "0").cache.entries
            ((key, entry),) = [(k, v) for k, v in table.items() if k.startswith("ordered: ")]
            charged = entry_bytes(key, entry)
            assert len(self.numbers(entry)) == 2  # the spans and the values
            for accepted in ("xml", "colbatch,xml"):
                monkeypatch.setenv("PPG_ACCEPT_ENCODINGS", accepted)
                drain = execution.get_pr_chunked("m", foci, ordered=True, max_rows=100)
                assert [r.pack() for r in drain] == cold
                assert drain.encoding == accepted.split(",")[0]
            assert table[key] is entry and "rows" not in vars(entry)
            assert not any("tokens" in vars(column) for column in self.numbers(entry))
            assert entry_bytes(key, entry) == charged
        finally:
            grid.environment.close()


class TestByteBudgetLruCache:
    def test_entry_bytes_is_monotone_in_payload(self):
        small = entry_bytes("k", ["a"])
        bigger_payload = entry_bytes("k", ["a" * 100])
        more_records = entry_bytes("k", ["a"] * 10)
        assert small < bigger_payload
        assert small < more_records

    def test_put_get_and_byte_accounting(self):
        cache = ByteBudgetLruCache(max_bytes=10_000)
        cache.put("k", ["aa", "bb"])
        assert cache.get("k") == ["aa", "bb"]
        assert cache.bytes == entry_bytes("k", ["aa", "bb"])

    def test_byte_budget_evicts_lru_first(self):
        record = "x" * 100
        per_entry = entry_bytes("k0", [record])
        cache = ByteBudgetLruCache(max_bytes=3 * per_entry)
        for i in range(3):
            cache.put(f"k{i}", [record])
        cache.get("k0")  # now MRU; k1 is the eviction candidate
        cache.put("k3", [record])
        assert cache.contains("k0") and not cache.contains("k1")
        assert cache.contains("k2") and cache.contains("k3")
        assert cache.stats.evictions == 1
        assert cache.bytes <= cache.max_bytes

    def test_oversized_entry_rejected_not_admitted(self):
        cache = ByteBudgetLruCache(max_bytes=500)
        cache.put("small", ["a"])
        cache.put("huge", ["z" * 10_000])
        assert cache.get("huge") is None
        assert cache.stats.evictions == 1
        # the rejection did not disturb resident entries
        assert cache.get("small") == ["a"]

    def test_oversized_overwrite_drops_stale_value(self):
        cache = ByteBudgetLruCache(max_bytes=500)
        cache.put("k", ["old"])
        cache.put("k", ["z" * 10_000])  # too big to admit
        assert cache.get("k") is None  # the old value must not survive
        assert cache.bytes == 0

    def test_overwrite_replaces_size(self):
        cache = ByteBudgetLruCache(max_bytes=10_000)
        cache.put("k", ["a" * 200])
        cache.put("k", ["b"])
        assert cache.bytes == entry_bytes("k", ["b"])
        assert len(cache) == 1

    def test_entry_capacity_still_applies(self):
        cache = ByteBudgetLruCache(max_bytes=10**9, capacity=2)
        for i in range(4):
            cache.put(f"k{i}", ["v"])
        assert len(cache) == 2
        assert cache.stats.evictions == 2
        assert cache.contains("k2") and cache.contains("k3")

    def test_remove_restores_budget(self):
        cache = ByteBudgetLruCache(max_bytes=10_000)
        cache.put("k", ["abc"])
        assert cache.remove("k") is True
        assert cache.bytes == 0
        assert cache.stats.invalidations == 1
        assert cache.remove("k") is False

    def test_clear_resets_bytes(self):
        cache = ByteBudgetLruCache(max_bytes=10_000)
        for i in range(5):
            cache.put(f"k{i}", ["v" * i])
        cache.clear()
        assert len(cache) == 0 and cache.bytes == 0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            ByteBudgetLruCache(max_bytes=0)
        with pytest.raises(ValueError):
            ByteBudgetLruCache(max_bytes=100, capacity=0)

    @given(st.lists(st.tuples(st.text(min_size=1, max_size=8),
                              st.lists(st.text(max_size=64), max_size=8)),
                    max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_budget_invariant_property(self, ops):
        cache = ByteBudgetLruCache(max_bytes=1_000)
        for key, value in ops:
            cache.put(key, value)
            assert cache.bytes <= cache.max_bytes
            assert cache.bytes == sum(
                entry_bytes(k, cache.entries[k]) for k in cache.entries
            )
