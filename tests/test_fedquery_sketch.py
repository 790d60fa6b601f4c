"""Mergeable-sketch math: soundness of bounds under merge and rebin.

The tier-0 answer path trusts two invariants unconditionally — the true
filtered aggregate lies within :class:`WindowEstimate` bounds, and
``StoreStats.merge`` only keeps a sketch when every contributing part
carried one.  This file pins both, plus the degenerate shapes the issue
calls out: an empty member, an all-null (never-recorded) metric, a
single-row ``min == max`` sketch, and bounds clamping when a predicate
lands exactly on a window boundary.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.semantic import (
    DistinctSketch,
    MetricSketch,
    MetricStats,
    StoreStats,
    sketches_from_values,
)
from repro.fedquery.ast import Predicate
from repro.fedquery.sketch import EMPTY_ESTIMATE, estimate_window
from repro.fedquery.pushdown import matches_value


def pred(op: str, bound: float) -> Predicate:
    return Predicate(field="value", op=op, value=repr(bound))


def check_sound(sketch: MetricSketch, values: list[float], preds) -> None:
    """The exact filtered aggregates must sit inside the sketch bounds."""
    est = estimate_window(sketch, preds)
    selected = [v for v in values if matches_value(v, preds)]
    assert est.count_lo - 1e-9 <= len(selected) <= est.count_hi + 1e-9
    total = math.fsum(selected)
    assert est.sum_lo - 1e-9 <= total <= est.sum_hi + 1e-9
    if selected:
        assert est.value_lo - 1e-9 <= min(selected)
        assert max(selected) <= est.value_hi + 1e-9
        if est.min_exact is not None:
            assert est.min_exact == min(selected)
        if est.max_exact is not None:
            assert est.max_exact == max(selected)
    else:
        assert est.count_lo == 0.0


class TestDegenerateShapes:
    def test_empty_member_sketch(self):
        sketch = MetricSketch.from_values("m", [])
        assert sketch.count == 0 and sketch.buckets() == []
        assert estimate_window(sketch, (pred(">", 0.0),)) is EMPTY_ESTIMATE
        # merging an empty part in changes nothing
        live = MetricSketch.from_values("m", [1.0, 2.0, 3.0])
        merged = MetricSketch.merge([sketch, live])
        assert merged.count == 3 and merged.total == live.total

    def test_all_empty_merge(self):
        merged = MetricSketch.merge(
            [MetricSketch.from_values("m", []), MetricSketch.from_values("m", [])]
        )
        assert merged.count == 0
        assert estimate_window(merged, ()) is EMPTY_ESTIMATE

    def test_single_row_min_equals_max(self):
        sketch = MetricSketch.from_values("m", [42.0])
        assert sketch.minimum == sketch.maximum == 42.0
        assert sketch.bucket_width() == 0.0
        # the point either fully matches or fully misses — always exact
        hit = estimate_window(sketch, (pred(">=", 42.0),))
        assert hit.exact and hit.count_lo == 1.0 and hit.sum_lo == 42.0
        assert hit.min_exact == hit.max_exact == 42.0
        miss = estimate_window(sketch, (pred(">", 42.0),))
        assert miss.empty

    def test_constant_valued_rows(self):
        values = [5.0] * 7
        sketch = MetricSketch.from_values("m", values)
        check_sound(sketch, values, (pred("=", 5.0),))
        est = estimate_window(sketch, (pred("=", 5.0),))
        assert est.exact and est.count_lo == 7.0

    def test_point_mass_merges_with_spread(self):
        """A degenerate (min==max) part rebins into a wide one soundly."""
        point = [100.0] * 3
        spread = [float(v) for v in range(0, 300, 7)]
        merged = MetricSketch.merge(
            [MetricSketch.from_values("m", point), MetricSketch.from_values("m", spread)]
        )
        for preds in [(pred(">", 99.0), pred("<", 101.0)), (pred(">=", 150.0),)]:
            check_sound(merged, point + spread, preds)


class TestBoundaryClamping:
    """Predicates landing exactly on window edges must clamp, not leak."""

    VALUES = [float(v) for v in range(10, 110)]  # min 10, max 109

    def test_fraction_clamped_at_lower_edge(self):
        sketch = MetricSketch.from_values("m", self.VALUES)
        # '>= min' is vacuous: exact full answer
        est = estimate_window(sketch, (pred(">=", 10.0),))
        assert est.exact and est.count_lo == float(len(self.VALUES))

    def test_fraction_clamped_at_upper_edge(self):
        sketch = MetricSketch.from_values("m", self.VALUES)
        est = estimate_window(sketch, (pred("<=", 109.0),))
        assert est.exact and est.count_hi == float(len(self.VALUES))

    def test_strict_bound_at_edge_is_unsatisfiable(self):
        sketch = MetricSketch.from_values("m", self.VALUES)
        assert estimate_window(sketch, (pred("<", 10.0),)).empty
        assert estimate_window(sketch, (pred(">", 109.0),)).empty

    def test_estimate_stays_inside_bounds_on_bucket_edges(self):
        sketch = MetricSketch.from_values("m", self.VALUES)
        width = sketch.bucket_width()
        for k in range(len(sketch.counts) + 1):
            boundary = sketch.minimum + k * width
            for op in ("<", "<=", ">", ">="):
                est = estimate_window(sketch, (pred(op, boundary),))
                assert est.count_lo <= est.count_hi
                assert est.sum_lo <= est.sum_hi
                check_sound(sketch, self.VALUES, (pred(op, boundary),))

    def test_window_outside_range_clamps_to_zero_or_all(self):
        sketch = MetricSketch.from_values("m", self.VALUES)
        assert estimate_window(sketch, (pred(">", 1000.0),)).empty
        est = estimate_window(sketch, (pred(">", -1000.0),))
        assert est.exact and est.count_lo == float(len(self.VALUES))


class TestMergeSoundnessOracle:
    """Randomized mini-oracle: arbitrary partitions and ranges, the
    merged sketch's bounds always contain the exact filtered answers."""

    def test_random_partitions_stay_sound(self, oracle_seed):
        rng = random.Random(4400 + oracle_seed)
        for trial in range(40):
            parts: list[list[float]] = []
            for _ in range(rng.randint(1, 5)):
                lo = rng.uniform(-500.0, 500.0)
                span = rng.uniform(0.0, 400.0)
                parts.append(
                    [rng.uniform(lo, lo + span) for _ in range(rng.randint(0, 60))]
                )
            merged = MetricSketch.merge(
                [MetricSketch.from_values("m", part) for part in parts]
            )
            values = [v for part in parts for v in part]
            assert merged.count == len(values)
            for _ in range(6):
                op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
                if values and rng.random() < 0.4:
                    bound = rng.choice(values)  # hit edges/exact rows often
                else:
                    bound = rng.uniform(-600.0, 600.0)
                check_sound(merged, values, (pred(op, bound),))

    def test_repeated_merges_accumulate_fuzz_not_unsoundness(self, oracle_seed):
        rng = random.Random(8800 + oracle_seed)
        values = [rng.uniform(0, 10) for _ in range(20)]
        sketch = MetricSketch.from_values("m", values)
        values = list(values)
        for round_index in range(5):
            extra = [rng.uniform(round_index * 7.0, round_index * 7.0 + 30.0) for _ in range(15)]
            sketch = MetricSketch.merge([sketch, MetricSketch.from_values("m", extra)])
            values.extend(extra)
            assert sketch.fuzz >= 0.0
            check_sound(sketch, values, (pred(">", 12.5),))
            check_sound(sketch, values, (pred("<=", 20.0), pred(">", 5.0)))


class TestStoreStatsMerge:
    def _stats(self, metric_values: dict[str, list[float]], with_sketches=True):
        metrics = tuple(
            MetricStats(
                metric=name,
                rows=len(values),
                minimum=min(values) if values else 0.0,
                maximum=max(values) if values else 0.0,
            )
            for name, values in metric_values.items()
        )
        sketches = sketches_from_values(metric_values) if with_sketches else ()
        return StoreStats(
            executions=1, start=0.0, end=1.0, foci=("/R",), types=("synthetic",),
            metrics=metrics, sketches=sketches,
        )

    def test_all_null_metric_merges_to_zero_rows(self):
        """A metric present in the schema but never recorded anywhere."""
        merged = StoreStats.merge([self._stats({"m": []}), self._stats({"m": []})])
        entry = merged.metric("m")
        assert entry is not None and entry.rows == 0
        sketch = merged.sketch("m")
        # either no sketch survives or it proves the zero-row answer
        assert sketch is None or sketch.count == 0

    def test_sketch_dropped_when_any_live_part_lacks_one(self):
        with_sketch = self._stats({"m": [1.0, 2.0]})
        without = self._stats({"m": [3.0, 4.0]}, with_sketches=False)
        merged = StoreStats.merge([with_sketch, without])
        assert merged.metric("m").rows == 4
        assert merged.sketch("m") is None  # partial sketch would undercount

    def test_zero_row_sketchless_part_does_not_drop_the_sketch(self):
        live = self._stats({"m": [1.0, 2.0]})
        empty = self._stats({"m": []}, with_sketches=False)
        merged = StoreStats.merge([live, empty])
        sketch = merged.sketch("m")
        assert sketch is not None and sketch.count == 2

    def test_merged_sketch_matches_value_union(self):
        a = self._stats({"m": [1.0, 5.0, 9.0]})
        b = self._stats({"m": [100.0, 104.0]})
        merged = StoreStats.merge([a, b])
        check_sound(merged.sketch("m"), [1.0, 5.0, 9.0, 100.0, 104.0], (pred(">", 4.0),))

    def test_distinct_sketches_or_together(self):
        a = StoreStats(
            1, 0.0, 1.0, (), (), (),
            distincts=(DistinctSketch.from_values("numprocs", ["4", "8"]),),
        )
        b = StoreStats(
            1, 0.0, 1.0, (), (), (),
            distincts=(DistinctSketch.from_values("numprocs", ["8", "16"]),),
        )
        merged = StoreStats.merge([a, b])
        combined = DistinctSketch.from_values("numprocs", ["4", "8", "16"])
        assert merged.distinct("numprocs").bitmap == combined.bitmap
        assert merged.distinct("numprocs").estimate() >= 2.0


class TestWireRoundTrips:
    def test_metric_sketch_roundtrip(self):
        sketch = MetricSketch.from_values("elapsed_us", [1.5, 2.25, 99.0, -3.0])
        packed = sketch.pack()
        kind, _, rest = packed.partition("|")
        assert kind == "sketch"
        assert MetricSketch.unpack(rest) == sketch

    def test_rebinned_sketch_roundtrip_preserves_fuzz(self):
        merged = MetricSketch.merge(
            [
                MetricSketch.from_values("m", [0.0, 10.0, 20.0]),
                MetricSketch.from_values("m", [100.0, 230.0]),
            ]
        )
        assert merged.fuzz > 0.0 and merged.exact_buckets is False
        _, _, rest = merged.pack().partition("|")
        assert MetricSketch.unpack(rest) == merged

    def test_distinct_sketch_roundtrip(self):
        sketch = DistinctSketch.from_values("machine", ["a", "b", "c"])
        _, _, rest = sketch.pack().partition("|")
        assert DistinctSketch.unpack(rest) == sketch

    def test_store_stats_records_carry_sketches(self):
        stats = StoreStats(
            executions=2, start=0.0, end=9.0, foci=("/R",), types=("synthetic",),
            metrics=(MetricStats("m", 3, 1.0, 9.0),),
            sketches=(MetricSketch.from_values("m", [1.0, 4.0, 9.0]),),
            distincts=(DistinctSketch.from_values("numprocs", ["4"]),),
        )
        restored = StoreStats.unpack_records(stats.pack_records())
        assert restored == stats

    def test_bad_sketch_record_raises(self):
        with pytest.raises(ValueError, match="bad MetricSketch"):
            MetricSketch.unpack("m|1|2")
        with pytest.raises(ValueError, match="bad StoreStats record"):
            StoreStats.unpack_records(["sketch|m|not-enough-fields"])
