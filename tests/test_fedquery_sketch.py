"""Metric summaries: exactness of what tier 0 reads off them.

The tier-0 answer path trusts two invariants unconditionally — what
:func:`estimate_window` proves from a summary's four scalars is the
brute-force answer, and ``StoreStats.merge`` only keeps a summary when
every contributing part carried one.  This file pins both, plus the
degenerate shapes: an empty member, an all-null (never-recorded) metric,
a single-row ``min == max`` summary, and predicates whose literal lands
exactly on the summary's range edges.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.semantic import (
    AggregateRecord,
    MetricSketch,
    MetricStats,
    StoreStats,
    sketches_from_values,
)
from repro.fedquery.ast import Predicate
from repro.fedquery.cost import unsatisfiable_over, vacuous_over
from repro.fedquery.sketch import ALL_FUNCS, EMPTY_ESTIMATE, estimate_window
from repro.fedquery.pushdown import matches_value

OPS = ("<", "<=", ">", ">=", "=", "!=")


def pred(op: str, bound: float) -> Predicate:
    return Predicate(field="value", op=op, value=repr(bound))


def check_exact(sketch: MetricSketch, values: list[float], preds) -> None:
    """What the summary proves about *preds* is the brute-force answer,
    and everything its range decides is proven."""
    est = estimate_window(sketch, preds)
    record = est.record
    selected = [v for v in values if matches_value(v, preds)]
    if record.count == 0:
        # "empty": no row matches
        assert not selected
        assert est.answers == ALL_FUNCS
    elif est.answers == ALL_FUNCS:
        # "all rows": the summary is the filtered answer
        assert selected == values
        assert (record.count, record.minimum, record.maximum) == (
            len(selected), min(selected), max(selected),
        )
        # totals sum in merge order: exact up to one rounding per part
        assert record.total == pytest.approx(math.fsum(selected), rel=1e-12, abs=1e-9)
    else:
        # undecided (any number of rows may match): only a matching
        # global extremum is proven, and it is the filtered one
        assert est.answers <= {"min", "max"}
        assert ("min" in est.answers) == matches_value(min(values), preds)
        assert ("max" in est.answers) == matches_value(max(values), preds)
        if "min" in est.answers:
            assert selected and record.minimum == min(selected)
        if "max" in est.answers:
            assert selected and record.maximum == max(selected)
    if values:
        low, high = min(values), max(values)
        if all(vacuous_over(p, low, high) for p in preds):
            assert est.answers == ALL_FUNCS and record.count == len(values)
        if any(unsatisfiable_over(p, low, high) for p in preds):
            assert record.count == 0


def summary(values: list[float]) -> AggregateRecord:
    return AggregateRecord("", len(values), math.fsum(values), min(values), max(values))


class TestDegenerateShapes:
    def test_empty_member_sketch(self):
        sketch = MetricSketch.from_values("m", [])
        assert sketch.count == 0
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
        # the point either fully matches or fully misses — always exact
        hit = estimate_window(sketch, (pred(">=", 42.0),))
        assert hit.answers == ALL_FUNCS and hit.record == summary([42.0])
        miss = estimate_window(sketch, (pred(">", 42.0),))
        assert miss is EMPTY_ESTIMATE

    def test_constant_valued_rows(self):
        values = [5.0] * 7
        sketch = MetricSketch.from_values("m", values)
        for op in OPS:
            check_exact(sketch, values, (pred(op, 5.0),))
        est = estimate_window(sketch, (pred("=", 5.0),))
        assert est.answers == ALL_FUNCS and est.record.count == 7
        assert estimate_window(sketch, (pred("!=", 5.0),)) is EMPTY_ESTIMATE

    def test_point_mass_merges_with_spread(self):
        """A degenerate (min==max) part merges exactly into a wide one."""
        point = [100.0] * 3
        spread = [float(v) for v in range(0, 300, 7)]
        merged = MetricSketch.merge(
            [MetricSketch.from_values("m", point), MetricSketch.from_values("m", spread)]
        )
        for preds in [(pred(">", 99.0), pred("<", 101.0)), (pred(">=", 150.0),)]:
            check_exact(merged, point + spread, preds)


class TestBoundaryClamping:
    """Predicates landing exactly on the summary's range edges."""

    VALUES = [float(v) for v in range(10, 110)]  # min 10, max 109

    def test_fraction_clamped_at_lower_edge(self):
        sketch = MetricSketch.from_values("m", self.VALUES)
        # '>= min' is vacuous: exact full answer
        est = estimate_window(sketch, (pred(">=", 10.0),))
        assert est.answers == ALL_FUNCS and est.record == summary(self.VALUES)

    def test_fraction_clamped_at_upper_edge(self):
        sketch = MetricSketch.from_values("m", self.VALUES)
        est = estimate_window(sketch, (pred("<=", 109.0),))
        assert est.answers == ALL_FUNCS and est.record == summary(self.VALUES)

    def test_strict_bound_at_edge_is_unsatisfiable(self):
        sketch = MetricSketch.from_values("m", self.VALUES)
        assert estimate_window(sketch, (pred("<", 10.0),)) is EMPTY_ESTIMATE
        assert estimate_window(sketch, (pred(">", 109.0),)) is EMPTY_ESTIMATE

    def test_literals_on_and_beside_the_range_edges(self):
        sketch = MetricSketch.from_values("m", self.VALUES)
        for edge in (10.0, 109.0):
            for literal in (edge - 0.5, edge, edge + 0.5):
                for op in OPS:
                    check_exact(sketch, self.VALUES, (pred(op, literal),))
        # only some rows match: the matching extremum alone is proven
        est = estimate_window(sketch, (pred(">", 10.0),))
        assert est.answers == {"max"} and est.record.maximum == 109.0
        est = estimate_window(sketch, (pred("!=", 50.0),))
        assert est.answers == {"min", "max"}

    def test_window_outside_range_clamps_to_zero_or_all(self):
        sketch = MetricSketch.from_values("m", self.VALUES)
        assert estimate_window(sketch, (pred(">", 1000.0),)) is EMPTY_ESTIMATE
        est = estimate_window(sketch, (pred(">", -1000.0),))
        assert est.answers == ALL_FUNCS and est.record.count == len(self.VALUES)


class TestMergeSoundnessOracle:
    """Randomized mini-oracle: arbitrary partitions, merges and
    predicates; what the merged summary proves is always exact."""

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
            edges = [min(values), max(values)] if values else []
            for _ in range(6):
                preds = []
                for _ in range(rng.randint(1, 2)):
                    roll = rng.random()
                    if edges and roll < 0.3:
                        bound = rng.choice(edges)  # literals on the range edges
                    elif values and roll < 0.6:
                        bound = rng.choice(values)  # and on exact rows
                    else:
                        bound = rng.uniform(-600.0, 600.0)
                    preds.append(pred(rng.choice(OPS), bound))
                check_exact(merged, values, tuple(preds))

    def test_repeated_merges_stay_exact(self, oracle_seed):
        rng = random.Random(8800 + oracle_seed)
        values = [rng.uniform(0, 10) for _ in range(20)]
        sketch = MetricSketch.from_values("m", values)
        values = list(values)
        for round_index in range(5):
            extra = [rng.uniform(round_index * 7.0, round_index * 7.0 + 30.0) for _ in range(15)]
            sketch = MetricSketch.merge([sketch, MetricSketch.from_values("m", extra)])
            values.extend(extra)
            assert (sketch.count, sketch.minimum, sketch.maximum) == (
                len(values), min(values), max(values),
            )
            check_exact(sketch, values, (pred(">", 12.5),))
            check_exact(sketch, values, (pred("<=", 20.0), pred(">", 5.0)))
            check_exact(sketch, values, (pred(">=", min(values)), pred("<=", max(values))))


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
        values = [1.0, 5.0, 9.0, 100.0, 104.0]
        assert merged.sketch("m").record() == summary(values)
        for op in OPS:
            check_exact(merged.sketch("m"), values, (pred(op, 4.0),))


class TestWireRoundTrips:
    def test_metric_sketch_roundtrip(self):
        sketch = MetricSketch.from_values("elapsed_us", [1.5, 2.25, 99.0, -3.0])
        packed = sketch.pack()
        kind, _, rest = packed.partition("|")
        assert kind == "sketch"
        assert MetricSketch.unpack(rest) == sketch

    def test_merged_sketch_roundtrip(self):
        merged = MetricSketch.merge(
            [
                MetricSketch.from_values("m", [0.0, 10.0, 20.0]),
                MetricSketch.from_values("m", [100.0, 230.0]),
            ]
        )
        assert merged.pack() == "sketch|m|5|360.0|0.0|230.0"
        _, _, rest = merged.pack().partition("|")
        assert MetricSketch.unpack(rest) == merged

    def test_store_stats_records_carry_sketches(self):
        stats = StoreStats(
            executions=2, start=0.0, end=9.0, foci=("/R",), types=("synthetic",),
            metrics=(MetricStats("m", 3, 1.0, 9.0),),
            sketches=(MetricSketch.from_values("m", [1.0, 4.0, 9.0]),),
        )
        restored = StoreStats.unpack_records(stats.pack_records())
        assert restored == stats

    def test_bad_sketch_record_raises(self):
        with pytest.raises(ValueError, match="bad MetricSketch"):
            MetricSketch.unpack("m|1|2")
        with pytest.raises(ValueError, match="bad MetricSketch"):
            # the nine-field record with buckets is not read
            MetricSketch.unpack("m|2|3.0|1.0|2.0|0.0|1|1.0,1.0|1.0,2.0")
        with pytest.raises(ValueError, match="bad StoreStats record"):
            StoreStats.unpack_records(["sketch|m|not-enough-fields"])
        with pytest.raises(ValueError, match="unknown stats record kind 'distinct'"):
            # the distinct-count sketch record is no longer part of the wire form
            StoreStats.unpack_records(["distinct|numprocs|256|ff"])
