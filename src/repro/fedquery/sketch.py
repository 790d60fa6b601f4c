"""Mergeable sketches and the tier-0 answer machinery.

Two sketch kinds ride the existing ``getStats`` wire path (packed as
extra ``StoreStats`` records, merged member-side exactly like
:meth:`repro.core.semantic.StoreStats.merge`):

* :class:`MetricSketch` — per metric: the exact matching-row ``count``,
  value ``total``, observed ``minimum``/``maximum``, plus a fixed-bucket
  histogram of the value distribution.  A wrapper may only emit one when
  it was built from a *complete scan* of the metric's rows over all foci
  and the full time window (the same row set ``getPR`` with no
  constraints returns) — that exactness contract is what lets the
  planner answer whole sub-queries from the sketch alone.
* :class:`DistinctSketch` — per group key: a linear-counting bitmap
  whose merge is a bitwise OR, estimating the number of distinct values
  across the federation (duplicates across members collapse, which a
  per-member count could never do).

Histogram merges must stay *sound* after rebinning: when two sketches
with different value ranges merge, a source bucket's mass is spread
proportionally over the target buckets it overlaps.  Every target
bucket that receives mass from a source bucket ``[l, h]`` overlaps it,
so ``[l, h]`` lies within the target bucket widened by one source bucket
width — the ``fuzz`` field records the accumulated widening, and
:func:`estimate_window` classifies buckets against predicates over their
*widened* ranges.  Mass in a bucket whose widened range provably
satisfies (or provably violates) every predicate is exactly countable;
that yields sound interval bounds on the filtered count and sum, and
tier 0 answers a member only when those bounds (or a proven extremum)
pin every selected aggregate to one exact value (tier0-stats).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

from repro.fedquery.ast import Predicate
from repro.fedquery.cost import unsatisfiable_over, vacuous_over
from repro.fedquery.pushdown import WINDOW_END, WINDOW_START, matches_value

#: histogram resolution: fixed so aligned merges stay exact bucket-wise
HIST_BUCKETS = 32

#: linear-counting bitmap width (bits) for distinct-count sketches
DISTINCT_BITS = 256

#: the tier label explainPlan shows for a member answered from metadata
TIER0_STATS = "tier0-stats"


@dataclass(frozen=True)
class MetricSketch:
    """Mergeable value-distribution sketch for one metric.

    ``count``/``total``/``minimum``/``maximum`` are exact over the
    metric's full row set (the builder contract).  ``counts``/``totals``
    attribute that mass to ``len(counts)`` equal-width buckets over
    ``[minimum, maximum]``; after a rebinning merge the attribution is
    approximate but every unit of mass in bucket *i* belongs to a row
    whose value lies within the bucket range widened by ``fuzz`` (and
    clipped to the exact global range).  ``exact_buckets`` is True while
    per-bucket counts and totals are still exact (fresh sketches, and
    merges of identically-binned exact sketches).
    """

    metric: str
    count: int
    total: float
    minimum: float
    maximum: float
    counts: tuple[float, ...]
    totals: tuple[float, ...]
    fuzz: float = 0.0
    exact_buckets: bool = True

    # ------------------------------------------------------------ geometry
    def bucket_width(self) -> float:
        if not self.counts or self.maximum <= self.minimum:
            return 0.0
        return (self.maximum - self.minimum) / len(self.counts)

    def bucket_bounds(self, index: int) -> tuple[float, float]:
        width = self.bucket_width()
        if width == 0.0:
            return (self.minimum, self.maximum)
        low = self.minimum + index * width
        if index == len(self.counts) - 1:
            return (low, self.maximum)  # absorb float drift at the top edge
        return (low, low + width)

    def buckets(self) -> list[tuple[float, float, float, float]]:
        """(mass, total, low, high) per bucket; degenerate sketches fold
        into one bucket spanning the whole exact range."""
        if not self.counts:
            if self.count <= 0:
                return []
            return [(float(self.count), self.total, self.minimum, self.maximum)]
        out = []
        for index, (mass, tot) in enumerate(zip(self.counts, self.totals)):
            low, high = self.bucket_bounds(index)
            out.append((mass, tot, low, high))
        return out

    # ------------------------------------------------------------ builders
    @classmethod
    def from_values(
        cls, metric: str, values: list[float], buckets: int = HIST_BUCKETS
    ) -> "MetricSketch":
        """Exact sketch from a complete scan of the metric's values."""
        if not values:
            return cls(metric, 0, 0.0, 0.0, 0.0, (), ())
        minimum = min(values)
        maximum = max(values)
        total = math.fsum(values)
        if maximum <= minimum:
            return cls(
                metric, len(values), total, minimum, maximum,
                (float(len(values)),), (total,),
            )
        width = (maximum - minimum) / buckets
        counts = [0.0] * buckets
        totals = [0.0] * buckets
        for value in values:
            index = min(buckets - 1, int((value - minimum) / width))
            counts[index] += 1.0
            totals[index] += value
        return cls(
            metric, len(values), total, minimum, maximum,
            tuple(counts), tuple(totals),
        )

    @classmethod
    def merge(cls, parts: list["MetricSketch"]) -> "MetricSketch":
        """Combine sketches of disjoint row sets into one.

        Identically-binned parts add bucket-wise and stay as exact as
        their inputs; differently-binned parts rebin proportionally into
        ``HIST_BUCKETS`` buckets over the union range, widening ``fuzz``
        by each part's source bucket width so bucket classification in
        :func:`estimate_window` stays sound.
        """
        name = parts[0].metric if parts else ""
        live = [part for part in parts if part.count > 0]
        if not live:
            return cls(name, 0, 0.0, 0.0, 0.0, (), ())
        if len(live) == 1:
            return live[0]
        count = sum(part.count for part in live)
        total = math.fsum(part.total for part in live)
        minimum = min(part.minimum for part in live)
        maximum = max(part.maximum for part in live)
        first = live[0]
        if all(
            part.minimum == first.minimum
            and part.maximum == first.maximum
            and len(part.counts) == len(first.counts)
            for part in live
        ):
            counts = [0.0] * len(first.counts)
            totals = [0.0] * len(first.counts)
            for part in live:
                for index, (mass, tot) in enumerate(zip(part.counts, part.totals)):
                    counts[index] += mass
                    totals[index] += tot
            return cls(
                name, count, total, minimum, maximum,
                tuple(counts), tuple(totals),
                fuzz=max(part.fuzz for part in live),
                exact_buckets=all(part.exact_buckets for part in live),
            )
        if maximum <= minimum:
            return cls(
                name, count, total, minimum, maximum,
                (float(count),), (total,),
                fuzz=max(part.fuzz for part in live),
            )
        width = (maximum - minimum) / HIST_BUCKETS
        counts = [0.0] * HIST_BUCKETS
        totals = [0.0] * HIST_BUCKETS
        fuzz = 0.0
        for part in live:
            fuzz = max(fuzz, part.fuzz + part.bucket_width())
            for mass, tot, low, high in part.buckets():
                if mass <= 0.0 and tot == 0.0:
                    continue
                if high <= low:  # point mass lands in one target bucket
                    index = min(HIST_BUCKETS - 1, int((low - minimum) / width))
                    counts[index] += mass
                    totals[index] += tot
                    continue
                start = max(0, min(HIST_BUCKETS - 1, int((low - minimum) / width)))
                stop = max(0, min(HIST_BUCKETS - 1, int((high - minimum) / width)))
                for index in range(start, stop + 1):
                    b_low = minimum + index * width
                    overlap = min(high, b_low + width) - max(low, b_low)
                    if overlap <= 0.0:
                        continue
                    share = overlap / (high - low)
                    counts[index] += mass * share
                    totals[index] += tot * share
        return cls(
            name, count, total, minimum, maximum,
            tuple(counts), tuple(totals),
            fuzz=fuzz, exact_buckets=False,
        )

    # ---------------------------------------------------------------- wire
    def pack(self) -> str:
        """Wire form: ``sketch|metric|count|total|min|max|fuzz|exact|counts|totals``
        (bucket lists comma-separated — ``|`` delimits fields)."""
        return (
            f"sketch|{self.metric}|{self.count}|{self.total!r}|"
            f"{self.minimum!r}|{self.maximum!r}|{self.fuzz!r}|"
            f"{1 if self.exact_buckets else 0}|"
            + ",".join(repr(value) for value in self.counts)
            + "|"
            + ",".join(repr(value) for value in self.totals)
        )

    @staticmethod
    def unpack(rest: str) -> "MetricSketch":
        parts = rest.split("|")
        if len(parts) != 9:
            raise ValueError(f"bad MetricSketch record {rest!r}")
        metric, count, total, minimum, maximum, fuzz, exact, counts, totals = parts
        return MetricSketch(
            metric=metric,
            count=int(count),
            total=float(total),
            minimum=float(minimum),
            maximum=float(maximum),
            counts=tuple(float(v) for v in counts.split(",") if v),
            totals=tuple(float(v) for v in totals.split(",") if v),
            fuzz=float(fuzz),
            exact_buckets=exact.strip() not in ("0", ""),
        )


@dataclass(frozen=True)
class DistinctSketch:
    """Linear-counting distinct-value sketch for one group key.

    ``bitmap`` holds ``bits`` hash buckets; merge is bitwise OR, so the
    federation-wide estimate counts each distinct value once no matter
    how many members publish it.  Estimates only — never a proof.
    """

    key: str
    bits: int = DISTINCT_BITS
    bitmap: int = 0

    @classmethod
    def from_values(cls, key: str, values: list[str], bits: int = DISTINCT_BITS) -> "DistinctSketch":
        bitmap = 0
        for value in values:
            bitmap |= 1 << (zlib.crc32(str(value).encode("utf-8")) % bits)
        return cls(key=key, bits=bits, bitmap=bitmap)

    @classmethod
    def merge(cls, parts: list["DistinctSketch"]) -> "DistinctSketch":
        if not parts:
            return cls(key="")
        bits = max(part.bits for part in parts)
        bitmap = 0
        for part in parts:
            if part.bits == bits:
                bitmap |= part.bitmap
        return cls(key=parts[0].key, bits=bits, bitmap=bitmap)

    def estimate(self) -> float:
        """Linear-counting estimate of the distinct-value count."""
        zeros = self.bits - bin(self.bitmap).count("1")
        if zeros <= 0:
            return float(self.bits)
        return self.bits * math.log(self.bits / zeros)

    def pack(self) -> str:
        """Wire form: ``distinct|key|bits|bitmap-hex``."""
        return f"distinct|{self.key}|{self.bits}|{self.bitmap:x}"

    @staticmethod
    def unpack(rest: str) -> "DistinctSketch":
        parts = rest.split("|")
        if len(parts) != 3:
            raise ValueError(f"bad DistinctSketch record {rest!r}")
        key, bits, bitmap = parts
        return DistinctSketch(key=key, bits=int(bits), bitmap=int(bitmap, 16))


# --------------------------------------------------------------- estimation


@dataclass(frozen=True)
class WindowEstimate:
    """Sound bounds for one metric under the query's value predicates,
    derived purely from its sketch.

    The invariants tier 0 relies on to prove an answer exact:

    * the true matching-row count lies in ``[count_lo, count_hi]``;
    * the true matching-value sum lies in ``[sum_lo, sum_hi]``;
    * every matching value lies in ``[value_lo, value_hi]``;
    * ``min_exact``/``max_exact`` are the *exact* filtered extrema when
      provable (the global extremum itself satisfies the predicates),
      ``None`` otherwise;
    * zero-width count and sum bounds are exact answers.
    """

    count_lo: float
    count_hi: float
    sum_lo: float
    sum_hi: float
    min_exact: float | None
    max_exact: float | None
    value_lo: float
    value_hi: float

    @property
    def empty(self) -> bool:
        return self.count_hi <= 0.0

    @property
    def exact(self) -> bool:
        return self.count_lo == self.count_hi and self.sum_lo == self.sum_hi


EMPTY_ESTIMATE = WindowEstimate(0.0, 0.0, 0.0, 0.0, None, None, 0.0, 0.0)


def _allowed_hull(preds: tuple[Predicate, ...]) -> tuple[float, float]:
    """Interval hull of values any satisfying row may take (``!=`` and
    the hull's open/closed distinction are conservatively ignored)."""
    low, high = -math.inf, math.inf
    for pred in preds:
        bound = float(str(pred.value))
        if pred.op == "=":
            low, high = max(low, bound), min(high, bound)
        elif pred.op in ("<", "<="):
            high = min(high, bound)
        elif pred.op in (">", ">="):
            low = max(low, bound)
    return low, high


def _exact_estimate(sketch: MetricSketch, preds: tuple[Predicate, ...]) -> WindowEstimate:
    """Every row matches: the sketch scalars are the exact answer."""
    count = float(sketch.count)
    return WindowEstimate(
        count_lo=count, count_hi=count,
        sum_lo=sketch.total, sum_hi=sketch.total,
        min_exact=sketch.minimum, max_exact=sketch.maximum,
        value_lo=sketch.minimum, value_hi=sketch.maximum,
    )


def estimate_window(
    sketch: MetricSketch, preds: tuple[Predicate, ...]
) -> WindowEstimate:
    """Sound count/sum bounds for the rows matching *preds*.

    Each bucket's range is widened by the sketch ``fuzz`` (clipped to
    the exact global range) and classified: *inside* when every widened
    value satisfies all predicates, *outside* when some predicate is
    unsatisfiable over it, *partial* otherwise.  Inside mass bounds the
    count from below, ``count - outside mass`` from above; sum bounds
    combine the direct per-bucket envelopes with the complement route
    ``exact total - excluded`` — whichever is tighter — so full coverage
    degenerates to the exact answer regardless of merge history.
    """
    if sketch.count <= 0:
        return EMPTY_ESTIMATE
    if not preds:
        return _exact_estimate(sketch, preds)
    gmin, gmax = sketch.minimum, sketch.maximum
    if any(unsatisfiable_over(pred, gmin, gmax) for pred in preds):
        return EMPTY_ESTIMATE
    buckets = sketch.buckets()
    fuzz = sketch.fuzz
    trust_totals = sketch.exact_buckets
    hull_lo, hull_hi = _allowed_hull(preds)
    value_lo = max(gmin, hull_lo)
    value_hi = min(gmax, hull_hi)

    count_in = 0.0
    count_out = 0.0
    direct_lo = direct_hi = 0.0  # sum over selected rows, direct route
    excl_lo = excl_hi = 0.0  # sum over excluded rows, complement route
    all_inside = True
    for mass, tot, low, high in buckets:
        if mass <= 0.0:
            continue
        w_low = max(gmin, low - fuzz)
        w_high = min(gmax, high + fuzz)
        if all(vacuous_over(pred, w_low, w_high) for pred in preds):
            count_in += mass
            if trust_totals:
                direct_lo += tot
                direct_hi += tot
            else:
                direct_lo += mass * w_low
                direct_hi += mass * w_high
            continue
        all_inside = False
        if any(unsatisfiable_over(pred, w_low, w_high) for pred in preds):
            count_out += mass
            if trust_totals:
                excl_lo += tot
                excl_hi += tot
            else:
                excl_lo += mass * w_low
                excl_hi += mass * w_high
            continue
        # partial bucket: between 0 and all of its mass is selected
        env_lo = max(w_low, hull_lo)
        env_hi = min(w_high, hull_hi)
        direct_lo += min(0.0, mass * env_lo)
        direct_hi += max(0.0, mass * env_hi)
        excl_lo += min(0.0, mass * w_low)
        excl_hi += max(0.0, mass * w_high)
    if all_inside:
        # full coverage: exact regardless of any float drift in the
        # (possibly rebinned) per-bucket masses
        return _exact_estimate(sketch, preds)
    count_lo = count_in
    count_hi = float(sketch.count) - count_out
    min_exact = sketch.minimum if matches_value(sketch.minimum, preds) else None
    max_exact = sketch.maximum if matches_value(sketch.maximum, preds) else None
    if min_exact is not None or max_exact is not None:
        # the surviving extremum is itself a matching row
        count_lo = max(count_lo, 1.0)
    count_lo = max(0.0, min(count_lo, count_hi))
    sum_lo = max(direct_lo, sketch.total - excl_hi)
    sum_hi = min(direct_hi, sketch.total - excl_lo)
    if sum_lo > sum_hi:  # float-drift guard; the routes agree in theory
        sum_lo, sum_hi = min(direct_lo, sum_lo), max(direct_hi, sum_hi)
    # partial-coverage sum bounds come from bucket totals summed in scan
    # order; the exact pipeline sums the same rows in merge order, so the
    # true value can sit one ulp outside — pad by a relative epsilon
    # (counts are integer sums, exact in floats, and need no pad)
    pad = 1e-9 * max(1.0, abs(sum_lo), abs(sum_hi))
    sum_lo -= pad
    sum_hi += pad
    return WindowEstimate(
        count_lo=count_lo, count_hi=count_hi,
        sum_lo=sum_lo, sum_hi=sum_hi,
        min_exact=min_exact, max_exact=max_exact,
        value_lo=value_lo, value_hi=value_hi,
    )


# ------------------------------------------------------------ tier-0 answers


def tier0_query_eligible(query, split, window, allowlist) -> bool:
    """Can this query *shape* be answered from member metadata alone?

    Sketches summarize a metric's full row set per member, so the query
    must not slice below the member level: aggregate-only select, group
    keys at most ``app``, no execution/attribute/focus/type predicates,
    and the full time window (stats are never window proofs).
    """
    return (
        query.is_aggregate
        and set(query.group_by) <= {"app"}
        and not split.exec_ids
        and not split.attrs
        and allowlist is None
        and split.type is None
        and window == (WINDOW_START, WINDOW_END)
    )


def _item_answerable(func: str, est: WindowEstimate) -> bool:
    """Do the member's bounds pin this aggregate to one exact value?"""
    if est.empty:
        return True  # contributes nothing; the group simply won't emit
    if func == "count":
        return est.count_lo == est.count_hi
    if func == "sum":
        return est.sum_lo == est.sum_hi
    if func == "mean":
        return est.exact
    if func == "min":
        return est.min_exact is not None
    if func == "max":
        return est.max_exact is not None
    return False


def tier0_member_answer(
    query, value_preds: tuple[Predicate, ...], stats
) -> tuple[tuple[str, WindowEstimate], ...] | None:
    """One member's tier-0 answer: its per-metric partials.

    ``None`` means the stats do not prove the answer exactly (missing
    or incomplete stats, a metric without a sketch, or an aggregate the
    bounds leave inexact) — the executor then falls back to
    push-down/raw for this member only.  Metrics the stats prove empty
    (absent, or an exact zero row count) contribute
    :data:`EMPTY_ESTIMATE` — the exact zero-row answer.
    """
    if stats is None or not stats.complete:
        return None
    partials: list[tuple[str, WindowEstimate]] = []
    for metric in query.metrics:
        metric_stats = stats.metric(metric)
        if metric_stats is None or metric_stats.rows == 0:
            partials.append((metric, EMPTY_ESTIMATE))
            continue
        sketch = stats.sketch(metric)
        if sketch is None:
            return None
        est = estimate_window(sketch, value_preds)
        if not all(
            _item_answerable(item.func, est)
            for item in query.aggregates
            if item.metric == metric
        ):
            return None
        partials.append((metric, est))
    return tuple(partials)


# ------------------------------------------------------------ build helpers


def sketches_from_values(values: dict[str, list[float]]) -> tuple[MetricSketch, ...]:
    """One exact sketch per metric from complete per-metric value scans."""
    return tuple(
        MetricSketch.from_values(metric, metric_values)
        for metric, metric_values in sorted(values.items())
    )


def distincts_from_values(values: dict[str, list[str]]) -> tuple[DistinctSketch, ...]:
    """One distinct-count sketch per group key."""
    return tuple(
        DistinctSketch.from_values(key, key_values)
        for key, key_values in sorted(values.items())
    )
