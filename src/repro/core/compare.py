"""Multi-execution comparison analysis (the PPerfDB integration, §7).

The thesis's parent project, PPerfDB, does "multi-execution performance
tuning": quantifying how performance changes across runs as code,
process counts, or platforms change.  PPerfGrid's role is to feed it
uniform data from heterogeneous stores.  This module provides that
analysis layer over any set of Execution bindings (remote, local-bypass,
or mixed):

* :func:`collect_metric` — gather one metric across executions into an
  aligned table keyed by focus;
* :func:`compare_executions` — per-focus deltas/ratios between two runs;
* :func:`scaling_study` — how a metric scales with an attribute (e.g.
  gflops vs numprocs), with parallel efficiency;
* :func:`aggregate_by_focus` — roll raw trace PRs (one per interval) up
  to per-focus totals so trace stores compare against profile stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.tables import format_table
from repro.core.semantic import UNDEFINED_TYPE, PerformanceResult


@dataclass
class MetricTable:
    """One metric across N executions: execution label -> focus -> value."""

    metric: str
    #: per execution label: focus -> aggregated value
    by_execution: dict[str, dict[str, float]] = field(default_factory=dict)

    def labels(self) -> list[str]:
        return list(self.by_execution)

    def foci(self) -> list[str]:
        out: set[str] = set()
        for per_focus in self.by_execution.values():
            out.update(per_focus)
        return sorted(out)

    def value(self, label: str, focus: str) -> float | None:
        return self.by_execution.get(label, {}).get(focus)

    def column(self, focus: str) -> dict[str, float]:
        """focus -> {label: value} slice."""
        return {
            label: per_focus[focus]
            for label, per_focus in self.by_execution.items()
            if focus in per_focus
        }


def aggregate_by_focus(results: list[PerformanceResult]) -> dict[str, float]:
    """Sum PR values per focus.

    Trace-granularity stores (SMG98) return one PR per interval; profile
    stores (HPL) return one per focus.  Summing makes both comparable —
    ``time_spent`` intervals sum to total time, ``func_calls`` per-rank
    counts sum to totals, scalars pass through.
    """
    totals: dict[str, float] = {}
    for result in results:
        # Collapse trace sub-foci (e.g. ".../rank/3") onto their parent
        # only when the focus ends in a numeric leaf under a known split.
        focus = result.focus
        totals[focus] = totals.get(focus, 0.0) + result.value
    return totals


def collect_metric(
    executions: list,
    metric: str,
    foci: list[str],
    result_type: str = UNDEFINED_TYPE,
    label_attribute: str | None = None,
) -> MetricTable:
    """Query *metric* over *foci* on every execution and align by focus.

    ``label_attribute``: an execution-info attribute to label rows with
    (e.g. ``"numprocs"``); defaults to the execution GSH.  Duplicate
    labels get a ``#n`` suffix so repeated runs stay distinguishable.
    """
    table = MetricTable(metric=metric)
    seen_labels: dict[str, int] = {}
    for execution in executions:
        if label_attribute is not None:
            label = execution.info().get(label_attribute, execution.gsh)
        else:
            label = execution.gsh
        count = seen_labels.get(label, 0)
        seen_labels[label] = count + 1
        if count:
            label = f"{label}#{count + 1}"
        results = execution.get_pr(metric, foci, result_type=result_type)
        table.by_execution[label] = aggregate_by_focus(results)
    return table


@dataclass
class FocusComparison:
    """One focus compared between a baseline and a candidate run."""

    focus: str
    baseline: float | None
    candidate: float | None

    @property
    def delta(self) -> float | None:
        if self.baseline is None or self.candidate is None:
            return None
        return self.candidate - self.baseline

    @property
    def ratio(self) -> float | None:
        if self.baseline in (None, 0.0) or self.candidate is None:
            return None
        return self.candidate / self.baseline  # type: ignore[operator]


@dataclass
class ExecutionComparison:
    """Per-focus comparison of two executions on one metric."""

    metric: str
    rows: list[FocusComparison]

    def regressions(self, threshold: float = 1.05) -> list[FocusComparison]:
        """Foci where the candidate is at least *threshold*x the baseline.

        For time-like metrics bigger is worse, so these are regressions;
        callers comparing rate-like metrics should use :meth:`improvements`.
        """
        return [r for r in self.rows if r.ratio is not None and r.ratio >= threshold]

    def improvements(self, threshold: float = 0.95) -> list[FocusComparison]:
        return [r for r in self.rows if r.ratio is not None and r.ratio <= threshold]

    def only_in_baseline(self) -> list[str]:
        return [r.focus for r in self.rows if r.candidate is None and r.baseline is not None]

    def only_in_candidate(self) -> list[str]:
        return [r.focus for r in self.rows if r.baseline is None and r.candidate is not None]

    def to_table(self) -> str:
        rows = []
        for r in sorted(
            self.rows, key=lambda r: -(r.ratio if r.ratio is not None else 0.0)
        ):
            rows.append(
                [
                    r.focus,
                    "-" if r.baseline is None else f"{r.baseline:.6g}",
                    "-" if r.candidate is None else f"{r.candidate:.6g}",
                    "-" if r.ratio is None else f"{r.ratio:.3f}x",
                ]
            )
        return format_table(
            ["Focus", "Baseline", "Candidate", "Ratio"],
            rows,
            title=f"Execution comparison: {self.metric}",
        )


def compare_executions(
    baseline,
    candidate,
    metric: str,
    foci: list[str],
    result_type: str = UNDEFINED_TYPE,
) -> ExecutionComparison:
    """Compare one metric between two executions, focus by focus.

    The two executions may live in different stores with different
    formats — PPerfGrid's uniform view is what makes this one call.
    """
    base = aggregate_by_focus(baseline.get_pr(metric, foci, result_type=result_type))
    cand = aggregate_by_focus(candidate.get_pr(metric, foci, result_type=result_type))
    rows = [
        FocusComparison(focus, base.get(focus), cand.get(focus))
        for focus in sorted(set(base) | set(cand))
    ]
    return ExecutionComparison(metric=metric, rows=rows)


@dataclass
class ScalingPoint:
    attribute_value: float
    metric_value: float
    speedup: float
    efficiency: float


@dataclass
class ScalingStudy:
    metric: str
    attribute: str
    points: list[ScalingPoint]

    def to_table(self) -> str:
        rows = [
            [p.attribute_value, p.metric_value, f"{p.speedup:.2f}", f"{p.efficiency:.1%}"]
            for p in self.points
        ]
        return format_table(
            [self.attribute, self.metric, "Speedup", "Efficiency"],
            rows,
            title=f"Scaling study: {self.metric} vs {self.attribute}",
        )


def scaling_study(
    executions: list,
    metric: str,
    foci: list[str],
    attribute: str,
    higher_is_better: bool = True,
    result_type: str = UNDEFINED_TYPE,
) -> ScalingStudy:
    """How *metric* scales with a numeric execution attribute.

    Multiple executions at the same attribute value are averaged.
    Speedup is relative to the smallest attribute value; efficiency is
    speedup / (attribute ratio) — the standard parallel-efficiency
    definition when the attribute is a process count.
    """
    buckets: dict[float, list[float]] = {}
    for execution in executions:
        info = execution.info()
        if attribute not in info:
            raise KeyError(f"execution {execution.gsh} has no attribute {attribute!r}")
        attr_value = float(info[attribute])
        totals = aggregate_by_focus(execution.get_pr(metric, foci, result_type=result_type))
        if not totals:
            continue
        buckets.setdefault(attr_value, []).append(sum(totals.values()))
    if not buckets:
        raise ValueError(f"no data for metric {metric!r} over {foci}")
    points: list[ScalingPoint] = []
    base_attr = min(buckets)
    base_value = sum(buckets[base_attr]) / len(buckets[base_attr])
    for attr_value in sorted(buckets):
        value = sum(buckets[attr_value]) / len(buckets[attr_value])
        if higher_is_better:
            speedup = value / base_value if base_value else 0.0
        else:
            speedup = base_value / value if value else 0.0
        ratio = attr_value / base_attr if base_attr else 1.0
        points.append(
            ScalingPoint(
                attribute_value=attr_value,
                metric_value=value,
                speedup=speedup,
                efficiency=speedup / ratio if ratio else 0.0,
            )
        )
    return ScalingStudy(metric=metric, attribute=attribute, points=points)
