"""Every store's statistics against its own rows.

``getStats`` feeds the planner's proofs (``rows == 0``, value ranges)
and tier 0's answers (sketches), so each scan-backed store's
``MetricStats`` rows and sketches must equal a brute-force scan of
``get_pr`` over all foci and the full window: per execution, and merged
over the application.  SMG98 derives its values and publishes ranges
from SQL aggregates, so its statistics must be sound, not exact.
"""

from __future__ import annotations

import random

import pytest

from repro.core.semantic import UNDEFINED_TYPE, MetricSketch, PerformanceResult
from repro.datastores import XmlStore
from repro.datastores.perfdmf import profile_from_trace
from repro.mapping import (
    HplRdbmsWrapper,
    HplXmlWrapper,
    PerfDmfWrapper,
    PrestaRdbmsWrapper,
    PrestaTextWrapper,
    Smg98RdbmsWrapper,
)
from repro.mapping.memory import InMemoryExecution, InMemoryWrapper

SCANNED = ("memory", "hpl_rdbms", "hpl_xml", "presta_rdbms", "presta_text", "perfdmf")


def memory_store(seed: int) -> InMemoryWrapper:
    """Executions with uneven metrics, repeated values and mixed foci."""
    rng = random.Random(seed)
    executions = []
    for index in range(5):
        results = []
        for _ in range(rng.randint(1, 30)):
            start = rng.uniform(0.0, 10.0)
            results.append(
                PerformanceResult(
                    rng.choice(["wall", "calls", "bytes"]),
                    rng.choice(["/A", "/B", "/C/d"]),
                    rng.choice(["t1", "t2"]),
                    start,
                    start + rng.uniform(0.0, 5.0),
                    rng.choice([rng.uniform(-5.0, 50.0), float(rng.randint(0, 3))]),
                )
            )
        executions.append(
            InMemoryExecution(f"e{index}", {"np": str(rng.choice([1, 2, 4]))}, results)
        )
    return InMemoryWrapper("MEM", executions)


@pytest.fixture(scope="module")
def apps(hpl_dataset, presta_dataset, presta_store, smg98_dataset):
    return {
        "memory": memory_store(5),
        "hpl_rdbms": HplRdbmsWrapper(hpl_dataset.to_database()),
        "hpl_xml": HplXmlWrapper(XmlStore(hpl_dataset.to_xml())),
        "presta_rdbms": PrestaRdbmsWrapper(presta_dataset.to_database()),
        "presta_text": PrestaTextWrapper(presta_store),
        "perfdmf": PerfDmfWrapper(profile_from_trace(smg98_dataset).to_database()),
        "smg98": Smg98RdbmsWrapper(smg98_dataset.to_database()),
    }


def executions(app):
    return [app.execution(exec_id) for exec_id in app.get_all_exec_ids()]


def scan(execution) -> dict[str, list[float]]:
    """Every value ``get_pr`` returns per metric: all foci, full window."""
    foci = execution.get_foci()
    return {
        metric: [
            result.value
            for result in execution.get_pr(metric, foci, 0.0, 1e30, UNDEFINED_TYPE)
        ]
        for metric in execution.get_metrics()
    }


def app_scan(app) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for execution in executions(app):
        for metric, metric_values in scan(execution).items():
            values.setdefault(metric, []).extend(metric_values)
    return values


def assert_exact(stats, values: dict[str, list[float]]) -> None:
    assert sorted(row.metric for row in stats.metrics) == sorted(values)
    for metric, metric_values in values.items():
        assert metric_values, f"{metric}: an empty scan proves nothing here"
        expected = (len(metric_values), min(metric_values), max(metric_values))
        row = stats.metric(metric)
        sketch = stats.sketch(metric)
        assert (row.rows, row.minimum, row.maximum) == expected, metric
        assert (sketch.count, sketch.minimum, sketch.maximum) == expected, metric


@pytest.mark.parametrize("store", SCANNED)
def test_execution_stats_are_the_scan(apps, store):
    for execution in executions(apps[store]):
        values = scan(execution)
        stats = execution.get_stats()
        assert_exact(stats, values)
        for metric, metric_values in values.items():
            # fsum is order-independent: the store's scan order and
            # get_pr's give the same summary
            assert stats.sketch(metric) == MetricSketch.from_values(metric, metric_values), metric


@pytest.mark.parametrize("store", SCANNED)
def test_application_stats_are_the_scan(apps, store):
    app = apps[store]
    stats = app.get_stats()
    assert stats.executions == len(app.get_all_exec_ids())
    assert_exact(stats, app_scan(app))


def assert_sound(stats, values: dict[str, list[float]]) -> None:
    assert sorted(row.metric for row in stats.metrics) == sorted(values)
    for metric, metric_values in values.items():
        row = stats.metric(metric)
        assert (row.rows == 0) == (not metric_values), metric
        assert all(row.minimum <= value <= row.maximum for value in metric_values), metric
    assert stats.sketches == ()


def test_smg98_stats_are_sound(apps):
    app = apps["smg98"]
    for execution in executions(app):
        assert_sound(execution.get_stats(), scan(execution))
    assert_sound(app.get_stats(), app_scan(app))
