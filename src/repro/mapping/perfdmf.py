"""Mapping-Layer wrapper exposing a PerfDMF profile database (§2.4).

Profiles are pre-aggregated, so ``get_pr`` for a ``/Code`` focus returns
exactly one PR per focus (the trial-wide total) rather than SMG98's
per-interval stream — demonstrating that stores of very different
granularity fit the same Execution interface.

Metric mapping: PPerfGrid ``time_spent`` -> PerfDMF TIME
(exclusive_value), ``func_calls`` -> CALLS (num_calls).
"""

from __future__ import annotations

from repro.core.semantic import (
    UNDEFINED_TYPE,
    PerformanceResult,
    StoreStats,
)
from repro.mapping.base import ApplicationWrapper, ExecutionWrapper, MappingError
from repro.mapping.rdbms import _SQL_OPS, _sql_value
from repro.minidb import Connection, Database, connect


class PerfDmfWrapper(ApplicationWrapper):
    """One PerfDMF APPLICATION exposed as a PPerfGrid Application."""

    result_type = "perfdmf"
    NUMERIC_ATTRS = frozenset({"node_count", "contexts_per_node", "threads_per_context"})
    ATTRIBUTES = ("date", "node_count", "contexts_per_node", "threads_per_context")
    METRICS = ("time_spent", "func_calls")
    _METRIC_COLUMNS = {"time_spent": "exclusive_value", "func_calls": "num_calls"}

    def __init__(self, database: Database, app_id: int = 1) -> None:
        self.conn: Connection = connect(database)
        self.app_id = app_id
        row = self.conn.execute(
            "SELECT name, version FROM application WHERE app_id = ?", [app_id]
        ).fetchone()
        if row is None:
            raise MappingError(f"no PerfDMF application {app_id}")
        self.app_name, self.app_version = row

    def get_app_info(self) -> list[tuple[str, str]]:
        count = self.conn.execute(
            "SELECT COUNT(*) FROM trial t JOIN experiment e ON t.exp_id = e.exp_id "
            "WHERE e.app_id = ?",
            [self.app_id],
        ).scalar()
        return [
            ("name", str(self.app_name)),
            ("description", "PerfDMF profile database (Huck et al., 2004 schema)"),
            ("version", str(self.app_version)),
            ("executions", str(count)),
        ]

    def get_exec_query_params(self) -> dict[str, list[str]]:
        params: dict[str, list[str]] = {}
        cursor = self.conn.cursor()
        for attr in self.ATTRIBUTES:
            cursor.execute(
                f"SELECT DISTINCT t.{attr} FROM trial t "
                "JOIN experiment e ON t.exp_id = e.exp_id WHERE e.app_id = ? "
                f"ORDER BY t.{attr}",
                [self.app_id],
            )
            params[attr] = [str(row[0]) for row in cursor.fetchall()]
        return params

    def get_all_exec_ids(self) -> list[str]:
        cursor = self.conn.execute(
            "SELECT t.trial_id FROM trial t JOIN experiment e ON t.exp_id = e.exp_id "
            "WHERE e.app_id = ? ORDER BY t.trial_id",
            [self.app_id],
        )
        return [str(row[0]) for row in cursor.fetchall()]

    def get_exec_ids(self, attribute: str, value: str, operator: str = "=") -> list[str]:
        self.check_operator(operator)
        attr = attribute.lower()
        if attr == "trial_id":
            pass
        elif attr not in self.ATTRIBUTES:
            raise MappingError(f"unknown attribute {attribute!r} for PerfDMF")
        numeric = attr in self.NUMERIC_ATTRS or attr == "trial_id"
        cursor = self.conn.execute(
            "SELECT t.trial_id FROM trial t JOIN experiment e ON t.exp_id = e.exp_id "
            f"WHERE e.app_id = ? AND t.{attr} {_SQL_OPS[operator]} ? ORDER BY t.trial_id",
            [self.app_id, _sql_value(value, numeric)],
        )
        return [str(row[0]) for row in cursor.fetchall()]

    def execution(self, exec_id: str) -> "PerfDmfExecutionWrapper":
        cursor = self.conn.execute(
            "SELECT total_time FROM trial WHERE trial_id = ?", [int(exec_id)]
        )
        row = cursor.fetchone()
        if row is None:
            raise MappingError(f"no PerfDMF trial {exec_id!r}")
        return PerfDmfExecutionWrapper(self.conn, int(exec_id), float(row[0]))

    def get_stats(self) -> StoreStats:
        """One scan of the profile tables (already pre-reduced)."""
        return _perfdmf_stats(self.conn, app_id=self.app_id, trial_id=None)


def _perfdmf_stats(conn: Connection, app_id: int | None, trial_id: int | None) -> StoreStats:
    """Shared PerfDMF stats scan, app-wide or scoped to one trial.

    Profiles carry at most one row per (trial, focus, metric), so one
    column scan per metric is the complete ``get_pr`` row set: counts,
    ranges and the tier-0 sketches all come from it.  Time coverage
    spans the trial totals; sub-range ``get_pr`` windows return nothing
    for this store, which only makes the window fraction an
    overestimate — safe, since the planner never skips on the window.
    """
    if trial_id is not None:
        execs_where = "WHERE t.trial_id = ?"
        params: list[object] = [trial_id]
    else:
        execs_where = "JOIN experiment e ON t.exp_id = e.exp_id WHERE e.app_id = ?"
        params = [app_id]
    row = conn.execute(
        f"SELECT COUNT(*), MAX(t.total_time) FROM trial t {execs_where}", params
    ).fetchone()
    assert row is not None
    execs = int(row[0])
    end = float(row[1]) if row[1] is not None else 0.0
    if trial_id is not None:
        ie_where = "ie.trial_id = ?"
        ie_join = ""
    else:
        ie_where = "e.app_id = ?"
        ie_join = (
            "JOIN trial t ON ie.trial_id = t.trial_id "
            "JOIN experiment e ON t.exp_id = e.exp_id "
        )
    scanned: dict[str, list[float]] = {}
    for metric, column in sorted(PerfDmfWrapper._METRIC_COLUMNS.items()):
        scanned[metric] = [
            float(value_row[0])
            for value_row in conn.execute(
                f"SELECT ie.{column} FROM interval_event ie {ie_join}"
                "JOIN metric m ON ie.metric_id = m.metric_id "
                f"WHERE {ie_where} AND m.name = ?",
                params + ["TIME" if metric == "time_spent" else "CALLS"],
            ).fetchall()
        ]
    foci_cursor = conn.execute(
        f"SELECT DISTINCT ie.event_group, ie.event_name FROM interval_event ie {ie_join}"
        f"WHERE {ie_where} ORDER BY ie.event_group, ie.event_name",
        params,
    )
    return StoreStats.scanned(
        execs,
        0.0,
        end,
        [f"/Code/{grp}/{name}" for grp, name in foci_cursor.fetchall()],
        (PerfDmfWrapper.result_type,),
        scanned,
    )


class PerfDmfExecutionWrapper(ExecutionWrapper):
    """One PerfDMF TRIAL as a PPerfGrid Execution."""

    def __init__(self, conn: Connection, trial_id: int, total_time: float) -> None:
        self.conn = conn
        self.trial_id = trial_id
        self.total_time = total_time

    def get_info(self) -> list[tuple[str, str]]:
        cursor = self.conn.execute(
            "SELECT * FROM trial WHERE trial_id = ?", [self.trial_id]
        )
        row = cursor.fetchone()
        assert row is not None and cursor.description is not None
        return [(desc[0], str(value)) for desc, value in zip(cursor.description, row)]

    def get_foci(self) -> list[str]:
        cursor = self.conn.execute(
            "SELECT DISTINCT event_group, event_name FROM interval_event "
            "WHERE trial_id = ? ORDER BY event_group, event_name",
            [self.trial_id],
        )
        return [f"/Code/{grp}/{name}" for grp, name in cursor.fetchall()]

    def get_metrics(self) -> list[str]:
        return sorted(PerfDmfWrapper.METRICS)

    def get_types(self) -> list[str]:
        return [PerfDmfWrapper.result_type]

    def get_time_start_end(self) -> tuple[float, float]:
        return (0.0, self.total_time)

    def get_pr(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
    ) -> list[PerformanceResult]:
        if result_type not in (UNDEFINED_TYPE, "", PerfDmfWrapper.result_type):
            return []
        column = PerfDmfWrapper._METRIC_COLUMNS.get(metric)
        if column is None:
            raise MappingError(f"unknown PerfDMF metric {metric!r}")
        lo = max(0.0, start)
        hi = self.total_time if end <= 0 else min(self.total_time, end)
        # Profiles have no time dimension; a sub-range query cannot be
        # answered from aggregated data and returns nothing rather than a
        # wrong value (contrast with the SMG98 trace wrapper).
        if lo > 0.0 or hi < self.total_time:
            return []
        results: list[PerformanceResult] = []
        metric_name = "TIME" if metric == "time_spent" else "CALLS"
        for focus in foci:
            parts = focus.split("/")
            if len(parts) != 4 or parts[1] != "Code":
                raise MappingError(f"unknown PerfDMF focus {focus!r}")
            _, _, grp, name = parts
            cursor = self.conn.execute(
                f"SELECT ie.{column} FROM interval_event ie "
                "JOIN metric m ON ie.metric_id = m.metric_id "
                "WHERE ie.trial_id = ? AND ie.event_group = ? AND ie.event_name = ? "
                "AND m.name = ?",
                [self.trial_id, grp, name, metric_name],
            )
            row = cursor.fetchone()
            if row is not None:
                results.append(
                    PerformanceResult(metric, focus, "perfdmf", lo, hi, float(row[0]))
                )
        return results

    def get_stats(self) -> StoreStats:
        """Per-trial stats via the shared scan."""
        return _perfdmf_stats(self.conn, app_id=None, trial_id=self.trial_id)
