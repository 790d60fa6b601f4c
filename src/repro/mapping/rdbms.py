"""RDBMS wrappers (the Figure 4 case, against minidb instead of JDBC).

Each wrapper issues SQL through the DB-API cursor — the reproduction of
``executeQuery("SELECT id FROM information")`` — and converts result rows
into PPerfGrid types.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.semantic import (
    UNDEFINED_TYPE,
    AggregateRecord,
    MetricStats,
    PerformanceResult,
    StoreStats,
)
from repro.mapping.base import (
    ApplicationWrapper,
    ExecutionWrapper,
    MappingError,
    fold_values,
    reduce_results,
)
from repro.minidb import Connection, Database, connect

_SQL_OPS = {"=": "=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _value_bounds_sql(expr: str, min_value: float | None, max_value: float | None):
    """WHERE fragments (and params) filtering *expr* to [min, max]."""
    clauses: list[str] = []
    params: list[float] = []
    if min_value is not None:
        clauses.append(f"({expr}) >= ?")
        params.append(min_value)
    if max_value is not None:
        clauses.append(f"({expr}) <= ?")
        params.append(max_value)
    return clauses, params


def _in_sql(column: str, count: int) -> str:
    """WHERE fragment admitting *count* bound members of a focus family."""
    return f"{column} IN ({', '.join('?' * count)})"


class _Bucket:
    """Combinable aggregation state shared by the SQL push-down paths."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = 0.0
        self.maximum = 0.0

    def absorb(self, count: int, total: float, minimum: float, maximum: float) -> None:
        if count <= 0:
            return
        if self.count == 0:
            self.minimum, self.maximum = minimum, maximum
        else:
            self.minimum = min(self.minimum, minimum)
            self.maximum = max(self.maximum, maximum)
        self.count += count
        self.total += total


def _bucket_records(buckets: dict[str, _Bucket]) -> list[AggregateRecord]:
    return [
        AggregateRecord(key, b.count, b.total, b.minimum, b.maximum)
        for key, b in sorted(buckets.items())
        if b.count > 0
    ]


def _sql_value(value: str, numeric: bool) -> object:
    if not numeric:
        return value
    try:
        f = float(value)
    except ValueError as exc:
        raise MappingError(f"attribute expects a number, got {value!r}") from exc
    return int(f) if f.is_integer() else f


def _grouped(rows: list[tuple], width: int) -> dict[tuple, list[tuple]]:
    """*rows* keyed by their first *width* columns; each group keeps row order."""
    groups: dict[tuple, list[tuple]] = {}
    for row in rows:
        groups.setdefault(row[:width], []).append(row[width:])
    return groups


def _type_matches(requested: str, actual: str) -> bool:
    return requested in (UNDEFINED_TYPE, "", actual)


# ------------------------------------------------------------------- HPL


class HplRdbmsWrapper(ApplicationWrapper):
    """HPL in a single relational table (``hpl_runs``)."""

    result_type = "hpl"
    NUMERIC_ATTRS = frozenset({"n", "nb", "p", "q", "numprocs"})
    ATTRIBUTES = ("rundate", "n", "nb", "p", "q", "numprocs", "machine")
    METRICS = ("gflops", "runtimesec", "resid")
    FOCI = ("/Run",)

    def __init__(self, database: Database) -> None:
        self.conn: Connection = connect(database)

    def get_app_info(self) -> list[tuple[str, str]]:
        count = self.conn.execute("SELECT COUNT(*) FROM hpl_runs").scalar()
        return [
            ("name", "HPL"),
            (
                "description",
                "HPL - A Portable Implementation of the High-Performance "
                "Linpack Benchmark for Distributed-Memory Computers",
            ),
            ("version", "1.0"),
            ("executions", str(count)),
        ]

    def get_exec_query_params(self) -> dict[str, list[str]]:
        params: dict[str, list[str]] = {}
        cursor = self.conn.cursor()
        for attr in self.ATTRIBUTES:
            cursor.execute(f"SELECT DISTINCT {attr} FROM hpl_runs ORDER BY {attr}")
            params[attr] = [str(row[0]) for row in cursor.fetchall()]
        return params

    def get_all_exec_ids(self) -> list[str]:
        cursor = self.conn.execute("SELECT runid FROM hpl_runs ORDER BY runid")
        return [str(row[0]) for row in cursor.fetchall()]

    def get_exec_ids(self, attribute: str, value: str, operator: str = "=") -> list[str]:
        self.check_operator(operator)
        attr = attribute.lower()
        if attr == "execid":
            attr = "runid"  # uniform alias: every store answers execid queries
        if attr == "runid":
            pass
        elif attr not in self.ATTRIBUTES:
            raise MappingError(f"unknown attribute {attribute!r} for HPL")
        numeric = attr in self.NUMERIC_ATTRS or attr == "runid"
        cursor = self.conn.execute(
            f"SELECT runid FROM hpl_runs WHERE {attr} {_SQL_OPS[operator]} ? ORDER BY runid",
            [_sql_value(value, numeric)],
        )
        return [str(row[0]) for row in cursor.fetchall()]

    def execution(self, exec_id: str) -> "HplRdbmsExecutionWrapper":
        cursor = self.conn.execute(
            "SELECT runtimesec FROM hpl_runs WHERE runid = ?", [int(exec_id)]
        )
        row = cursor.fetchone()
        if row is None:
            raise MappingError(f"no HPL execution {exec_id!r}")
        return HplRdbmsExecutionWrapper(self.conn, int(exec_id), float(row[0]))

    def get_stats(self) -> StoreStats:
        """One ``SELECT`` of the metric columns: the complete row sets.

        ``get_pr`` renders one ``/Run`` result per run per metric, so the
        metric columns are exactly what it returns: row counts, value
        ranges and the tier-0 sketches all come off this one scan.
        """
        return _hpl_stats(self.conn, "", [])


def _hpl_stats(conn: Connection, where: str, params: list) -> StoreStats:
    """Shared HPL stats scan over the runs *where* selects."""
    rows = conn.execute(
        f"SELECT {', '.join(HplRdbmsWrapper.METRICS)} FROM hpl_runs{where}", params
    ).fetchall()
    columns = {
        metric: [float(row[index]) for row in rows]
        for index, metric in enumerate(HplRdbmsWrapper.METRICS)
    }
    return StoreStats.scanned(
        len(rows),
        0.0,
        max(columns["runtimesec"], default=0.0),
        HplRdbmsWrapper.FOCI,
        (HplRdbmsWrapper.result_type,),
        columns,
    )


class HplRdbmsExecutionWrapper(ExecutionWrapper):
    """One HPL run: scalar metrics over the whole-run focus ``/Run``."""

    def __init__(self, conn: Connection, runid: int, runtimesec: float) -> None:
        self.conn = conn
        self.runid = runid
        self.runtimesec = runtimesec

    def _refresh_runtime(self) -> float:
        """Re-read the run's duration — the store may be live-updated.

        (Caching stale durations here once made ``data_updated``
        republish outdated time-range SDEs; the Data Layer is the source
        of truth, the wrapper holds no state worth trusting.)
        """
        value = self.conn.execute(
            "SELECT runtimesec FROM hpl_runs WHERE runid = ?", [self.runid]
        ).scalar()
        if value is None:
            raise MappingError(f"HPL execution {self.runid} disappeared")
        self.runtimesec = float(value)
        return self.runtimesec

    def get_info(self) -> list[tuple[str, str]]:
        cursor = self.conn.execute("SELECT * FROM hpl_runs WHERE runid = ?", [self.runid])
        row = cursor.fetchone()
        assert row is not None and cursor.description is not None
        return [(desc[0], str(value)) for desc, value in zip(cursor.description, row)]

    def get_foci(self) -> list[str]:
        return list(HplRdbmsWrapper.FOCI)

    def get_metrics(self) -> list[str]:
        return sorted(HplRdbmsWrapper.METRICS)

    def get_types(self) -> list[str]:
        return [HplRdbmsWrapper.result_type]

    def get_time_start_end(self) -> tuple[float, float]:
        return (0.0, self._refresh_runtime())

    def get_pr(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
    ) -> list[PerformanceResult]:
        if not _type_matches(result_type, HplRdbmsWrapper.result_type):
            return []
        if metric not in HplRdbmsWrapper.METRICS:
            raise MappingError(f"unknown HPL metric {metric!r}")
        results: list[PerformanceResult] = []
        for focus in foci:
            if focus != "/Run":
                continue
            cursor = self.conn.execute(
                f"SELECT {metric} FROM hpl_runs WHERE runid = ?", [self.runid]
            )
            row = cursor.fetchone()
            if row is None:
                continue
            results.append(
                PerformanceResult(
                    metric=metric,
                    focus=focus,
                    result_type=HplRdbmsWrapper.result_type,
                    start=max(0.0, start),
                    end=min(self.runtimesec, end) if end > 0 else self.runtimesec,
                    value=float(row[0]),
                )
            )
        return results

    def get_pr_aggregate(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
        min_value: float | None = None,
        max_value: float | None = None,
        group_by: str = "",
    ) -> list[AggregateRecord]:
        """SQL push-down: the value filter runs inside minidb's WHERE."""
        if group_by not in ("", "focus"):
            raise MappingError(f"unsupported aggregate group_by {group_by!r}")
        if not _type_matches(result_type, HplRdbmsWrapper.result_type):
            return []
        if metric not in HplRdbmsWrapper.METRICS:
            raise MappingError(f"unknown HPL metric {metric!r}")
        if "/Run" not in foci:
            return []
        where = ["runid = ?"]
        params: list[object] = [self.runid]
        clauses, bound_params = _value_bounds_sql(metric, min_value, max_value)
        where.extend(clauses)
        params.extend(bound_params)
        row = self.conn.execute(
            f"SELECT COUNT(*), SUM({metric}), MIN({metric}), MAX({metric}) "
            f"FROM hpl_runs WHERE {' AND '.join(where)}",
            params,
        ).fetchone()
        assert row is not None
        count = int(row[0])
        if count == 0:
            return []
        group = "/Run" if group_by == "focus" else ""
        return [AggregateRecord(group, count, float(row[1]), float(row[2]), float(row[3]))]

    def get_stats(self) -> StoreStats:
        """One row read: each metric is a single scalar for this run."""
        return _hpl_stats(self.conn, " WHERE runid = ?", [self.runid])


# ----------------------------------------------------------------- SMG98


class Smg98RdbmsWrapper(ApplicationWrapper):
    """SMG98 Vampir trace in five relational tables."""

    result_type = "vampir"
    NUMERIC_ATTRS = frozenset({"numprocs", "nx", "ny", "nz"})
    ATTRIBUTES = ("rundate", "numprocs", "nx", "ny", "nz")
    CODE_METRICS = ("time_spent", "func_calls")
    MESSAGE_METRICS = ("msg_count", "msg_bytes", "msg_deliv_time")

    def __init__(self, database: Database) -> None:
        self.conn: Connection = connect(database)

    def get_app_info(self) -> list[tuple[str, str]]:
        count = self.conn.execute("SELECT COUNT(*) FROM executions").scalar()
        return [
            ("name", "SMG98"),
            (
                "description",
                "SMG98 - a semicoarsening multigrid solver; Vampir trace data",
            ),
            ("version", "1998"),
            ("executions", str(count)),
        ]

    def get_exec_query_params(self) -> dict[str, list[str]]:
        params: dict[str, list[str]] = {}
        cursor = self.conn.cursor()
        for attr in self.ATTRIBUTES:
            cursor.execute(f"SELECT DISTINCT {attr} FROM executions ORDER BY {attr}")
            params[attr] = [str(row[0]) for row in cursor.fetchall()]
        return params

    def get_all_exec_ids(self) -> list[str]:
        cursor = self.conn.execute("SELECT execid FROM executions ORDER BY execid")
        return [str(row[0]) for row in cursor.fetchall()]

    def get_exec_ids(self, attribute: str, value: str, operator: str = "=") -> list[str]:
        self.check_operator(operator)
        attr = attribute.lower()
        if attr != "execid" and attr not in self.ATTRIBUTES:
            raise MappingError(f"unknown attribute {attribute!r} for SMG98")
        numeric = attr in self.NUMERIC_ATTRS or attr == "execid"
        cursor = self.conn.execute(
            f"SELECT execid FROM executions WHERE {attr} {_SQL_OPS[operator]} ? ORDER BY execid",
            [_sql_value(value, numeric)],
        )
        return [str(row[0]) for row in cursor.fetchall()]

    def execution(self, exec_id: str) -> "Smg98ExecutionWrapper":
        cursor = self.conn.execute(
            "SELECT runtime, numprocs FROM executions WHERE execid = ?", [int(exec_id)]
        )
        row = cursor.fetchone()
        if row is None:
            raise MappingError(f"no SMG98 execution {exec_id!r}")
        return Smg98ExecutionWrapper(self.conn, int(exec_id), float(row[0]), int(row[1]))

    def get_stats(self) -> StoreStats:
        """A handful of SQL aggregates instead of a trace scan.

        Ranges are conservative supersets because ``get_pr`` derives
        values: ``/Process`` foci return per-function *sums* of interval
        durations (bounded above by the total duration sum), ``func_calls``
        returns per-rank counts (bounded by the interval count), and
        ``msg_count``/``msg_bytes`` return one per-execution total each
        (bounded by the table-wide totals, and present even when zero —
        hence their row count is the execution count, not the message
        count).

        Deliberately publishes *no* metric sketches: every metric's
        ``get_pr`` values are derived (sums/counts over the trace), so
        building an exact sketch would cost the very derivation scan
        stats exist to avoid.  The tier-0 planner therefore falls back
        to push-down for SMG98 members — the designed mixed-tier case.
        """
        return _smg98_stats(self.conn, execid=None)


def _smg98_stats(conn: Connection, execid: int | None) -> StoreStats:
    """Shared SMG98 stats query, optionally scoped to one execution."""
    where = "" if execid is None else " WHERE execid = ?"
    params: list[object] = [] if execid is None else [execid]
    if execid is None:
        execs = int(conn.execute("SELECT COUNT(*) FROM executions").scalar() or 0)
        runtime = conn.execute("SELECT MAX(runtime) FROM executions").scalar()
        ranks = conn.execute("SELECT MAX(numprocs) FROM executions").scalar()
    else:
        row = conn.execute(
            "SELECT runtime, numprocs FROM executions WHERE execid = ?", [execid]
        ).fetchone()
        execs = 1 if row is not None else 0
        runtime = row[0] if row is not None else None
        ranks = row[1] if row is not None else None
    dur = conn.execute(
        "SELECT COUNT(*), MIN(end_ts - start_ts), SUM(end_ts - start_ts), "
        f"MAX(end_ts - start_ts) FROM intervals{where}",
        params,
    ).fetchone()
    assert dur is not None
    n_intervals = int(dur[0])
    dur_min = float(dur[1]) if dur[1] is not None else 0.0
    dur_sum = float(dur[2]) if dur[2] is not None else 0.0
    dur_max = float(dur[3]) if dur[3] is not None else 0.0
    msg = conn.execute(
        "SELECT COUNT(*), MIN(recv_ts - send_ts), MAX(recv_ts - send_ts), "
        f"SUM(nbytes) FROM messages{where}",
        params,
    ).fetchone()
    assert msg is not None
    n_messages = int(msg[0])
    deliv_min = float(msg[1]) if msg[1] is not None else 0.0
    deliv_max = float(msg[2]) if msg[2] is not None else 0.0
    bytes_sum = float(msg[3]) if msg[3] is not None else 0.0
    functions = conn.execute("SELECT grp, name FROM functions ORDER BY grp, name").fetchall()
    foci = [f"/Code/{grp}/{name}" for grp, name in functions]
    foci.extend(f"/Process/{rank}" for rank in range(int(ranks or 0)))
    foci.append("/Messages")
    metrics = (
        # /Code foci: per-interval durations; /Process foci: per-function
        # SUMS of durations — so the max must cover the total sum.
        MetricStats("func_calls", n_intervals, 0.0, float(n_intervals)),
        MetricStats(
            "msg_bytes", execs, 0.0, max(0.0, bytes_sum)
        ),
        MetricStats("msg_count", execs, 0.0, float(n_messages)),
        MetricStats(
            "msg_deliv_time", n_messages, min(0.0, deliv_min), max(0.0, deliv_max)
        ),
        MetricStats(
            "time_spent", n_intervals, min(0.0, dur_min), max(dur_max, dur_sum)
        ),
    )
    return StoreStats(
        executions=execs,
        start=0.0,
        end=float(runtime) if runtime is not None else 0.0,
        foci=tuple(foci),
        types=(Smg98RdbmsWrapper.result_type,),
        metrics=metrics,
    )


_BY_FUNCTION = "FROM intervals i JOIN functions f ON i.funcid = f.funcid"
_BY_FUNCTION_AND_RANK = _BY_FUNCTION + " JOIN processes p ON i.procid = p.procid"
#: metric -> (/Code columns, their source, their tail, /Process per-function value)
_INTERVAL_SHAPES = {
    "time_spent": (
        "i.start_ts, i.end_ts", _BY_FUNCTION, "ORDER BY i.start_ts",
        "SUM(i.end_ts - i.start_ts)",
    ),
    "func_calls": (
        "p.rank, COUNT(*)", _BY_FUNCTION_AND_RANK,
        "GROUP BY f.grp, f.name, p.rank ORDER BY p.rank", "COUNT(*)",
    ),
}


def _process_values(focus: str, rows: list[tuple]) -> Iterator[tuple[str, float]]:
    """A ``/Process`` focus's ``(result focus, value)`` pairs, one per
    ``(grp, name, value)`` row of its family, in store order."""
    return ((f"{focus}/Code/{grp}/{name}", float(value)) for grp, name, value in rows)


def _smg98_focus(focus: str) -> tuple[str, str, tuple]:
    """``(focus, family, key)``: the focus, the family whose one statement
    answers it, and the leading columns that pick its rows out of that
    statement's result."""
    parts = focus.split("/")
    if focus.startswith("/Code/"):
        if len(parts) != 4:
            raise MappingError(f"bad /Code focus {focus!r}")
        return focus, "code", (parts[2], parts[3])
    if focus.startswith("/Process/"):
        if len(parts) != 3:
            raise MappingError(f"bad /Process focus {focus!r}")
        try:
            return focus, "process", (int(parts[2]),)
        except ValueError as exc:
            raise MappingError(f"bad /Process focus {focus!r}") from exc
    if focus == "/Messages":
        return focus, "messages", ()
    raise MappingError(f"unknown SMG98 focus {focus!r}")


class Smg98ExecutionWrapper(ExecutionWrapper):
    """One SMG98 run.

    ``get_pr`` semantics by focus shape:

    * ``/Code/<grp>/<name>`` + ``time_spent`` — one PR *per interval* in
      the window (trace granularity; this is what makes SMG98 transfers
      the largest, as in Table 4);
    * ``/Code/<grp>/<name>`` + ``func_calls`` — one PR per process rank
      (call counts);
    * ``/Process/<rank>`` + ``time_spent`` / ``func_calls`` — one PR per
      function for that rank;
    * ``/Messages`` + msg metrics — aggregate count/bytes, or one PR per
      message for ``msg_deliv_time``.
    """

    def __init__(self, conn: Connection, execid: int, runtime: float, numprocs: int) -> None:
        self.conn = conn
        self.execid = execid
        self.runtime = runtime
        self.numprocs = numprocs

    def get_info(self) -> list[tuple[str, str]]:
        cursor = self.conn.execute(
            "SELECT * FROM executions WHERE execid = ?", [self.execid]
        )
        row = cursor.fetchone()
        assert row is not None and cursor.description is not None
        return [(desc[0], str(value)) for desc, value in zip(cursor.description, row)]

    def get_foci(self) -> list[str]:
        cursor = self.conn.execute("SELECT grp, name FROM functions ORDER BY grp, name")
        foci = [f"/Code/{grp}/{name}" for grp, name in cursor.fetchall()]
        foci.extend(f"/Process/{rank}" for rank in range(self.numprocs))
        foci.append("/Messages")
        return foci

    def get_metrics(self) -> list[str]:
        return sorted(Smg98RdbmsWrapper.CODE_METRICS + Smg98RdbmsWrapper.MESSAGE_METRICS)

    def get_types(self) -> list[str]:
        return [Smg98RdbmsWrapper.result_type]

    def get_time_start_end(self) -> tuple[float, float]:
        return (0.0, self.runtime)

    def _window(self, start: float, end: float) -> tuple[float, float]:
        hi = self.runtime if end <= 0 else min(end, self.runtime)
        return (max(0.0, start), hi)

    def get_pr(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
    ) -> list[PerformanceResult]:
        if not _type_matches(result_type, Smg98RdbmsWrapper.result_type):
            return []
        known = Smg98RdbmsWrapper.CODE_METRICS + Smg98RdbmsWrapper.MESSAGE_METRICS
        if metric not in known:
            raise MappingError(f"unknown SMG98 metric {metric!r}")
        lo, hi = self._window(start, end)
        plan = [_smg98_focus(focus) for focus in foci]
        return [pr for results in self._focus_results(metric, plan, lo, hi) for pr in results]

    def get_pr_aggregate(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
        min_value: float | None = None,
        max_value: float | None = None,
        group_by: str = "",
    ) -> list[AggregateRecord]:
        """SQL push-down for the trace-granularity metrics.

        ``time_spent`` on ``/Code`` foci and ``msg_deliv_time`` on
        ``/Messages`` — the payloads that dominate Table 4 — reduce to
        one ``COUNT/SUM/MIN/MAX`` statement per family with the value
        filter in the ``WHERE`` clause, so thousands of interval rows
        never leave the store.  The other shapes are derived values
        (per-rank, per-function subaggregates): their families' result
        rows are reduced here in the Mapping Layer, still server-side.
        Either way each focus's partials enter the buckets in request
        order, which fixes every float sum.
        """
        if group_by not in ("", "focus"):
            raise MappingError(f"unsupported aggregate group_by {group_by!r}")
        if not _type_matches(result_type, Smg98RdbmsWrapper.result_type):
            return []
        known = Smg98RdbmsWrapper.CODE_METRICS + Smg98RdbmsWrapper.MESSAGE_METRICS
        if metric not in known:
            raise MappingError(f"unknown SMG98 metric {metric!r}")
        lo, hi = self._window(start, end)
        plan = [_smg98_focus(focus) for focus in foci]
        aggs = "COUNT(*), SUM({0}), MIN({0}), MAX({0})"
        pushed, partials = "", {}
        if metric == "time_spent":
            pushed, expr = "code", "i.end_ts - i.start_ts"
            partials = _grouped(self._interval_rows(
                f"f.grp, f.name, {aggs.format(expr)}", _BY_FUNCTION, "f.name",
                {key[1] for _, family, key in plan if family == pushed}, lo, hi,
                _value_bounds_sql(expr, min_value, max_value), "GROUP BY f.grp, f.name",
            ), 2)
        elif metric == "msg_deliv_time" and group_by != "focus":
            # Focus grouping cannot use this shape: delivery-time
            # results carry per-message foci (/Messages/<snd>-<rcv>),
            # so those buckets come from the result rows below.
            pushed, expr = "messages", "recv_ts - send_ts"
            if any(family == pushed for _, family, _ in plan):
                clauses, bound_params = _value_bounds_sql(expr, min_value, max_value)
                where = ["execid = ?", "send_ts >= ?", "recv_ts <= ?", *clauses]
                partials = {(): self.conn.execute(
                    f"SELECT {aggs.format(expr)} FROM messages WHERE {' AND '.join(where)}",
                    [self.execid, lo, hi, *bound_params],
                ).fetchall()}
        derived = iter(self._focus_results(
            metric, [entry for entry in plan if entry[1] not in (pushed, "process")], lo, hi
        ))
        _, process = self._family_rows(
            metric, [entry for entry in plan if entry[1] == "process"], lo, hi
        )
        by_focus = group_by == "focus"
        buckets: dict[str, _Bucket] = {}
        for focus, family, key in plan:
            if family == pushed:
                group = focus if by_focus else ""
                for count, total, mn, mx in partials.get(key, ()):
                    if count:
                        buckets.setdefault(group, _Bucket()).absorb(
                            int(count), float(total), float(mn), float(mx)
                        )
                continue
            if family == "process":  # its rows fold straight into buckets
                rows = process.get(key, ())
                records = fold_values(
                    _process_values(focus, rows) if by_focus
                    else (("", float(value)) for *_, value in rows),
                    min_value, max_value,
                )
            else:
                records = reduce_results(next(derived), min_value, max_value, group_by)
            for record in records:
                buckets.setdefault(record.group, _Bucket()).absorb(
                    record.count, record.total, record.minimum, record.maximum
                )
        return _bucket_records(buckets)

    def get_stats(self) -> StoreStats:
        """Per-execution stats via the shared SQL aggregates (no scan)."""
        return _smg98_stats(self.conn, execid=self.execid)

    def _interval_rows(
        self, select: str, source: str, column: str, members: set, lo: float, hi: float,
        bounds: tuple[Sequence[str], Sequence[float]] = ((), ()), tail: str = "",
    ) -> list[tuple]:
        """One statement for a whole focus family: this execution's
        intervals inside ``[lo, hi]`` whose *column* is one of *members*.
        """
        if not members:
            return []
        wanted = sorted(members)
        clauses, bound_params = bounds
        where = [
            "i.execid = ?", _in_sql(column, len(wanted)),
            "i.start_ts >= ?", "i.end_ts <= ?", *clauses,
        ]
        return self.conn.execute(
            f"SELECT {select} {source} WHERE {' AND '.join(where)} {tail}",
            [self.execid, *wanted, lo, hi, *bound_params],
        ).fetchall()

    def _family_rows(
        self, metric: str, plan: list[tuple[str, str, tuple]], lo: float, hi: float
    ) -> tuple[dict[tuple, list[tuple]], dict[tuple, list[tuple]]]:
        """The ``/Code`` and ``/Process`` families' rows, keyed by focus:
        one statement per family, each focus's rows in store order."""
        if metric not in _INTERVAL_SHAPES:  # message metrics find no interval rows
            return {}, {}
        select, source, tail, per_function = _INTERVAL_SHAPES[metric]
        code = _grouped(self._interval_rows(
            f"f.grp, f.name, {select}", source, "f.name",
            {key[1] for _, family, key in plan if family == "code"}, lo, hi, tail=tail,
        ), 2)
        process = _grouped(self._interval_rows(
            f"p.rank, f.grp, f.name, {per_function}", _BY_FUNCTION_AND_RANK, "p.rank",
            {key[0] for _, family, key in plan if family == "process"}, lo, hi,
            tail="GROUP BY p.rank, f.grp, f.name ORDER BY f.grp, f.name",
        ), 1)
        return code, process

    def _focus_results(
        self, metric: str, plan: list[tuple[str, str, tuple]], lo: float, hi: float
    ) -> list[list[PerformanceResult]]:
        """One result list per planned focus, in plan order.

        The foci are answered family by family — one statement for all
        ``/Code`` foci, one for all ``/Process`` foci, ``/Messages``
        once — and each focus then picks its own rows, so a focus gets
        the rows, in the store order, that a statement of its own would.
        """
        code, process = self._family_rows(metric, plan, lo, hi)
        messages: list[PerformanceResult] | None = None
        results: list[list[PerformanceResult]] = []
        for focus, family, key in plan:
            if family == "messages":
                if messages is None:
                    messages = self._message_focus(metric, focus, lo, hi)
                results.append(messages)
            elif family == "process":
                results.append([
                    PerformanceResult(metric, result_focus, "vampir", lo, hi, value)
                    for result_focus, value in _process_values(focus, process.get(key, ()))
                ])
            elif metric == "time_spent":
                results.append([
                    PerformanceResult(metric, focus, "vampir", s, e, e - s)
                    for s, e in code.get(key, ())
                ])
            else:  # func_calls: one result per rank
                results.append([
                    PerformanceResult(metric, f"{focus}/rank/{rank}", "vampir", lo, hi, float(n))
                    for rank, n in code.get(key, ())
                ])
        return results

    def _message_focus(
        self, metric: str, focus: str, lo: float, hi: float
    ) -> list[PerformanceResult]:
        if metric == "msg_count":
            value = self.conn.execute(
                "SELECT COUNT(*) FROM messages WHERE execid = ? "
                "AND send_ts >= ? AND recv_ts <= ?",
                [self.execid, lo, hi],
            ).scalar()
            return [PerformanceResult(metric, focus, "vampir", lo, hi, float(value or 0))]
        if metric == "msg_bytes":
            value = self.conn.execute(
                "SELECT SUM(nbytes) FROM messages WHERE execid = ? "
                "AND send_ts >= ? AND recv_ts <= ?",
                [self.execid, lo, hi],
            ).scalar()
            return [PerformanceResult(metric, focus, "vampir", lo, hi, float(value or 0))]
        if metric == "msg_deliv_time":
            cursor = self.conn.execute(
                "SELECT sender, receiver, send_ts, recv_ts FROM messages "
                "WHERE execid = ? AND send_ts >= ? AND recv_ts <= ? ORDER BY send_ts",
                [self.execid, lo, hi],
            )
            return [
                PerformanceResult(
                    metric, f"{focus}/{snd}-{rcv}", "vampir", s, r, r - s
                )
                for snd, rcv, s, r in cursor.fetchall()
            ]
        return []


# ------------------------------------------------------------ PRESTA RMA


class PrestaRdbmsWrapper(ApplicationWrapper):
    """PRESTA RMA loaded into relational tables (future-work §7 variant)."""

    result_type = "presta"
    NUMERIC_ATTRS = frozenset({"numprocs", "tasks_per_node"})
    ATTRIBUTES = ("rundate", "numprocs", "tasks_per_node", "network")
    METRICS = ("latency_us", "bandwidth_mbps")

    def __init__(self, database: Database) -> None:
        self.conn: Connection = connect(database)

    def get_app_info(self) -> list[tuple[str, str]]:
        count = self.conn.execute("SELECT COUNT(*) FROM rma_execs").scalar()
        return [
            ("name", "PRESTA-RMA"),
            ("description", "PRESTA MPI Bandwidth and Latency Benchmark (RMA), relational"),
            ("executions", str(count)),
        ]

    def get_exec_query_params(self) -> dict[str, list[str]]:
        params: dict[str, list[str]] = {}
        cursor = self.conn.cursor()
        for attr in self.ATTRIBUTES:
            cursor.execute(f"SELECT DISTINCT {attr} FROM rma_execs ORDER BY {attr}")
            params[attr] = [str(row[0]) for row in cursor.fetchall()]
        return params

    def get_all_exec_ids(self) -> list[str]:
        cursor = self.conn.execute("SELECT execid FROM rma_execs ORDER BY execid")
        return [str(row[0]) for row in cursor.fetchall()]

    def get_exec_ids(self, attribute: str, value: str, operator: str = "=") -> list[str]:
        self.check_operator(operator)
        attr = attribute.lower()
        if attr != "execid" and attr not in self.ATTRIBUTES:
            raise MappingError(f"unknown attribute {attribute!r} for PRESTA")
        numeric = attr in self.NUMERIC_ATTRS or attr == "execid"
        cursor = self.conn.execute(
            f"SELECT execid FROM rma_execs WHERE {attr} {_SQL_OPS[operator]} ? ORDER BY execid",
            [_sql_value(value, numeric)],
        )
        return [str(row[0]) for row in cursor.fetchall()]

    def execution(self, exec_id: str) -> "PrestaRdbmsExecutionWrapper":
        cursor = self.conn.execute(
            "SELECT start_time, end_time FROM rma_execs WHERE execid = ?", [int(exec_id)]
        )
        row = cursor.fetchone()
        if row is None:
            raise MappingError(f"no PRESTA execution {exec_id!r}")
        return PrestaRdbmsExecutionWrapper(self.conn, int(exec_id), float(row[0]), float(row[1]))

    def get_stats(self) -> StoreStats:
        """Exact counts/ranges straight off one ``rma_results`` scan."""
        return _presta_rdbms_stats(self.conn, execid=None)


def _presta_rdbms_stats(conn: Connection, execid: int | None) -> StoreStats:
    """Shared PRESTA stats scan, optionally scoped to one execution.

    ``get_pr`` renders one result per ``rma_results`` row per metric, so
    one ``SELECT`` of the metric columns is the complete row set: row
    counts, value ranges and the tier-0 sketches all come from it.
    Stats foci are the *query* foci (``/Op/<op>``, what ``get_foci``
    returns), not the per-msgsize result foci.
    """
    where = "" if execid is None else " WHERE execid = ?"
    params: list[object] = [] if execid is None else [execid]
    if execid is None:
        execs, start, end = conn.execute(
            "SELECT COUNT(*), MIN(start_time), MAX(end_time) FROM rma_execs"
        ).fetchone()
    else:
        execs = 1
        start, end = conn.execute(
            "SELECT start_time, end_time FROM rma_execs WHERE execid = ?", [execid]
        ).fetchone() or (None, None)
    rows = conn.execute(
        f"SELECT {', '.join(PrestaRdbmsWrapper.METRICS)} FROM rma_results{where}", params
    ).fetchall()
    ops = conn.execute(f"SELECT DISTINCT op FROM rma_results{where} ORDER BY op", params)
    return StoreStats.scanned(
        int(execs),
        float(start) if start is not None else 0.0,
        float(end) if end is not None else 0.0,
        [f"/Op/{row[0]}" for row in ops.fetchall()],
        (PrestaRdbmsWrapper.result_type,),
        {
            metric: [float(row[index]) for row in rows]
            for index, metric in enumerate(PrestaRdbmsWrapper.METRICS)
        },
    )


def _presta_ops(foci: list[str]) -> list[str]:
    """The operation each ``/Op/<name>`` focus names, in request order."""
    for focus in foci:
        if not focus.startswith("/Op/"):
            raise MappingError(f"unknown PRESTA focus {focus!r}")
    return [focus[len("/Op/") :] for focus in foci]


class PrestaRdbmsExecutionWrapper(ExecutionWrapper):
    """One PRESTA run (relational): per-message-size sweeps per operation."""

    def __init__(self, conn: Connection, execid: int, start: float, end: float) -> None:
        self.conn = conn
        self.execid = execid
        self.start_time = start
        self.end_time = end

    def get_info(self) -> list[tuple[str, str]]:
        cursor = self.conn.execute("SELECT * FROM rma_execs WHERE execid = ?", [self.execid])
        row = cursor.fetchone()
        assert row is not None and cursor.description is not None
        return [(desc[0], str(value)) for desc, value in zip(cursor.description, row)]

    def get_foci(self) -> list[str]:
        cursor = self.conn.execute(
            "SELECT DISTINCT op FROM rma_results WHERE execid = ? ORDER BY op", [self.execid]
        )
        return [f"/Op/{row[0]}" for row in cursor.fetchall()]

    def get_metrics(self) -> list[str]:
        return sorted(PrestaRdbmsWrapper.METRICS)

    def get_types(self) -> list[str]:
        return [PrestaRdbmsWrapper.result_type]

    def get_time_start_end(self) -> tuple[float, float]:
        return (self.start_time, self.end_time)

    def get_pr(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
    ) -> list[PerformanceResult]:
        if not _type_matches(result_type, PrestaRdbmsWrapper.result_type):
            return []
        if metric not in PrestaRdbmsWrapper.METRICS:
            raise MappingError(f"unknown PRESTA metric {metric!r}")
        lo = max(self.start_time, start)
        hi = self.end_time if end <= 0 else min(self.end_time, end)
        ops = _presta_ops(foci)
        by_op = self._op_rows(f"msgsize, {metric}", ops, tail="ORDER BY msgsize")
        return [
            PerformanceResult(metric, f"{focus}/msgsize/{size}", "presta", lo, hi, float(value))
            for focus, op in zip(foci, ops)
            for size, value in by_op.get((op,), ())
        ]

    def _op_rows(
        self, select: str, ops: list[str],
        bounds: tuple[Sequence[str], Sequence[float]] = ((), ()), tail: str = "",
    ) -> dict[tuple, list[tuple]]:
        """One statement for every requested operation, rows keyed by op."""
        if not ops:
            return {}
        wanted = sorted(set(ops))
        clauses, bound_params = bounds
        where = ["execid = ?", _in_sql("op", len(wanted)), *clauses]
        cursor = self.conn.execute(
            f"SELECT op, {select} FROM rma_results WHERE {' AND '.join(where)} {tail}",
            [self.execid, *wanted, *bound_params],
        )
        return _grouped(cursor.fetchall(), 1)

    def get_pr_aggregate(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
        min_value: float | None = None,
        max_value: float | None = None,
        group_by: str = "",
    ) -> list[AggregateRecord]:
        """SQL push-down; grouping by focus becomes a real SQL GROUP BY."""
        if group_by not in ("", "focus"):
            raise MappingError(f"unsupported aggregate group_by {group_by!r}")
        if not _type_matches(result_type, PrestaRdbmsWrapper.result_type):
            return []
        if metric not in PrestaRdbmsWrapper.METRICS:
            raise MappingError(f"unknown PRESTA metric {metric!r}")
        ops = _presta_ops(foci)
        aggs = f"COUNT(*), SUM({metric}), MIN({metric}), MAX({metric})"
        bounds = _value_bounds_sql(metric, min_value, max_value)
        if group_by == "focus":
            # get_pr renders one result per message size, so the focus
            # grouping is a per-msgsize GROUP BY inside the store.
            by_op = self._op_rows(
                f"msgsize, {aggs}", ops, bounds, "GROUP BY op, msgsize ORDER BY msgsize"
            )
        else:
            by_op = self._op_rows(aggs, ops, bounds, "GROUP BY op")
        buckets: dict[str, _Bucket] = {}
        for focus, op in zip(foci, ops):  # foci order fixes the float sums
            for *size, count, total, mn, mx in by_op.get((op,), ()):
                key = f"{focus}/msgsize/{size[0]}" if size else ""
                buckets.setdefault(key, _Bucket()).absorb(
                    int(count), float(total), float(mn), float(mx)
                )
        return _bucket_records(buckets)

    def get_stats(self) -> StoreStats:
        """Per-execution stats via the shared scan."""
        return _presta_rdbms_stats(self.conn, execid=self.execid)
