"""XML wrapper: HPL in a native-XML store (future-work §7 variant).

Same semantics as :class:`repro.mapping.rdbms.HplRdbmsWrapper`, but the
Mapping Layer issues XPath queries against an :class:`XmlStore` instead
of SQL — the "same content, different format" comparison the thesis
proposes for overhead testing.
"""

from __future__ import annotations

from repro.core.semantic import (
    UNDEFINED_TYPE,
    PerformanceResult,
    StoreStats,
)
from repro.datastores.xmlstore import XmlStore
from repro.mapping.base import (
    ApplicationWrapper,
    ExecutionWrapper,
    MappingError,
    compare_attribute,
)
from repro.xmlkit import Element


class HplXmlWrapper(ApplicationWrapper):
    """HPL over an XML document store."""

    result_type = "hpl"
    ATTRIBUTES = ("rundate", "n", "nb", "p", "q", "numprocs", "machine")
    METRICS = ("gflops", "runtimesec", "resid")

    def __init__(self, store: XmlStore) -> None:
        self.store = store

    def get_app_info(self) -> list[tuple[str, str]]:
        return [
            ("name", "HPL"),
            (
                "description",
                "HPL - A Portable Implementation of the High-Performance "
                "Linpack Benchmark (native XML store)",
            ),
            ("format", "xml"),
            ("executions", str(len(self.store.runs()))),
        ]

    def get_exec_query_params(self) -> dict[str, list[str]]:
        return {attr: self.store.attribute_values(attr) for attr in self.ATTRIBUTES}

    def get_all_exec_ids(self) -> list[str]:
        ids = self.store.attribute_values("runid")
        return sorted(ids, key=int)

    def get_exec_ids(self, attribute: str, value: str, operator: str = "=") -> list[str]:
        self.check_operator(operator)
        attr = attribute.lower()
        if attr != "runid" and attr not in self.ATTRIBUTES:
            raise MappingError(f"unknown attribute {attribute!r} for HPL (xml)")
        if operator == "=":
            # The store's XPath engine handles equality predicates natively.
            hits = self.store.select(f"/hplResults/run[@{attr}='{value}']/@runid")
            return sorted((h for h in hits if isinstance(h, str)), key=int)
        out: list[str] = []
        for run in self.store.runs():
            stored = run.get(attr)
            runid = run.get("runid")
            if stored is not None and runid is not None:
                if compare_attribute(stored, value, operator):
                    out.append(runid)
        return sorted(out, key=int)

    def execution(self, exec_id: str) -> "HplXmlExecutionWrapper":
        try:
            runid = int(exec_id)
        except ValueError as exc:
            raise MappingError(f"bad HPL execution id {exec_id!r}") from exc
        run = self.store.run_by_id(runid)
        if run is None:
            raise MappingError(f"no HPL execution {exec_id!r} in XML store")
        return HplXmlExecutionWrapper(self.store, runid)

    def get_stats(self) -> StoreStats:
        """One pass over the run elements (attributes hold the metrics).

        ``get_pr`` returns one ``/Run`` result per run that carries the
        metric attribute, so per-metric row counts are presence counts
        and ranges are exact attribute min/max — the same pass collects
        the complete value lists the tier-0 sketches require.
        """
        return _hpl_xml_stats(list(self.store.runs()))


def _hpl_xml_stats(runs: list) -> StoreStats:
    runtimes = [float(run.get("runtimesec") or 0.0) for run in runs]
    return StoreStats.scanned(
        len(runs),
        0.0,
        max(runtimes, default=0.0),
        ("/Run",),
        (HplXmlWrapper.result_type,),
        {
            metric: [float(run.get(metric)) for run in runs if run.get(metric) is not None]
            for metric in sorted(HplXmlWrapper.METRICS)
        },
    )


class HplXmlExecutionWrapper(ExecutionWrapper):
    """One HPL run read from the XML store per query."""

    def __init__(self, store: XmlStore, runid: int) -> None:
        self.store = store
        self.runid = runid

    def _run(self) -> Element:
        run = self.store.run_by_id(self.runid)
        if run is None:
            raise MappingError(f"execution {self.runid} disappeared from XML store")
        return run

    def get_info(self) -> list[tuple[str, str]]:
        run = self._run()
        return sorted((key.local, value) for key, value in run.attrs.items())

    def get_foci(self) -> list[str]:
        return ["/Run"]

    def get_metrics(self) -> list[str]:
        return sorted(HplXmlWrapper.METRICS)

    def get_types(self) -> list[str]:
        return [HplXmlWrapper.result_type]

    def get_time_start_end(self) -> tuple[float, float]:
        run = self._run()
        runtime = run.get("runtimesec")
        if runtime is None:
            raise MappingError(f"execution {self.runid} lacks runtimesec")
        return (0.0, float(runtime))

    def get_pr(
        self,
        metric: str,
        foci: list[str],
        start: float,
        end: float,
        result_type: str,
    ) -> list[PerformanceResult]:
        if result_type not in (UNDEFINED_TYPE, "", HplXmlWrapper.result_type):
            return []
        if metric not in HplXmlWrapper.METRICS:
            raise MappingError(f"unknown HPL metric {metric!r}")
        run = self._run()
        raw = run.get(metric)
        if raw is None:
            return []
        runtime = float(run.get("runtimesec") or 0.0)
        results: list[PerformanceResult] = []
        for focus in foci:
            if focus != "/Run":
                continue
            results.append(
                PerformanceResult(
                    metric=metric,
                    focus=focus,
                    result_type=HplXmlWrapper.result_type,
                    start=max(0.0, start),
                    end=min(runtime, end) if end > 0 else runtime,
                    value=float(raw),
                )
            )
        return results

    def get_stats(self) -> StoreStats:
        """Per-execution stats from this run's attributes."""
        return _hpl_xml_stats([self._run()])
