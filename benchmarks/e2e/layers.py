"""Per-layer metrics of one traced window.

Three sources, all outside ``src/``: the spans of :mod:`tracing`
(attribution and hop statistics), deltas of the system's own public
counters (``engine.scheduler_stats``, ``container.stats``,
``StubPool.stats``, the Execution ``cacheStats`` SDE, ``view_stats``,
``coherence_stats``), and replay kernels that feed captured wire
messages back into one layer's public functions.
"""

from __future__ import annotations

import itertools
import statistics
import time

from repro.core.semantic import PPERFGRID_NS
from repro.fedquery import parse_query
from repro.soap.chunks import ENCODING_COLBATCH, decode_chunk, encode_chunk
from repro.soap.colbatch import decode_batch, encode_batch
from repro.soap.faults import SoapFault
from repro.soap.rpc import decode_request, decode_response, encode_response
from repro.xmlkit import parse
from repro.xmlkit.writer import serialize_bytes

from tracing import LAYERS, LEAF_HOPS, attach_orphans, exclusive_ms, union_seconds
from workloads import prcache_counts

#: member operations safe to replay into ``handle_request``: no cursor,
#: subscription or instance is created by serving them again
IDEMPOTENT = frozenset((
    "getPR", "getPRAgg", "getTimeStartEnd", "getInfo", "getFoci",
    "getMetrics", "getTypes", "getStats",
))
KERNEL_BUDGET_S = 0.15
KERNEL_MESSAGES = 12
COLBATCH_SAMPLE_ROWS = 2048


def snapshot(workload, probe_executions: list) -> dict:
    """The system's public counters, read outside the timed window."""
    environment = workload.environment
    containers = [container.stats() for container in environment.containers()]
    federated = workload.engine is not None
    return {
        "scheduler": workload.engine.scheduler_stats() if federated else {},
        "shed": sum(c["requestsShed"] for c in containers),
        "rejected": sum(c["requestsRejected"] for c in containers),
        "peak_queue": max(c["peakQueueDepth"] for c in containers),
        "stubpool": environment.stub_pool.stats(),
        "prcache": prcache_counts(probe_executions),
        "views": workload.client.view_stats() if federated else {},
        "coherence": workload.client.coherence_stats() if federated else {},
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _scheduler_waits(stats: dict) -> tuple[float, float, float]:
    """(total wait ms, tasks, max wait ms) over every tenant."""
    tenants = stats.get("tenants", {}).values()
    return (
        sum(t["avgWaitMs"] * t["completed"] for t in tenants),
        sum(t["completed"] for t in tenants),
        max((t["maxWaitMs"] for t in tenants), default=0.0),
    )


def span_metrics(spans: list, ops_run: int) -> tuple[dict[str, float], dict]:
    """Attribution and hop statistics; returns (metrics, trace summary)."""
    members, unattributed = attach_orphans(spans)
    ops = len(members) or 1
    layer_ms = dict.fromkeys(LAYERS, 0.0)
    op_ms = 0.0
    by_kind: dict[str, list] = {}
    hop_union_s = hop_total_s = 0.0
    for op, spans_of_op in members.items():
        op_ms += op.duration * 1e3
        for layer, credit in exclusive_ms(op, spans_of_op).items():
            layer_ms[layer] += credit
        hops = [s for s in spans_of_op if s.kind in LEAF_HOPS]
        hop_total_s += sum(s.duration for s in hops)
        hop_union_s += union_seconds([(s.start, s.end) for s in hops])
        for span in spans_of_op:
            by_kind.setdefault(span.kind, []).append(span)

    def of(*kinds: str) -> list:
        return [span for kind in kinds for span in by_kind.get(kind, ())]

    hops = of("fed", "view", "fedcursor", "member", "cursor", "notify", "other")
    member_hops = of("member")
    leaf_hops = of(*LEAF_HOPS)
    mapping = of("mapping")
    statements = of("db")
    leaf_s = sum(s.duration for s in leaf_hops)
    mapping_in_leaf_s = sum(
        s.duration for s in mapping if s.parent is not None and s.parent.kind in LEAF_HOPS
    )
    cursor_sources = {s.label.partition("/cursors/")[0] for s in of("cursor")}
    metrics = {
        "client.self_ms_per_op": layer_ms["client"] / ops,
        "fedquery.self_ms_per_op": layer_ms["fedquery"] / ops,
        "views.self_ms_per_op": layer_ms["views"] / ops,
        "ogsi.self_ms_per_op": layer_ms["ogsi"] / ops,
        "mapping.self_ms_per_op": layer_ms["mapping"] / ops,
        "minidb.ms_per_op": layer_ms["minidb"] / ops,
        "driver.self_time_coverage": _ratio(sum(layer_ms.values()), op_ms),
        "transport.fed_hop_ms_per_op": sum(
            s.duration for s in of("fed", "view", "fedcursor")
        ) * 1e3 / ops,
        "transport.member_hops_per_op": len(member_hops) / ops,
        "transport.member_hop_p50_ms": (
            statistics.median(s.duration for s in member_hops) * 1e3 if member_hops else 0.0
        ),
        "transport.cursor_hops_per_op": len(of("cursor", "fedcursor")) / ops,
        "transport.cursor_sources": float(len(cursor_sources)),
        "transport.notify_hops_per_op": len(of("notify")) / ops,
        "transport.request_bytes_per_op": sum(s.sent for s in hops) / ops,
        "transport.response_bytes_per_op": sum(s.received for s in hops) / ops,
        "fedquery.fanout_overlap": _ratio(hop_total_s, hop_union_s),
        "ogsi.member_overhead_ms_per_call": _ratio(
            (leaf_s - mapping_in_leaf_s) * 1e3, len(leaf_hops)
        ),
        "ogsi.overhead_share": _ratio(leaf_s - mapping_in_leaf_s, leaf_s),
        "mapping.calls_per_op": len(mapping) / ops,
        "mapping.ms_per_call": _ratio(sum(s.duration for s in mapping) * 1e3, len(mapping)),
        "minidb.statements_per_op": len(statements) / ops,
        "minidb.ms_per_statement": _ratio(
            sum(s.duration for s in statements) * 1e3, len(statements)
        ),
    }
    ranked = sorted(LAYERS, key=lambda layer: -layer_ms[layer])
    summary = {
        "ops_traced": len(members),
        "ops_run": ops_run,
        "spans": len(spans),
        "spans_outside_any_op": unattributed,
        "self_ms_per_op": {layer: layer_ms[layer] / ops for layer in ranked},
        "top_two_layers": ranked[:2],
    }
    return metrics, summary


def counter_metrics(before: dict, after: dict, ops: int, replica) -> dict[str, float]:
    """Deltas of the system's own counters over the traced window."""
    sched0, sched1 = before["scheduler"], after["scheduler"]
    wait0, tasks0, _ = _scheduler_waits(sched0)
    wait1, tasks1, max_wait = _scheduler_waits(sched1)
    pool0, pool1 = before["stubpool"], after["stubpool"]
    pool_hits = pool1["hits"] - pool0["hits"]
    pool_lookups = pool_hits + pool1["misses"] - pool0["misses"]
    hits0, lookups0 = before["prcache"]
    hits1, lookups1 = after["prcache"]

    def delta(group: str, key: str) -> float:
        return float(after[group].get(key, 0) - before[group].get(key, 0))

    updates = delta("coherence", "notifications")
    return {
        "scheduler.tasks_per_op": (sched1.get("submitted", 0) - sched0.get("submitted", 0)) / ops,
        "scheduler.avg_wait_ms": _ratio(wait1 - wait0, tasks1 - tasks0),
        # peaks and maxima are lifetime values: they cannot be differenced
        "scheduler.max_wait_ms": max_wait,
        "scheduler.peak_queue_depth": float(sched1.get("peakQueueDepth", 0)),
        "scheduler.workers_created": float(sched1.get("workersCreated", 0)),
        "scheduler.shed": float(sched1.get("shed", 0) - sched0.get("shed", 0)),
        "ogsi.requests_shed": float(after["shed"] - before["shed"]),
        "ogsi.requests_rejected": float(after["rejected"] - before["rejected"]),
        "ogsi.admission_peak_queue": float(after["peak_queue"]),
        "ogsi.stubpool_hit_ratio": _ratio(pool_hits, pool_lookups),
        "prcache.hit_ratio": _ratio(hits1 - hits0, lookups1 - lookups0),
        "views.delta_bytes_per_update": _ratio(delta("views", "deltaBytesFetched"), updates),
        "views.deltas_applied_per_update": _ratio(delta("views", "deltasApplied"), updates),
        "views.stale_refreshes": float(replica.stale_refreshes) if replica else 0.0,
        "coherence.plans_invalidated_per_update": _ratio(
            delta("coherence", "invalidations"), updates
        ),
    }


# ------------------------------------------------------------ replay kernels
def _rounds(fn, items: list) -> list[float]:
    """Seconds per ``fn(item)``, over whole passes until the budget is spent."""
    samples: list[float] = []
    deadline = time.perf_counter() + KERNEL_BUDGET_S
    while items:
        for item in items:
            t0 = time.perf_counter()
            fn(item)
            samples.append(time.perf_counter() - t0)
        if time.perf_counter() >= deadline:
            break
    return samples


def _median_us(fn, items: list) -> float:
    samples = _rounds(fn, items)
    return statistics.median(samples) * 1e6 if samples else 0.0


def _us_per_kb(fn, items: list, size_of) -> float:
    """Pass time over pass size: big messages weigh as they do on the wire."""
    samples = _rounds(fn, items)
    if not samples:
        return 0.0
    passes = len(samples) // len(items)
    kb = sum(size_of(item) for item in items) * passes / 1024
    return sum(samples) * 1e6 / kb


def _sample_rows(decoded: list) -> list[str]:
    """The longest packed-row payload among decoded responses."""
    best: list[str] = []
    for response in decoded:
        value = response.value
        if not isinstance(value, list) or not value or not isinstance(value[0], str):
            continue
        rows = list(decode_chunk(value).rows) if value[0].startswith("#chunk") else value
        if len(rows) > len(best):
            best = rows
    return best[:COLBATCH_SAMPLE_ROWS]


def kernel_metrics(workload, samples: dict[str, list]) -> dict[str, float]:
    """Feed captured messages to each codec layer's public functions."""
    messages = [
        triple for kind in sorted(samples) for triple in samples[kind][:KERNEL_MESSAGES]
    ]
    requests = [request for _, request, _ in messages]
    decoded, responses = [], []
    for _, _, response in messages:
        try:
            decoded.append(decode_response(response))
            responses.append(response)
        except SoapFault:
            continue  # a shed or faulted call carries no payload to replay
    documents = [parse(response) for response in responses]
    replayable = [
        (endpoint, request)
        for endpoint, request, _ in samples.get("member", ())
        if decode_request(request).operation in IDEMPOTENT
    ][:KERNEL_MESSAGES]

    def handle(item) -> None:
        endpoint, request = item
        authority, _, path = endpoint.partition("://")[2].partition("/")
        workload.environment.container_for(authority).handle_request(path, request)

    def reencode(response) -> bytes:
        return encode_response(
            response.namespace, response.operation, response.value, is_void=response.is_void
        )

    metrics = {
        "ogsi.handle_request_us": _median_us(handle, replayable),
        "xmlkit.parse_us_per_kb": _us_per_kb(parse, responses, len),
        "xmlkit.serialize_us_per_kb": _us_per_kb(
            serialize_bytes, documents, lambda doc: len(serialize_bytes(doc))
        ),
        "soap.decode_request_us": _median_us(decode_request, requests),
        "soap.decode_response_us_per_kb": _us_per_kb(decode_response, responses, len),
        "soap.encode_response_us_per_kb": _us_per_kb(
            reencode, decoded, lambda response: len(reencode(response))
        ),
        "soap.colbatch_encode_us_per_row": 0.0,
        "soap.colbatch_decode_us_per_row": 0.0,
        "soap.colbatch_bytes_per_row": 0.0,
        "soap.xml_bytes_per_row": 0.0,
    }
    rows = _sample_rows(decoded)
    if rows:
        as_chunk = encode_chunk(0, rows, True, ENCODING_COLBATCH)
        metrics.update({
            "soap.colbatch_encode_us_per_row": _median_us(encode_batch, [rows]) / len(rows),
            "soap.colbatch_decode_us_per_row": (
                _median_us(decode_batch, [encode_batch(rows)]) / len(rows)
            ),
            "soap.colbatch_bytes_per_row": (
                len(encode_response(PPERFGRID_NS, "next", as_chunk)) / len(rows)
            ),
            "soap.xml_bytes_per_row": len(encode_response(PPERFGRID_NS, "getPR", rows)) / len(rows),
        })
    chunks = [r for _, _, r in samples.get("cursor", ()) if b"#chunk|" in r]
    metrics["soap.colbatch_chunk_share"] = _ratio(
        sum(b"|" + ENCODING_COLBATCH.encode() in r for r in chunks), len(chunks)
    )
    text = workload.query_text
    if text is None:
        metrics.update({"fedquery.parse_us": 0.0, "fedquery.explain_ms": 0.0})
    else:
        literals = itertools.count(workload.WARM_K + 100)
        metrics["fedquery.parse_us"] = _median_us(parse_query, [text.format(k=0)])
        metrics["fedquery.explain_ms"] = _median_us(
            lambda _: workload.client.explain(text.format(k=next(literals))), [None] * 5
        ) / 1e3
    return metrics
