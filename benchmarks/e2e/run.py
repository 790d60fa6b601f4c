"""One end-to-end benchmark for the federation.

    python3 benchmarks/e2e/run.py --seed N                 # every workload, every metric
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --check --seed N         # A/A: same code, twice

With ``--workload`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Without it every workload runs in a subprocess of
its own, untraced and then traced, so ``peak_rss_mb`` is its own.

End-to-end numbers always come from untraced windows.  A traced run
measures a short untraced window first and reports the ratio of the two
medians as ``driver.trace_overhead_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: share of a traced run's seconds spent on the untraced baseline window
BASELINE_SHARE = 0.4


# -------------------------------------------------------------- calibration
#: CPU seconds one calibration kernel takes on the reference machine; a
#: speed factor of 1.0 means "as fast as the machine the suite was sized on"
REFERENCE_KERNEL_S = 200e-6
#: ops are bracketed by calibration slices once this much op time has passed
CALIBRATE_EVERY_S = 0.02
#: a slice lasts this share of the op time it follows, and at least MIN_SLICE_S
SLICE_SHARE = 0.1
MIN_SLICE_S = 0.002
#: a set-up is one long op: it gets one long slice on either side
SETUP_SLICE_S = 0.08
#: ops_per_s is the median rate over this many consecutive parts of a window
RATE_CHUNKS = 5


def _kernel() -> dict:
    """Interpreter-bound work of the kind the SOAP stack does all day:
    format records, split them, fold them into a dict."""
    rows = [f"app=M{i % 7}|metric=m|value={i * 0.125!r}" for i in range(150)]
    table: dict[str, int] = {}
    for row in rows:
        for part in row.split("|"):
            key, _, value = part.partition("=")
            table[key] = table.get(key, 0) + len(value)
    return table


def machine_slowness(budget_s: float) -> float:
    """How slow this machine is right now, relative to the reference.

    The host this suite was built on is a shared VM whose speed drifts
    by tens of percent over seconds: ten runs of one workload differed
    by 12-19% in raw median latency and by 2-3% once each op was divided
    by the slowness measured right before and after it.  Thread CPU
    time, so a second driver holding the GIL does not read as slowness.
    """
    runs = 0
    started = time.perf_counter()
    cpu = time.thread_time()
    while True:
        _kernel()
        runs += 1
        if time.perf_counter() - started >= budget_s:
            break
    return (time.thread_time() - cpu) / runs / REFERENCE_KERNEL_S


def calibrated(fn) -> float:
    """Seconds *fn* took, at reference machine speed."""
    before = machine_slowness(SETUP_SLICE_S)
    t0 = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - t0
    after = machine_slowness(SETUP_SLICE_S)
    return elapsed / ((before + after) / 2)


# ------------------------------------------------------------------- window
class Window:
    """What one measured window saw; times are at reference machine speed."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.first_rows: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.ops_per_s = 0.0
        self.calls = 0
        self.bytes_total = 0
        self.bytes_received = 0
        self.errors: list[str] = []

    def p50_ms(self) -> float:
        return statistics.median(self.latencies) * 1e3


def steady_rate(latencies: list[float]) -> float:
    """Ops per second of op time: the median over consecutive fifths of
    the window, so one disturbed second does not set the figure."""
    size = max(1, len(latencies) // RATE_CHUNKS)
    chunks = [latencies[i:i + size] for i in range(0, len(latencies) - size + 1, size)]
    return statistics.median(len(chunk) / sum(chunk) for chunk in chunks) if chunks else 0.0


def run_window(workload, seconds: float, tracer=None) -> Window:
    """Closed loop: each driver issues its next op when the last returned,
    until it has spent *seconds* inside ops.  Verification and calibration
    slices sit between ops, off the clock."""
    window = Window()
    lock = threading.Lock()
    gate = threading.Barrier(workload.drivers + 1)

    def drive(driver: int) -> None:
        latencies, first_rows, errors = [], [], []
        attempted = failed = 0
        busy = 0.0
        batch: list[tuple[float, float]] = []  # (latency, first-row latency) since the last slice
        batch_s = 0.0
        k = workload.WARM_OPS + driver
        gate.wait()
        slowness = machine_slowness(MIN_SLICE_S)

        def close_batch() -> None:
            """Bracket the batch with a second slice and rescale its ops."""
            nonlocal slowness, batch_s
            after = machine_slowness(max(MIN_SLICE_S, SLICE_SHARE * batch_s))
            factor = (slowness + after) / 2
            slowness = after
            for latency, first_row in batch:
                latencies.append(latency / factor)
                first_rows.append(first_row / factor)
            batch.clear()
            batch_s = 0.0

        while busy < seconds:
            span = tracer.begin("driver.op", f"{workload.name}#{k}") if tracer else None
            t0 = time.perf_counter()
            try:
                result, first_row_at = workload.op(driver, k)
                t1 = time.perf_counter()
                ok = True
            except Exception:  # the loop must go on: a raised or shed op is a failed op
                t1 = time.perf_counter()
                ok = False
                errors.append(traceback.format_exc(limit=4))
            finally:
                if span is not None:
                    tracer.end(span)
            ok = ok and workload.check(driver, k, result)
            attempted += 1
            failed += not ok
            if ok:
                batch.append((t1 - t0, (first_row_at or t1) - t0))
            busy += t1 - t0
            batch_s += t1 - t0
            k += workload.drivers
            if batch_s >= CALIBRATE_EVERY_S:
                close_batch()
        if batch_s:
            close_batch()
        with lock:
            window.latencies += latencies
            window.first_rows += first_rows
            window.attempted += attempted
            window.failed += failed
            window.ops_per_s += steady_rate(latencies)
            window.errors += errors[:2]

    recorder = workload.environment.recorder
    threads = [
        threading.Thread(target=drive, args=(d,), name=f"driver-{d}")
        for d in range(workload.drivers)
    ]
    for thread in threads:
        thread.start()
    calls, total, received = (
        recorder.count("transport.calls"), recorder.bytes_total, recorder.bytes_received
    )
    gate.wait()
    for thread in threads:
        thread.join()
    window.calls = recorder.count("transport.calls") - calls
    window.bytes_total = recorder.bytes_total - total
    window.bytes_received = recorder.bytes_received - received
    window.failed += workload.finish()
    if not window.latencies:
        raise SystemExit(
            f"{workload.name}: none of {window.attempted} op(s) returned a verified result\n"
            + "\n".join(window.errors)
        )
    return window


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def check_guards(workload, measured: dict[str, float]) -> list[str]:
    """Bands that prove the intended path ran; a reroute fails the run."""
    broken = []
    for name, (low, high) in workload.guards.items():
        value = measured.get(name)
        if value is not None and not low <= value <= high:
            broken.append(f"{workload.name}: {name}={value:g} outside [{low:g}, {high:g}]")
    return broken


# --------------------------------------------------------------- one workload
def run_untraced(cls, seed: int, seconds: float) -> tuple[dict, Window, list[str]]:
    # the measured window runs on the first set-up, in a process that
    # holds nothing else; the repeats that follow only feed setup_s
    workload = cls(seed)
    setups = [calibrated(workload.setup)]
    workload.oracle()
    window = run_window(workload, seconds)
    readings = workload.guard_readings()
    workload.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(SETUP_REPEATS - 1):
        repeat = cls(seed)
        setups.append(calibrated(repeat.setup))
        repeat.close()
    ops = max(1, window.attempted)
    metrics = {
        "op_p50_ms": window.p50_ms(),
        "ops_per_s": window.ops_per_s,
        "first_row_p50_ms": statistics.median(window.first_rows) * 1e3,
        "wire_bytes_per_op": window.bytes_total / ops,
        "round_trips_per_op": window.calls / ops,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    readings.update(metrics, received_bytes_per_op=window.bytes_received / ops)
    return metrics, window, check_guards(workload, readings)


def run_traced(cls, seed: int, seconds: float) -> tuple[dict, Window, list[str]]:
    import layers
    from tracing import Tracer, write_trace
    from workloads import OUT_DIR

    baseline = cls(seed)
    baseline.setup()
    baseline.oracle()
    untraced = run_window(baseline, seconds * BASELINE_SHARE)
    baseline.close()

    tracer = Tracer()
    workload = cls(seed, tracer)
    workload.setup()
    oracle_s = timed(workload.oracle)
    probes = workload.member_probe_bindings()
    before = layers.snapshot(workload, probes)
    tracer.clear()
    window = run_window(workload, seconds * (1 - BASELINE_SHARE), tracer)
    spans = list(tracer.spans)  # the kernels below leave spans of their own
    after = layers.snapshot(workload, probes)

    ops = max(1, window.attempted)
    metrics, summary = layers.span_metrics(spans, window.attempted)
    metrics.update(layers.counter_metrics(before, after, ops, workload.replica))
    metrics.update(layers.kernel_metrics(workload, tracer.samples))
    steps = workload.step_ms
    ordered = sorted(window.latencies)
    metrics.update({
        "views.maintain_ms_per_update": statistics.median(steps.get("maintain") or [0.0]),
        "views.get_view_ms": statistics.median(steps.get("get_view") or [0.0]),
        "coherence.requery_ms": statistics.median(steps.get("requery") or [0.0]),
        "driver.op_p90_ms": ordered[int(0.9 * (len(ordered) - 1))] * 1e3,
        "driver.op_cov": (
            statistics.stdev(ordered) / statistics.fmean(ordered) if len(ordered) > 1 else 0.0
        ),
        "driver.samples": float(len(ordered)),
        "driver.trace_overhead_ratio": window.p50_ms() / untraced.p50_ms(),
        "driver.oracle_s": oracle_s,
        "driver.failed_op_ratio": (window.failed + untraced.failed) / (ops + untraced.attempted),
    })
    workload.close()
    os.makedirs(OUT_DIR, exist_ok=True)
    write_trace(os.path.join(OUT_DIR, f"trace_{cls.name}.json"), spans, summary)
    print(f"self time per op (ms): {summary['self_ms_per_op']}")
    window.attempted += untraced.attempted
    window.failed += untraced.failed
    window.errors += untraced.errors
    return metrics, window, check_guards(workload, metrics)


def pin_to_one_cpu() -> None:
    """Confine the process to one of its CPUs.

    Under the GIL one thread computes at a time wherever it sits; on a
    shared two-core host, letting the scheduler migrate driver and worker
    threads between cores made fan-out latency swing 2-3x between runs,
    while pinned runs agree within a few percent.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def print_metrics(name: str, result: dict) -> None:
    for metric, reading in result["metrics"].items():
        print(f"{name:<18} {metric:<40} {reading['value']:>14.4f} {reading['unit']}")


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    pin_to_one_cpu()
    try:
        import workloads
    except ImportError as exc:
        raise SystemExit(f"benchmarks/e2e: the system under test does not import: {exc}")
    workloads.check_surface()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    cls = workloads.WORKLOADS[name]
    metrics, window, broken = (run_traced if trace else run_untraced)(cls, seed, seconds)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"benchmarks/e2e: BENCHMARK.json declares unmeasured {missing}")
    for error in window.errors:
        print(error, file=sys.stderr)
    for line in broken:
        print(f"PATH GUARD: {line}", file=sys.stderr)
    result = {
        "correct": window.failed == 0 and window.attempted > 0 and not broken,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print_metrics(name, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -------------------------------------------------------------------- suite
def run_child(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One workload in a fresh interpreter; returns its result object."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{name} (trace={trace}) exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_suite(spec: dict, seed: int, seconds: int) -> int:
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            result = run_child(name, seed, seconds, trace)
            print_metrics(name, result)
            print(f"{name:<18} {'verified ops':<40} "
                  f"{result['attempted'] - result['failed']:>14} of {result['attempted']}")
    return 0


def run_check(spec: dict, seed: int, seconds: int) -> int:
    """A/A: the suite twice on the same code and seed, in opposite
    workload order; every end-to-end metric must agree within its bound."""
    names = [w["name"] for w in spec["workloads"]]
    first = {name: run_child(name, seed, seconds, 0) for name in names}
    second = {name: run_child(name, seed, seconds, 0) for name in reversed(names)}
    worst = 0
    print(f"{'workload':<18} {'metric':<20} {'run A':>12} {'run B':>12} {'rel diff':>9} {'bound':>6}")
    for name in names:
        for metric in spec["end_to_end"]:
            a = first[name]["metrics"][metric["name"]]["value"]
            b = second[name]["metrics"][metric["name"]]["value"]
            diff = abs(a - b) / min(a, b)
            flag = "" if diff <= metric["bound"] else "  EXCEEDS"
            worst += bool(flag)
            print(f"{name:<18} {metric['name']:<20} {a:>12.4f} {b:>12.4f} "
                  f"{diff:>9.4f} {metric['bound']:>6.2f}{flag}")
    print(f"{worst} metric(s) beyond their bound")
    return 1 if worst else 0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    if args.workload:
        return run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    if args.check:
        return run_check(spec, args.seed, args.seconds)
    return run_suite(spec, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
