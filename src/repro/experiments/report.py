"""One-command reproduction report.

``python -m repro.experiments.report [--quick] [--out FILE]`` regenerates
every thesis artifact (Tables 1-5, Figure 12) plus ablations A1 and A4
and writes a single text report.  ``--quick`` shrinks datasets and query
counts for a fast smoke run (~15 s); the default matches the paper's
parameters (~2 min).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.ablations import (
    run_network_contention_ablation,
    run_serialization_ablation,
)
from repro.experiments.caching import run_caching_experiment
from repro.experiments.common import GridScale
from repro.experiments.overhead import run_overhead_experiment
from repro.experiments.porttypes import render_table1, render_table2, render_table3
from repro.experiments.scalability import run_scalability_experiment


def generate_report(quick: bool = False) -> str:
    """Run every experiment and return the combined report text."""
    scale = GridScale.tiny() if quick else GridScale.paper()
    sections: list[str] = [
        "PPerfGrid reproduction report",
        "=" * 70,
        f"mode: {'quick (reduced datasets)' if quick else 'paper-scale'}",
        "",
        render_table1(),
        "",
        render_table2(),
        "",
        render_table3(),
        "",
    ]

    t0 = time.perf_counter()
    if quick:
        overhead = run_overhead_experiment(scale, hpl_queries=10, rma_queries=10, smg98_queries=5)
    else:
        overhead = run_overhead_experiment(scale)
    sections += [overhead.to_table(), f"(ran in {time.perf_counter() - t0:.1f}s)", ""]

    t0 = time.perf_counter()
    if quick:
        scalability = run_scalability_experiment(counts=(2, 4, 8), repeats=3, rounds=2)
    else:
        scalability = run_scalability_experiment(
            counts=(2, 4, 8, 16, 32, 64, 124), repeats=10, rounds=3
        )
    sections += [
        scalability.to_table(),
        "",
        scalability.to_chart(),
        f"(ran in {time.perf_counter() - t0:.1f}s)",
        "",
    ]

    t0 = time.perf_counter()
    caching = run_caching_experiment(scale, num_queries=6 if quick else 30)
    sections += [caching.to_table(), f"(ran in {time.perf_counter() - t0:.1f}s)", ""]

    serialization = run_serialization_ablation(
        payload_sizes=(1, 100, 1000) if quick else (1, 10, 100, 1000, 5000),
        trials=5 if quick else 20,
    )
    sections += [
        serialization.to_table(),
        "",
        run_network_contention_ablation().to_table(),
        "",
    ]
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="reduced datasets (~15s)")
    parser.add_argument("--out", default=None, help="write the report to a file")
    args = parser.parse_args(argv)
    report = generate_report(quick=args.quick)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"report written to {args.out}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
