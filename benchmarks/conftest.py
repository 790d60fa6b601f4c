"""Benchmark fixtures: paper-scale grid and result-file helpers.

Each table/figure bench regenerates its artifact, asserts the paper's
*shape* (orderings, speedup bands), and writes the rendered table to
``benchmarks/results/`` so the output survives pytest's capture.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.common import GridScale, build_grid

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_result(name: str, text: str) -> None:
    """Persist a regenerated artifact and echo it (visible with -s)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"\n[written to {path}]\n{text}")


@pytest.fixture(scope="session")
def paper_grid_uncached():
    """Paper-scale grid with PR caching disabled (Table 4 arm)."""
    grid = build_grid(GridScale.paper(), caching=False)
    yield grid
    grid.cleanup()


@pytest.fixture(scope="session")
def paper_grid_cached():
    """Paper-scale grid with PR caching enabled."""
    grid = build_grid(GridScale.paper(), caching=True)
    yield grid
    grid.cleanup()
