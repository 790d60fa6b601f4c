"""Experiment drivers reproducing every table and figure of the thesis.

========================  =======================================
Driver                    Paper artifact
========================  =======================================
``porttypes``             Tables 1, 2, 3 (interface listings)
``overhead``              Table 4 (Grid services overhead)
``scalability``           Figure 12 (replica-host speedup)
``caching``               Table 5 (Performance-Result caching)
``ablations``             serialization / shared-network
                          studies (extensions)
========================  =======================================
"""

from repro.experiments.common import TestGrid, build_grid, GridScale
from repro.experiments.overhead import OverheadResult, OverheadRow, run_overhead_experiment
from repro.experiments.scalability import ScalabilityResult, run_scalability_experiment
from repro.experiments.caching import CachingResult, CachingRow, run_caching_experiment
from repro.experiments.porttypes import (
    render_table1,
    render_table2,
    render_table3,
)
from repro.experiments.ablations import (
    NetworkContentionResult,
    SerializationResult,
    run_network_contention_ablation,
    run_serialization_ablation,
)

__all__ = [
    "CachingResult",
    "CachingRow",
    "GridScale",
    "NetworkContentionResult",
    "OverheadResult",
    "OverheadRow",
    "ScalabilityResult",
    "SerializationResult",
    "TestGrid",
    "build_grid",
    "render_table1",
    "render_table2",
    "render_table3",
    "run_caching_experiment",
    "run_network_contention_ablation",
    "run_overhead_experiment",
    "run_scalability_experiment",
    "run_serialization_ablation",
]
