"""repro — reproduction of "Fast Flooding over Manhattan" (PODC 2010).

A simulation and analysis library for MANET flooding under the Manhattan
Random Way-Point mobility model: the MRWP process with perfect stationary
simulation, the paper's closed-form distributions and bounds, the flooding
protocol and baselines, and the experiment harness regenerating the paper's
figure and validating every lemma and theorem empirically.

Two execution engines share one seed schedule and one implementation of
each protocol: the scalar :class:`~repro.simulation.engine.Simulation`
(one trial at a time, its protocols one-replica views of the batch
states) and the vectorized :class:`~repro.simulation.batch.BatchSimulation`
(``engine="batch"``), which advances every trial of a multi-trial run in
lock-step over a ``(B, n, 2)`` position tensor and reproduces the scalar
results trial-for-trial at fixed seeds.

Quickstart::

    from repro import standard_config, run_flooding, run_trials

    config = standard_config(n=2000, seed=7)
    result = run_flooding(config)
    print(result.flooding_time, "steps; bound", config.upper_bound())

    # Many trials, one vectorized pass (same results as engine="scalar"):
    results = run_trials(config.with_options(engine="batch"), 32)

See README.md for the full tour, DESIGN.md for the paper -> code map and
the batch-engine design, and EXPERIMENTS.md for the per-experiment
reproduction recipes.
"""

from repro.core import theory
from repro.core.cells import CellGrid
from repro.core.zones import ZonePartition
from repro.mobility import (
    BATCH_MOBILITY_REGISTRY,
    MODEL_REGISTRY,
    ManhattanRandomWaypoint,
    ManhattanRandomWaypointWithPause,
    RandomDirection,
    RandomSpeedManhattanWaypoint,
    RandomWalk,
    RandomWaypoint,
)
from repro.network import DiskGraph
from repro.protocols import (
    BATCH_PROTOCOL_REGISTRY,
    PROTOCOL_REGISTRY,
    FloodingProtocol,
    GossipProtocol,
    ParsimoniousFlooding,
    ProbabilisticFlooding,
    SIREpidemic,
)
from repro.simulation import (
    BatchSimulation,
    FloodingConfig,
    FloodingResult,
    SweepPlan,
    SweepPoint,
    SweepPointResult,
    run_flooding,
    run_protocol_batch,
    run_sweep,
    run_trials,
    standard_config,
    summarize,
)

__version__ = "0.10.0"

__all__ = [
    "__version__",
    "theory",
    "CellGrid",
    "ZonePartition",
    "ManhattanRandomWaypoint",
    "ManhattanRandomWaypointWithPause",
    "RandomSpeedManhattanWaypoint",
    "RandomWaypoint",
    "RandomWalk",
    "RandomDirection",
    "DiskGraph",
    "FloodingProtocol",
    "GossipProtocol",
    "ParsimoniousFlooding",
    "ProbabilisticFlooding",
    "SIREpidemic",
    "FloodingConfig",
    "FloodingResult",
    "BatchSimulation",
    "standard_config",
    "run_flooding",
    "run_protocol_batch",
    "PROTOCOL_REGISTRY",
    "BATCH_PROTOCOL_REGISTRY",
    "MODEL_REGISTRY",
    "BATCH_MOBILITY_REGISTRY",
    "run_trials",
    "SweepPlan",
    "SweepPoint",
    "SweepPointResult",
    "run_sweep",
    "summarize",
]
