"""Simulation engine: configs, seeded runs, multi-trial aggregation.

Two execution engines share one seed schedule: the scalar
:class:`Simulation` (the reference, one trial at a time) and the vectorized
:class:`BatchSimulation` (``engine="batch"`` — B trials in lock-step,
identical results, much faster for multi-trial workloads).
"""

from repro.simulation.batch import (
    BatchSimulation,
    build_batch_model,
    build_batch_state,
    run_protocol_batch,
)
from repro.simulation.config import FloodingConfig, standard_config
from repro.simulation.engine import Simulation
from repro.simulation.metrics import InformedRecorder, ZoneRecorder
from repro.simulation.checkpoint import (
    CheckpointError,
    SweepCheckpoint,
    config_fingerprint,
)
from repro.simulation.parallel import WorkerPool, run_trials_parallel, sweep_parallel
from repro.simulation.results import FloodingResult, TrialSummary, summarize
from repro.simulation.rng import make_rng, spawn_rngs, spawn_seeds
# NOTE: the sweep *module* import must precede the runner import — both
# bind the package attribute ``sweep`` (the submodule implicitly, the
# legacy aggregation function explicitly), and the function is the public
# API here.  Reach the module as ``repro.simulation.sweep`` via a direct
# ``from repro.simulation.sweep import ...`` (or sys.modules), never via
# the package attribute.
from repro.simulation.sweep import (
    StoppingRule,
    SweepPlan,
    SweepPoint,
    SweepPointResult,
    run_sweep,
)
from repro.simulation.runner import (
    build_model,
    build_protocol,
    run_flooding,
    run_trials,
    sweep,
)

__all__ = [
    "FloodingConfig",
    "standard_config",
    "Simulation",
    "BatchSimulation",
    "build_batch_model",
    "build_batch_state",
    "run_protocol_batch",
    "InformedRecorder",
    "ZoneRecorder",
    "FloodingResult",
    "TrialSummary",
    "summarize",
    "make_rng",
    "spawn_rngs",
    "spawn_seeds",
    "run_flooding",
    "run_trials",
    "run_trials_parallel",
    "sweep",
    "sweep_parallel",
    "StoppingRule",
    "SweepPlan",
    "SweepPoint",
    "SweepPointResult",
    "run_sweep",
    "SweepCheckpoint",
    "CheckpointError",
    "config_fingerprint",
    "WorkerPool",
    "build_model",
    "build_protocol",
]
