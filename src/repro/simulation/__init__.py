"""Simulation engine: configs, seeded runs, multi-trial aggregation.

Two execution engines share one seed schedule: the scalar
:class:`Simulation` (one trial at a time) and the vectorized
:class:`BatchSimulation` (``engine="batch"`` — B trials in lock-step,
identical results, much faster for multi-trial workloads).  Both run the
same protocol states, the scalar engine at B=1.
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
from repro.simulation.parallel import WorkerPool
from repro.simulation.results import FloodingResult, TrialSummary, summarize
from repro.simulation.rng import make_rng, spawn_rngs, spawn_seeds
from repro.simulation.runner import build_model, build_protocol, run_flooding, run_trials
from repro.simulation.sweep import (
    StoppingRule,
    SweepPlan,
    SweepPoint,
    SweepPointResult,
    run_sweep,
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
