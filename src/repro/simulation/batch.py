"""Batched trial execution: B independent protocol runs in lock-step.

The scalar :class:`~repro.simulation.engine.Simulation` advances one trial
at a time and pays the per-step Python overhead (mobility carry-over loop,
neighbor-index build, zone classification) once *per trial*.  The batch
engine advances ``B`` independent trials together over a ``(B, n, 2)``
position tensor, so every per-step cost is paid once per *batch*:

* mobility: :class:`~repro.mobility.base.BatchMobilityModel` implementations
  vectorize the kinematics across all replicas (flat ``(B * n, 2)`` state)
  — **every** model in :data:`~repro.mobility.MODEL_REGISTRY` is a
  one-replica view of its entry in
  :data:`~repro.mobility.BATCH_MOBILITY_REGISTRY`;
* communication: a :class:`~repro.protocols.base.BatchBroadcastState`
  answers every replica's neighbor queries with a single engine call
  via the tile-offset / cell-cover kernels of
  :class:`~repro.geometry.neighbors.BatchNeighborQuery` — **every**
  protocol in :data:`~repro.protocols.PROTOCOL_REGISTRY` is a one-replica
  view of its state in :data:`~repro.protocols.BATCH_PROTOCOL_REGISTRY`;
* zone tracking: one :func:`~repro.simulation.metrics.zones_left` call
  per step reads only the replicas that still have a zone open; on the
  compiled tier its ``zone_counts`` scan reads only their uninformed
  agents, until it has seen one in each open zone.

Reproducibility is the design constraint: each replica consumes randomness
only from its own spawned streams, in the scalar call order, so
:func:`run_protocol_batch` returns **exactly** the results of
:func:`~repro.simulation.runner.run_flooding` over the same seed sequences
(trial-for-trial, asserted by the parity tests — including the stochastic
protocols, whose per-replica generators draw in a fixed per-step order).  Replicas
retire individually — at completion *or* when the protocol reports it can
no longer progress (parsimonious window close, SIR die-out, crash-fault
starvation) — freezing their state and generators exactly where the scalar
loop would have stopped.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.flooding import build_zone_partition, select_source
from repro.kernels import CENTRAL_ZONE, SUBURB, kernel_tier_label, use_kernel_tier
from repro.mobility import BATCH_MOBILITY_REGISTRY, BatchMobilityModel
from repro.protocols import BATCH_PROTOCOL_REGISTRY
from repro.protocols.base import BatchBroadcastState
from repro.simulation.config import FloodingConfig
from repro.simulation.metrics import zones_left
from repro.simulation.results import FloodingResult
from repro.simulation.rng import child_seeds

__all__ = [
    "BatchSimulation",
    "build_batch_model",
    "build_batch_state",
    "run_protocol_batch",
]


def build_batch_model(config: FloodingConfig, rngs) -> BatchMobilityModel:
    """Instantiate the batch mobility model named by the configuration.

    The :data:`~repro.mobility.BATCH_MOBILITY_REGISTRY` entry, with the
    constructor arguments of
    :func:`~repro.simulation.runner.mobility_arguments`.

    Args:
        config: the experiment parameters.
        rngs: one mobility generator per trial (defines the batch size).
    """
    from repro.simulation.runner import mobility_arguments

    args, kwargs = mobility_arguments(config)
    cls = BATCH_MOBILITY_REGISTRY[config.mobility]
    return cls(config.n, config.side, *args, rngs=rngs, **kwargs)


def build_batch_state(config: FloodingConfig, sources, rngs) -> BatchBroadcastState:
    """Instantiate the batched protocol state named by the configuration.

    The batch counterpart of
    :func:`~repro.simulation.runner.build_protocol`: same option handling
    (flooding inherits ``config.multi_hop``), plus one protocol generator
    per replica for the stochastic draws.
    """
    if config.protocol not in BATCH_PROTOCOL_REGISTRY:
        raise ValueError(
            f"protocol {config.protocol!r} has no batched implementation; "
            f"supported: {sorted(BATCH_PROTOCOL_REGISTRY)} "
            f"(use engine='scalar' or engine='auto')"
        )
    cls = BATCH_PROTOCOL_REGISTRY[config.protocol]
    options = dict(config.protocol_options)
    if config.protocol == "flooding":
        options.setdefault("multi_hop", config.multi_hop)
    return cls(config.n, config.side, config.radius, sources, rngs=rngs, **options)


class BatchSimulation:
    """Drive ``B`` protocol replicas over a batch mobility process.

    The batch counterpart of :class:`~repro.simulation.engine.Simulation`:
    one :meth:`run` call advances every still-running replica per step and
    retires each replica at its own completion (or stall) step, so
    per-replica trajectories (step counts, coverage curves, zone completion
    times) match ``B`` independent scalar runs.

    Args:
        model: batch mobility model (owns the ``(B, n, 2)`` positions).
        protocol: batched informed state, sized for the same batch/agents.
        zones: optional :class:`~repro.core.zones.ZonePartition` — enables
            Central-Zone/Suburb completion tracking.

    Attributes:
        n_steps: ``(B,)`` steps actually simulated per replica.
        informed_counts_history: ``(T + 1, B)`` informed counts per step
            (row 0 is the initial state); replica ``b``'s scalar-equivalent
            coverage curve is the first ``n_steps[b] + 1`` rows of column
            ``b``.
        cz_completion_time / suburb_completion_time: ``(B,)`` first step at
            which every agent currently in the zone is informed (``inf`` if
            never; meaningful only when ``zones`` is set).  A replica
            watches a zone only until it completes, and only while the
            replica runs.
        source_in_central_zone: ``(B,)`` bool — zone of each replica's
            source at time 0 (only when ``zones`` is set).
    """

    def __init__(self, model: BatchMobilityModel, protocol: BatchBroadcastState, zones=None):
        if protocol.n != model.n:
            raise ValueError(
                f"protocol state is sized for {protocol.n} agents but the model has {model.n}"
            )
        if protocol.batch_size != model.batch_size:
            raise ValueError(
                f"protocol state has {protocol.batch_size} replicas "
                f"but the model has {model.batch_size}"
            )
        self.model = model
        self.protocol = protocol
        self.zones = zones
        batch = model.batch_size
        self.n_steps = np.zeros(batch, dtype=np.intp)
        self.informed_counts_history = None
        self.cz_completion_time = np.full(batch, np.inf)
        self.suburb_completion_time = np.full(batch, np.inf)
        self.source_in_central_zone = None

    def _record_zone_times(self, step: float, positions, open_zones) -> np.ndarray:
        """Set the completion time of every zone of ``open_zones`` that
        holds no uninformed agent at ``step``; returns those zone bits."""
        if not open_zones.any():
            return open_zones
        done = open_zones & ~zones_left(self.zones, positions, self.protocol.informed, open_zones)
        self.cz_completion_time[(done & CENTRAL_ZONE) != 0] = step
        self.suburb_completion_time[(done & SUBURB) != 0] = step
        return done

    def _active_mask(self) -> np.ndarray:
        """Replicas the scalar loop would still be stepping.

        :meth:`~repro.protocols.base.BatchBroadcastState.can_progress_mask`
        contractually excludes complete replicas, so it is the active mask.
        """
        return self.protocol.can_progress_mask()

    def run(self, max_steps: int, dt: float = 1.0) -> np.ndarray:
        """Simulate up to ``max_steps`` lock-steps.

        Each replica stops (freezes state and generators) at its own
        completion or stall step; the loop ends when every replica is done
        or the horizon is reached.

        Returns:
            ``(B,)`` number of steps actually simulated per replica.
        """
        if max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {max_steps}")
        batch = self.model.batch_size
        positions = self.model.positions_view
        counts = self.protocol.informed_counts
        if self.zones is not None:
            open_zones = np.full(batch, CENTRAL_ZONE | SUBURB, dtype=np.uint8)
            open_zones ^= self._record_zone_times(0.0, positions, open_zones)
            sources = positions[np.arange(batch), self.protocol.sources]
            self.source_in_central_zone = self.zones.in_central_zone(sources)
        counts_history = [counts]
        active = self._active_mask()
        step = 0
        while step < max_steps and active.any():
            step += 1
            positions = self.model.step(dt, active=active, copy=False)
            self.protocol.step(positions, active=active)
            counts = self.protocol.informed_counts
            counts_history.append(counts)
            self.n_steps[active] = step
            if self.zones is not None:
                # Completion times are first-hit records: a replica
                # watches only its open zones, and only while it runs.
                open_zones ^= self._record_zone_times(
                    float(step), positions, open_zones * active
                )
            # Retirement is monotone (a scalar loop never resumes after it
            # breaks), so the mask only ever shrinks.
            active &= self._active_mask()
        self.informed_counts_history = np.asarray(counts_history, dtype=np.intp)
        return self.n_steps.copy()


def run_protocol_batch(config: FloodingConfig, seed_seqs) -> list:
    """Execute one batch of protocol trials; one result per seed sequence.

    The batched equivalent of calling
    :func:`~repro.simulation.runner.run_flooding` once per element of
    ``seed_seqs`` — same per-trial seed derivation (the first three
    children of each sequence, via :func:`~repro.simulation.rng.child_seeds`,
    into mobility / protocol / source streams), same results, returned in
    order.
    Works for every protocol in
    :data:`~repro.protocols.BATCH_PROTOCOL_REGISTRY`.

    Args:
        config: the experiment parameters.
        seed_seqs: per-trial ``numpy.random.SeedSequence`` objects; their
            count defines the batch size.
    """
    seed_seqs = list(seed_seqs)
    if not seed_seqs:
        raise ValueError("seed_seqs must contain at least one seed sequence")

    batch = len(seed_seqs)
    mobility_rngs = []
    protocol_rngs = []
    source_rngs = []
    for seed_seq in seed_seqs:
        mobility_ss, protocol_ss, source_ss = child_seeds(seed_seq, 3)
        mobility_rngs.append(np.random.default_rng(mobility_ss))
        protocol_rngs.append(np.random.default_rng(protocol_ss))
        source_rngs.append(np.random.default_rng(source_ss))

    # The configured kernel tier is active from model construction (one
    # compiled Palm call draws every replica's stationary start) to the
    # end of the lock-step loop — bit-exact by contract, so the tier
    # changes speed, never results.
    with use_kernel_tier(config.kernels):
        model = build_batch_model(config, mobility_rngs)
        positions0 = model.positions
        sources = np.array(
            [
                select_source(positions0[b], config.side, config.source, source_rngs[b])
                for b in range(batch)
            ],
            dtype=np.intp,
        )
        state = build_batch_state(config, sources, protocol_rngs)
        zones = None
        if config.track_zones:
            zones = build_zone_partition(
                config.n, config.side, config.radius, config.threshold_factor
            )
        simulation = BatchSimulation(model, state, zones=zones)
        n_steps = simulation.run(config.max_steps)

    results = []
    complete = state.complete_mask()
    stalled = state.stalled_mask()
    counts = simulation.informed_counts_history
    extras = state.final_metrics(model.positions_view, zones)
    for b in range(batch):
        history = counts[: n_steps[b] + 1, b].copy()
        completed = bool(complete[b])
        if completed:
            hits = np.nonzero(history >= config.n)[0]
            # Fault models can complete without the counts reaching n
            # (crashed agents never get informed): the completion step is
            # then the replica's last simulated step, exactly as in the
            # scalar engine (which stops stepping once complete).
            flooding_time = float(hits[0]) if hits.size else float(n_steps[b])
        else:
            flooding_time = math.inf
        result = FloodingResult(
            flooding_time=flooding_time,
            completed=completed,
            stalled=bool(stalled[b]),
            n_steps=int(n_steps[b]),
            informed_history=history,
            source=int(sources[b]),
            final_coverage=float(history[-1]) / config.n,
            extras={
                "n_agents": config.n,
                "config": config,
                "kernel_tier": kernel_tier_label(config.kernels),
            },
        )
        result.extras.update(extras[b])
        if zones is not None:
            result.cz_completion_time = float(simulation.cz_completion_time[b])
            result.suburb_completion_time = float(simulation.suburb_completion_time[b])
            result.source_in_central_zone = bool(simulation.source_in_central_zone[b])
        results.append(result)
    return results
