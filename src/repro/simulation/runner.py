"""Single-run and multi-trial flooding drivers.

:func:`run_flooding` executes one fully-specified
:class:`~repro.simulation.config.FloodingConfig` and returns a
:class:`~repro.simulation.results.FloodingResult`.  :func:`run_trials`
repeats it over independent seeds as a one-point sweep of the sweep
scheduler (:func:`repro.simulation.sweep.run_sweep`), the one multi-trial
executor behind every flooding experiment and benchmark.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.flooding import build_zone_partition, select_source
from repro.kernels import kernel_tier_label, use_kernel_tier
from repro.mobility import MODEL_REGISTRY, NO_INIT_MODELS
from repro.protocols import PROTOCOL_REGISTRY, FloodingProtocol
from repro.simulation.config import FloodingConfig
from repro.simulation.engine import Simulation
from repro.simulation.metrics import InformedRecorder, ZoneRecorder
from repro.simulation.results import FloodingResult
from repro.simulation.rng import child_seeds

__all__ = [
    "run_flooding",
    "run_trials",
    "build_model",
    "build_protocol",
    "mobility_arguments",
]

#: Models whose constructors take no ``init`` argument (their stationary
#: law needs no warm-up state beyond uniform positions).  The canonical
#: set lives in :data:`repro.mobility.NO_INIT_MODELS` so the config layer
#: can reject ``init=`` for these models at construction time instead of
#: this module silently dropping it.
_NO_INIT_MODELS = NO_INIT_MODELS


def mobility_arguments(config: FloodingConfig) -> tuple:
    """Constructor arguments shared by the scalar and batch model builders.

    The single place config fields map onto per-model constructor
    signatures (speed vs ``move_radius``, ``init`` vocabulary, option
    defaults).  Returns ``(args, kwargs)`` such that
    ``ModelClass(config.n, config.side, *args, rng=rng, **kwargs)`` builds
    the scalar model and the registered batch class accepts the same call
    with ``rngs=`` — which is what keeps
    :func:`~repro.simulation.batch.build_batch_model` a registry lookup
    instead of a second if/elif chain.

    ``config.init`` is validated at ``FloodingConfig`` construction;
    models with a narrower init vocabulary (rwp / mrwp-pause / mrwp-speed
    reject ``"closed-form"``) raise their own ValueError rather than being
    silently coerced.
    """
    name = config.mobility
    options = dict(config.mobility_options)
    if name == "random-walk":
        return (), {"move_radius": config.speed, **options}
    if name == "mrwp-pause":
        options.setdefault("pause_time", 0.0)
    elif name == "mrwp-speed":
        # Degenerate default: a constant-speed trip law at config.speed.
        options.setdefault("v_min", config.speed)
        options.setdefault("v_max", config.speed)
        return (), {"init": config.init, **options}
    if name in _NO_INIT_MODELS:
        return (config.speed,), options
    return (config.speed,), {"init": config.init, **options}


def build_model(config: FloodingConfig, rng: np.random.Generator):
    """Instantiate the mobility model named by the configuration."""
    if config.mobility not in MODEL_REGISTRY:
        raise ValueError(f"unknown mobility model {config.mobility!r}")
    args, kwargs = mobility_arguments(config)
    return MODEL_REGISTRY[config.mobility](config.n, config.side, *args, rng=rng, **kwargs)


def build_protocol(config: FloodingConfig, source: int, rng: np.random.Generator):
    """Instantiate the protocol named by the configuration."""
    if config.protocol not in PROTOCOL_REGISTRY:
        raise ValueError(f"unknown protocol {config.protocol!r}")
    cls = PROTOCOL_REGISTRY[config.protocol]
    options = dict(config.protocol_options)
    if cls is FloodingProtocol:
        options.setdefault("multi_hop", config.multi_hop)
    return cls(config.n, config.side, config.radius, source, rng=rng, **options)


def run_flooding(
    config: FloodingConfig,
    seed_seq: np.random.SeedSequence = None,
    extra_observers=None,
) -> FloodingResult:
    """Execute one flooding run.

    Args:
        config: the experiment parameters.
        seed_seq: optional externally supplied seed sequence (used by
            :func:`run_trials`); defaults to ``SeedSequence(config.seed)``.
        extra_observers: optional additional simulation observers (the
            :class:`~repro.simulation.engine.Simulation` observer
            protocol), appended after the built-in recorders and returned
            on ``result.extras["observers"]`` — the sweep scheduler's
            per-trial instrumentation hook.
    """
    root = seed_seq if seed_seq is not None else np.random.SeedSequence(config.seed)
    mobility_ss, protocol_ss, source_ss = child_seeds(root, 3)
    # The configured kernel tier is active from model construction (the
    # compiled Palm sampler draws the stationary start) to the end of the
    # simulation loop, and is bit-exact by contract — the tier changes
    # speed, never results.
    with use_kernel_tier(config.kernels):
        model = build_model(config, np.random.default_rng(mobility_ss))
        positions = model.positions
        source = select_source(
            positions, config.side, config.source, np.random.default_rng(source_ss)
        )
        protocol = build_protocol(config, source, np.random.default_rng(protocol_ss))

        observers = [InformedRecorder()]
        zones = None
        if config.track_zones:
            zones = build_zone_partition(
                config.n, config.side, config.radius, config.threshold_factor
            )
            if zones is not None:
                observers.append(ZoneRecorder(zones))
        extra = list(extra_observers) if extra_observers else []
        observers.extend(extra)

        simulation = Simulation(model, protocol, observers)
        n_steps = simulation.run(config.max_steps)

    informed_recorder = observers[0]
    history = informed_recorder.informed_history()
    completed = protocol.is_complete()
    if completed:
        hits = np.nonzero(history >= config.n)[0]
        # Fault models can complete without the counts reaching n (crashed
        # agents never get informed): the completion step is then the last
        # simulated step — the engine stops stepping once complete.
        flooding_time = float(hits[0]) if hits.size else float(n_steps)
    else:
        flooding_time = math.inf
    stalled = not completed and not protocol.can_progress()

    result = FloodingResult(
        flooding_time=flooding_time,
        completed=completed,
        stalled=stalled,
        n_steps=n_steps,
        informed_history=history,
        source=source,
        final_coverage=protocol.informed_count / config.n,
        extras={
            "n_agents": config.n,
            "config": config,
            "kernel_tier": kernel_tier_label(config.kernels),
        },
    )
    if extra:
        result.extras["observers"] = extra
    result.extras.update(protocol.final_metrics(model.positions, zones))
    if zones is not None:
        zone_recorder = observers[1]
        result.cz_completion_time = zone_recorder.cz_completion_time
        result.suburb_completion_time = zone_recorder.suburb_completion_time
        result.source_in_central_zone = bool(zones.in_central_zone(positions[source:source + 1])[0])
    return result


def run_trials(config: FloodingConfig, n_trials: int, stopping=None) -> list:
    """Run ``n_trials`` independent repetitions of a configuration.

    Trials derive their randomness from ``SeedSequence(config.seed)``; two
    calls with the same configuration produce identical results.  With
    ``engine="batch"`` (or ``engine="auto"`` resolving to it) the trials
    are advanced in lock-step by
    :class:`~repro.simulation.batch.BatchSimulation` (in slices of
    ``config.batch_size`` trials, all at once when 0) — same seed schedule,
    same results, one vectorized pass instead of a Python loop, for every
    protocol in :data:`~repro.protocols.BATCH_PROTOCOL_REGISTRY`.

    A one-point :func:`~repro.simulation.sweep.run_sweep`; use it directly
    for several configurations, process fan-out (``jobs=``) or
    checkpoints.

    Args:
        n_trials: a positive integer.
        stopping: optional
            :class:`~repro.simulation.sweep.StoppingRule` — run trials
            sequentially and stop once the rule fires, treating
            ``n_trials`` as the fixed budget the rule's bounds resolve
            against.  The result is a bit-exact prefix of the fixed run.
    """
    from repro.simulation.sweep import SweepPoint, run_sweep

    return run_sweep([SweepPoint(config, n_trials, stopping=stopping)])[0].results
