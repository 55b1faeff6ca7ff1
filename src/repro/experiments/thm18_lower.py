"""Theorem 18: the lower bound ``Omega(L / (v n^(1/3)))``.

The construction: with ``d = Theta(L / n^(1/3))`` and ``R <= d``, the event
*B* = "some agent sits in the corner square ``F`` (side ``d``) while the
annulus ``E - F`` (outer side ``3d``) is empty" has constant probability;
conditioned on *B*, the trapped agent cannot be informed before
``(2d - R) / (2v)`` steps.

Two measurements:

1. the probability of *B* under stationary sampling (the ``Theta(1)`` claim);
2. conditioned trials (state constructed to realize *B*): the step at which
   the trapped agent is informed, against the bound — a deterministic
   geometric fact the simulator must respect, and its ``1/v`` scaling.

The conditioned trials of each speed fraction advance in lock-step as
replicas of one :class:`~repro.mobility.mrwp.BatchManhattanRandomWaypoint`
+ :class:`~repro.protocols.flooding.BatchFloodingState` pair, retiring a
replica the round its trapped agent is informed; ``jobs > 1`` fans the
fractions over a crash-surviving
:class:`~repro.simulation.parallel.WorkerPool`.  Per-trial seeding
(``default_rng([seed, trial, fraction])``) makes every job count produce
the identical table.  The stationary draws and the conditioned floods run
on the ``"auto"`` kernel tier, which changes speed, never results.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import theory
from repro.experiments.base import ExperimentResult, ExperimentSpec, scale_params
from repro.kernels import use_kernel_tier
from repro.mobility.mrwp import BatchManhattanRandomWaypoint
from repro.mobility.stationary import PalmStationarySampler
from repro.protocols.flooding import BatchFloodingState
from repro.simulation.parallel import WorkerPool

EXPERIMENT_ID = "thm18_lower"


def _event_probability(n: int, side: float, d: float, sampler, rng, trials: int) -> float:
    """Empirical probability of event B over stationary snapshots."""
    hits = 0
    for _ in range(trials):
        positions = sampler.sample(n, rng).positions
        in_f = np.all(positions <= d, axis=1)
        in_e = np.all(positions <= 3.0 * d, axis=1)
        if np.any(in_f) and not np.any(in_e & ~in_f):
            hits += 1
    return hits / trials


def _conditioned_state(n: int, side: float, d: float, sampler, rng):
    """A stationary state conditioned on event B.

    Agent 0 is resampled until it falls in F; all others until they fall
    outside E.  Per-agent rejection keeps each agent's marginal equal to the
    stationary law conditioned on its region.
    """
    state = sampler.sample(n, rng)
    # F holds about 3/n of the stationary mass (3 d^3 / L^3 with
    # d = L / n^(1/3)), so 100 n redraws all miss with probability about
    # e^-300; a fixed 10,000 missed about once in 40 states at n = 8000.
    for _ in range(100 * n):
        pos0 = state.positions[0]
        if pos0[0] <= d and pos0[1] <= d:
            break
        replacement = sampler.sample(1, rng)
        state.positions[0] = replacement.positions[0]
        state.destinations[0] = replacement.destinations[0]
        state.targets[0] = replacement.targets[0]
        state.on_second_leg[0] = replacement.on_second_leg[0]
    else:  # pragma: no cover - astronomically unlikely
        raise RuntimeError("failed to place the trapped agent in F")
    for _ in range(10_000):
        in_e = np.all(state.positions[1:] <= 3.0 * d, axis=1)
        bad = np.nonzero(in_e)[0] + 1
        if bad.size == 0:
            break
        replacement = sampler.sample(bad.size, rng)
        state.positions[bad] = replacement.positions
        state.destinations[bad] = replacement.destinations
        state.targets[bad] = replacement.targets
        state.on_second_leg[bad] = replacement.on_second_leg
    else:  # pragma: no cover
        raise RuntimeError("failed to empty the annulus E - F")
    return state


def _fraction_trials(args) -> list:
    """Picklable per-fraction job: informed steps of all conditioned trials.

    RNG discipline: each trial's generator is seeded
    ``[seed, trial, int(1e6 * fraction)]`` and consumed in one-trial
    order — conditioned-state construction first, then per-step mobility
    redraws.  Flooding draws nothing, and the batch mobility model replays
    each replica's one-trial draw sequence (retired replicas frozen), so
    each trial's step equals that of a one-trial loop over
    ``ManhattanRandomWaypoint`` and ``FloodingProtocol`` on its generator.
    """
    n, side, d, radius, fraction, speed, bound, trials, seed = args
    sampler = PalmStationarySampler(side)
    max_steps = int(8 * bound) + 200
    trial_rngs = [
        np.random.default_rng([seed, trial, int(1e6 * fraction)]) for trial in range(trials)
    ]
    # A pool worker does not inherit the caller's tier: pick it here.
    with use_kernel_tier("auto"):
        states = [_conditioned_state(n, side, d, sampler, rng) for rng in trial_rngs]
        # Source: the agent farthest (Chebyshev) from the corner.
        sources = [int(np.argmax(np.max(state.positions, axis=1))) for state in states]

        model = BatchManhattanRandomWaypoint(n, side, speed, rngs=trial_rngs, init=states)
        protocol = BatchFloodingState(n, side, radius, sources)
        active = np.ones(trials, dtype=bool)
        informed_step = np.full(trials, math.inf)
        for step in range(1, max_steps + 1):
            if not active.any():
                break
            positions = model.step(active=active, copy=False)
            protocol.step(positions, active=active)
            done = active & protocol.informed[:, 0]
            informed_step[done] = step
            active &= ~done
    return informed_step.tolist()


def run(scale: str = "quick", seed: int = 0, jobs: int = 1) -> ExperimentResult:
    params = scale_params(
        scale,
        quick={"n": 1_000, "fractions": [0.1, 0.05], "prob_trials": 800, "trials": 3},
        full={"n": 8_000, "fractions": [0.2, 0.1, 0.05, 0.025], "prob_trials": 4_000, "trials": 6},
    )
    n = params["n"]
    side = math.sqrt(n)
    d = side / n ** (1.0 / 3.0)
    radius = 0.9 * d
    sampler = PalmStationarySampler(side)
    rng = np.random.default_rng(seed)

    # Event B's probability is Theta(1) only for a tuned constant in
    # d_B = c L / n^(1/3): near the corner the spatial mass of [0, s]^2 is
    # ~ 3 s^3 / L^3, so P(B) ~ 3c^3 exp(-78 c^3), maximized around
    # c = 0.234 at P(B) ~ 1.4% — constant in n, but small.
    d_b = 0.234 * side / n ** (1.0 / 3.0)
    # The tier a flooding config's default kernels="auto" would pick: the
    # compiled Palm sampler when a provider builds.
    with use_kernel_tier("auto"):
        prob_b = _event_probability(n, side, d_b, sampler, rng, params["prob_trials"])

    fraction_jobs = []
    for fraction in params["fractions"]:
        speed = fraction * radius
        bound = theory.flooding_lower_bound(n, side, radius, speed, d_constant=1.0)
        fraction_jobs.append(
            (n, side, d, radius, fraction, speed, bound, params["trials"], seed)
        )
    with WorkerPool(max_workers=jobs or 1) as pool:
        per_fraction_steps = pool.map(
            _fraction_trials,
            fraction_jobs,
            labels=[f"v/R={job[4]}" for job in fraction_jobs],
        )

    rows = []
    checks = []
    for job, informed_steps in zip(fraction_jobs, per_fraction_steps):
        _n, _side, _d, _radius, fraction, speed, bound, *_rest = job
        finite = [s for s in informed_steps if math.isfinite(s)]
        min_step = min(informed_steps)
        ok = min_step >= bound
        checks.append(ok)
        rows.append(
            [
                round(fraction, 3),
                round(speed, 4),
                round(bound, 1),
                round(min_step, 1) if math.isfinite(min_step) else "never",
                round(float(np.mean(finite)), 1) if finite else "never",
                "ok" if ok else "VIOLATED",
            ]
        )

    notes = [
        f"d = L/n^(1/3) = {d:.2f}, R = 0.9 d = {radius:.2f} (conditioned trials);",
        f"P(event B) at d_B = 0.234 L/n^(1/3): {prob_b:.4f} over "
        f"{params['prob_trials']} stationary snapshots (theory ~0.014, Theta(1) in n);",
        "conditioned trials must respect the kinematic bound (2d - R)/(2v).",
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Lower-bound construction (Theorem 18)",
        paper_ref="Theorem 18",
        headers=[
            "v / R",
            "v",
            "(2d-R)/(2v) bound",
            "earliest trapped-agent informed step",
            "mean informed step",
            "verdict",
        ],
        rows=rows,
        notes=notes,
        passed=all(checks) and prob_b > 0.0,
    )


EXPERIMENT = ExperimentSpec(
    id=EXPERIMENT_ID,
    title="Lower-bound construction (Theorem 18)",
    paper_ref="Theorem 18",
    description="Event-B probability and conditioned trapped-agent informing times vs the bound.",
    runner=run,
)
