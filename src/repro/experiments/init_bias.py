"""Perfect-simulation ablation: stationary start vs uniform cold start.

Why bother with Palm-calculus initialization?  Because a uniform cold start
is *biased*: the paper's analysis assumes the stationary phase, and the
MRWP process takes many steps to mix from uniform into Theorem 1's law.
We track the TV distance to the closed form over time from both starts —
the stationary start sits at the noise floor from step 0, the uniform
start decays toward it — and compare the flooding times measured under
each (the cold start's extra corner mass makes the Suburb artificially
easy early on).
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.validation import spatial_distribution_tv
from repro.experiments.base import ExperimentResult, ExperimentSpec, scale_params
from repro.mobility.mrwp import ManhattanRandomWaypoint
from repro.simulation.config import FloodingConfig
from repro.simulation.sweep import SweepPlan

EXPERIMENT_ID = "init_bias"


def run(scale: str, seed: int, sweep) -> ExperimentResult:
    params = scale_params(
        scale,
        quick={"agents": 8_000, "checkpoints": [0, 5, 20, 60], "n": 2_000, "trials": 3},
        full={"agents": 40_000, "checkpoints": [0, 5, 20, 60, 150, 400], "n": 8_000, "trials": 8},
    )
    side = 50.0
    agents = params["agents"]
    speed = 0.02 * side
    bins = 10

    rows = []
    tv_by_init = {}
    for init in ("stationary", "uniform"):
        model = ManhattanRandomWaypoint(
            agents, side, speed, rng=np.random.default_rng(seed), init=init
        )
        tv_series = []
        step = 0
        for checkpoint in params["checkpoints"]:
            while step < checkpoint:
                model.step()
                step += 1
            tv_series.append(spatial_distribution_tv(model.positions, side, bins))
        tv_by_init[init] = tv_series
    for k, checkpoint in enumerate(params["checkpoints"]):
        rows.append(
            [
                checkpoint,
                round(tv_by_init["stationary"][k], 4),
                round(tv_by_init["uniform"][k], 4),
            ]
        )

    # Flooding-time bias of the cold start, via the sweep scheduler (both
    # init modes in one plan, batched through engine="auto" by default).
    n = params["n"]
    plan = SweepPlan()
    for init in ("stationary", "uniform"):
        plan.add(
            FloodingConfig(
                n=n,
                side=math.sqrt(n),
                radius=1.3 * math.sqrt(math.log(n)),
                speed=0.25 * 1.3 * math.sqrt(math.log(n)),
                max_steps=30_000,
                init=init,
                seed=seed,
            ),
            params["trials"],
            key=init,
        )
    flood_rows = []
    flood_means = {}
    for point in sweep(plan):
        flood_means[point.key] = point.summary.mean
        flood_rows.append(f"flooding time from {point.key} start: {point.summary.mean:.1f}")

    stationary_flat = (
        tv_by_init["stationary"][0] <= 2.5 * min(tv_by_init["stationary"])
    )
    uniform_decays = tv_by_init["uniform"][0] > tv_by_init["uniform"][-1]
    uniform_starts_biased = tv_by_init["uniform"][0] > 2.0 * tv_by_init["stationary"][0]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Stationary vs uniform initialization (perfect-simulation ablation)",
        paper_ref="Section 2 / refs [6, 21, 22]",
        headers=["step", "TV (stationary start)", "TV (uniform cold start)"],
        rows=rows,
        notes=flood_rows
        + [
            "stationary start sits at the sampling-noise floor from step 0;",
            "the cold start's TV decays as the process mixes toward Theorem 1.",
        ],
        passed=stationary_flat and uniform_decays and uniform_starts_biased,
    )


EXPERIMENT = ExperimentSpec(
    id=EXPERIMENT_ID,
    title="Stationary vs uniform initialization (perfect-simulation ablation)",
    paper_ref="Section 2 / refs [6, 21, 22]",
    description="TV-to-stationary over time and flooding-time bias of cold starts.",
    runner=run,
)
