"""Extension: MRWP with pause times (the paper's Random-Trip direction).

Section 3: the authors "strongly believe" their technique extends to other
RWP/Random-Trip variants.  The simplest variant pauses agents at each
way-point; its stationary law is the closed-form mixture
``w * f_Thm1 + (1-w) * uniform`` with ``w = (2L/3v) / (2L/3v + pause)``.
We validate the mixture (TV distance, moving-fraction) and measure how
pausing slows flooding — agents resting in the Suburb neither fetch nor
ferry the message, so the Suburb tail should stretch with the pause.

The flooding measurement runs through the sweep scheduler (one multi-trial
point per pause value, config-driven ``mrwp-pause`` mobility) instead of
the earlier single hand-rolled run per pause, so the reported time is a
mean with an explicit completed-trials count.  Since PR 5 the pause model
is native in the batch engine
(:class:`~repro.mobility.pause.BatchManhattanRandomWaypointWithPause`),
so ``engine="auto"`` advances the whole pause grid in lock-step.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.empirical import (
    analytic_cell_probabilities,
    histogram_density,
    total_variation,
)
from repro.experiments.base import ExperimentResult, ExperimentSpec, scale_params
from repro.mobility.pause import (
    ManhattanRandomWaypointWithPause,
    moving_probability,
    spatial_pdf_with_pause,
)
from repro.simulation.config import FloodingConfig
from repro.simulation.sweep import SweepPlan

EXPERIMENT_ID = "pause_extension"
SIDE = 45.0


def run(scale: str, seed: int, sweep) -> ExperimentResult:
    params = scale_params(
        scale,
        quick={"agents": 20_000, "flood_n": 2_000, "pauses": [0.0, 10.0, 40.0], "steps": 15,
               "trials": 16},
        full={"agents": 80_000, "flood_n": 8_000, "pauses": [0.0, 5.0, 20.0, 80.0], "steps": 60,
              "trials": 4},
    )
    speed = 0.02 * SIDE

    # Flooding under pause (same network parameters as quickstart scale):
    # one sweep-scheduler point per pause value.  Since PR 5 the pause
    # model is native in the batch engine, so the trial count is set where
    # the mean is stable — the whole grid advances in lock-step either way.
    flood_n = params["flood_n"]
    flood_side = math.sqrt(flood_n)
    flood_radius = 1.4 * math.sqrt(math.log(flood_n))
    plan = SweepPlan()
    for k, pause in enumerate(params["pauses"]):
        plan.add(
            FloodingConfig(
                n=flood_n,
                side=flood_side,
                radius=flood_radius,
                speed=0.25 * flood_radius,
                max_steps=20_000,
                mobility="mrwp-pause",
                mobility_options={"pause_time": pause},
                seed=seed + 100 + k,
                track_zones=False,
            ),
            params["trials"],
            key=pause,
        )
    flood_points = {p.key: p for p in sweep(plan)}

    bins = 10
    rows = []
    checks = []
    flood_times = []
    for k, pause in enumerate(params["pauses"]):
        model = ManhattanRandomWaypointWithPause(
            params["agents"], SIDE, speed, pause_time=pause,
            rng=np.random.default_rng(seed + k),
        )
        model.advance(params["steps"])
        w = moving_probability(SIDE, speed, pause)
        empirical = histogram_density(model.positions, SIDE, bins) * (SIDE / bins) ** 2
        analytic = analytic_cell_probabilities(
            lambda x, y: spatial_pdf_with_pause(x, y, SIDE, speed, pause), SIDE, bins
        )
        tv = total_variation(empirical, analytic)
        noise = 0.5 * float(
            np.sum(np.sqrt(2 * analytic * (1 - analytic) / (np.pi * params["agents"])))
        )
        moving = model.moving_fraction

        point = flood_points[pause]
        # Points where no trial finished compare as "maximally slow".
        t_flood = point.summary.mean if point.summary.n_finite else math.inf
        flood_times.append(t_flood)

        ok = tv <= 3.0 * noise and abs(moving - w) <= 0.02
        checks.append(ok)
        rows.append(
            [
                pause,
                round(w, 3),
                round(moving, 3),
                round(tv, 4),
                round(noise, 4),
                round(t_flood, 0) if math.isfinite(t_flood) else "never",
                point.completion_label,
                "ok" if ok else "off",
            ]
        )

    slows_down = flood_times[-1] >= flood_times[0]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="MRWP with pause times (Random-Trip extension)",
        paper_ref="Section 3 closing remark / refs [21, 22, 23]",
        headers=[
            "pause time",
            "analytic moving prob w",
            "measured moving fraction",
            "TV vs mixture pdf",
            "noise floor",
            "mean flooding time",
            "completed trials",
            "verdict",
        ],
        rows=rows,
        notes=[
            "stationary law of pause-MRWP: w * Thm1 + (1-w) * uniform — validated",
            "by perfect simulation + stepping; pausing dilutes the mobile relays,",
            "so flooding slows as the pause grows.",
        ],
        passed=all(checks) and slows_down,
    )


EXPERIMENT = ExperimentSpec(
    id=EXPERIMENT_ID,
    title="MRWP with pause times (Random-Trip extension)",
    paper_ref="Section 3 closing remark / refs [21, 22, 23]",
    description="Closed-form mixture law of pause-MRWP and its flooding-time cost.",
    runner=run,
)
