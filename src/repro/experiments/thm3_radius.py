"""Theorem 3, radius sweep: flooding time is decreasing in ``R``.

With ``L = sqrt n`` and fixed speed, the bound ``O(L/R + S/v)`` falls as
``R`` grows (both terms: ``S ~ 1/R^2``).  The sweep measures mean flooding
time across radii, reports the bound alongside, and checks that the measured
series is (noise-tolerantly) decreasing and stays above the trivial
information-speed lower bound.

Runs through the sweep scheduler (``engine="auto"`` batch dispatch,
optional ``jobs=`` fan-out) with the same per-point seed schedule — and
therefore the same table — as the pre-scheduler loop.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import theory
from repro.experiments.base import ExperimentResult, ExperimentSpec, scale_params
from repro.simulation.config import FloodingConfig
from repro.simulation.sweep import SweepPlan

EXPERIMENT_ID = "thm3_radius"


def run(scale: str, seed: int, sweep) -> ExperimentResult:
    params = scale_params(
        scale,
        quick={"n": 2_000, "factors": [1.2, 1.6, 2.2, 3.0], "trials": 3},
        full={"n": 8_000, "factors": [1.2, 1.5, 2.0, 2.6, 3.4, 4.5, 6.0], "trials": 10},
    )
    n = params["n"]
    side = math.sqrt(n)
    speed = 0.25 * params["factors"][0] * math.sqrt(math.log(n))  # fixed across the sweep

    plan = SweepPlan()
    for k, factor in enumerate(params["factors"]):
        plan.add(
            FloodingConfig(
                n=n,
                side=side,
                radius=factor * math.sqrt(math.log(n)),
                speed=speed,
                max_steps=20_000,
                seed=seed + 1000 * k,
            ),
            params["trials"],
            key=factor,
        )
    points = sweep(plan)

    rows = []
    means = []
    for point in points:
        summary = point.summary
        radius = point.config.radius
        means.append(summary.mean)
        lower = theory.geometric_lower_bound(side, radius, speed)
        rows.append(
            [
                round(point.key, 2),
                round(radius, 2),
                round(summary.mean, 1),
                round(summary.minimum, 1),
                round(summary.maximum, 1),
                round(lower, 1),
                round(theory.cz_flooding_bound(side, radius), 1),
                summary.n_finite,
            ]
        )

    means_arr = np.asarray(means)
    decreasing = bool(np.all(means_arr[1:] <= means_arr[:-1] * 1.15))
    above_lower = all(
        row[2] >= theory.geometric_lower_bound(side, row[1], speed) * 0.5 for row in rows
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Flooding time vs transmission radius (Theorem 3)",
        paper_ref="Theorem 3",
        headers=[
            "radius factor",
            "R",
            "mean T_flood",
            "min",
            "max",
            "L/(R+2v) lower",
            "18 L/R (CZ bound)",
            "completed trials",
        ],
        rows=rows,
        notes=[
            f"n={n}, L={side:.1f}, v={speed:.3f} fixed across the sweep;",
            "Theorem 3 predicts a decreasing curve; 15% noise slack allowed.",
        ],
        passed=decreasing and above_lower,
    )


EXPERIMENT = ExperimentSpec(
    id=EXPERIMENT_ID,
    title="Flooding time vs transmission radius (Theorem 3)",
    paper_ref="Theorem 3",
    description="Radius sweep at fixed speed: flooding time decreasing in R.",
    runner=run,
)
