"""Corollary 12: above the large-radius threshold, flooding ends in ``18 L/R``.

For ``R >= (1+sqrt5)/2 * L * (3 log n / n)^(1/3)`` the Suburb is empty and
flooding completes within ``18 L / R`` steps w.h.p.  We verify both facts:
the Definition-4 partition has no Suburb cells, and measured flooding times
over independent trials sit below the bound.  Each ``n`` is one point of a
sweep-scheduler plan (``engine="auto"``, which runs it on the batch
engine).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import theory
from repro.core.flooding import build_zone_partition
from repro.experiments.base import ExperimentResult, ExperimentSpec, scale_params
from repro.simulation.config import FloodingConfig
from repro.simulation.sweep import SweepPlan

EXPERIMENT_ID = "cor12_large_r"


def run(scale: str, seed: int, sweep) -> ExperimentResult:
    params = scale_params(
        scale,
        quick={"ns": [1_000, 4_000], "trials": 3},
        full={"ns": [1_000, 4_000, 16_000], "trials": 10},
    )
    plan = SweepPlan()
    for n in params["ns"]:
        side = math.sqrt(n)
        radius = 1.05 * theory.large_radius_threshold(n, side)
        plan.add(
            FloodingConfig(
                n=n,
                side=side,
                radius=radius,
                speed=theory.speed_assumption_max(radius),
                max_steps=int(4 * theory.cz_flooding_bound(side, radius)) + 50,
                seed=seed + n,
            ),
            params["trials"],
            key=n,
        )

    rows = []
    checks = []
    for point in sweep(plan):
        n, side, radius = point.key, point.config.side, point.config.radius
        zones = build_zone_partition(n, side, radius)
        suburb_cells = zones.n_suburb_cells if zones is not None else 0
        bound = theory.cz_flooding_bound(side, radius)
        times = [r.flooding_time for r in point.results]
        worst = max(times)
        ok = suburb_cells == 0 and all(np.isfinite(times)) and worst <= bound
        checks.append(ok)
        rows.append(
            [
                n,
                round(radius, 2),
                suburb_cells,
                round(point.summary.mean, 2),
                worst,
                round(bound, 2),
                "ok" if ok else "VIOLATED",
            ]
        )

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Large-radius flooding within 18 L/R (Corollary 12)",
        paper_ref="Corollary 12 / Theorem 10",
        headers=[
            "n",
            "R (1.05x threshold)",
            "suburb cells",
            "mean flooding time",
            "worst flooding time",
            "18 L/R bound",
            "verdict",
        ],
        rows=rows,
        notes=["radius set 5% above Cor. 12's threshold; Suburb must be empty."],
        passed=all(checks),
    )


EXPERIMENT = ExperimentSpec(
    id=EXPERIMENT_ID,
    title="Large-radius flooding within 18 L/R (Corollary 12)",
    paper_ref="Corollary 12 / Theorem 10",
    description="Empty Suburb and measured flooding times under the 18 L/R bound.",
    runner=run,
)
