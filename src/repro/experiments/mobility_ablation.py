"""Mobility ablation: MRWP vs classic RWP vs uniform-density models.

The paper's earlier companions (refs [10, 11]) analyzed flooding under
random-walk mobility, whose stationary law is almost uniform.  Replaying
the same flooding workload under four mobility models isolates the effect
of MRWP's non-uniform density: the sparse Suburb should make MRWP the
slowest to finish (its stragglers wait for Lemma-16 meetings), while
uniform-density models have no corner penalty.

The five models are one sweep-scheduler plan; every arm (including the
``mrwp-speed`` random-speed variant, whose duration-biased stationary law
shares Theorem 1's geometry) has a native batch mobility implementation,
so ``engine="auto"`` runs the whole plan vectorized — results are
engine-identical either way.
"""

from __future__ import annotations

import math

from repro.experiments.base import ExperimentResult, ExperimentSpec, scale_params
from repro.simulation.config import FloodingConfig
from repro.simulation.sweep import SweepPlan

EXPERIMENT_ID = "mobility_ablation"

_MODELS = ["mrwp", "rwp", "mrwp-speed", "random-walk", "random-direction"]


def run(scale: str, seed: int, sweep) -> ExperimentResult:
    params = scale_params(
        scale,
        quick={"n": 2_000, "radius_factor": 1.3, "trials": 3},
        full={"n": 8_000, "radius_factor": 1.3, "trials": 10},
    )
    n = params["n"]
    side = math.sqrt(n)
    radius = params["radius_factor"] * math.sqrt(math.log(n))
    speed = 0.25 * radius

    plan = SweepPlan()
    for model_name in _MODELS:
        # mrwp-speed: a genuine per-trip speed range around v (its
        # stationary time-average speed is then slightly below v — the
        # duration bias the speed-decay experiment quantifies).
        options = (
            {"v_min": 0.5 * speed, "v_max": 1.5 * speed}
            if model_name == "mrwp-speed"
            else {}
        )
        plan.add(
            FloodingConfig(
                n=n,
                side=side,
                radius=radius,
                speed=speed,
                max_steps=30_000,
                mobility=model_name,
                mobility_options=options,
                seed=seed,
                track_zones=(model_name == "mrwp"),
            ),
            params["trials"],
            key=model_name,
        )
    points = sweep(plan)

    rows = []
    means = {}
    for point in points:
        summary = point.summary
        means[point.key] = summary.mean
        rows.append(
            [
                point.key,
                round(summary.mean, 1) if summary.n_finite else "never",
                round(summary.std, 1),
                round(summary.minimum, 1) if summary.n_finite else "-",
                round(summary.maximum, 1) if summary.n_finite else "-",
                summary.n_finite,
            ]
        )

    mrwp_slower_than_uniform = means["mrwp"] >= 0.8 * means["random-direction"]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Flooding time across mobility models",
        paper_ref="Section 1 / refs [10, 11]",
        headers=["mobility model", "mean T_flood", "std", "min", "max", "completed trials"],
        rows=rows,
        notes=[
            f"identical (n, L, R, v) = ({n}, {side:.1f}, {radius:.2f}, {speed:.3f});",
            "MRWP's corner Suburb is the structural difference vs the",
            "uniform-density models (random-walk, random-direction).",
        ],
        passed=mrwp_slower_than_uniform,
    )


EXPERIMENT = ExperimentSpec(
    id=EXPERIMENT_ID,
    title="Flooding time across mobility models",
    paper_ref="Section 1 / refs [10, 11]",
    description="Same flooding workload under MRWP, RWP, random-walk, random-direction.",
    runner=run,
)
