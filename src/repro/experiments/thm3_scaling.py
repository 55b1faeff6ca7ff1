"""Theorem 3, scaling in ``n``: the canonical ``L = sqrt n`` regime.

With ``R = c sqrt(log n)`` and ``v = Theta(R)``, the bound's dominant term
is ``L/R = sqrt(n / log n) / c`` — flooding time grows like ``~ n^(1/2)``
up to the log factor.  The sweep fits a power law to measured flooding
times across ``n`` and checks the exponent lands near 1/2.

The grid runs through the sweep scheduler
(:func:`repro.simulation.sweep.run_sweep`): one plan, every point batched
through ``engine="auto"`` by default, optional ``jobs=`` process fan-out —
same seed schedule (and therefore the same table) as the pre-scheduler
point-by-point loop.
"""

from __future__ import annotations

from repro.analysis.scaling import fit_power_law
from repro.experiments.base import (
    ExperimentResult,
    ExperimentSpec,
    adaptive_note,
    scale_params,
)
from repro.simulation.config import standard_config
from repro.simulation.sweep import SweepPlan, run_sweep

EXPERIMENT_ID = "thm3_scaling"


def run(
    scale: str = "quick",
    seed: int = 0,
    engine: str | None = None,
    jobs: int = 1,
    stopping=None,
    checkpoint: str | None = None,
    resume: bool = False,
    max_retries: int | None = None,
) -> ExperimentResult:
    params = scale_params(
        scale,
        quick={"ns": [500, 1_000, 2_000, 4_000], "trials": 3, "radius_factor": 1.3},
        full={"ns": [500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000], "trials": 8,
              "radius_factor": 1.3},
    )
    plan = SweepPlan()
    for k, n in enumerate(params["ns"]):
        plan.add(
            standard_config(
                n,
                radius_factor=params["radius_factor"],
                speed_fraction=0.25,
                max_steps=30_000,
                seed=seed + 1000 * k,
            ),
            params["trials"],
            key=n,
        )
    points = run_sweep(
        plan,
        engine=engine or "auto",
        jobs=jobs,
        stopping=stopping,
        checkpoint=checkpoint,
        resume=resume,
        max_retries=max_retries,
    )

    rows = []
    ns = []
    means = []
    for point in points:
        summary = point.summary
        ns.append(point.key)
        means.append(summary.mean)
        predicted = point.config.side / point.config.radius
        rows.append(
            [
                point.key,
                round(point.config.side, 1),
                round(point.config.radius, 2),
                round(summary.mean, 1),
                round(summary.std, 1),
                round(predicted, 1),
                round(summary.mean / predicted, 2),
                summary.n_finite,
            ]
        )

    fit = fit_power_law(ns, means)
    theory_exponent = 0.5  # L/R = sqrt(n/log n)/c: exponent 1/2 minus a log drag
    passed = fit.r2 >= 0.9 and 0.25 <= fit.exponent <= 0.7
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Flooding-time scaling in n (Theorem 3, L = sqrt n)",
        paper_ref="Theorem 3",
        headers=[
            "n",
            "L",
            "R",
            "mean T_flood",
            "std",
            "L/R",
            "T / (L/R)",
            "completed trials",
        ],
        rows=rows,
        notes=[
            f"power-law fit: T ~ {fit.amplitude:.2f} * n^{fit.exponent:.3f} (R^2 = {fit.r2:.4f});",
            f"theory predicts exponent ~{theory_exponent} (sqrt(n/log n) has effective "
            "slope slightly below 1/2 over this range);",
            "T / (L/R) staying bounded is the bound-tightness signal.",
        ]
        + ([adaptive_note(points, plan)] if stopping is not None else []),
        passed=passed,
    )


EXPERIMENT = ExperimentSpec(
    id=EXPERIMENT_ID,
    title="Flooding-time scaling in n (Theorem 3, L = sqrt n)",
    paper_ref="Theorem 3",
    description="Power-law fit of flooding time vs n in the canonical scaling.",
    runner=run,
)
